"""One failure path: every malformed input or flag leaves `cli.main` as one
`error:` line on stderr and a documented exit code, never as a traceback."""

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emgforge import cli
from emgforge.config import RunConfig
from emgforge.model import load_weights, save_weights

TINY_CONFIG = """
[model]
kernel_size = 2
num_blocks = 2
residual_channels = 4
skip_channels = 4
context_window = 2

[train]
batch_size = 4
crop_length = 256
max_epochs = 1
"""

EXIT_CODES = {0, 2, 3, 4, 5}

SIDECAR = b'{"subject": "s01", "motion": "bicep_curl", "day": 1, "fs": 1000.0}'


def run_cli(*argv) -> tuple[int, str]:
    """In-process `emgforge <argv>`: its exit code and stderr, stdout discarded.

    argparse's own usage error leaves `main` as `SystemExit(2)`; any other
    exception propagates to the caller.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def assert_one_error(rc: int, err: str, code: int, *words: str) -> None:
    assert rc == code, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for word in words:
        assert word in lines[0]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Two short bicep-curl sessions, a tiny config, and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("cli_errors")
    rc, err = run_cli("synth-data", "--out", root / "data", "--reps", "2", "--sessions", "2",
                      "--seed", "5")
    assert rc == 0, err
    config = root / "tiny.ini"
    config.write_text(TINY_CONFIG)
    rc, err = run_cli("train", "--data", root / "data", "--out", root / "run" / "m.ckpt",
                      "--config", config)
    assert rc == 0, err
    return root


def recording_copy(data: Path, where: Path, sidecar: bytes | None) -> Path:
    """Day 1's recording copied into `where`, with `sidecar` as its `.meta.json` or none."""
    where.mkdir(parents=True, exist_ok=True)
    rec = where / "rec.csv"
    shutil.copyfile(data / "data" / "bicep_curl_day1.csv", rec)
    if sidecar is not None:
        (where / "rec.meta.json").write_bytes(sidecar)
    return rec


def checkpoint_copy(data: Path, where: Path, run_json: bytes) -> Path:
    """The trained checkpoint copied into `where`, with `run_json` as its `.run.json`."""
    where.mkdir(parents=True, exist_ok=True)
    ckpt = where / "m.ckpt"
    shutil.copyfile(data / "run" / "m.ckpt", ckpt)
    ckpt.with_suffix(".run.json").write_bytes(run_json)
    return ckpt


def run_json_with(data: Path, **changes) -> bytes:
    recorded = json.loads((data / "run" / "m.run.json").read_text())
    recorded.update(changes)
    return json.dumps(recorded).encode()


@pytest.mark.parametrize(
    "sidecar",
    [b"{bad", b"[1,2]", b'{"day": "x"}', b'{"fs": "fast"}', b'{"subject": "s\xff"}'],
    ids=["not_json", "list", "day_text", "fs_text", "not_utf8"],
)
def test_bad_recording_sidecar_exits_2(data, tmp_path, sidecar):
    rec = recording_copy(data, tmp_path, sidecar)
    rc, err = run_cli("preprocess", "--in", rec, "--out", tmp_path / "seg.csv")
    assert_one_error(rc, err, 2, "rec.meta.json")


def test_config_directory_exits_2(data, tmp_path):
    rec = recording_copy(data, tmp_path / "rec", None)
    rc, err = run_cli("preprocess", "--in", rec, "--out", tmp_path / "seg.csv",
                      "--config", tmp_path)
    assert_one_error(rc, err, 2, str(tmp_path))
    assert not (tmp_path / "seg.csv").exists()


@pytest.mark.parametrize(
    "ini, named",
    [
        (b"[model]\nactivation = r\xffelu\n", "bad.ini"),
        (b"[data]\nfs = inf\n", "sample rate"),
        (b"[filter]\nstages = highpass, foo\n", "'foo'"),
    ],
    ids=["not_utf8", "fs_inf", "unknown_stage"],
)
def test_bad_config_exits_2(data, tmp_path, ini, named):
    rec = recording_copy(data, tmp_path / "rec", None)
    config = tmp_path / "bad.ini"
    config.write_bytes(ini)
    rc, err = run_cli("preprocess", "--in", rec, "--out", tmp_path / "seg.csv",
                      "--config", config)
    assert_one_error(rc, err, 2, named)
    assert not (tmp_path / "seg.csv").exists()


@pytest.mark.parametrize(
    "run_json",
    [
        b"[1, 2]",
        b'{"filter.stages": "bandpass\xff"}',
        {"filter.order": 2.5},
        {"filter.order": True},
        {"filter.stages": 3},
        {"segmentation.envelope_lp_hz": "6"},
    ],
    ids=["list", "not_utf8", "order_float", "order_bool", "stages_int", "cutoff_text"],
)
def test_bad_run_json_exits_2(data, tmp_path, run_json):
    if isinstance(run_json, dict):
        run_json = run_json_with(data, **run_json)
    ckpt = checkpoint_copy(data, tmp_path, run_json)
    rc, err = run_cli("eval", "--data", data / "data", "--ckpt", ckpt,
                      "--report", tmp_path / "report.csv")
    assert_one_error(rc, err, 2, "m.run.json")


@pytest.mark.parametrize(
    "ini, section, message",
    [
        (b"[model]\nactivation = relu\n", "[model]", "activation must be 'gated'"),
        (b"[train]\nmax_epochs = 0\n", "[train]", "max_epochs must be >= 1"),
        (b"[filter]\nstages = highpass, notch\n", "[filter]", "'notch'"),
        (b"[segmentation]\nmin_distance = 0\n", "[segmentation]", "min_distance must be >= 1"),
        (b"[segmentation]\ntop_k = 0\n", "[segmentation]", "top_k must be >= 1"),
        (b"[data]\nfs = -5\n", "[data]", "sample rate"),
    ],
    ids=["activation", "max_epochs", "stage", "min_distance", "top_k", "fs"],
)
@pytest.mark.parametrize("command", ["train", "eval"])
def test_rejected_config_value_names_file_and_section(data, tmp_path, ini, section, message,
                                                      command):
    config = tmp_path / "bad.ini"
    config.write_bytes(ini)
    if command == "train":
        argv = ["train", "--data", data / "data", "--out", tmp_path / "m.ckpt"]
    else:
        argv = ["eval", "--data", data / "data", "--ckpt", data / "run" / "m.ckpt",
                "--report", tmp_path / "report.csv"]
    rc, err = run_cli(*argv, "--config", config)
    assert_one_error(rc, err, 2, f"{config} {section}: ", message)
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "change, section, message",
    [
        ({"filter.stages": "highpass,notch"}, "[filter]", "'notch'"),
        ({"segmentation.top_k": 0}, "[segmentation]", "top_k must be >= 1"),
        ({"data.fs": 0.0}, "[data]", "sample rate"),
    ],
    ids=["stage", "top_k", "fs"],
)
def test_rejected_run_json_value_names_file_and_section(data, tmp_path, change, section,
                                                        message):
    ckpt = checkpoint_copy(data, tmp_path, run_json_with(data, **change))
    rc, err = run_cli("eval", "--data", data / "data", "--ckpt", ckpt,
                      "--report", tmp_path / "report.csv")
    assert_one_error(rc, err, 2, f"{ckpt.with_suffix('.run.json')} {section}: ", message)
    assert not (tmp_path / "report.csv").exists()


def test_run_json_int_for_float_key_accepted(data, tmp_path):
    ckpt = checkpoint_copy(data, tmp_path, run_json_with(data, **{"data.fs": 1000}))
    rc, err = run_cli("eval", "--data", data / "data", "--ckpt", ckpt,
                      "--report", tmp_path / "report.csv")
    assert rc == 0, err


@pytest.mark.parametrize(
    "argv", [["synth-data", "--out"], ["stream-bench", "--seconds", "1", "--ckpt"]]
)
def test_negative_seed_exits_2(tmp_path, argv):
    rc, err = run_cli(*argv, tmp_path / "x", "--seed", "-9000")
    assert_one_error(rc, err, 2, "--seed must be >= 0")
    assert not (tmp_path / "x").exists()


@pytest.fixture(scope="module")
def mixed_motions(data, tmp_path_factory):
    """The bicep-curl sessions plus a flat pronation recording, which has no contractions."""
    mixed = tmp_path_factory.mktemp("mixed")
    for src in (data / "data").iterdir():
        shutil.copyfile(src, mixed / src.name)
    rows = "\n".join("0,0,0,0,0,0,0" for _ in range(3000))
    (mixed / "pronation_day1.csv").write_text("emg,ax,ay,az,gx,gy,gz\n" + rows + "\n")
    (mixed / "pronation_day1.meta.json").write_text(
        '{"subject": "s01", "motion": "pronation", "day": 1, "fs": 1000.0}\n'
    )
    return mixed


def test_motion_filter_skips_other_recordings(data, mixed_motions, tmp_path):
    argv = ["train", "--data", mixed_motions, "--config", data / "tiny.ini"]
    rc, err = run_cli(*argv, "--out", tmp_path / "m.ckpt", "--motion", "bicep_curl")
    assert rc == 0, err
    rc, err = run_cli(*argv, "--out", tmp_path / "all.ckpt")
    assert rc == 3
    cfg = RunConfig()
    want = cli._load_segments(data / "data", cfg, None)
    got = cli._load_segments(mixed_motions, cfg, "bicep_curl")
    assert [s.segment_id for s in got] == [s.segment_id for s in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.target, b.target) and np.array_equal(a.imu, b.imu)


def test_motion_filter_without_match_names_the_motion(data, mixed_motions, tmp_path):
    rc, err = run_cli("train", "--data", mixed_motions, "--out", tmp_path / "m.ckpt",
                      "--motion", "supination")
    assert_one_error(rc, err, 2, "no supination recordings")


# ---------------------------------------------------------------------------
# Fuzz: mutated sidecar, run.json, INI and checkpoint bytes, and numeric flags.
# ---------------------------------------------------------------------------

SMALL_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(0.0, 0.05, allow_nan=False),
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([0.0, 0.5, 2.5, 60.0, 1000.0, -1.0, math.nan, math.inf, 1e300]),
    st.sampled_from(["", "x", "bicep_curl", "pronation", "bandpass", "1000"]),
)
INI_TEXT = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "0.5", "2.5", "abc", "relu",
                     "bandpass", "highpass, bandstop", "lowpass", "True", "ÿ"]),
)
SCHEMA_KEYS = sorted(RunConfig().snapshot())


def mutated(raw: bytes, edits: list[tuple[int, int]]) -> bytes:
    """`raw` with byte `pos % len` set to `value` for each edit."""
    out = bytearray(raw)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


# Printable bytes half the time, so that edits also reach past the UTF-8 decode.
BYTE_EDITS = st.lists(
    st.tuples(st.integers(0, 4096), st.integers(32, 126) | st.integers(0, 255)),
    min_size=1,
    max_size=3,
)


@st.composite
def sidecars(draw):
    if draw(st.booleans()):
        keys = st.sampled_from(["subject", "motion", "day", "fs", "extra"])
        return json.dumps(draw(st.dictionaries(keys, JSON_SCALARS, max_size=4))).encode()
    return mutated(SIDECAR, draw(BYTE_EDITS))


@st.composite
def ini_files(draw):
    sections = {}
    for name in draw(st.lists(st.sampled_from(SCHEMA_KEYS), min_size=1, max_size=3, unique=True)):
        section, key = name.split(".")
        sections.setdefault(section, []).append(f"{key} = {draw(INI_TEXT)}\n")
    return "".join(f"[{name}]\n" + "".join(keys) for name, keys in sections.items()).encode()


def assert_documented_failure(rc: int, err: str) -> None:
    assert rc in EXIT_CODES, err
    assert "Traceback" not in err
    if rc != 0:
        assert sum(line.startswith("error: ") or ": error: " in line
                   for line in err.splitlines()) == 1, err


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sidecar=st.sampled_from([None, SIDECAR]) | sidecars(), ini=st.none() | ini_files())
def test_fuzz_preprocess(data, sidecar, ini):
    work = data / "fuzz_preprocess"
    shutil.rmtree(work, ignore_errors=True)
    rec = recording_copy(data, work, sidecar)
    argv = ["preprocess", "--in", rec, "--out", work / "seg.csv"]
    if ini is not None:
        (work / "run.ini").write_bytes(ini)
        argv += ["--config", work / "run.ini"]
    rc, err = run_cli(*argv)
    assert_documented_failure(rc, err)
    if rc == 0:
        values = np.loadtxt(work / "seg.csv", delimiter=",", skiprows=1, usecols=range(1, 9),
                            quotechar='"', comments=None, ndmin=2)
        assert np.isfinite(values).all()


@st.composite
def run_jsons(draw):
    segmenting = [k for k in SCHEMA_KEYS if k.split(".")[0] in ("data", "filter", "segmentation")]
    if draw(st.booleans()):
        return {draw(st.sampled_from(segmenting)): draw(JSON_SCALARS)}
    return draw(BYTE_EDITS)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(change=run_jsons())
def test_fuzz_eval_run_json(data, change):
    work = data / "fuzz_eval"
    shutil.rmtree(work, ignore_errors=True)
    if isinstance(change, dict):
        run_json = run_json_with(data, **change)
    else:
        run_json = mutated((data / "run" / "m.run.json").read_bytes(), change)
    ckpt = checkpoint_copy(data, work, run_json)
    rc, err = run_cli("eval", "--data", data / "data", "--ckpt", ckpt,
                      "--report", work / "report.csv")
    assert_documented_failure(rc, err)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    reps=st.integers(-1, 2),
    sessions=st.integers(-1, 1),
    noise=SMALL_FLOATS,
    seconds=SMALL_FLOATS,
    seed=st.sampled_from([0, 3, -1, -9000]),
)
def test_fuzz_numeric_flags(data, reps, sessions, noise, seconds, seed):
    work = data / "fuzz_flags"
    shutil.rmtree(work, ignore_errors=True)
    rc, err = run_cli("synth-data", "--out", work, "--reps", reps, "--sessions", sessions,
                      "--noise", noise, "--seed", seed)
    assert_documented_failure(rc, err)
    with np.errstate(over="ignore", invalid="ignore"):
        rc, err = run_cli("stream-bench", "--ckpt", data / "run" / "m.ckpt",
                          "--seconds", seconds, "--seed", seed)
    assert_documented_failure(rc, err)


def checkpoint_regions(raw: bytes) -> dict:
    """Byte ranges of a checkpoint: magic, header length and header; then the blobs."""
    header_end = 12 + int.from_bytes(raw[8:12], "little")
    return {"header": (0, header_end), "blob": (header_end, len(raw))}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(region=st.sampled_from(["header", "blob"]), edits=BYTE_EDITS)
def test_fuzz_checkpoint_bytes(data, region, edits):
    work = data / "fuzz_ckpt"
    shutil.rmtree(work, ignore_errors=True)
    ckpt = checkpoint_copy(data, work, (data / "run" / "m.run.json").read_bytes())
    raw = ckpt.read_bytes()
    lo, hi = checkpoint_regions(raw)[region]
    ckpt.write_bytes(raw[:lo] + mutated(raw[lo:hi], edits) + raw[hi:])
    rc, err = run_cli("eval", "--data", data / "data", "--ckpt", ckpt,
                      "--report", work / "report.csv")
    assert_documented_failure(rc, err)
    if rc == 0:
        rows = (work / "report.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        rc, err = run_cli("stream-bench", "--ckpt", ckpt, "--seconds", "0.2")
    assert_documented_failure(rc, err)


def test_eval_refuses_checkpoint_that_overflows(data, tmp_path):
    ckpt = checkpoint_copy(data, tmp_path, (data / "run" / "m.run.json").read_bytes())
    weights = load_weights(ckpt)
    weights.output_proj.bias[:] = 1e300  # finite, but its squared error is not
    save_weights(weights, ckpt)
    rc, err = run_cli("eval", "--data", data / "data", "--ckpt", ckpt,
                      "--report", tmp_path / "report.csv")
    assert_one_error(rc, err, 2, "non-finite mse", "m.ckpt")
    assert not (tmp_path / "report.csv").exists()
