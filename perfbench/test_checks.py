"""The benchmark's checks pass on real outputs and fail on corrupted ones.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from emgforge import cli, dataio, model, synthgen, tensor  # noqa: E402
from emgforge import train as training  # noqa: E402

SMALL = model.ModelConfig(num_blocks=2, residual_channels=4, skip_channels=4, context_window=4)


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def offline_run(tmp_path_factory):
    """One session through synth-data, preprocess and eval, on a small model."""
    root = tmp_path_factory.mktemp("offline")
    data, seg = root / "data", root / "segments"
    assert _cli("synth-data", "--out", data, "--sessions", 1, "--seed", 3) == 0
    seg.mkdir()
    raw = data / "bicep_curl_day1.csv"
    assert _cli("preprocess", "--in", raw, "--out", seg / raw.name) == 0
    model.save_weights(model.init_weights(SMALL, seed=0), root / "small.ckpt")
    report = root / "eval" / "report.csv"
    assert _cli("eval", "--data", data, "--ckpt", root / "small.ckpt", "--report", report) == 0
    return {
        "raw": raw,
        "segments": seg / raw.name,
        "truth": data / "bicep_curl_day1_truth.csv",
        "report": report,
        "predictions": report.with_name("report_predictions"),
        "n": checks.count_rows(raw),
    }


def _copy_tree(run, tmp_path):
    """A private copy of the run's outputs that a test may corrupt."""
    seg = tmp_path / "segments.csv"
    shutil.copy(run["segments"], seg)
    shutil.copy(run["segments"].with_name(run["segments"].stem + ".meta.json"),
                tmp_path / "segments.meta.json")
    pred = tmp_path / "predictions"
    shutil.copytree(run["predictions"], pred)
    return seg, pred


def test_offline_checks_pass_on_real_output(offline_run):
    r = offline_run
    assert checks.segment_file_check(r["segments"], r["n"], 7) == []
    assert checks.envelope_check(r["segments"], r["truth"]) == []
    assert checks.report_check(r["report"], r["predictions"], [r["segments"]]) == []


def test_report_check_catches_perturbed_prediction(offline_run, tmp_path):
    seg, pred = _copy_tree(offline_run, tmp_path)
    victim = sorted(pred.glob("*.csv"))[2]
    lines = victim.read_text().splitlines()
    t, true, p = lines[100].split(",")
    lines[100] = f"{t},{true},{float(p) + 1e-3:.17g}"
    victim.write_text("\n".join(lines) + "\n")
    problems = checks.report_check(offline_run["report"], pred, [seg])
    assert any(victim.stem in p for p in problems)


@pytest.mark.parametrize("shift_both", [False, True])
def test_segment_check_catches_shifted_bound(offline_run, tmp_path, shift_both):
    seg, _ = _copy_tree(offline_run, tmp_path)
    meta = tmp_path / "segments.meta.json"
    info = json.loads(meta.read_text())
    info["segments"][0]["end"] += 5
    if shift_both:  # still a partition, but no longer the rows the CSV holds
        info["segments"][1]["start"] += 5
    meta.write_text(json.dumps(info))
    assert checks.segment_file_check(seg, offline_run["n"], 7)


def test_segment_check_catches_target_above_one(offline_run, tmp_path):
    seg, _ = _copy_tree(offline_run, tmp_path)
    lines = seg.read_text().splitlines()
    cells = lines[50].split(",")
    cells[2] = "1.5"
    lines[50] = ",".join(cells)
    seg.write_text("\n".join(lines) + "\n")
    assert checks.segment_file_check(seg, offline_run["n"], 7)


def test_envelope_check_catches_wrong_truth(offline_run, tmp_path):
    truth = np.loadtxt(offline_run["truth"], skiprows=1)
    wrong = tmp_path / "truth.csv"
    np.savetxt(wrong, np.roll(truth, truth.size // 2), header="gt_envelope", comments="")
    assert checks.envelope_check(offline_run["segments"], wrong)


@pytest.fixture(scope="module")
def batch_and_gradient():
    rec, _ = synthgen.generate_recording(synthgen.MotionProfile(), seed=5)
    split = dataio.split_dataset(dataio.build_segments(rec), 0.85, seed=0)
    batch = next(dataio.make_windows(split, 256, 3, seed=0, epoch=1))
    weights = model.init_weights(SMALL, seed=1)
    training.fit_input_normalizer(weights, split.train)
    weights.zero_grads()
    inv_b = tensor.Tensor(np.array([[1.0 / len(batch.inputs)]]))
    for x, y in zip(batch.inputs, batch.targets):
        loss = training.mse_loss(model.forward(weights, tensor.Tensor(x)), tensor.Tensor(y))
        tensor.backward(tensor.mul(loss, inv_b))
    grads = {k: v.copy() for k, v in weights.gradient_arrays().items()}
    return weights, batch, grads


def _row(weights, x):
    with tensor.no_grad():
        return model.forward(weights, tensor.Tensor(x)).data[0]


def test_gradient_check_passes_on_backward(batch_and_gradient):
    weights, batch, grads = batch_and_gradient
    rng = np.random.default_rng(0)
    assert checks.gradient_check(_row, weights, batch.inputs, batch.targets, grads, rng) == []


def test_gradient_check_catches_wrong_gradient(batch_and_gradient):
    weights, batch, grads = batch_and_gradient
    wrong = {k: v * (1 + 1e-3) for k, v in grads.items()}
    rng = np.random.default_rng(0)
    assert checks.gradient_check(_row, weights, batch.inputs, batch.targets, wrong, rng)


def test_stream_check():
    batch = np.linspace(0.0, 1.0, 50)
    assert checks.stream_check(batch.copy(), batch) == []
    assert checks.stream_check(batch + np.where(np.arange(50) == 7, 1e-8, 0.0), batch)
    assert checks.stream_check(np.full(50, np.nan), batch)


@pytest.mark.parametrize(
    "train, val, ok",
    [([1.0, 0.5], [0.4, 0.3], True), ([1.0, np.nan], [0.4, 0.3], False), ([1.0, 0.5], [0.3, 0.4], False)],
)
def test_history_check(train, val, ok):
    assert (checks.history_check(train, val) == []) is ok


def test_window_count_matches_make_windows():
    rec, _ = synthgen.generate_recording(synthgen.MotionProfile(), seed=5)
    split = dataio.split_dataset(dataio.build_segments(rec), 0.85, seed=0)
    for crop in (300, 1024, 2000):
        made = sum(b.inputs.shape[0] for b in dataio.make_windows(split, crop, 4, seed=0))
        assert made == checks.window_count([len(s) for s in split.train], crop)
