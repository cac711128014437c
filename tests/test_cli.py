import configparser
import csv
import filecmp
import json
import os
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from emgforge import cli, dataio, synthgen
from emgforge import train as training
from emgforge.config import RunConfig, load_run_config
from emgforge.errors import ConfigError
from emgforge.model import load_weights
from emgforge.signal import FilterChainConfig

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_CONFIG = """
[model]
kernel_size = 2
num_blocks = 3
residual_channels = 6
skip_channels = 6
context_window = 4

[train]
learning_rate = 0.002
batch_size = 4
crop_length = 256
max_epochs = 3
patience = 5
seed = 1
"""


# Every section set, mostly to non-default values; `stages` also checks the
# whitespace handling of a comma list.
EVERY_SECTION_CONFIG = """
[data]
fs = 1000

[filter]
highpass_hz = 60
bandpass_low_hz = 25
bandpass_high_hz = 280
bandstop_low_hz = 47
bandstop_high_hz = 53
order = 2
stages = bandpass, highpass,bandstop

[segmentation]
min_distance = 200
top_k = 7
envelope_lp_hz = 5

[model]
kernel_size = 2
num_blocks = 2
residual_channels = 5
skip_channels = 4
context_window = 3
activation = gated

[train]
learning_rate = 0.002
batch_size = 4
crop_length = 256
max_epochs = 3
patience = 2
seed = 3
train_fraction = 0.8
improvement_tolerance = 1e-5
"""

EVERY_SECTION_RUN_JSON = """{
  "data.fs": 1000.0,
  "filter.bandpass_high_hz": 280.0,
  "filter.bandpass_low_hz": 25.0,
  "filter.bandstop_high_hz": 53.0,
  "filter.bandstop_low_hz": 47.0,
  "filter.highpass_hz": 60.0,
  "filter.order": 2,
  "filter.stages": "bandpass,highpass,bandstop",
  "filter_passes": "single_causal",
  "model.activation": "gated",
  "model.context_window": 3,
  "model.kernel_size": 2,
  "model.num_blocks": 2,
  "model.residual_channels": 5,
  "model.skip_channels": 4,
  "normalization": "per_recording_envelope_max",
  "prediction_target": "normalized_envelope",
  "segmentation.envelope_lp_hz": 5.0,
  "segmentation.min_distance": 200,
  "segmentation.top_k": 7,
  "train.batch_size": 4,
  "train.crop_length": 256,
  "train.improvement_tolerance": 1e-05,
  "train.learning_rate": 0.002,
  "train.max_epochs": 3,
  "train.patience": 2,
  "train.seed": 3,
  "train.train_fraction": 0.8,
  "validation_set": "held_out_test_split"
}
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sessions")
    rc = cli.main(
        ["synth-data", "--out", str(out), "--reps", "7", "--sessions", "2", "--seed", "5"]
    )
    assert rc == 0
    return out


class TestSynthData:
    def test_writes_expected_files(self, data_dir):
        names = sorted(p.name for p in data_dir.iterdir())
        assert "bicep_curl_day1.csv" in names
        assert "bicep_curl_day1.meta.json" in names
        assert "bicep_curl_day1_truth.csv" in names
        assert "bicep_curl_day2.csv" in names

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = cli.main(
                ["synth-data", "--out", str(out), "--reps", "2", "--sessions", "1", "--seed", "3"]
            )
            assert rc == 0
        for name in ("bicep_curl_day1.csv", "bicep_curl_day1_truth.csv"):
            assert filecmp.cmp(a / name, b / name, shallow=False)

    def test_truth_rows_are_percent_17g_text(self, data_dir):
        profile = synthgen.MotionProfile(motion="bicep_curl", n_reps=7)
        for day in (1, 2):
            _, truth = synthgen.generate_recording(profile, seed=5 + 7919 * day, day=day)
            expected = "gt_envelope\n" + "".join("%.17g\n" % v for v in truth.tolist())
            path = data_dir / f"bicep_curl_day{day}_truth.csv"
            assert path.read_bytes() == expected.encode("ascii")

    def test_zero_reps_rejected(self, tmp_path, capsys):
        rc = cli.main(["synth-data", "--out", str(tmp_path / "x"), "--reps", "0"])
        assert rc == cli.EXIT_USAGE
        assert "reps" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_bad_noise_rejected(self, tmp_path, capsys, noise):
        out = tmp_path / "x"
        rc = cli.main(["synth-data", "--out", str(out), "--reps", "1", "--noise", noise])
        assert rc == cli.EXIT_USAGE
        assert "--noise must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_one_file_per_session(self, tmp_path):
        out = tmp_path / "four"
        rc = cli.main(
            ["synth-data", "--out", str(out), "--reps", "2", "--sessions", "4", "--seed", "1"]
        )
        assert rc == 0
        recordings = [
            p for p in out.glob("*.csv") if not p.name.endswith("_truth.csv")
        ]
        assert len(recordings) == 4

    def test_sessions_segment_into_reps(self, data_dir, tmp_path):
        rc = cli.main(
            [
                "preprocess",
                "--in",
                str(data_dir / "bicep_curl_day2.csv"),
                "--out",
                str(tmp_path / "seg.csv"),
            ]
        )
        assert rc == 0
        sidecar = json.loads((tmp_path / "seg.meta.json").read_text())
        assert len(sidecar["segments"]) == 7


class TestPreprocess:
    def test_writes_unified_csv_and_prints_count(self, data_dir, tmp_path, capsys):
        out = tmp_path / "segments.csv"
        rc = cli.main(
            ["preprocess", "--in", str(data_dir / "bicep_curl_day1.csv"), "--out", str(out)]
        )
        assert rc == 0
        assert "segments: 7" in capsys.readouterr().out
        assert out.exists()
        assert (tmp_path / "segments.meta.json").exists()

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("emg,ax,ay,az,gx,gy\n1,2,3,4,5,6\n")
        rc = cli.main(["preprocess", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == cli.EXIT_USAGE
        assert "gyro_z" in capsys.readouterr().err

    def test_repeated_column_exit_code(self, data_dir, tmp_path, capsys):
        """A second `ax` column leaves accel_x ambiguous: neither is taken."""
        header, *rows = (data_dir / "bicep_curl_day1.csv").read_text().splitlines()
        bad = tmp_path / "dup.csv"
        bad.write_text("\n".join([header + ",ax", *(row + ",0" for row in rows)]) + "\n")
        out = tmp_path / "o.csv"
        rc = cli.main(["preprocess", "--in", str(bad), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "'ax'" in err and str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"emg,ax,ay,az,gx,gy,gz,\xff\xfe\n1,2,3,4,5,6,7,x\n",
            # Far past the first read buffer: the header decodes, a data row does not.
            b"emg,ax,ay,az,gx,gy,gz,note\n"
            + b"".join(b"%d,1,2,3,4,5,6,x\n" % i for i in range(3000))
            + b"1,1,2,3,4,5,6,\xff\xfe\n",
        ],
        ids=["header", "data_row"],
    )
    def test_undecodable_csv_exit_code(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        rc = cli.main(["preprocess", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def test_flat_recording_exit_code(self, tmp_path):
        flat = tmp_path / "flat.csv"
        rows = "\n".join("0,0,0,0,0,0,0" for _ in range(2000))
        flat.write_text("emg,ax,ay,az,gx,gy,gz\n" + rows + "\n")
        rc = cli.main(["preprocess", "--in", str(flat), "--out", str(tmp_path / "o.csv")])
        assert rc == cli.EXIT_EMPTY

    def test_configured_filter_chain_drives_segmentation(self, data_dir, tmp_path):
        config = tmp_path / "bandpass.ini"
        config.write_text("[filter]\nstages = bandpass\n")
        infile = data_dir / "bicep_curl_day1.csv"
        rc = cli.main(
            [
                "preprocess",
                "--in",
                str(infile),
                "--out",
                str(tmp_path / "cli.csv"),
                "--config",
                str(config),
            ]
        )
        assert rc == 0
        cfg = load_run_config(config)
        rec = dataio.load_recording(infile, fs=cfg.fs)
        configured = dataio.build_segments(rec, cfg.segmentation, cfg.filter)
        dataio.write_segments(configured, tmp_path / "configured.csv")
        dataio.write_segments(dataio.build_segments(rec, cfg.segmentation), tmp_path / "default.csv")
        written = (tmp_path / "cli.csv").read_bytes()
        assert written == (tmp_path / "configured.csv").read_bytes()
        assert written != (tmp_path / "default.csv").read_bytes()


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "tiny.ini"
    config.write_text(TINY_CONFIG)
    rc = cli.main(
        [
            "train",
            "--data",
            str(data_dir),
            "--out",
            str(out / "model.ckpt"),
            "--config",
            str(config),
        ]
    )
    assert rc == 0
    return out


class TestTrainEvalBench:
    def test_train_outputs(self, run_dir, capsys):
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "model.history.csv").exists()
        meta = json.loads((run_dir / "model.run.json").read_text())
        assert meta["prediction_target"] == "normalized_envelope"
        assert meta["model.kernel_size"] == 2
        load_weights(run_dir / "model.ckpt")  # must be loadable

    def test_train_deterministic_history(self, data_dir, tmp_path, tiny_config):
        hists = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = cli.main(
                [
                    "train",
                    "--data",
                    str(data_dir),
                    "--out",
                    str(out / "m.ckpt"),
                    "--config",
                    str(tiny_config),
                ]
            )
            assert rc == 0
            with open(out / "m.history.csv") as fh:
                rows = list(csv.reader(fh))
            # drop the wall-time column; it is the one nondeterministic field
            hists.append([row[:3] for row in rows])
            assert (out / "m.ckpt").exists()
        assert hists[0] == hists[1]

    def test_train_checkpoints_byte_identical(self, data_dir, tmp_path, tiny_config):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            rc = cli.main(
                [
                    "train",
                    "--data",
                    str(data_dir),
                    "--out",
                    str(out / "m.ckpt"),
                    "--config",
                    str(tiny_config),
                ]
            )
            assert rc == 0
            outs.append(out / "m.ckpt")
        assert filecmp.cmp(outs[0], outs[1], shallow=False)

    def test_train_window_workers_same_bytes(
        self, data_dir, tmp_path, tiny_config, monkeypatch, capsys
    ):
        outs = []
        for workers in (1, 2):
            monkeypatch.setattr(
                training, "window_workers", lambda batch_size, n=workers: (n, "patched")
            )
            out = tmp_path / f"w{workers}"
            argv = ["train", "--data", str(data_dir), "--out", str(out / "m.ckpt")]
            assert cli.main(argv + ["--config", str(tiny_config)]) == 0
            assert f"window workers: {workers} (patched)" in capsys.readouterr().out
            outs.append(out)
        assert filecmp.cmp(outs[0] / "m.ckpt", outs[1] / "m.ckpt", shallow=False)
        assert filecmp.cmp(outs[0] / "m.run.json", outs[1] / "m.run.json", shallow=False)
        assert "workers" not in (outs[0] / "m.run.json").read_text()

    def test_train_empty_dir_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = cli.main(["train", "--data", str(empty), "--out", str(tmp_path / "m.ckpt")])
        assert rc == cli.EXIT_USAGE

    def test_eval_report_grid_and_plots(self, data_dir, run_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        plots = tmp_path / "plots"
        rc = cli.main(
            [
                "eval",
                "--data",
                str(data_dir),
                "--ckpt",
                str(run_dir / "model.ckpt"),
                "--report",
                str(report),
                "--plots",
                str(plots),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for label in ("MSE", "MAE", "Cosine Sim", "FFT Cosine"):
            assert label in out

        with open(report) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["segment_id", "mse", "mae", "cosine", "fft_cosine"]
        assert [r[0] for r in rows[-3:]] == ["best", "worst", "average"]
        assert len(rows) == 1 + 14 + 3  # 2 sessions x 7 reps + aggregates

        svgs = sorted(plots.glob("*.svg"))
        assert len(svgs) == 14
        preds = sorted((tmp_path / "report_predictions").glob("*.csv"))
        assert len(preds) == 14
        first = preds[0].read_text().splitlines()
        assert first[0] == "t,true,predicted"
        # Every row is the text "%d,%.17g,%.17g" gives for the values it holds.
        for pred in preds:
            lines = pred.read_bytes().decode("ascii").split("\n")
            assert lines[0] == "t,true,predicted" and lines[-1] == ""
            for line in lines[1:-1]:
                t, true, predicted = line.split(",")
                assert line == "%d,%.17g,%.17g" % (int(t), float(true), float(predicted))

    def test_overlay_svg_escapes_its_title(self, tmp_path):
        path = tmp_path / "plot.svg"
        cli._write_overlay_svg(path, np.linspace(0.0, 1.0, 5), np.zeros(5), "A&B<x>")
        root = ElementTree.parse(path).getroot()
        texts = [el.text for el in root if el.tag.endswith("text")]
        assert texts[0] == "A&B<x>"

    def test_eval_streams_each_segment_once(self, data_dir, run_dir, tmp_path, monkeypatch):
        calls = {"forward": 0, "forward_streaming": 0}

        def counting(name):
            fn = getattr(training, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(training, name, counting(name))
        report = tmp_path / "report.csv"
        rc = cli.main(
            [
                "eval",
                "--data",
                str(data_dir),
                "--ckpt",
                str(run_dir / "model.ckpt"),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        segments = json.loads(report.with_suffix(".meta.json").read_text())["segments"]
        assert segments == 14
        assert calls == {"forward": 0, "forward_streaming": segments}

    def test_eval_config_mismatch_exit(self, data_dir, run_dir, tmp_path):
        other = tmp_path / "other.ini"
        other.write_text(TINY_CONFIG.replace("kernel_size = 2", "kernel_size = 3"))
        rc = cli.main(
            [
                "eval",
                "--data",
                str(data_dir),
                "--ckpt",
                str(run_dir / "model.ckpt"),
                "--report",
                str(tmp_path / "r.csv"),
                "--config",
                str(other),
            ]
        )
        assert rc == cli.EXIT_USAGE

    def test_eval_segments_with_the_checkpoints_filter_chain(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        trained = tmp_path / "bandpass.ini"
        trained.write_text(TINY_CONFIG + "\n[filter]\nstages = bandpass, bandstop\norder = 2\n")
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--data", str(data_dir), "--out", str(ckpt), "--config", str(trained)]
        assert cli.main(argv) == 0

        def run_eval(name, *config):
            report = tmp_path / name / "report.csv"
            argv = ["eval", "--data", str(data_dir), "--ckpt", str(ckpt), "--report", str(report)]
            return cli.main(argv + list(config)), report

        rc, implicit = run_eval("implicit")
        assert rc == 0
        rc, explicit = run_eval("explicit", "--config", str(trained))
        assert rc == 0
        assert implicit.read_bytes() == explicit.read_bytes()
        ckpt.with_suffix(".run.json").rename(tmp_path / "moved.run.json")
        rc, default_chain = run_eval("default")
        assert rc == 0
        assert default_chain.read_bytes() != implicit.read_bytes()

        (tmp_path / "moved.run.json").rename(ckpt.with_suffix(".run.json"))
        other = tmp_path / "other.ini"
        other.write_text(TINY_CONFIG + "\n[filter]\nstages = bandpass, bandstop\norder = 3\n")
        capsys.readouterr()
        rc, _ = run_eval("other", "--config", str(other))
        assert rc == cli.EXIT_USAGE
        assert "filter.order = 3" in capsys.readouterr().err

    def test_stream_bench_ok(self, run_dir, capsys):
        rc = cli.main(
            ["stream-bench", "--ckpt", str(run_dir / "model.ckpt"), "--seconds", "0.3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "p99" in out and "streaming - batch" in out

    def test_stream_bench_reports_first_step(self, run_dir, capsys):
        rc = cli.main(
            ["stream-bench", "--ckpt", str(run_dir / "model.ckpt"), "--seconds", "0.05"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        first = [line for line in lines if line.startswith("first step ms: ")]
        assert len(first) == 1
        assert float(first[0].split(": ")[1]) > 0.0

    def test_stream_bench_zero_seconds_rejected(self, run_dir):
        rc = cli.main(
            ["stream-bench", "--ckpt", str(run_dir / "model.ckpt"), "--seconds", "0"]
        )
        assert rc == cli.EXIT_USAGE

    def test_stream_bench_seconds_without_samples_rejected(self, run_dir, capsys):
        rc = cli.main(
            ["stream-bench", "--ckpt", str(run_dir / "model.ckpt"), "--seconds", "0.0004"]
        )
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --seconds 0.0004 gives no samples")
        assert err.count("error:") == 1

    @pytest.mark.parametrize("seconds", ["nan", "inf"])
    def test_stream_bench_nonfinite_seconds_rejected(self, run_dir, capsys, seconds):
        rc = cli.main(
            ["stream-bench", "--ckpt", str(run_dir / "model.ckpt"), "--seconds", seconds]
        )
        assert rc == cli.EXIT_USAGE
        assert "--seconds must be finite and positive" in capsys.readouterr().err

    def test_stream_bench_deterministic_per_seed(self, run_dir, capsys):
        outputs = []
        for _ in range(2):
            rc = cli.main(
                [
                    "stream-bench",
                    "--ckpt",
                    str(run_dir / "model.ckpt"),
                    "--seconds",
                    "0.1",
                    "--seed",
                    "9",
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            outputs.append([l for l in out.splitlines() if "streaming - batch" in l])
        assert outputs[0] == outputs[1]

    def test_eval_no_dc_recorded_in_metadata(self, data_dir, run_dir, tmp_path):
        report = tmp_path / "nodc.csv"
        rc = cli.main(
            [
                "eval",
                "--data",
                str(data_dir),
                "--ckpt",
                str(run_dir / "model.ckpt"),
                "--report",
                str(report),
                "--no-dc",
            ]
        )
        assert rc == 0
        meta = json.loads((tmp_path / "nodc.meta.json").read_text())
        assert meta["fft_cosine_dc_bin"] == "excluded"

    def test_stream_bench_breach_exit(self, run_dir, tmp_path, capsys):
        from emgforge.model import save_weights

        weights = load_weights(run_dir / "model.ckpt")
        # Finite weights whose skip sum overflows to inf, so the output is NaN.
        for blk in weights.blocks[:2]:
            blk.skip.bias[:] = 1e308
        corrupt = tmp_path / "corrupt.ckpt"
        save_weights(weights, corrupt)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["stream-bench", "--ckpt", str(corrupt), "--seconds", "0.05"])
        assert rc == cli.EXIT_BREACH

    def test_two_output_checkpoint_rejected(self, data_dir, run_dir, tmp_path, capsys):
        """eval and stream-bench refuse a checkpoint whose header says two
        outputs, rather than scoring its first."""
        blob = (run_dir / "model.ckpt").read_bytes()
        two = tmp_path / "two.ckpt"
        two.write_bytes(blob.replace(b"config.out_channels=1", b"config.out_channels=2", 1))
        report = tmp_path / "r.csv"
        args = ["--data", str(data_dir), "--ckpt", str(two), "--report", str(report)]
        assert cli.main(["eval", *args]) == cli.EXIT_USAGE
        assert cli.main(["stream-bench", "--ckpt", str(two), "--seconds", "0.05"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("out_channels must be 1") == 2
        assert not report.exists()

    def test_relu_activation_rejected(self, data_dir, run_dir, tmp_path, capsys):
        """The gated unit is the only block nonlinearity: an INI or a
        checkpoint header naming relu exits 2 before any file is written."""
        config = tmp_path / "relu.ini"
        config.write_text(TINY_CONFIG.replace("[model]\n", "[model]\nactivation = relu\n"))
        out, report = tmp_path / "m.ckpt", tmp_path / "r.csv"
        ckpt = ["--ckpt", str(run_dir / "model.ckpt"), "--report", str(report)]
        for args in (["train", "--out", str(out)], ["eval", *ckpt]):
            rc = cli.main([*args, "--data", str(data_dir), "--config", str(config)])
            assert rc == cli.EXIT_USAGE
        blob = (run_dir / "model.ckpt").read_bytes()
        n = int.from_bytes(blob[8:12], "little")  # the header's length
        header = blob[12 : 12 + n].replace(b"config.activation=gated", b"config.activation=relu")
        relu = tmp_path / "relu.ckpt"
        relu.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header + blob[12 + n :])
        args = ["--data", str(data_dir), "--ckpt", str(relu), "--report", str(report)]
        assert cli.main(["eval", *args]) == cli.EXIT_USAGE
        assert cli.main(["stream-bench", "--ckpt", str(relu), "--seconds", "0.05"]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4 and all("activation must be 'gated'" in line for line in lines)
        assert not list(tmp_path.glob("m.ckpt*")) and not list(tmp_path.glob("r.*"))

    def test_eval_rejects_shared_segment_ids(self, data_dir, run_dir, tmp_path, capsys):
        """Recordings without sidecars all give unknown_unknown_day0_repNN ids,
        so their prediction files would overwrite each other."""
        bare = tmp_path / "bare"
        bare.mkdir()
        for path in sorted(data_dir.glob("*.csv")):
            (bare / path.name).write_bytes(path.read_bytes())
        report, plots = tmp_path / "out" / "r.csv", tmp_path / "plots"
        args = ["--data", str(bare), "--ckpt", str(run_dir / "model.ckpt"), "--report", str(report)]
        assert cli.main(["eval", *args, "--plots", str(plots)]) == cli.EXIT_USAGE
        assert "share the id 'unknown_unknown_day0_rep00'" in capsys.readouterr().err
        assert not report.parent.exists() and not plots.exists()

    def test_stream_bench_rejects_nonfinite_checkpoint(self, run_dir, tmp_path, capsys):
        from emgforge.model import save_weights

        weights = load_weights(run_dir / "model.ckpt")
        weights.output_proj.weights[0, 0, 0] = np.nan
        corrupt = tmp_path / "corrupt.ckpt"
        save_weights(weights, corrupt)
        rc = cli.main(["stream-bench", "--ckpt", str(corrupt), "--seconds", "0.05"])
        assert rc == cli.EXIT_USAGE
        assert "non-finite" in capsys.readouterr().err

    def test_train_divergence_exit(self, data_dir, tmp_path):
        config = tmp_path / "diverge.ini"
        config.write_text(TINY_CONFIG.replace("learning_rate = 0.002", "learning_rate = 1e160"))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(
                [
                    "train",
                    "--data",
                    str(data_dir),
                    "--out",
                    str(tmp_path / "m.ckpt"),
                    "--config",
                    str(config),
                ]
            )
        assert rc == cli.EXIT_DIVERGED

    def test_parser_defaults_match_acquisition_protocol(self):
        parser = cli.build_parser()
        args = parser.parse_args(["synth-data", "--out", "x"])
        assert args.reps == 7 and args.sessions == 4


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nkernal_size = 3\n")
        with pytest.raises(ConfigError, match="kernal_size"):
            load_run_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[modle]\nkernel_size = 3\n")
        with pytest.raises(ConfigError):
            load_run_config(bad)

    def test_bad_value_type_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nbatch_size = many\n")
        with pytest.raises(ConfigError, match="batch_size"):
            load_run_config(bad)

    def test_values_parsed(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text(
            "[filter]\nstages = bandpass,bandstop\nhighpass_hz = 60\n"
            "[segmentation]\ntop_k = 5\n[model]\nactivation = gated\nnum_blocks = 4\n"
        )
        cfg = load_run_config(path)
        assert cfg.filter.stages == ("bandpass", "bandstop")
        assert cfg.filter.highpass_hz == 60.0
        assert cfg.segmentation.top_k == 5
        assert cfg.model.activation == "gated"
        assert cfg.model.num_blocks == 4

    def test_run_config_filter_drives_segmentation(self, data_dir):
        cfg = RunConfig(filter=FilterChainConfig(highpass_hz=60.0))
        rec = dataio.load_recording(data_dir / "bicep_curl_day1.csv", fs=cfg.fs)
        configured = dataio.build_segments(rec, cfg.segmentation, cfg.filter)
        default = dataio.build_segments(rec, cfg.segmentation)
        segments = cli._load_segments(data_dir, cfg, None)[: len(configured)]
        assert [s.segment_id for s in segments] == [s.segment_id for s in configured]
        for got, want in zip(segments, configured):
            assert np.array_equal(got.target, want.target)
        assert not np.array_equal(segments[0].target, default[0].target)

    def test_snapshot_keys_pinned(self):
        assert set(RunConfig().snapshot()) == {
            "data.fs",
            "filter.highpass_hz",
            "filter.bandpass_low_hz",
            "filter.bandpass_high_hz",
            "filter.bandstop_low_hz",
            "filter.bandstop_high_hz",
            "filter.order",
            "filter.stages",
            "segmentation.min_distance",
            "segmentation.top_k",
            "segmentation.envelope_lp_hz",
            "model.kernel_size",
            "model.num_blocks",
            "model.residual_channels",
            "model.skip_channels",
            "model.context_window",
            "model.activation",
            "train.learning_rate",
            "train.batch_size",
            "train.crop_length",
            "train.max_epochs",
            "train.patience",
            "train.seed",
            "train.train_fraction",
            "train.improvement_tolerance",
        }

    def test_run_json_bytes_pinned(self, tmp_path):
        config = tmp_path / "every.ini"
        config.write_text(EVERY_SECTION_CONFIG)
        path = tmp_path / "run.json"
        training.write_run_metadata(path, load_run_config(config).snapshot())
        assert path.read_text() == EVERY_SECTION_RUN_JSON

    def test_readme_block_is_the_schema_with_defaults(self, tmp_path):
        section = README.read_text().split("## Configuration\n", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert load_run_config(path).snapshot() == RunConfig().snapshot()
        parser = configparser.ConfigParser()
        parser.read_string(block)
        named = {f"{name}.{key}" for name in parser.sections() for key in parser[name]}
        assert named == set(RunConfig().snapshot())

    def test_cli_reads_config_from_environment(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nnot_a_key = 1\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(bad))
        flat = tmp_path / "flat.csv"
        flat.write_text("emg,ax,ay,az,gx,gy,gz\n" + "\n".join("1,0,0,0,0,0,0" for _ in range(10)))
        rc = cli.main(["preprocess", "--in", str(flat), "--out", str(tmp_path / "o.csv")])
        assert rc == cli.EXIT_USAGE
        assert "not_a_key" in capsys.readouterr().err

    def test_unwritable_output_dir(self, data_dir, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        rc = cli.main(
            ["synth-data", "--out", str(target / "sub"), "--reps", "1", "--sessions", "1"]
        )
        assert rc == cli.EXIT_USAGE
