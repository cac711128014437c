"""The three workloads: inputs made from a seed, timed rounds, and checks.

Each workload has the same shape:

- `setup()` makes the inputs; the runner times it and may repeat it.
- `prepare(tally)` runs once before timing: one-off checks, and a warm-up
  so the first timed round does not pay for growing the heap.
- `round(tally)` does one round of equal work, counts its operations, and
  returns the samples it processed and the time of each unit operation in ms.
- `check_round(tally)` checks the outputs of the last round, untimed.

The benchmark calls into emgforge only through module attributes
(`model.forward`, `cli.main`, ...), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from emgforge import cli, config, dataio, model, synthgen, tensor
from emgforge import train as training
from spans import rebind, restore

REPS = 7  # contractions per synthetic session, the CLI default
DAY_SEED_STRIDE = 7919  # session `day` of seed s is generated from s + 7919 * day


class Tally:
    """Operations and checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"operation failed: {what}")

    def check(self, fn, *args) -> None:
        """Run one check; an exception inside it counts as the check failing."""
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception as exc:  # a check that cannot read its input has failed
            problems = [f"{fn.__name__}: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.checks_failed += 1
            self.problems += problems


def _save_untrained(imu: np.ndarray, path: Path) -> None:
    """An untrained default model whose input normalizer is fitted on `imu` [6 x T]."""
    weights = model.init_weights(model.ModelConfig(), seed=0)
    std = imu.std(axis=1)
    weights.input_offset = imu.mean(axis=1)
    weights.input_scale = 1.0 / np.where(std < 1e-8, 1.0, std)
    model.save_weights(weights, path)


def _no_grad_row(weights, x: np.ndarray) -> np.ndarray:
    with tensor.no_grad():
        return model.forward(weights, tensor.Tensor(x)).data[0]


class Train:
    """`train.train()` on the CLI-default model and TrainConfig, 3 epochs a round."""

    # From the untrained default model the validation loss can rise in epoch
    # 2 (seeds 6-8), so two epochs would fail the best-beats-first check on
    # some seeds only. Over seeds 1-20 epoch 3 is at most 0.55x the first.
    EPOCHS = 3
    SESSIONS = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        run_cfg = config.default_run_config()
        profile = synthgen.MotionProfile(n_reps=REPS)
        segments = []
        for day in range(1, self.SESSIONS + 1):
            # The sessions `emgforge synth-data --seed <seed>` would write.
            seed = self.seed + DAY_SEED_STRIDE * day
            rec, _ = synthgen.generate_recording(profile, seed, day=day)
            segments += dataio.build_segments(rec, run_cfg.segmentation)
        self.split = dataio.split_dataset(
            segments, run_cfg.train.train_fraction, run_cfg.train.seed
        )
        # patience == epochs: early stopping can never end a round early.
        self.cfg = replace(run_cfg.train, max_epochs=self.EPOCHS, patience=self.EPOCHS)
        self.model_cfg = run_cfg.model
        self.windows = checks.window_count(
            [len(s) for s in self.split.train], self.cfg.crop_length
        )

    def _train(self):
        weights = model.init_weights(self.model_cfg, self.cfg.seed)
        return training.train(weights, self.split, self.cfg)[1]

    def prepare(self, tally: Tally) -> None:
        """One untimed round that captures the first batch and its gradient."""
        weights = model.init_weights(self.model_cfg, self.cfg.seed)
        captured: dict = {}
        per_epoch: list[int] = []
        make_windows = training.make_windows
        adam_step = training.adam_step

        def counting_windows(*args, **kwargs):
            n = 0
            for batch in make_windows(*args, **kwargs):
                captured.setdefault("batch", batch)
                n += batch.inputs.shape[0]
                yield batch
            per_epoch.append(n)

        def capturing_adam(params, grads, state, lr, *args, **kwargs):
            if "grads" not in captured:
                captured["grads"] = {k: v.copy() for k, v in grads.items()}
                captured["weights"] = weights.copy()
            return adam_step(params, grads, state, lr, *args, **kwargs)

        patched = rebind(make_windows, counting_windows) + rebind(adam_step, capturing_adam)
        try:
            history = training.train(weights, self.split, self.cfg)[1]
        finally:
            restore(patched)
        self.reference = (history.train_losses, history.val_losses)

        batch = captured["batch"]
        tally.check(
            checks.gradient_check,
            _no_grad_row,
            captured["weights"],
            batch.inputs,
            batch.targets,
            captured["grads"],
            np.random.default_rng(self.seed),
        )
        tally.check(self._window_check, per_epoch)
        tally.check(checks.history_check, *self.reference)

    def _window_check(self, per_epoch: list[int]) -> list[str]:
        if per_epoch != [self.windows] * self.EPOCHS:
            return [f"windows per epoch {per_epoch}, expected {self.windows} from segment lengths"]
        return []

    def round(self, tally: Tally):
        t0 = time.perf_counter()
        history = self._train()
        seconds = time.perf_counter() - t0
        tally.op(True, "train")
        self.last = (history.train_losses, history.val_losses)
        # The unit operation is one training window; rounds time them together.
        n = self.EPOCHS * self.windows
        return n * self.cfg.crop_length, [seconds * 1e3 / n]

    def check_round(self, tally: Tally) -> None:
        tally.check(checks.history_check, *self.last)
        tally.check(self._same_as_reference)

    def _same_as_reference(self) -> list[str]:
        if self.last != self.reference:
            return [f"round history {self.last} differs from the first run {self.reference}"]
        return []


class Offline:
    """`emgforge preprocess` per raw session CSV, then one `emgforge eval`."""

    SESSIONS = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.data = workdir / "data"
        self.segdir = workdir / "segments"
        self.report = workdir / "eval" / "report.csv"
        self.ckpt = workdir / "model.ckpt"

    def setup(self) -> None:
        for d in (self.data, self.segdir, self.report.parent):
            shutil.rmtree(d, ignore_errors=True)
        code = _cli(
            "synth-data", "--out", self.data, "--reps", REPS,
            "--sessions", self.SESSIONS, "--seed", self.seed,
        )
        if code != 0:
            raise RuntimeError(f"synth-data exited {code}")
        self.segdir.mkdir()
        self.raw = sorted(p for p in self.data.glob("*.csv") if not p.stem.endswith("_truth"))
        self.samples = [checks.count_rows(p) for p in self.raw]

        imu = np.concatenate(
            [np.loadtxt(p, delimiter=",", skiprows=1, usecols=range(1, 7)) for p in self.raw]
        )
        _save_untrained(imu.T, self.ckpt)

    def prepare(self, tally: Tally) -> None:
        pass

    def round(self, tally: Tally):
        op_ms = []
        exits = []
        for raw in self.raw:
            t0 = time.perf_counter()
            code = _cli("preprocess", "--in", raw, "--out", self.segdir / raw.name)
            op_ms.append((time.perf_counter() - t0) * 1e3)
            exits.append((f"preprocess {raw.name}", code))
        exits.append(
            ("eval", _cli("eval", "--data", self.data, "--ckpt", self.ckpt, "--report", self.report))
        )
        for what, code in exits:
            tally.op(code == 0, f"{what} exited {code}")
        self.ok = all(code == 0 for _, code in exits)
        return 2 * sum(self.samples), op_ms

    def check_round(self, tally: Tally) -> None:
        if not self.ok:
            return
        top_k = config.default_run_config().segmentation.top_k
        for raw, n in zip(self.raw, self.samples):
            seg = self.segdir / raw.name
            tally.check(checks.segment_file_check, seg, n, top_k)
            tally.check(checks.envelope_check, seg, raw.with_name(raw.stem + "_truth.csv"))
        tally.check(
            checks.report_check,
            self.report,
            self.report.with_name(self.report.stem + "_predictions"),
            [self.segdir / raw.name for raw in self.raw],
        )


def _cli(*argv) -> int:
    """In-process `emgforge <argv>`, its table and progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Stream:
    """`model.forward_streaming`, one sample at a time, on a loaded checkpoint."""

    # Per round: enough for a p99 with ten steps beyond it, and short enough
    # that a run holds dozens of rounds to average the host's speed swings.
    STEPS = 1000
    STREAM_REPS = 20  # a 62 s stream; rounds walk through it in turn

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.ckpt = workdir / "stream.ckpt"
        self.offset = 0

    def setup(self) -> None:
        profile = synthgen.MotionProfile(n_reps=self.STREAM_REPS)
        self.imu = synthgen.generate_recording(profile, seed=self.seed)[0].imu_matrix()
        _save_untrained(self.imu, self.ckpt)
        self.weights = model.load_weights(self.ckpt)

    def prepare(self, tally: Tally) -> None:
        pass

    def round(self, tally: Tally):
        n = self.STEPS
        if self.offset + n > self.imu.shape[1]:
            self.offset = 0
        chunk = self.imu[:, self.offset : self.offset + n]
        self.offset += n
        state = model.StreamState(self.weights.config)
        out = np.empty(n)
        lat = np.empty(n)
        clock = time.perf_counter
        for i in range(n):
            t0 = clock()
            out[i] = model.forward_streaming(self.weights, state, chunk[:, i])
            lat[i] = clock() - t0
        self.last = (chunk, out)
        tally.attempted += n
        return n, lat * 1e3

    def check_round(self, tally: Tally) -> None:
        chunk, out = self.last
        tally.check(checks.stream_check, out, _no_grad_row(self.weights, chunk))


WORKLOADS = {"train": Train, "offline": Offline, "stream": Stream}
