"""MSE training loop with patience-based early stopping and evaluation.

One epoch draws random fixed-length crops covering each training segment
once in expectation and takes one Adam step per batch. The windows of a
batch run forward and backward on a thread pool, each on its own gradient
view of the weights; their gradients are summed in window order as they
arrive, which gives the same bits as accumulating them one window after
another. Validation scores each held-out segment as eval does, through the
stream plan's block path, which runs forward's per-block code, on the
pool, with the losses reduced in fixed order; the weights from the best
validation epoch are restored before returning.
"""

from __future__ import annotations

import contextvars
import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .dataio import DatasetSplit, MergedSegment, make_windows, write_float_rows
from .errors import ConfigError, DivergenceError, InsufficientDataError, ShapeError
from .model import ModelWeights, StreamState, forward, forward_streaming, receptive_field
from .tensor import Tensor, adam_step, backward, mean_all, mul, sub


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    crop_length: int = 1024
    max_epochs: int = 200
    patience: int = 5
    seed: int = 0
    train_fraction: float = 0.85
    improvement_tolerance: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.crop_length < 1:
            raise ConfigError(f"crop_length must be >= 1, got {self.crop_length}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.improvement_tolerance) and self.improvement_tolerance >= 0.0):
            raise ConfigError(
                f"improvement_tolerance must be finite and >= 0, got {self.improvement_tolerance}"
            )


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    @property
    def train_losses(self) -> list[float]:
        return [e.train_loss for e in self.epochs]

    @property
    def val_losses(self) -> list[float]:
        return [e.val_loss for e in self.epochs]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["epoch", "train_loss", "val_loss", "seconds"])
            for e in self.epochs:
                # The wall-clock seconds end the row in their own text, six decimals.
                eol = f",{e.seconds:.6f}\r\n"
                write_float_rows(fh, [[e.train_loss], [e.val_loss]], str(e.epoch), eol)


class EarlyStopper:
    """Stop after `patience` consecutive epochs without improvement.

    Improvement means the value drops below best - tolerance; the tolerance
    keeps float noise from resetting the counter.
    """

    def __init__(self, patience: int, tolerance: float = 1e-6):
        self.patience = patience
        self.tolerance = tolerance
        self.best_value = None
        self.best_epoch = 0
        self.bad_epochs = 0
        self._epoch = 0

    def update(self, value: float) -> bool:
        """Feed one epoch's validation value; returns True on improvement."""
        self._epoch += 1
        if self.best_value is None or value < self.best_value - self.tolerance:
            self.best_value = value
            self.best_epoch = self._epoch
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad_epochs >= self.patience


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared differences over all elements (differentiable)."""
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"loss shape mismatch: {pred.data.shape} vs {target.data.shape}")
    diff = sub(pred, target)
    return mean_all(mul(diff, diff))


def fit_input_normalizer(weights: ModelWeights, segments: list[MergedSegment]) -> None:
    """Set the per-channel affine normalizer from training-set statistics."""
    stacked = np.concatenate([seg.imu for seg in segments], axis=1)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    std = np.where(std < 1e-8, 1.0, std)
    weights.input_offset = mean
    weights.input_scale = 1.0 / std


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# The BLAS library reads its thread count once, when numpy loads it, which
# is before this module is imported.
_BLAS_ENV = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def window_workers(batch_size: int) -> tuple[int, str]:
    """Threads that train a batch's windows, and the BLAS setting behind that.

    The CPUs this process may run on divided by the BLAS pool size it
    started with, clamped to [1, batch_size]. A variable that does not hold
    a positive integer counts as unset; with both unset BLAS runs one thread
    per CPU, which leaves one window thread.
    """
    cpus = _cpu_count()
    blas, source = cpus, "BLAS threads unset, one per CPU"
    for var in BLAS_THREAD_VARS:
        raw = (_BLAS_ENV[var] or "").strip()
        if raw.isdecimal() and int(raw) >= 1:
            blas, source = int(raw), f"{var}={raw}"
            break
    return max(1, min(batch_size, cpus // blas)), source


def _pool_map(pool: ThreadPoolExecutor | None, fn, arg_lists):
    """fn(*args) for each args in arg_lists, yielded in order, on `pool` if given.

    Each call runs in a copy of the caller's context, so the caller's
    no_grad() and np.errstate settings hold inside the workers. A result
    is released here once yielded, so a caller that consumes the results
    as they come holds only those not yet read.
    """
    if pool is None:
        yield from (fn(*args) for args in arg_lists)
        return
    futures = [pool.submit(contextvars.copy_context().run, fn, *args) for args in arg_lists]
    futures.reverse()
    try:
        while futures:
            yield futures.pop().result()
    finally:
        for f in futures:
            f.cancel()


def _predict(weights: ModelWeights, seg: MergedSegment) -> np.ndarray:
    """The segment's predictions, streamed as one block call on a fresh state.
    The block path runs at most 1 024 columns at a time, so memory does not
    grow with segment length. Predictions match forward() within 1e-9."""
    return forward_streaming(weights, StreamState(weights.config), seg.imu)


def _segment_loss(weights: ModelWeights, seg: MergedSegment) -> float:
    return metrics.mse(_predict(weights, seg), seg.target)


def validation_loss(
    weights: ModelWeights, segments: list[MergedSegment], pool: ThreadPoolExecutor | None = None
) -> float:
    """Mean full-length MSE over segments, each scored as eval scores it,
    reduced in fixed segment order."""
    losses = list(_pool_map(pool, _segment_loss, [(weights, seg) for seg in segments]))
    return float(np.mean(losses))


def _window_gradients(weights: ModelWeights, x: np.ndarray, y: np.ndarray, inv_b: Tensor):
    """One window's MSE and the gradients of MSE / batch size, on its own view."""
    view = weights.gradient_view()
    loss = mse_loss(forward(view, Tensor(x)), Tensor(y))
    backward(mul(loss, inv_b))
    return float(loss.data[0, 0]), view.gradient_arrays()


def train(
    weights: ModelWeights, split: DatasetSplit, cfg: TrainConfig
) -> tuple[ModelWeights, TrainHistory]:
    """Train in place; returns the weights restored to the best epoch.

    The held-out split doubles as the validation set for early stopping,
    so it is never windowed into training batches.
    """
    if not split.train or not split.test:
        raise InsufficientDataError(
            f"split must have train and test segments, got {len(split.train)}/{len(split.test)}"
        )
    rf = receptive_field(weights.config).total
    if cfg.crop_length < rf:
        raise ConfigError(
            f"crop_length {cfg.crop_length} is below the model receptive field {rf}"
        )

    fit_input_normalizer(weights, split.train)

    params = weights.parameter_arrays()
    adam_state = None
    stopper = EarlyStopper(cfg.patience, cfg.improvement_tolerance)
    history = TrainHistory()
    # Windows run on pool threads even with one worker, so that every worker
    # count takes the same path.
    n_workers = window_workers(cfg.batch_size)[0]
    with ThreadPoolExecutor(n_workers, thread_name_prefix="emgforge-window") as pool:
        for epoch in range(1, cfg.max_epochs + 1):
            t0 = time.perf_counter()
            loss_sum = 0.0
            n_windows = 0
            windows = make_windows(split, cfg.crop_length, cfg.batch_size, cfg.seed, epoch=epoch)
            for batch in windows:
                inv_b = Tensor(np.array([[1.0 / batch.inputs.shape[0]]]))
                # Each window's gradients start from zero, so summing them in
                # window order adds the same terms in the same order as one
                # accumulator shared by the windows would. Each set is added
                # and dropped as it comes, not held until the batch ends.
                grads = None
                for loss, window in _pool_map(
                    pool,
                    _window_gradients,
                    [(weights, x, y, inv_b) for x, y in zip(batch.inputs, batch.targets)],
                ):
                    loss_sum += loss
                    n_windows += 1
                    if grads is None:
                        grads = window
                    else:
                        for name, g in window.items():
                            grads[name] += g
                try:
                    adam_state = adam_step(params, grads, adam_state, cfg.learning_rate)
                except DivergenceError as exc:
                    raise DivergenceError(f"epoch {epoch}: {exc}") from exc

            train_loss = loss_sum / max(n_windows, 1)
            val_loss = validation_loss(weights, split.test, pool)
            if not np.isfinite(train_loss) or not np.isfinite(val_loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")

            history.epochs.append(
                EpochStats(epoch, train_loss, val_loss, time.perf_counter() - t0)
            )
            if stopper.update(val_loss):
                best_arrays = {k: v.copy() for k, v in params.items()}
            history.best_epoch = stopper.best_epoch
            history.stopped_epoch = epoch
            if stopper.should_stop:
                break

    # Epoch 1's update always improves, so the best epoch's arrays are set.
    for name, arr in params.items():
        arr[:] = best_arrays[name]
    return weights, history


@dataclass(frozen=True)
class Evaluation(metrics.MetricsReport):
    """A metrics report that keeps the (segment, prediction) pairs it scored."""

    pairs: tuple = field(default=(), compare=False, repr=False)


def evaluate(
    weights: ModelWeights, segments: list[MergedSegment], include_dc: bool = True
) -> Evaluation:
    """Each segment's predictions, scored with all four metrics.

    `include_dc=False` drops the DC bin from the spectral similarity
    (envelope DC can dominate it).
    """
    if not segments:
        raise InsufficientDataError("no segments to evaluate")
    pairs = predictions(weights, segments)
    report = metrics.report_from_pairs(
        [(seg.segment_id, pred, seg.target) for seg, pred in pairs], include_dc=include_dc
    )
    return Evaluation(report.rows, tuple(pairs))


def predictions(weights: ModelWeights, segments: list[MergedSegment]):
    """(segment, prediction) pairs, in segment order."""
    return [(seg, _predict(weights, seg)) for seg in segments]


def write_run_metadata(path, run_config_snapshot: dict) -> None:
    """Record the configuration and fixed pipeline choices beside a checkpoint."""
    snapshot = dict(run_config_snapshot)
    snapshot.setdefault("prediction_target", "normalized_envelope")
    snapshot.setdefault("filter_passes", "single_causal")
    snapshot.setdefault("normalization", "per_recording_envelope_max")
    snapshot.setdefault("validation_set", "held_out_test_split")
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
