import csv
import io
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgforge import dataio, train as tr
from emgforge import signal as dsp
from emgforge.errors import (
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    ShapeError,
)
from emgforge.model import ModelConfig, forward, init_weights
from emgforge.tensor import Tensor, adam_step, backward, mul, no_grad

FS = 1000.0

TINY_MODEL = ModelConfig(
    kernel_size=2, num_blocks=2, residual_channels=4, skip_channels=4, context_window=2
)


def tiny_split(n_segments=6, length=400, seed=0):
    """Small learnable dataset: target is a smoothed rectified gyro trace."""
    rng = np.random.default_rng(seed)
    segs = []
    for i in range(n_segments):
        imu = rng.standard_normal((6, length))
        drive = np.abs(imu[4])
        kernel = np.ones(20) / 20.0
        target = np.convolve(drive, kernel)[:length]
        target = np.clip(target / max(target.max(), 1e-9), 0.0, 1.0)
        segs.append(
            dataio.MergedSegment(
                bounds=dsp.SegmentBounds(0, length, 10),
                target=target,
                imu=imu,
                meta=dataio.SegmentMeta("s", "bicep_curl", 1, i, FS),
            )
        )
    return dataio.DatasetSplit(train=segs[:-1], test=segs[-1:], seed=seed)


def traced_peak_bytes(fn, *args) -> int:
    """Peak traced allocation of fn(*args) above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMseLoss:
    def test_equal_tensors(self):
        p = Tensor([[1.0, 2.0]])
        assert tr.mse_loss(p, Tensor([[1.0, 2.0]])).data[0, 0] == 0.0

    def test_unit_error(self):
        loss = tr.mse_loss(Tensor([[0.0, 0.0]]), Tensor([[1.0, 1.0]]))
        assert loss.data[0, 0] == 1.0

    def test_mixed_error(self):
        loss = tr.mse_loss(Tensor([[1.0, 2.0]]), Tensor([[2.0, 4.0]]))
        assert loss.data[0, 0] == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tr.mse_loss(Tensor([[1.0]]), Tensor([[1.0, 2.0]]))


class TestEarlyStopper:
    def test_patience_sequence_from_contract(self):
        stopper = tr.EarlyStopper(patience=5)
        values = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99]
        stopped_at = None
        for epoch, v in enumerate(values, start=1):
            stopper.update(v)
            if stopper.should_stop:
                stopped_at = epoch
                break
        assert stopped_at == 7
        assert stopper.best_epoch == 2
        assert stopped_at - stopper.best_epoch == 5

    def test_strictly_decreasing_never_stops(self):
        stopper = tr.EarlyStopper(patience=5)
        for v in np.linspace(1.0, 0.1, 50):
            stopper.update(v)
            assert not stopper.should_stop
        assert stopper.best_epoch == 50

    def test_tolerance_ignores_float_noise(self):
        stopper = tr.EarlyStopper(patience=2, tolerance=1e-6)
        stopper.update(1.0)
        assert not stopper.update(1.0 - 1e-9)  # within tolerance: not an improvement
        assert stopper.update(0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=1, max_size=60),
        patience=st.integers(1, 6),
    )
    def test_stop_gap_equals_patience(self, values, patience):
        stopper = tr.EarlyStopper(patience=patience)
        for epoch, v in enumerate(values, start=1):
            stopper.update(v)
            if stopper.should_stop:
                assert epoch - stopper.best_epoch == patience
                break


class TestTrainLoop:
    def test_validation_loss_fixed_order(self):
        split = tiny_split()
        w = init_weights(TINY_MODEL, seed=0)
        a = tr.validation_loss(w, split.test)
        b = tr.validation_loss(w, split.test)
        assert a == b

    def test_validation_loss_matches_forward(self):
        split = tiny_split(n_segments=3, length=2500)
        w = init_weights(ModelConfig(), seed=7)
        with no_grad():
            want = np.mean(
                [np.mean((forward(w, Tensor(s.imu)).data[0] - s.target) ** 2) for s in split.train]
            )
        assert abs(tr.validation_loss(w, split.train) - want) <= 1e-12 * want

    def test_validation_memory_does_not_grow_with_segment_length(self):
        w = init_weights(ModelConfig(), seed=6)

        def traced_peak(length):
            segments = tiny_split(n_segments=1, length=length).test
            return traced_peak_bytes(tr.validation_loss, w, segments)

        assert traced_peak(40_000) <= 2 * traced_peak(4_000)

    def test_window_gradients_peak_memory(self):
        # A window's graph keeps only what backward reads: no conv
        # pre-activation and no separate residual conv output.
        w = init_weights(ModelConfig(), seed=8)
        rng = np.random.default_rng(8)
        args = (w, rng.standard_normal((6, 1024)), rng.random((1, 1024)), Tensor(0.25))
        tr._window_gradients(*args)  # first-call allocations stay out of the figure
        assert traced_peak_bytes(tr._window_gradients, *args) <= 10 * 2**20

    def test_learns_and_restores_best(self):
        split = tiny_split()
        w = init_weights(TINY_MODEL, seed=0)
        cfg = tr.TrainConfig(
            learning_rate=3e-3,
            batch_size=4,
            crop_length=128,
            max_epochs=12,
            patience=4,
            seed=0,
        )
        w, hist = tr.train(w, split, cfg)
        assert hist.val_losses[0] >= min(hist.val_losses)
        assert tr.validation_loss(w, split.test) == min(hist.val_losses)
        assert hist.best_epoch == int(np.argmin(hist.val_losses)) + 1
        if hist.stopped_epoch < cfg.max_epochs:
            assert hist.stopped_epoch - hist.best_epoch == cfg.patience

    def test_deterministic_history(self):
        def run():
            split = tiny_split()
            w = init_weights(TINY_MODEL, seed=1)
            cfg = tr.TrainConfig(
                learning_rate=1e-3,
                batch_size=4,
                crop_length=128,
                max_epochs=4,
                patience=3,
                seed=7,
            )
            w, hist = tr.train(w, split, cfg)
            return hist, w

        h1, w1 = run()
        h2, w2 = run()
        assert h1.train_losses == h2.train_losses
        assert h1.val_losses == h2.val_losses
        for (n1, k1), (n2, k2) in zip(w1.named_kernels(), w2.named_kernels()):
            assert n1 == n2
            assert np.array_equal(k1.weights, k2.weights)
            assert np.array_equal(k1.bias, k2.bias)

    def test_runs_to_max_epochs_without_stop(self):
        split = tiny_split()
        w = init_weights(TINY_MODEL, seed=5)
        cfg = tr.TrainConfig(
            learning_rate=1e-3, batch_size=4, crop_length=128, max_epochs=3, patience=10
        )
        _, hist = tr.train(w, split, cfg)
        assert hist.stopped_epoch == 3
        assert len(hist.epochs) == 3

    def test_crop_below_receptive_field_rejected(self):
        split = tiny_split()
        w = init_weights(
            ModelConfig(
                kernel_size=3,
                num_blocks=6,
                residual_channels=4,
                skip_channels=4,
                context_window=16,
            ),
            seed=0,
        )
        cfg = tr.TrainConfig(crop_length=100, max_epochs=1, patience=1)
        with pytest.raises(ConfigError):
            tr.train(w, split, cfg)

    def test_empty_split_rejected(self):
        split = tiny_split()
        empty = dataio.DatasetSplit(train=split.train, test=[], seed=0)
        w = init_weights(TINY_MODEL, seed=0)
        with pytest.raises(InsufficientDataError):
            tr.train(w, empty, tr.TrainConfig(crop_length=64, max_epochs=1))

    def test_divergence_reports_epoch(self):
        split = tiny_split()
        w = init_weights(TINY_MODEL, seed=0)
        cfg = tr.TrainConfig(
            learning_rate=1e160, batch_size=4, crop_length=128, max_epochs=3, patience=2
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch"):
                tr.train(w, split, cfg)

    def test_normalizer_fitted_from_train(self):
        split = tiny_split()
        w = init_weights(TINY_MODEL, seed=0)
        cfg = tr.TrainConfig(
            learning_rate=1e-3, batch_size=4, crop_length=128, max_epochs=1, patience=1
        )
        tr.train(w, split, cfg)
        stacked = np.concatenate([s.imu for s in split.train], axis=1)
        assert np.allclose(w.input_offset, stacked.mean(axis=1))
        assert np.allclose(w.input_scale, 1.0 / stacked.std(axis=1))


def serial_train(weights, split, cfg):
    """The oracle: every window of a batch forward and backward one after
    another on the main thread, accumulating into the weights' own gradients."""
    tr.fit_input_normalizer(weights, split.train)
    params = weights.parameter_arrays()
    state = None
    stopper = tr.EarlyStopper(cfg.patience, cfg.improvement_tolerance)
    losses, best = [], None
    for epoch in range(1, cfg.max_epochs + 1):
        loss_sum, n = 0.0, 0
        windows = dataio.make_windows(split, cfg.crop_length, cfg.batch_size, cfg.seed, epoch=epoch)
        for batch in windows:
            weights.zero_grads()
            inv_b = Tensor(np.array([[1.0 / batch.inputs.shape[0]]]))
            for x, y in zip(batch.inputs, batch.targets):
                loss = tr.mse_loss(forward(weights, Tensor(x)), Tensor(y))
                backward(mul(loss, inv_b))
                loss_sum += float(loss.data[0, 0])
                n += 1
            state = adam_step(params, weights.gradient_arrays(), state, cfg.learning_rate)
        pairs = tr.predictions(weights, split.test)
        val = float(np.mean([float(np.mean((pred - s.target) ** 2)) for s, pred in pairs]))
        losses.append((loss_sum / n, val))
        if stopper.update(val):
            best = {k: v.copy() for k, v in params.items()}
        if stopper.should_stop:
            break
    for name, arr in params.items():
        arr[:] = best[name]
    return losses, weights


class TestParallelWindows:
    CFG = tr.TrainConfig(
        learning_rate=3e-3, batch_size=4, crop_length=128, max_epochs=4, patience=2, seed=3
    )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_serial_windows(self, workers, monkeypatch):
        # Two test segments, so validation is mapped over the pool too; 15
        # windows an epoch, so the last batch of each holds three.
        split = tiny_split(n_segments=7)
        split = dataio.DatasetSplit(split.train[:5], split.train[5:] + split.test, seed=0)
        want_losses, want = serial_train(init_weights(TINY_MODEL, seed=4), split, self.CFG)

        monkeypatch.setattr(tr, "window_workers", lambda batch_size: (workers, "patched"))
        # Frequent thread switches, so a lost or misordered update would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, hist = tr.train(init_weights(TINY_MODEL, seed=4), split, self.CFG)
        finally:
            sys.setswitchinterval(interval)
        assert list(zip(hist.train_losses, hist.val_losses)) == want_losses
        for (name, a), (_, b) in zip(
            got.parameter_arrays().items(), want.parameter_arrays().items()
        ):
            assert a.tobytes() == b.tobytes(), name
        assert got.input_offset.tobytes() == want.input_offset.tobytes()
        assert got.input_scale.tobytes() == want.input_scale.tobytes()

    def test_validation_loss_on_pool_matches_serial(self):
        split = tiny_split(n_segments=5)
        w = init_weights(TINY_MODEL, seed=6)
        with ThreadPoolExecutor(2) as pool:
            assert tr.validation_loss(w, split.train, pool) == tr.validation_loss(w, split.train)

    def test_divergence_warns_nothing_from_workers(self, monkeypatch):
        # The caller's np.errstate must reach the worker threads; a warning
        # raised there would surface as the error instead of DivergenceError.
        monkeypatch.setattr(tr, "window_workers", lambda batch_size: (2, "patched"))
        w = init_weights(TINY_MODEL, seed=0)
        cfg = tr.TrainConfig(
            learning_rate=1e160, batch_size=4, crop_length=128, max_epochs=3, patience=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError, match="epoch"):
                    tr.train(w, tiny_split(), cfg)


class TestWindowWorkers:
    @pytest.mark.parametrize(
        "env, cpus, batch, want",
        [
            ({}, 2, 16, (1, "BLAS threads unset, one per CPU")),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 16, (2, "OPENBLAS_NUM_THREADS=1")),
            ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, (3, "OPENBLAS_NUM_THREADS=1")),
            (
                {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
                8,
                16,
                (4, "OPENBLAS_NUM_THREADS=2"),
            ),
            (
                {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"},
                8,
                16,
                (4, "OMP_NUM_THREADS=2"),
            ),
            ({"OPENBLAS_NUM_THREADS": "x"}, 4, 16, (1, "BLAS threads unset, one per CPU")),
            ({"OMP_NUM_THREADS": "16"}, 4, 16, (1, "OMP_NUM_THREADS=16")),
        ],
    )
    def test_cpus_over_blas_threads(self, env, cpus, batch, want, monkeypatch):
        monkeypatch.setattr(tr, "_BLAS_ENV", {var: env.get(var) for var in tr.BLAS_THREAD_VARS})
        monkeypatch.setattr(tr, "_cpu_count", lambda: cpus)
        assert tr.window_workers(batch) == want


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", 0.0),
            ("learning_rate", -1e-3),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("batch_size", 0),
            ("crop_length", 0),
            ("crop_length", -5),
            ("improvement_tolerance", float("nan")),
            ("improvement_tolerance", float("inf")),
            ("improvement_tolerance", -1e-6),
        ],
    )
    def test_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tr.TrainConfig(**{field: value})


class TestEvaluate:
    def test_report_structure(self):
        split = tiny_split()
        w = init_weights(TINY_MODEL, seed=2)
        segments = split.test + split.train[:2]
        report = tr.evaluate(w, segments)
        assert len(report.rows) == 3
        agg = report.aggregate()
        assert set(agg) == {"mse", "mae", "cosine", "fft_cosine"}
        for stats in agg.values():
            assert set(stats) == {"best", "worst", "average"}
        # The report keeps the pairs it scored: the same predictions, in row order.
        assert [seg for seg, _ in report.pairs] == segments
        assert [row.segment_id for row in report.rows] == [str(s.segment_id) for s in segments]
        for (_, pred), (_, want) in zip(report.pairs, tr.predictions(w, segments)):
            assert pred.tobytes() == want.tobytes()

    def test_single_segment_collapses_aggregates(self):
        split = tiny_split()
        w = init_weights(TINY_MODEL, seed=3)
        report = tr.evaluate(w, split.test)
        assert len(report.pairs) == len(report.rows) == 1
        for stats in report.aggregate().values():
            assert stats["best"] == stats["worst"] == stats["average"]

    def test_empty_rejected(self):
        w = init_weights(TINY_MODEL, seed=4)
        with pytest.raises(InsufficientDataError):
            tr.evaluate(w, [])

    def test_predictions_match_forward_and_repeat_bytes(self):
        split = tiny_split(length=2500)
        w = init_weights(ModelConfig(), seed=5)
        first = tr.predictions(w, split.train + split.test)
        again = tr.predictions(w, split.train + split.test)
        for (seg, pred), (_, repeat) in zip(first, again):
            with no_grad():
                want = forward(w, Tensor(seg.imu)).data[0]
            assert np.max(np.abs(pred - want)) <= 1e-9
            assert pred.tobytes() == repeat.tobytes()

    def test_prediction_memory_does_not_grow_with_segment_length(self):
        w = init_weights(ModelConfig(), seed=6)

        def traced_peak(length):
            return traced_peak_bytes(tr.predictions, w, tiny_split(n_segments=1, length=length).test)

        assert traced_peak(40_000) <= 2 * traced_peak(4_000)


class TestHistoryExport:
    def test_csv_columns(self, tmp_path):
        hist = tr.TrainHistory(
            epochs=[tr.EpochStats(1, 0.5, 0.4, 1.25), tr.EpochStats(2, 0.3, 0.35, 1.5)],
            best_epoch=1,
            stopped_epoch=2,
        )
        path = tmp_path / "history.csv"
        hist.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,seconds"
        assert len(lines) == 3

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        epochs = [tr.EpochStats(1, 0.1, 1 / 3, 12.3456789), tr.EpochStats(10, 2e-7, 5e16, 0.0)]
        path = tmp_path / "history.csv"
        tr.TrainHistory(epochs=epochs).to_csv(path)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["epoch", "train_loss", "val_loss", "seconds"])
        for e in epochs:
            writer.writerow(
                [e.epoch, f"{e.train_loss:.17g}", f"{e.val_loss:.17g}", f"{e.seconds:.6f}"]
            )
        assert path.read_bytes() == expected.getvalue().encode()

    def test_run_metadata_records_choices(self, tmp_path):
        path = tmp_path / "run.json"
        tr.write_run_metadata(path, {"train.seed": 0})
        text = path.read_text()
        assert "normalized_envelope" in text
        assert "per_recording_envelope_max" in text
        assert "single_causal" in text
