import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emgforge import metrics
from emgforge.errors import DegenerateInputError, EmptyInputError, ShapeError


def naive_dft(x):
    """O(n^2) reference DFT."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    return (np.exp(-2j * np.pi * np.outer(k, k) / n) @ x)


def padded_dft_magnitudes(x, m, bins):
    """|X[k]| for k in `bins` of `x` zero-padded to length m, by the O(m*n)
    DFT sum. k*j is reduced mod m in integers so each phase is exact to one
    rounding; rows go in chunks to keep the phase matrix small."""
    j = np.arange(x.size)
    out = []
    for start in range(0, bins.size, 256):
        k = bins[start : start + 256, None]
        theta = 2.0 * np.pi * ((k * j) % m) / m
        out.append(np.hypot(np.cos(theta) @ x, np.sin(theta) @ x))
    return np.concatenate(out)


def ifft(spectrum):
    """Inverse DFT of a spectrum's bins."""
    return np.fft.ifft(spectrum.bins)


class TestFFT:
    def test_impulse_is_flat(self):
        spec = metrics.fft([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(spec.bins, np.ones(4), atol=1e-12)

    def test_constant_is_dc_only(self):
        spec = metrics.fft([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(spec.bins, [4.0, 0.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256, 1024])
    def test_matches_naive_dft(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        got = metrics.fft(x).bins
        assert np.max(np.abs(got - naive_dft(x))) < 1e-9

    @pytest.mark.parametrize("n", [3, 5, 500, 1000])
    def test_zero_pads_to_next_power_of_two(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        spec = metrics.fft(x)
        m = metrics.next_pow2(n)
        assert spec.n == m
        padded = np.zeros(m)
        padded[:n] = x
        assert np.max(np.abs(spec.bins - naive_dft(padded))) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            metrics.fft([])

    @settings(max_examples=30, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(1, 512),
            elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
        )
    )
    def test_parseval(self, x):
        spec = metrics.fft(x)
        time_energy = float(np.sum(x**2))
        freq_energy = float(np.sum(np.abs(spec.bins) ** 2)) / spec.n
        assert freq_energy == pytest.approx(time_energy, rel=1e-9, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.sampled_from([4, 8, 32, 128]),
            elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
        )
    )
    def test_ifft_inverts(self, x):
        spec = metrics.fft(x)
        back = ifft(spec)
        assert np.max(np.abs(back.real - x)) < 1e-9
        assert np.max(np.abs(back.imag)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_circular_shift_preserves_magnitudes(self, data):
        n = data.draw(st.sampled_from([8, 64, 256]))
        x = data.draw(
            hnp.arrays(np.float64, n, elements=st.floats(-10, 10, allow_nan=False, width=64))
        )
        shift = data.draw(st.integers(0, n - 1))
        mags = np.abs(metrics.fft(x).bins)
        mags_shifted = np.abs(metrics.fft(np.roll(x, shift)).bins)
        assert np.max(np.abs(mags - mags_shifted)) <= 1e-9 * max(1.0, mags.max())


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, -3.0])
        assert metrics.cosine_sim(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert metrics.cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_invariance(self):
        v = np.array([1.0, 2.0, -3.0])
        assert metrics.cosine_sim(v, 2.0 * v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            metrics.cosine_sim([0.0, 0.0], [1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            metrics.cosine_sim([1.0, 2.0], [1.0, 2.0, 3.0])

    @settings(max_examples=40, deadline=None)
    @given(
        ab=st.integers(2, 64).flatmap(
            lambda n: st.tuples(
                *[hnp.arrays(np.float64, n, elements=st.floats(-100, 100, width=64))] * 2
            )
        ),
        alpha=st.sampled_from([-3.0, -1.0, 0.5, 2.0]),
        beta=st.sampled_from([-2.0, 1.0, 4.0]),
    )
    # sum(b**2) is subnormal here: an unscaled norm loses digits and the
    # cosine drifts off 1 by about 1e-6.
    @example(ab=(np.array([1.0, 1.0]), np.array([5.3e-160] * 2)), alpha=-3.0, beta=-2.0)
    def test_symmetry_and_signed_scale(self, ab, alpha, beta):
        a, b = ab
        norms = [np.linalg.norm(v) for v in (a, b, alpha * a, beta * b)]
        if any(n == 0.0 for n in norms):
            return
        c = metrics.cosine_sim(a, b)
        assert metrics.cosine_sim(b, a) == pytest.approx(c, abs=1e-12)
        expected = np.sign(alpha * beta) * c
        assert metrics.cosine_sim(alpha * a, beta * b) == pytest.approx(expected, abs=1e-9)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12

    def test_extreme_scales(self):
        a = np.array([1.0, 1.0])
        assert metrics.cosine_sim(a, [5.3e-160] * 2) == pytest.approx(1.0, abs=1e-15)
        assert metrics.cosine_sim(a, [1e300, 1e300]) == pytest.approx(1.0, abs=1e-15)
        assert metrics.cosine_sim(a, [5e-324, 0.0]) == pytest.approx(2**-0.5, abs=1e-15)


class TestFFTCosine:
    def test_identical_signals(self):
        x = np.random.default_rng(0).standard_normal(400)
        assert metrics.fft_cosine_sim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariant_for_sine(self):
        n = 1024
        t = np.arange(n)
        x = np.sin(2 * np.pi * 5 * t / n)
        for shift in (1, 17, 300):
            y = np.roll(x, shift)
            assert metrics.fft_cosine_sim(x, y) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_sines_nearly_orthogonal(self):
        fs = 1000.0
        t = np.arange(1024) / fs
        a = np.sin(2 * np.pi * 5.0 * t)
        b = np.sin(2 * np.pi * 50.0 * t)
        assert metrics.fft_cosine_sim(a, b) <= 0.05

    def test_zero_signal_rejected(self):
        with pytest.raises(DegenerateInputError):
            metrics.fft_cosine_sim(np.zeros(16), np.ones(16))

    @pytest.mark.parametrize("include_dc", [True, False], ids=["dc", "no_dc"])
    @pytest.mark.parametrize("n", [37, 1000, 5004])
    def test_matches_naive_dft_of_padded_pair(self, n, include_dc):
        # Pins the zero padding and the bin range [0 or 1, m/2], whatever
        # transform `fft` uses; 5004 is a real segment length.
        rng = np.random.default_rng(n)
        a = np.abs(rng.standard_normal(n)) + 0.1
        b = a + 0.3 * rng.standard_normal(n)
        m = metrics.next_pow2(n)
        bins = np.arange(0 if include_dc else 1, m // 2 + 1)
        mags = [padded_dft_magnitudes(x, m, bins) for x in (a, b)]
        expected = np.dot(*mags) / (np.linalg.norm(mags[0]) * np.linalg.norm(mags[1]))
        got = metrics.fft_cosine_sim(a, b, include_dc=include_dc)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_dc_can_be_dropped(self):
        x = np.ones(64) + 0.01 * np.random.default_rng(1).standard_normal(64)
        y = 5.0 * np.ones(64) + 0.01 * np.random.default_rng(2).standard_normal(64)
        with_dc = metrics.fft_cosine_sim(x, y)
        without_dc = metrics.fft_cosine_sim(x, y, include_dc=False)
        assert with_dc > 0.99
        assert without_dc < with_dc

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_circular_shift_property(self, data):
        n = data.draw(st.sampled_from([64, 256]))
        x = data.draw(
            hnp.arrays(np.float64, n, elements=st.floats(-10, 10, allow_nan=False, width=64))
        )
        peak = np.max(np.abs(x))
        if peak == 0.0:
            return
        x = x / peak  # the metric is scale-invariant; avoid underflowing spectra
        shift = data.draw(st.integers(1, n - 1))
        assert metrics.fft_cosine_sim(x, np.roll(x, shift)) == pytest.approx(1.0, abs=1e-9)


_ERROR_ELEMENTS = st.floats(-1e3, 1e3, allow_nan=False, width=64)


class TestErrors:
    def test_mae_examples(self):
        assert metrics.mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert metrics.mae([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)

    def test_mse_examples(self):
        assert metrics.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert metrics.mse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.mae([1.0], [1.0, 2.0])
        with pytest.raises(ShapeError):
            metrics.mse([1.0], [1.0, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 128).flatmap(
            lambda n: st.tuples(*[hnp.arrays(np.float64, n, elements=_ERROR_ELEMENTS)] * 2)
        )
    )
    # A constant difference: mae**2 equals mse exactly, and their rounded
    # values differ by 1.9e-9 (4 ulp of mse).
    @example((np.full(114, -831.9693128352303), np.full(114, 665.2882953067956)))
    def test_mae_bounded_by_rms_error(self, pair):
        """mae**2 <= mse (Jensen), within a few rounding errors of mse: the two
        are equal whenever b - a is constant."""
        a, b = pair
        mse = metrics.mse(a, b)
        assert metrics.mae(a, b) ** 2 <= mse * (1 + 64 * np.finfo(np.float64).eps)


@pytest.mark.parametrize(
    "metric", [metrics.mse, metrics.mae, metrics.cosine_sim, metrics.fft_cosine_sim]
)
@pytest.mark.parametrize(
    "a, b, error",
    [([], [], EmptyInputError), ([1.0], [1.0, 2.0], ShapeError)],
    ids=["empty", "length_mismatch"],
)
def test_every_metric_checks_its_pair_alike(metric, a, b, error):
    with pytest.raises(error):
        metric(a, b)


class TestReport:
    def _report(self):
        rng = np.random.default_rng(7)
        pairs = []
        for i in range(5):
            target = np.abs(rng.standard_normal(300)) + 0.1
            pred = target + 0.05 * rng.standard_normal(300)
            pairs.append((f"seg{i}", pred, target))
        return metrics.report_from_pairs(pairs)

    def test_perfect_prediction_scores(self):
        x = np.abs(np.random.default_rng(3).standard_normal(256)) + 0.5
        report = metrics.report_from_pairs([("a", x, x), ("b", 2 * x, 2 * x)])
        agg = report.aggregate()
        for stat in ("best", "worst", "average"):
            assert agg["mse"][stat] == 0.0
            assert agg["mae"][stat] == 0.0
            assert agg["cosine"][stat] == pytest.approx(1.0, abs=1e-12)
            assert agg["fft_cosine"][stat] == pytest.approx(1.0, abs=1e-12)

    def test_aggregate_matches_rows(self):
        report = self._report()
        agg = report.aggregate()
        for name in metrics.METRIC_NAMES:
            values = [getattr(r, name) for r in report.rows]
            if name in ("mse", "mae"):
                assert agg[name]["best"] == min(values)
                assert agg[name]["worst"] == max(values)
            else:
                assert agg[name]["best"] == max(values)
                assert agg[name]["worst"] == min(values)
            assert agg[name]["average"] == pytest.approx(np.mean(values), rel=1e-12)

    def test_aggregate_ordering_invariant(self):
        agg = self._report().aggregate()
        for name in ("mse", "mae"):
            assert agg[name]["best"] <= agg[name]["average"] <= agg[name]["worst"]
        for name in ("cosine", "fft_cosine"):
            assert agg[name]["worst"] <= agg[name]["average"] <= agg[name]["best"]

    def test_table_layout(self):
        table = self._report().format_table()
        for label in ("MSE", "MAE", "Cosine Sim", "FFT Cosine", "Best", "Worst", "Average"):
            assert label in table

    def test_csv_round_trip_values(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "segment_id,mse,mae,cosine,fft_cosine"
        assert len(lines) == 1 + len(report.rows) + 3
        stats = {row.split(",")[0] for row in lines[-3:]}
        assert stats == {"best", "worst", "average"}

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        """The report's bytes are those of a csv.writer with "%.17g" values,
        ids that need quoting included."""
        rows = [
            metrics.SegmentMetrics('a,"b"', 0.1, 1e-7, -0.5, 1.0),
            metrics.SegmentMetrics("plain", 3e20, 0.0, float("nan"), 2.0 / 3.0),
        ]
        report = metrics.MetricsReport(tuple(rows))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        expected = io.StringIO()
        writer = csv.writer(expected)
        names = metrics.METRIC_NAMES
        writer.writerow(["segment_id", *names])
        agg = report.aggregate()
        for r in rows:
            writer.writerow([r.segment_id] + [f"{getattr(r, m):.17g}" for m in names])
        for stat in ("best", "worst", "average"):
            writer.writerow([stat] + [f"{agg[m][stat]:.17g}" for m in names])
        assert path.read_bytes() == expected.getvalue().encode()
