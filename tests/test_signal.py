import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emgforge import signal as dsp
from emgforge import synthgen
from emgforge.errors import (
    ConfigError,
    DegenerateSignalError,
    EmptyInputError,
    InvalidCutoffError,
    InvalidOrderError,
    InvalidPeaksError,
    NonFiniteInputError,
    TooShortError,
)

FS = 1000.0


def df2t_loop(x, sec):
    """Oracle: one section as the per-sample Direct Form II transposed
    recurrence on Python floats, zero initial state."""
    b0, b1, b2, a1, a2 = (float(c) for c in (sec.b0, sec.b1, sec.b2, sec.a1, sec.a2))
    y = []
    s1 = s2 = 0.0
    for xn in np.asarray(x, dtype=np.float64).tolist():
        yn = b0 * xn + s1
        s1 = b1 * xn - a1 * yn + s2
        s2 = b2 * xn - a2 * yn
        y.append(yn)
    return np.array(y)


def _conditioning(x, run_section):
    """The default chain, rectification and the 6 Hz envelope low-pass, each
    section run by `run_section(x, sec)`."""
    chain = dsp.FilterChainConfig()
    cutoffs = {
        "highpass": chain.highpass_hz,
        "bandpass": chain.bandpass_hz,
        "bandstop": chain.bandstop_hz,
    }
    for stage in chain.stages:
        for sec in dsp.design_butterworth(stage, chain.order, cutoffs[stage], FS).sections:
            x = run_section(x, sec)
    x = np.abs(x)
    for sec in dsp.design_butterworth("lowpass", 4, 6.0, FS).sections:
        x = run_section(x, sec)
    return x


# The conditioning chain's stages over the cutoffs an sEMG chain takes: its
# high-pass, band edges, mains notch (the 48-52 Hz one has the poles closest
# to the unit circle), and the envelope low-pass.
_STAGES = st.one_of(
    st.tuples(st.just("highpass"), st.floats(10.0, 250.0)),
    st.tuples(st.just("bandpass"), st.tuples(st.floats(10.0, 100.0), st.floats(150.0, 450.0))),
    st.tuples(
        st.just("bandstop"),
        st.one_of(
            st.just((48.0, 52.0)),
            st.builds(
                lambda centre, half: (centre - half, centre + half),
                st.floats(40.0, 70.0),
                st.floats(1.0, 5.0),
            ),
        ),
    ),
    st.tuples(st.just("lowpass"), st.floats(1.0, 30.0)),
)
# Signal lengths that end on, just after, or just before a block edge.
_BLOCK_EDGE_LENGTHS = st.builds(
    lambda blocks, rest: max(blocks * dsp._BLOCK + rest, 1),
    st.integers(0, 4),
    st.sampled_from([0, 1, 63, 64, 65]),
)


def db(cascade, freq, fs=FS):
    mag = np.abs(dsp.frequency_response(cascade, [freq], fs))[0]
    if mag == 0.0:
        return -np.inf
    return 20.0 * math.log10(mag)


# ---------------------------------------------------------------------------
# design_butterworth
# ---------------------------------------------------------------------------


class TestDesign:
    def test_highpass_cutoff_is_3db(self):
        c = dsp.design_butterworth("highpass", 4, 70.0, FS)
        assert db(c, 70.0) == pytest.approx(-3.0, abs=0.5)

    def test_highpass_rejects_dc_exactly(self):
        c = dsp.design_butterworth("highpass", 4, 70.0, FS)
        assert np.abs(dsp.frequency_response(c, [0.0], FS))[0] == 0.0

    def test_bandstop_attenuates_mains(self):
        c = dsp.design_butterworth("bandstop", 4, (48.0, 52.0), FS)
        assert db(c, 50.0) <= -20.0

    def test_bandpass_flat_at_geometric_center(self):
        c = dsp.design_butterworth("bandpass", 4, (20.0, 300.0), FS)
        assert db(c, math.sqrt(20.0 * 300.0)) >= -0.1

    def test_section_counts(self):
        assert len(dsp.design_butterworth("highpass", 4, 70, FS)) == 2
        assert len(dsp.design_butterworth("lowpass", 4, 6, FS)) == 2
        assert len(dsp.design_butterworth("bandpass", 4, (20, 300), FS)) == 4
        assert len(dsp.design_butterworth("bandstop", 4, (48, 52), FS)) == 4

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(InvalidCutoffError):
            dsp.design_butterworth("highpass", 4, 500.0, FS)
        with pytest.raises(InvalidCutoffError):
            dsp.design_butterworth("lowpass", 4, 600.0, FS)

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidOrderError):
            dsp.design_butterworth("highpass", 0, 70.0, FS)
        with pytest.raises(InvalidOrderError):
            dsp.design_butterworth("highpass", -2, 70.0, FS)

    def test_reversed_band_edges_rejected(self):
        with pytest.raises(InvalidCutoffError):
            dsp.design_butterworth("bandpass", 4, (300.0, 20.0), FS)

    def test_unstable_section_raises_config_error(self, monkeypatch):
        # A margin of 1 leaves no pole radius inside the stable region.
        monkeypatch.setattr(dsp, "STABILITY_MARGIN", 1.0)
        with pytest.raises(ConfigError, match="unstable section"):
            dsp.design_butterworth("lowpass", 4, 6.0, FS)

    def test_stability_check_kept_under_optimize_flag(self):
        # `python -O` strips assert statements; the check must not be one.
        script = (
            "from emgforge import signal as dsp\n"
            "from emgforge.errors import ConfigError\n"
            "dsp.STABILITY_MARGIN = 1.0\n"
            "try:\n"
            "    dsp.design_butterworth('lowpass', 4, 6.0, 1000.0)\n"
            "except ConfigError:\n"
            "    print('raised')\n"
        )
        src = str(Path(dsp.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "raised"

    @pytest.mark.parametrize(
        "kind,cut",
        [
            ("lowpass", 6.0),
            ("lowpass", 150.0),
            ("highpass", 70.0),
            ("highpass", 5.0),
            ("bandpass", (20.0, 300.0)),
            ("bandstop", (48.0, 52.0)),
            ("bandstop", (58.0, 62.0)),
        ],
    )
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    def test_every_section_stable(self, kind, cut, order):
        c = dsp.design_butterworth(kind, order, cut, FS)
        for sec in c.sections:
            assert np.all(np.abs(sec.poles()) < 1.0 - dsp.STABILITY_MARGIN)

    @pytest.mark.parametrize(
        "kind,cut",
        [
            ("lowpass", 40.0),
            ("highpass", 70.0),
            ("bandpass", (20.0, 300.0)),
            ("bandstop", (48.0, 52.0)),
        ],
    )
    def test_matches_analog_prototype_magnitude(self, kind, cut):
        """Closed-form oracle: bilinear maps |H| at f to the analog prototype
        magnitude at the pre-warped frequency."""
        order = 4
        c = dsp.design_butterworth(kind, order, cut, FS)
        freqs = np.linspace(1.0, 499.0, 499)
        warp = lambda f: 2 * FS * math.tan(math.pi * f / FS)
        if kind == "lowpass":
            omega = np.array([warp(f) / warp(cut) for f in freqs])
        elif kind == "highpass":
            omega = np.array([warp(cut) / warp(f) for f in freqs])
        else:
            w1, w2 = warp(cut[0]), warp(cut[1])
            bw, w0sq = w2 - w1, w1 * w2
            if kind == "bandpass":
                omega = np.array([(warp(f) ** 2 - w0sq) / (bw * warp(f)) for f in freqs])
            else:
                omega = np.array([(bw * warp(f)) / (w0sq - warp(f) ** 2) for f in freqs])
        expected = 1.0 / np.sqrt(1.0 + omega ** (2 * order))
        got = np.abs(dsp.frequency_response(c, freqs, FS))
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_matches_scipy_reference(self):
        ss = pytest.importorskip("scipy.signal")
        for kind, cut in [("highpass", 70.0), ("bandstop", (48.0, 52.0))]:
            mine = dsp.design_butterworth(kind, 4, cut, FS)
            sos = ss.butter(4, cut, btype=kind, fs=FS, output="sos")
            f = np.linspace(0.5, 499.0, 500)
            _, h_ref = ss.sosfreqz(sos, worN=2 * np.pi * f / FS, fs=2 * np.pi)
            h_mine = dsp.frequency_response(mine, f, FS)
            assert np.max(np.abs(np.abs(h_mine) - np.abs(h_ref))) < 1e-10

    @pytest.mark.parametrize(
        "kind,cut",
        [("lowpass", 100.0), ("highpass", 70.0), ("bandpass", (20.0, 300.0))],
    )
    def test_passband_monotone_toward_edges(self, kind, cut):
        """Maximal-flatness proxy: |H| is monotone from the passband center
        toward each band edge over 200 log-spaced samples."""
        c = dsp.design_butterworth(kind, 4, cut, FS)
        if kind == "lowpass":
            freqs = np.geomspace(0.1, cut, 200)
            mags = np.abs(dsp.frequency_response(c, freqs, FS))
            assert np.all(np.diff(mags) <= 1e-12)
        elif kind == "highpass":
            freqs = np.geomspace(cut, FS / 2 * 0.999, 200)
            mags = np.abs(dsp.frequency_response(c, freqs, FS))
            assert np.all(np.diff(mags) >= -1e-12)
        else:
            freqs = np.geomspace(cut[0], cut[1], 200)
            mags = np.abs(dsp.frequency_response(c, freqs, FS))
            peak = int(np.argmax(mags))
            assert np.all(np.diff(mags[: peak + 1]) >= -1e-12)
            assert np.all(np.diff(mags[peak:]) <= 1e-12)


# ---------------------------------------------------------------------------
# apply_filter
# ---------------------------------------------------------------------------


class TestApplyFilter:
    def test_zero_input_zero_output(self):
        c = dsp.design_butterworth("highpass", 4, 70.0, FS)
        y = dsp.apply_filter(dsp.SampledSignal(np.zeros(1000), FS), c)
        assert np.all(y.samples == 0.0)
        assert len(y) == 1000

    def test_empty_input_rejected(self):
        c = dsp.design_butterworth("highpass", 4, 70.0, FS)
        with pytest.raises(EmptyInputError):
            dsp.apply_filter(dsp.SampledSignal(np.array([]), FS), c)

    def test_length_preserved(self):
        c = dsp.design_butterworth("bandpass", 4, (20, 300), FS)
        x = np.random.default_rng(0).standard_normal(777)
        assert len(dsp.apply_filter(dsp.SampledSignal(x, FS), c)) == 777

    @settings(max_examples=25, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(8, 256),
            elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
        ),
        a=st.floats(-50.0, 50.0, allow_nan=False),
    )
    def test_homogeneity(self, x, a):
        c = dsp.design_butterworth("highpass", 4, 70.0, FS)
        ya = dsp.apply_filter(dsp.SampledSignal(a * x, FS), c).samples
        y = dsp.apply_filter(dsp.SampledSignal(x, FS), c).samples
        scale = max(np.max(np.abs(a * y)), 1.0)
        assert np.max(np.abs(ya - a * y)) <= 1e-9 * scale

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(8, 256),
    )
    def test_additivity(self, data, n):
        elements = st.floats(-1e3, 1e3, allow_nan=False, width=64)
        x1 = data.draw(hnp.arrays(np.float64, n, elements=elements))
        x2 = data.draw(hnp.arrays(np.float64, n, elements=elements))
        c = dsp.design_butterworth("bandstop", 4, (48, 52), FS)
        lhs = dsp.apply_filter(dsp.SampledSignal(x1 + x2, FS), c).samples
        rhs = (
            dsp.apply_filter(dsp.SampledSignal(x1, FS), c).samples
            + dsp.apply_filter(dsp.SampledSignal(x2, FS), c).samples
        )
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale

    def test_matches_per_sample_loop(self):
        # The block form sums in another order than the recurrence, so the
        # contract is a tolerance: 1e-12 of the input's max-abs. Measured on
        # this recording (max-abs 3.2): 6.2e-14.
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(), seed=1)
        x = rec.emg.samples
        expected = np.maximum(_conditioning(x, df2t_loop), 0.0)
        got = dsp.compute_envelope(dsp.preprocess_emg(rec.emg)).samples
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(x))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), order=st.integers(1, 4), length=_BLOCK_EDGE_LENGTHS)
    def test_matches_per_sample_loop_over_chain_ranges(self, data, order, length):
        kind, cutoffs = data.draw(_STAGES)
        elements = st.floats(-1e3, 1e3, allow_nan=False, width=64)
        x = data.draw(hnp.arrays(np.float64, length, elements=elements))
        cascade = dsp.design_butterworth(kind, order, cutoffs, FS)
        expected = x
        for sec in cascade.sections:
            expected = df2t_loop(expected, sec)
        got = dsp.apply_filter(dsp.SampledSignal(x, FS), cascade).samples
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(np.max(np.abs(x)), 1e-300)

    def test_poles_near_unit_circle_lose_accuracy(self):
        # Outside the chain ranges above the block form's deviation from the
        # loop grows with the poles' closeness to z = +-1: for this design
        # (pole radius 0.995) it measured 2.1e-10 of the input's max-abs,
        # where the loop's own error against long-double arithmetic is
        # 1.4e-11. Pinned so a change in that accuracy shows.
        cascade = dsp.design_butterworth("bandpass", 4, (2.0, 450.0), FS)
        x = np.random.default_rng(0).standard_normal(3000) * 3 + 1.0
        expected = x
        for sec in cascade.sections:
            expected = df2t_loop(expected, sec)
        got = dsp.apply_filter(dsp.SampledSignal(x, FS), cascade).samples
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(x))

    def test_matches_scipy_lfilter_over_full_chain(self):
        ss = pytest.importorskip("scipy.signal")
        x = np.random.default_rng(5).standard_normal(5 * dsp._BLOCK + 17)
        expected = _conditioning(
            x, lambda v, sec: ss.lfilter([sec.b0, sec.b1, sec.b2], [1.0, sec.a1, sec.a2], v)
        )
        expected = np.maximum(expected, 0.0)
        got = dsp.compute_envelope(dsp.preprocess_emg(dsp.SampledSignal(x, FS))).samples
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(x))

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        j=st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]), st.integers(0, 299)),
        value=st.floats(-1e3, 1e3, allow_nan=False, width=64),
    )
    def test_causal_across_block_edges(self, data, j, value):
        elements = st.floats(-1e3, 1e3, allow_nan=False, width=64)
        x = data.draw(hnp.arrays(np.float64, 300, elements=elements))
        edited = x.copy()
        edited[j] = value
        y = dsp.preprocess_emg(dsp.SampledSignal(x, FS)).samples
        y_edited = dsp.preprocess_emg(dsp.SampledSignal(edited, FS)).samples
        assert np.all(y_edited[:j] == y[:j])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 63, 64, 99])
    def test_non_finite_input_rejected(self, bad, where):
        c = dsp.design_butterworth("highpass", 4, 70.0, FS)
        x = np.ones(100)
        x[where] = bad
        with pytest.raises(NonFiniteInputError):
            dsp.apply_filter(dsp.SampledSignal(x, FS), c)

    def test_impulse_response_decays(self):
        c = dsp.design_butterworth("highpass", 4, 70.0, FS)
        impulse = np.zeros(4000)
        impulse[0] = 1.0
        h = dsp.apply_filter(dsp.SampledSignal(impulse, FS), c).samples
        assert np.all(np.abs(h[2001:]) < 1e-6)


# ---------------------------------------------------------------------------
# preprocess_emg
# ---------------------------------------------------------------------------


class TestPreprocess:
    def test_mains_sine_suppressed(self):
        t = np.arange(12000) / FS
        x = dsp.SampledSignal(np.sin(2 * np.pi * 50.0 * t), FS)
        y = dsp.preprocess_emg(x)
        assert np.sqrt(np.mean(y.samples**2)) <= 0.1 * np.sqrt(np.mean(x.samples**2))

    def test_passband_sine_preserved(self):
        t = np.arange(12000) / FS
        x = dsp.SampledSignal(np.sin(2 * np.pi * 150.0 * t), FS)
        y = dsp.preprocess_emg(x)
        assert np.sqrt(np.mean(y.samples**2)) >= 0.7 * np.sqrt(np.mean(x.samples**2))

    def test_dc_offset_ignored_after_transient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8000)
        y0 = dsp.preprocess_emg(dsp.SampledSignal(x, FS)).samples
        y1 = dsp.preprocess_emg(dsp.SampledSignal(x + 1.0, FS)).samples
        assert np.max(np.abs(y0[3000:] - y1[3000:])) <= 1e-6

    def test_output_zero_mean(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(50000)
        y = dsp.preprocess_emg(dsp.SampledSignal(x, FS)).samples
        assert abs(np.mean(y)) <= 1e-3 * np.sqrt(np.mean(x**2))

    def test_stage_order_configurable(self):
        chain = dsp.FilterChainConfig(stages=("bandpass",))
        t = np.arange(4000) / FS
        x = dsp.SampledSignal(np.sin(2 * np.pi * 50.0 * t), FS)
        y = dsp.preprocess_emg(x, chain)
        # without the notch stage, 50 Hz survives the band-pass
        assert np.sqrt(np.mean(y.samples[2000:] ** 2)) > 0.5

    def test_unknown_stage_rejected_when_configured(self):
        with pytest.raises(ConfigError, match="'foo'"):
            dsp.FilterChainConfig(stages=("highpass", "foo"))


# ---------------------------------------------------------------------------
# compute_envelope / normalize_envelope
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_constant_input_reaches_magnitude(self):
        x = dsp.SampledSignal(np.full(8000, -2.5), FS)
        env = dsp.compute_envelope(x)
        assert np.max(np.abs(env.samples[4000:] - 2.5)) <= 1e-3

    def test_rectified_sine_mean(self):
        # 100 samples/cycle so the discrete mean tracks the continuous 2/pi;
        # at 10 samples/cycle the grid lands on the rectified wave's zeros.
        fs = 10000.0
        t = np.arange(30000) / fs
        x = dsp.SampledSignal(np.sin(2 * np.pi * 100.0 * t), fs)
        env = dsp.compute_envelope(x)
        assert np.mean(env.samples[20000:]) == pytest.approx(2.0 / np.pi, abs=0.01)

    def test_zero_input_zero_output(self):
        env = dsp.compute_envelope(dsp.SampledSignal(np.zeros(500), FS))
        assert np.all(env.samples == 0.0)

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        env = dsp.compute_envelope(dsp.SampledSignal(rng.standard_normal(3000), FS))
        assert np.all(env.samples >= 0.0)

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(InvalidCutoffError):
            dsp.compute_envelope(dsp.SampledSignal(np.ones(100), FS), lp_cutoff=500.0)


class TestNormalize:
    def test_simple_scaling(self):
        out = dsp.normalize_envelope(dsp.SampledSignal([0.0, 2.0, 4.0], FS))
        assert np.array_equal(out.samples, [0.0, 0.5, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        env = dsp.SampledSignal(np.abs(rng.standard_normal(200)), FS)
        once = dsp.normalize_envelope(env)
        twice = dsp.normalize_envelope(once)
        assert np.array_equal(once.samples, twice.samples)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSignalError):
            dsp.normalize_envelope(dsp.SampledSignal(np.zeros(10), FS))

    @settings(max_examples=30, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(2, 200),
            elements=st.floats(0.0, 1e6, allow_nan=False, width=64),
        )
    )
    def test_range_and_max(self, x):
        if np.max(x) <= 0.0:
            with pytest.raises(DegenerateSignalError):
                dsp.normalize_envelope(dsp.SampledSignal(x, FS))
            return
        out = dsp.normalize_envelope(dsp.SampledSignal(x, FS)).samples
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.max(out) == 1.0


# ---------------------------------------------------------------------------
# detect_peaks / segment_by_peaks
# ---------------------------------------------------------------------------


def _signal_with_peaks(length, peaks):
    """Triangular bumps of given (index, height)."""
    x = np.zeros(length)
    for idx, height in peaks:
        x[idx] = height
        if idx > 0:
            x[idx - 1] = height * 0.5
        if idx + 1 < length:
            x[idx + 1] = height * 0.5
    return dsp.SampledSignal(x, FS)


class TestDetectPeaks:
    def test_separated_peaks_all_returned(self):
        sig = _signal_with_peaks(800, [(100, 3.0), (400, 2.0), (700, 1.0)])
        assert dsp.detect_peaks(sig, min_distance=150, top_k=7).tolist() == [100, 400, 700]

    def test_close_peak_suppressed(self):
        sig = _signal_with_peaks(400, [(100, 5.0), (200, 4.0)])
        assert dsp.detect_peaks(sig, min_distance=150, top_k=7).tolist() == [100]

    def test_top_k_limits_count(self):
        peaks = [(100 + 200 * i, 10.0 - i) for i in range(9)]
        sig = _signal_with_peaks(2000, peaks)
        got = dsp.detect_peaks(sig, min_distance=150, top_k=7)
        assert got.tolist() == [100 + 200 * i for i in range(7)]

    def test_too_short_rejected(self):
        with pytest.raises(TooShortError):
            dsp.detect_peaks(dsp.SampledSignal([1.0, 2.0], FS))

    def test_bad_params_rejected(self):
        sig = _signal_with_peaks(100, [(50, 1.0)])
        with pytest.raises(ConfigError):
            dsp.detect_peaks(sig, min_distance=0)
        with pytest.raises(ConfigError):
            dsp.detect_peaks(sig, top_k=0)

    def test_plateau_takes_leftmost_index(self):
        x = np.zeros(30)
        x[10:14] = 2.0
        got = dsp.detect_peaks(dsp.SampledSignal(x, FS), min_distance=5, top_k=3)
        assert got.tolist() == [10]

    @settings(max_examples=40, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(3, 400),
            elements=st.floats(-100.0, 100.0, allow_nan=False, width=64),
        ),
        min_distance=st.integers(1, 60),
        top_k=st.integers(1, 10),
    )
    def test_properties(self, x, min_distance, top_k):
        got = dsp.detect_peaks(dsp.SampledSignal(x, FS), min_distance, top_k)
        assert len(got) <= top_k
        assert np.all(np.diff(got) >= min_distance)
        for i in got:
            assert x[i - 1] < x[i] >= x[i + 1]


class TestSegmentByPeaks:
    def test_midpoint_boundaries(self):
        bounds = dsp.segment_by_peaks([100, 300, 500], 600)
        assert [(b.start, b.end) for b in bounds] == [(0, 200), (200, 400), (400, 600)]
        assert [b.peak for b in bounds] == [100, 300, 500]

    def test_single_peak_spans_signal(self):
        bounds = dsp.segment_by_peaks([250], 600)
        assert [(b.start, b.end) for b in bounds] == [(0, 600)]

    def test_adjacent_peaks(self):
        bounds = dsp.segment_by_peaks([10, 11], 20)
        assert [(b.start, b.end) for b in bounds] == [(0, 10), (10, 20)]

    def test_invalid_peaks_rejected(self):
        with pytest.raises(InvalidPeaksError):
            dsp.segment_by_peaks([], 100)
        with pytest.raises(InvalidPeaksError):
            dsp.segment_by_peaks([50, 40], 100)
        with pytest.raises(InvalidPeaksError):
            dsp.segment_by_peaks([50, 50], 100)
        with pytest.raises(InvalidPeaksError):
            dsp.segment_by_peaks([50, 150], 100)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), length=st.integers(10, 5000))
    def test_partition_property(self, data, length):
        n_peaks = data.draw(st.integers(1, min(8, length)))
        peaks = sorted(
            data.draw(
                st.lists(
                    st.integers(0, length - 1),
                    min_size=n_peaks,
                    max_size=n_peaks,
                    unique=True,
                )
            )
        )
        bounds = dsp.segment_by_peaks(peaks, length)
        assert bounds[0].start == 0
        assert bounds[-1].end == length
        for a, b in zip(bounds, bounds[1:]):
            assert a.end == b.start
        assert sum(len(b) for b in bounds) == length
