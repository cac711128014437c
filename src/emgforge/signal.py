"""Digital filtering, envelope extraction, and peak-based segmentation.

The sEMG conditioning chain is a series of 4th-order Butterworth stages
(70 Hz high-pass, 20-300 Hz band-pass, 48-52 Hz mains band-stop) realised
as cascades of second-order sections and applied in a single causal pass.
Envelope extraction is full-wave rectification followed by a low-pass
stage; contraction repetitions are isolated by taking the highest envelope
peaks and cutting at the midpoints between successive peaks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSignalError,
    EmptyInputError,
    InvalidCutoffError,
    InvalidOrderError,
    InvalidPeaksError,
    NonFiniteInputError,
    ShapeError,
    TooShortError,
)


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled scalar channel (one EMG trace, IMU axis, or envelope)."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError(f"expected a 1-D sample array, got shape {arr.shape}")
        if not 0 < self.fs < math.inf:
            raise ConfigError(f"sample rate must be finite and positive, got {self.fs}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "fs", float(self.fs))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class BiquadSection:
    """One second-order filter section, coefficients normalized so a0 = 1.

    Transfer function: (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2).
    """

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def poles(self) -> np.ndarray:
        return np.roots([1.0, self.a1, self.a2])

    def is_stable(self, margin: float = 1e-9) -> bool:
        return bool(np.all(np.abs(self.poles()) < 1.0 - margin))


@dataclass(frozen=True)
class BiquadCascade:
    """Chain of second-order sections applied in order."""

    sections: tuple[BiquadSection, ...]

    def __len__(self) -> int:
        return len(self.sections)


FILTER_KINDS = ("lowpass", "highpass", "bandpass", "bandstop")
# The Butterworth order of the envelope low-pass.
ENVELOPE_ORDER = 4

# Stability margin required of every designed section (unit-circle distance).
STABILITY_MARGIN = 1e-9


def _analog_prototype_poles(order: int) -> np.ndarray:
    """Left-half-plane poles of the unit-cutoff analog Butterworth prototype."""
    k = np.arange(order)
    theta = math.pi * (2 * k + order + 1) / (2.0 * order)
    return np.exp(1j * theta)


def _pair_poles(zpoles: np.ndarray) -> list[tuple[float, float, bool]]:
    """Group digital poles into real-coefficient sections.

    Returns (a1, a2, is_biquad) triples. Complex poles are paired with their
    conjugates; real poles are paired among themselves, with at most one
    leftover first-order section. Sections are ordered by pole radius,
    farthest from the unit circle first.
    """
    tol = 1e-10
    upper = [p for p in zpoles if p.imag > tol]
    lower = [p for p in zpoles if p.imag < -tol]
    reals = sorted(p.real for p in zpoles if abs(p.imag) <= tol)
    if len(upper) != len(lower):
        raise ConfigError("pole set not closed under conjugation; design failed")

    sections: list[tuple[float, float, bool]] = []
    for p in upper:
        sections.append((-2.0 * p.real, abs(p) ** 2, True))
    i = 0
    while i + 1 < len(reals):
        r1, r2 = reals[i], reals[i + 1]
        sections.append((-(r1 + r2), r1 * r2, True))
        i += 2
    if i < len(reals):
        sections.append((-reals[i], 0.0, False))

    def radius(sec):
        a1, a2, biquad = sec
        if not biquad:
            return abs(a1)
        return max(abs(r) for r in np.roots([1.0, a1, a2]))

    sections.sort(key=radius)
    return sections


def check_butterworth(kind: str, order: int, cutoffs, fs: float) -> tuple[float, ...]:
    """The cutoffs as a float tuple; a ConfigError unless `design_butterworth`
    takes these arguments."""
    if kind not in FILTER_KINDS:
        raise ConfigError(f"unknown filter kind {kind!r}; expected one of {FILTER_KINDS}")
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool) or order < 1:
        raise InvalidOrderError(f"filter order must be a positive integer, got {order!r}")
    if not 0 < fs < math.inf:
        raise InvalidCutoffError(f"sample rate must be finite and positive, got {fs}")

    cut = tuple(float(c) for c in np.atleast_1d(cutoffs))
    expected = 1 if kind in ("lowpass", "highpass") else 2
    if len(cut) != expected:
        raise InvalidCutoffError(f"{kind} needs {expected} cutoff(s), got {len(cut)}")
    nyquist = fs / 2.0
    for c in cut:
        if not 0.0 < c < nyquist:
            raise InvalidCutoffError(
                f"cutoff {c} Hz outside (0, {nyquist}) Hz at fs={fs} Hz"
            )
    if expected == 2 and not cut[0] < cut[1]:
        raise InvalidCutoffError(f"band edges must satisfy low < high, got {cut}")
    return cut


def design_butterworth(kind: str, order: int, cutoffs, fs: float) -> BiquadCascade:
    """Design a digital Butterworth filter via bilinear transform.

    Parameters
    ----------
    kind : {'lowpass', 'highpass', 'bandpass', 'bandstop'}
    order : int
        Analog prototype order (a 4th-order band filter has 8 digital poles,
        i.e. 4 sections; low/high-pass of order 4 has 2 sections).
    cutoffs : float or pair of floats
        Cutoff frequencies in Hz; the -3 dB points of the design.
    fs : float
        Sample rate in Hz.

    Returns
    -------
    BiquadCascade with every section stable and the passband reference
    (DC, Nyquist, or band center) normalized to unit gain.
    """
    cut = check_butterworth(kind, order, cutoffs, fs)

    # Pre-warp so the analog design lands on the requested digital frequencies.
    warped = tuple(2.0 * fs * math.tan(math.pi * c / fs) for c in cut)
    proto = _analog_prototype_poles(int(order))

    if kind == "lowpass":
        analog = warped[0] * proto
    elif kind == "highpass":
        analog = warped[0] / proto
    else:
        w1, w2 = warped
        bandwidth = w2 - w1
        w0sq = w1 * w2
        roots = []
        for p in proto:
            a = p * bandwidth / 2.0 if kind == "bandpass" else (bandwidth / p) / 2.0
            disc = np.sqrt(a * a - w0sq + 0j)
            roots.extend([a + disc, a - disc])
        analog = np.asarray(roots)

    fs2 = 2.0 * fs
    zpoles = (fs2 + analog) / (fs2 - analog)
    dens = _pair_poles(zpoles)

    if kind == "bandstop":
        # Analog zeros at +/- j*w0 land on the unit circle at +/- theta0.
        w0 = math.sqrt(warped[0] * warped[1])
        z0 = (fs2 + 1j * w0) / (fs2 - 1j * w0)
        cos_t0 = float(z0.real / abs(z0))

    sections = []
    for a1, a2, is_biquad in dens:
        if kind == "lowpass":
            num = (1.0, 2.0, 1.0) if is_biquad else (1.0, 1.0, 0.0)
        elif kind == "highpass":
            num = (1.0, -2.0, 1.0) if is_biquad else (1.0, -1.0, 0.0)
        elif kind == "bandpass":
            num = (1.0, 0.0, -1.0)
        else:
            num = (1.0, -2.0 * cos_t0, 1.0)
        sections.append(BiquadSection(num[0], num[1], num[2], a1, a2))

    cascade = BiquadCascade(tuple(sections))

    # Anchor the passband reference to unit gain, spreading the correction
    # evenly over the sections.
    if kind in ("lowpass", "bandstop"):
        f_ref = 0.0
    elif kind == "highpass":
        f_ref = fs / 2.0
    else:
        w0 = math.sqrt(warped[0] * warped[1])
        f_ref = fs / math.pi * math.atan(w0 / fs2)
    h_ref = abs(frequency_response(cascade, [f_ref], fs)[0])
    gain = (1.0 / h_ref) ** (1.0 / len(sections))
    sections = [
        BiquadSection(s.b0 * gain, s.b1 * gain, s.b2 * gain, s.a1, s.a2)
        for s in sections
    ]
    cascade = BiquadCascade(tuple(sections))

    for sec in cascade.sections:
        if not sec.is_stable(STABILITY_MARGIN):
            raise ConfigError(f"unstable section designed: {sec}")
    return cascade


def frequency_response(cascade: BiquadCascade, freqs_hz, fs: float) -> np.ndarray:
    """Complex response of the cascade at the given frequencies (Hz)."""
    w = 2.0 * math.pi * np.asarray(freqs_hz, dtype=np.float64) / fs
    z1 = np.exp(-1j * w)
    z2 = z1 * z1
    h = np.ones_like(z1)
    for s in cascade.sections:
        h = h * (s.b0 + s.b1 * z1 + s.b2 * z2) / (1.0 + s.a1 * z1 + s.a2 * z2)
    return h


# Samples per block of the block state-space form. Per block the work is an
# L x L matmul, and the Python scan runs once per block: 64 keeps both small.
_BLOCK = 64


@functools.lru_cache(maxsize=64)
def _block_matrices(sec: BiquadSection):
    """The block realization of one section (Burrus, 1972), as read-only arrays.

    In state-space form the section is s[n+1] = A s[n] + B x[n] and
    y[n] = C s[n] + D x[n], with the two Direct Form II transposed states in
    s. For a block x of L samples starting in state s:

        y  = T x + P s       T[i, j] = h[i - j], the impulse response
        s' = A^L s + G x     G[:, j] = A^(L-1-j) B

    Returns (T, G, P, A^L) with shapes (L, L), (2, L), (L, 2), (2, 2).

    The entries are computed exactly and rounded to float once: with float
    matrix powers the block recurrence amplified their rounding errors, and
    the output error against long-double arithmetic was 2.5-7x larger (7x on
    the 48-52 Hz notch). Every coefficient is a dyadic rational, so with `d`
    a common power-of-two denominator the scaled A * d and its powers are
    integer matrices, and int / int rounds correctly.
    """
    ratios = [float(c).as_integer_ratio() for c in (sec.b0, sec.b1, sec.b2, sec.a1, sec.a2)]
    d = max(den for _, den in ratios)
    b0, b1, b2, a1, a2 = (num * (d // den) for num, den in ratios)
    b = (b1 * d - a1 * b0, b2 * d - a2 * b0)  # B * d^2
    powers = [((1, 0), (0, 1))]  # A^i * d^i for i = 0 .. L
    for _ in range(_BLOCK):
        (m11, m12), (m21, m22) = powers[-1]
        powers.append(((d * m21 - a1 * m11, d * m22 - a1 * m12), (-a2 * m11, -a2 * m12)))

    def times_b(i):  # A^i B, rounded
        (m11, m12), (m21, m22) = powers[i]
        scale = d ** (i + 2)
        return ((m11 * b[0] + m12 * b[1]) / scale, (m21 * b[0] + m22 * b[1]) / scale)

    p = np.array([[m / d**i for m in powers[i][0]] for i in range(_BLOCK)])  # row i: C A^i
    h = np.array([b0 / d] + [times_b(i)[0] for i in range(_BLOCK - 1)])  # D, then C A^(m-1) B
    lags = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    t = np.where(lags >= 0, h[np.maximum(lags, 0)], 0.0)
    g = np.array([times_b(_BLOCK - 1 - j) for j in range(_BLOCK)]).T
    a_l = np.array([[m / d**_BLOCK for m in row] for row in powers[_BLOCK]])
    out = (t, g, p, a_l)
    for m in out:
        m.setflags(write=False)
    return out


def _run_section(x: np.ndarray, sec: BiquadSection) -> np.ndarray:
    """One section over `x`, zero initial state, in blocks of `_BLOCK` samples.

    Each block's output is T x plus the carried state's contribution P s; the
    block states come from a scan s <- A^L s + G x over the blocks, on Python
    floats.
    """
    t, g, p, a_l = _block_matrices(sec)
    n = x.size
    blocks = np.zeros((-(-n // _BLOCK), _BLOCK))
    blocks.flat[:n] = x
    y = blocks @ t.T
    (a11, a12), (a21, a22) = a_l.tolist()
    s1 = s2 = 0.0
    states = []
    for u1, u2 in (blocks @ g.T).tolist():
        states.append((s1, s2))
        s1, s2 = a11 * s1 + a12 * s2 + u1, a21 * s1 + a22 * s2 + u2
    y += np.array(states) @ p.T
    return y.ravel()[:n]


def apply_filter(signal: SampledSignal, cascade: BiquadCascade) -> SampledSignal:
    """Run the cascade over the signal in one forward causal pass.

    Output length equals input length; each section starts from zero state.
    Every sample must be finite: in the block form a NaN or inf would also
    reach the earlier outputs of its block.
    """
    if len(signal) == 0:
        raise EmptyInputError("cannot filter an empty signal")
    y = signal.samples
    if not np.isfinite(y).all():
        raise NonFiniteInputError("cannot filter a signal with NaN or infinite samples")
    for sec in cascade.sections:
        y = _run_section(y, sec)
    return SampledSignal(y, signal.fs)


# Chain stage -> the FilterChainConfig field holding its cutoffs; a stage is
# designed as the Butterworth filter kind of the same name.
_STAGE_CUTOFFS = {"highpass": "highpass_hz", "bandpass": "bandpass_hz", "bandstop": "bandstop_hz"}


@dataclass(frozen=True)
class FilterChainConfig:
    """The sEMG conditioning chain, applied in `stages` order."""

    highpass_hz: float = 70.0
    bandpass_hz: tuple[float, float] = (20.0, 300.0)
    bandstop_hz: tuple[float, float] = (48.0, 52.0)
    order: int = 4
    stages: tuple[str, ...] = ("highpass", "bandpass", "bandstop")

    def __post_init__(self):
        for stage in self.stages:
            if stage not in _STAGE_CUTOFFS:
                raise ConfigError(
                    f"unknown chain stage {stage!r}; expected one of {tuple(_STAGE_CUTOFFS)}"
                )

    def cutoffs(self, stage: str):
        """The cutoffs of chain stage `stage`."""
        return getattr(self, _STAGE_CUTOFFS[stage])


def preprocess_emg(raw: SampledSignal, chain: FilterChainConfig | None = None) -> SampledSignal:
    """Condition a raw sEMG trace: high-pass, band-pass, then mains band-stop.

    Stage order follows `chain.stages`; each stage is a 4th-order Butterworth
    cascade by default. Single causal pass, same length as the input.
    """
    chain = chain or FilterChainConfig()
    out = raw
    for stage in chain.stages:
        cutoffs = chain.cutoffs(stage)
        out = apply_filter(out, design_butterworth(stage, chain.order, cutoffs, raw.fs))
    return out


def compute_envelope(filtered: SampledSignal, lp_cutoff: float = 6.0) -> SampledSignal:
    """Amplitude envelope: full-wave rectify, then 4th-order low-pass.

    The low-pass undershoot is clamped so the envelope is non-negative.
    """
    if len(filtered) == 0:
        raise EmptyInputError("cannot compute the envelope of an empty signal")
    rect = SampledSignal(np.abs(filtered.samples), filtered.fs)
    casc = design_butterworth("lowpass", ENVELOPE_ORDER, lp_cutoff, filtered.fs)
    smooth = apply_filter(rect, casc)
    return SampledSignal(np.maximum(smooth.samples, 0.0), filtered.fs)


def normalize_envelope(envelope: SampledSignal) -> SampledSignal:
    """Scale by the recording-level maximum so values lie in [0, 1]."""
    if len(envelope) == 0:
        raise EmptyInputError("cannot normalize an empty envelope")
    peak = float(np.max(envelope.samples))
    if peak <= 0.0:
        raise DegenerateSignalError("envelope has no positive samples to normalize by")
    return SampledSignal(envelope.samples / peak, envelope.fs)


def check_peak_spacing(min_distance: int, top_k: int) -> None:
    """Raise ConfigError unless `min_distance` and `top_k` are both >= 1."""
    if min_distance < 1:
        raise ConfigError(f"min_distance must be >= 1, got {min_distance}")
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")


def detect_peaks(signal: SampledSignal, min_distance: int = 150, top_k: int = 7) -> np.ndarray:
    """Indices of the `top_k` highest local maxima, at least `min_distance` apart.

    A local maximum satisfies samples[i-1] < samples[i] >= samples[i+1], so a
    plateau is represented by its leftmost index. Selection is greedy in
    descending amplitude (ties broken by lower index); the result is sorted
    ascending.
    """
    check_peak_spacing(min_distance, top_k)
    x = signal.samples
    if x.size < 3:
        raise TooShortError(f"need at least 3 samples to detect peaks, got {x.size}")

    interior = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:]))[0] + 1
    order = sorted(interior, key=lambda i: (-x[i], i))
    selected: list[int] = []
    for i in order:
        if all(abs(int(i) - j) >= min_distance for j in selected):
            selected.append(int(i))
            if len(selected) == top_k:
                break
    return np.array(sorted(selected), dtype=np.intp)


@dataclass(frozen=True)
class SegmentBounds:
    """Half-open sample range [start, end) owned by the peak at `peak`.

    For peaks separated by at least 2 samples the defining peak lies inside
    the range; directly adjacent peaks can leave it on the boundary.
    """

    start: int
    end: int
    peak: int

    def __len__(self) -> int:
        return self.end - self.start


def segment_by_peaks(peaks, signal_len: int) -> list[SegmentBounds]:
    """Partition [0, signal_len) with boundaries at midpoints between peaks."""
    p = np.asarray(peaks, dtype=np.intp)
    if p.size == 0:
        raise InvalidPeaksError("need at least one peak to segment")
    if np.any(np.diff(p) <= 0):
        raise InvalidPeaksError("peak indices must be strictly increasing")
    if p[0] < 0 or p[-1] >= signal_len:
        raise InvalidPeaksError(
            f"peak indices must lie in [0, {signal_len}), got range [{p[0]}, {p[-1]}]"
        )
    mids = [(int(p[i]) + int(p[i + 1])) // 2 for i in range(p.size - 1)]
    starts = [0] + mids
    ends = mids + [int(signal_len)]
    return [SegmentBounds(s, e, int(pk)) for s, e, pk in zip(starts, ends, p)]
