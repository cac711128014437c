"""Evaluation metrics: MSE, MAE, time-domain cosine, FFT cosine.

The spectra come from numpy's FFT (`np.fft.fft`); inputs are
zero-padded to the next power of two. The spectral similarity
compares magnitude spectra over the non-redundant bins [0, n/2], DC
included by default (envelopes carry a large DC term; pass
include_dc=False to drop it).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dataio import write_float_rows
from .errors import DegenerateInputError, EmptyInputError, ShapeError


def next_pow2(n: int) -> int:
    if n < 1:
        raise EmptyInputError("transform length must be at least 1")
    return 1 << (int(n) - 1).bit_length()


@dataclass(frozen=True)
class Spectrum:
    """Unnormalized forward DFT bins of a zero-padded real sequence."""

    bins: np.ndarray
    n: int


def fft(x) -> Spectrum:
    """Forward DFT of a real sequence, zero-padded to the next power of two."""
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInputError("cannot transform an empty sequence")
    n = next_pow2(arr.size)
    return Spectrum(np.fft.fft(arr, n), n)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """`a` and `b` as flat float64 arrays of one non-zero length."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise EmptyInputError("cannot score empty sequences")
    return a, b


def mse(a, b) -> float:
    a, b = _pair(a, b)
    return float(np.mean((a - b) ** 2))


def mae(a, b) -> float:
    a, b = _pair(a, b)
    return float(np.mean(np.abs(a - b)))


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """`v` times the power of two that brings max|v| into [0.5, 1).

    Scaling by a power of two is exact, so the cosine is unchanged except
    where the squares would otherwise underflow or overflow.
    """
    peak = float(np.max(np.abs(v), initial=0.0))
    if peak == 0.0:
        raise DegenerateInputError("cosine similarity undefined for zero-norm input")
    return np.ldexp(v, -math.frexp(peak)[1])


def cosine_sim(a, b) -> float:
    """Cosine similarity <a,b> / (|a||b|), in [-1, 1]."""
    a, b = _pair(a, b)
    a = _unit_scaled(a)
    b = _unit_scaled(b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return float(np.dot(a, b) / (na * nb))


def fft_cosine_sim(a, b, include_dc: bool = True) -> float:
    """Cosine similarity between magnitude spectra over bins [0, n/2].

    Both sequences have one length, so `fft` pads them to one transform
    size n.
    """
    a, b = _pair(a, b)
    if not np.any(a) or not np.any(b):
        raise DegenerateInputError("spectral similarity undefined for an all-zero signal")
    spec_a, spec_b = fft(a), fft(b)
    lo, hi = (0 if include_dc else 1), spec_a.n // 2 + 1
    return cosine_sim(np.abs(spec_a.bins[lo:hi]), np.abs(spec_b.bins[lo:hi]))


METRIC_NAMES = ("mse", "mae", "cosine", "fft_cosine")
# Lower is better for the error metrics, higher for the similarities.
_HIGHER_IS_BETTER = {"mse": False, "mae": False, "cosine": True, "fft_cosine": True}


@dataclass(frozen=True)
class SegmentMetrics:
    segment_id: str
    mse: float
    mae: float
    cosine: float
    fft_cosine: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-segment metric rows plus best/worst/average aggregates."""

    rows: tuple[SegmentMetrics, ...]

    def aggregate(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for name in METRIC_NAMES:
            values = [getattr(r, name) for r in self.rows]
            hi = _HIGHER_IS_BETTER[name]
            out[name] = {
                "best": max(values) if hi else min(values),
                "worst": min(values) if hi else max(values),
                "average": float(np.mean(values)),
            }
        return out

    def to_csv(self, path) -> None:
        agg = self.aggregate()
        rows = [(r.segment_id, [getattr(r, m) for m in METRIC_NAMES]) for r in self.rows]
        stats = ("best", "worst", "average")
        rows += [(stat, [agg[m][stat] for m in METRIC_NAMES]) for stat in stats]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["segment_id", *METRIC_NAMES])
            for head, values in rows:
                write_float_rows(fh, [[v] for v in values], head)

    def format_table(self) -> str:
        """Human-readable best/worst/average grid, metrics as rows."""
        agg = self.aggregate()
        labels = {
            "mse": "MSE",
            "mae": "MAE",
            "cosine": "Cosine Sim",
            "fft_cosine": "FFT Cosine",
        }
        lines = [f"{'Metric':<12}{'Best':>10}{'Worst':>10}{'Average':>10}"]
        for name in METRIC_NAMES:
            a = agg[name]
            lines.append(
                f"{labels[name]:<12}{a['best']:>10.4f}{a['worst']:>10.4f}{a['average']:>10.4f}"
            )
        return "\n".join(lines)


def report_from_pairs(pairs, include_dc: bool = True) -> MetricsReport:
    """Build a report from (segment_id, prediction, target) triples."""
    rows = []
    for seg_id, pred, target in pairs:
        rows.append(
            SegmentMetrics(
                segment_id=str(seg_id),
                mse=mse(pred, target),
                mae=mae(pred, target),
                cosine=cosine_sim(pred, target),
                fft_cosine=fft_cosine_sim(pred, target, include_dc=include_dc),
            )
        )
    if not rows:
        raise EmptyInputError("cannot build a report with no segments")
    return MetricsReport(tuple(rows))
