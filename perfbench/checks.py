"""Output checks made apart from the program under test.

Each check returns a list of problems; an empty list means it passed. They
recompute results with numpy from the files and arrays the program wrote,
or test properties the method must have. None compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Report rows are recomputed to this relative error.
REPORT_RTOL = 1e-9
# Central finite differences against the backward pass.
GRADIENT_RTOL = 1e-6
# Pipeline envelope against the generator's ground truth.
ENVELOPE_MIN_COSINE = 0.95
# Streaming against the batch forward pass.
STREAM_ATOL = 1e-9


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


# --- train ------------------------------------------------------------------


def window_count(lengths, crop_length: int) -> int:
    """Crops per epoch: each segment gives max(1, round(len / L))."""
    return sum(max(1, round(n / crop_length)) for n in lengths)


def batch_loss(forward, weights, inputs: np.ndarray, targets: np.ndarray) -> float:
    """The batch objective train() differentiates: mean over windows of the MSE."""
    losses = [np.mean((forward(weights, x) - y[0]) ** 2) for x, y in zip(inputs, targets)]
    return float(np.mean(losses))


def gradient_check(
    forward, weights, inputs, targets, grads: dict, rng, entries: int = 24, h: float = 1e-5
) -> list[str]:
    """Central finite difference of the batch loss along a random sparse direction.

    `forward(weights, x)` returns the prediction row for one window; `grads`
    maps parameter names to the gradients the backward pass produced. The
    direction has unit steps on `entries` parameter entries drawn with `rng`.
    """
    params = weights.parameter_arrays()
    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    flat = rng.choice(int(sizes.sum()), size=entries, replace=False)
    owner = np.searchsorted(np.cumsum(sizes), flat, side="right")
    offsets = flat - np.concatenate([[0], np.cumsum(sizes)])[owner]
    signs = rng.choice([-1.0, 1.0], size=entries)

    analytic = sum(
        s * grads[names[o]].flat[i] for o, i, s in zip(owner, offsets, signs)
    )

    def shifted(step: float) -> float:
        for o, i, s in zip(owner, offsets, signs):
            params[names[o]].flat[i] += step * s
        try:
            return batch_loss(forward, weights, inputs, targets)
        finally:
            for o, i, s in zip(owner, offsets, signs):
                params[names[o]].flat[i] -= step * s

    numeric = (shifted(h) - shifted(-h)) / (2 * h)
    err = abs(analytic - numeric) / max(abs(numeric), 1e-12)
    if not err <= GRADIENT_RTOL:
        return [f"gradient: directional derivative {analytic:.12g} vs finite difference "
                f"{numeric:.12g} (relative error {err:.3g})"]
    return []


def history_check(train_losses, val_losses) -> list[str]:
    problems = []
    if not all(np.isfinite(train_losses)) or not all(np.isfinite(val_losses)):
        problems.append(f"non-finite loss: train {train_losses}, val {val_losses}")
    elif not min(val_losses) < val_losses[0]:
        problems.append(f"best validation loss never beat the first epoch's: {val_losses}")
    return problems


# --- offline ----------------------------------------------------------------


def count_rows(csv_path) -> int:
    """Data rows of a raw recording CSV: lines after the header."""
    with open(csv_path) as fh:
        return sum(1 for line in fh) - 1


def segment_file_check(segment_csv, n_samples: int, top_k: int) -> list[str]:
    """Segments of one recording partition [0, T), top_k of them, targets in [0, 1]."""
    segment_csv = Path(segment_csv)
    info = json.loads(segment_csv.with_name(segment_csv.stem + ".meta.json").read_text())
    bounds = [(s["start"], s["end"]) for s in info["segments"]]
    problems = []
    if len(bounds) != top_k:
        problems.append(f"{segment_csv.name}: {len(bounds)} segments, expected {top_k}")
    edges = [0] + [e for _, e in bounds]
    if [s for s, _ in bounds] != edges[:-1] or edges[-1] != n_samples or any(
        s >= e for s, e in bounds
    ):
        problems.append(f"{segment_csv.name}: bounds {bounds} do not partition [0, {n_samples})")
    with open(segment_csv) as fh:
        next(fh)
        ids = np.array([line.split(",", 1)[0] for line in fh])
    data = np.loadtxt(segment_csv, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    if not np.array_equal(data[:, 0], np.arange(n_samples)):
        problems.append(f"{segment_csv.name}: sample_idx is not 0..{n_samples - 1} in order")
    for s in info["segments"]:
        rows = data[ids == s["segment_id"], 0]
        if not np.array_equal(rows, np.arange(s["start"], s["end"])):
            problems.append(
                f"{segment_csv.name}: rows of {s['segment_id']} do not cover "
                f"[{s['start']}, {s['end']})"
            )
    target = data[:, 1]
    if target.min() < 0.0 or target.max() != 1.0:
        problems.append(
            f"{segment_csv.name}: targets span [{target.min()}, {target.max()}], "
            "expected within [0, 1] with maximum 1"
        )
    return problems


def envelope_check(segment_csv, truth_csv) -> list[str]:
    """The recovered envelope follows the generator's ground truth."""
    target = np.loadtxt(segment_csv, delimiter=",", skiprows=1, usecols=(2,))
    truth = np.loadtxt(truth_csv, skiprows=1)
    if target.shape != truth.shape:
        return [f"{Path(segment_csv).name}: {target.size} samples, truth has {truth.size}"]
    c = _cos(target, truth)
    if not c >= ENVELOPE_MIN_COSINE:
        return [f"{Path(segment_csv).name}: envelope cosine {c:.4f} < {ENVELOPE_MIN_COSINE}"]
    return []


def _expected_metrics(true: np.ndarray, pred: np.ndarray) -> dict:
    n = 1 << (true.size - 1).bit_length()
    mag_t = np.abs(np.fft.rfft(true, n))
    mag_p = np.abs(np.fft.rfft(pred, n))
    return {
        "mse": float(np.mean((pred - true) ** 2)),
        "mae": float(np.mean(np.abs(pred - true))),
        "cosine": _cos(pred, true),
        "fft_cosine": _cos(mag_p, mag_t),
    }


def report_check(report_csv, prediction_dir, segment_csvs) -> list[str]:
    """Every report row, aggregates included, recomputed from the prediction CSVs.

    The prediction files must also carry each segment's sample range and
    target exactly as the preprocess output wrote them.
    """
    prediction_dir = Path(prediction_dir)
    with open(report_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    reported = {r[0]: [float(v) for v in r[1:]] for r in rows[1:]}
    problems = []

    expected_segments = {}
    for seg_csv in segment_csvs:
        with open(seg_csv, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                expected_segments.setdefault(row[0], []).append((row[1], row[2]))

    per_metric = {m: [] for m in names}
    for seg_id, want in expected_segments.items():
        with open(prediction_dir / f"{seg_id}.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            pred_rows = list(reader)
        if [(r[0], r[1]) for r in pred_rows] != want:
            problems.append(f"{seg_id}: prediction file t/true columns differ from the segment file")
        arr = np.array([[float(v) for v in r] for r in pred_rows])
        expected = _expected_metrics(arr[:, 1], arr[:, 2])
        for m in names:
            per_metric[m].append(expected[m])
        got = reported.get(seg_id)
        if got is None:
            problems.append(f"{seg_id}: missing from the report")
            continue
        problems += _compare(seg_id, names, got, [expected[m] for m in names])

    higher_better = {"mse": False, "mae": False, "cosine": True, "fft_cosine": True}
    for stat in ("best", "worst", "average"):
        want = []
        for m in names:
            v = per_metric[m]
            hi = higher_better[m]
            want.append(
                float(np.mean(v)) if stat == "average"
                else (max(v) if hi == (stat == "best") else min(v))
            )
        problems += _compare(stat, names, reported.get(stat, [np.nan] * len(names)), want)
    extra = set(reported) - set(expected_segments) - {"best", "worst", "average"}
    if extra:
        problems.append(f"report rows without a segment: {sorted(extra)}")
    return problems


def _compare(label, names, got, want) -> list[str]:
    out = []
    for m, g, w in zip(names, got, want):
        if not abs(g - w) <= REPORT_RTOL * max(abs(w), 1e-300):
            out.append(f"{label}: {m} reported {g!r}, recomputed {w!r}")
    return out


# --- stream -----------------------------------------------------------------


def stream_check(streamed: np.ndarray, batch: np.ndarray) -> list[str]:
    dev = float(np.max(np.abs(streamed - batch)))
    if not dev <= STREAM_ATOL:
        return [f"max |streaming - batch| = {dev:.3e} exceeds {STREAM_ATOL}"]
    return []
