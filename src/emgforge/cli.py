"""Command-line surface: synth-data, preprocess, train, eval, stream-bench.

A subcommand returns or raises; `main` alone turns an error into one
`error: ...` line on stderr and an exit code, from `EXIT_CODES`: 0 success,
3 empty result (`NoActivityError`: no contractions found), 4 training
divergence (`DivergenceError`), 5 invariant breach (`StreamMismatchError`:
streaming does not match the batch forward pass), and 2 for any other
`PipelineError` or `OSError` (bad flag, config, file or checkpoint) and for
argparse's own usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio, metrics, synthgen, train as training
from .config import RunConfig, load_run_config, segmenting_config
from .errors import (
    CheckpointError,
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    NoActivityError,
    PipelineError,
    StreamMismatchError,
)
from .model import (
    StreamState,
    forward,
    forward_streaming,
    init_weights,
    load_weights,
    save_weights,
)
from .tensor import Tensor, no_grad

CONFIG_ENV_VAR = "EMG_FORGE_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EMPTY = 3
EXIT_DIVERGED = 4
EXIT_BREACH = 5

# The first class an error is an instance of picks the exit code.
EXIT_CODES = (
    (NoActivityError, EXIT_EMPTY),
    (DivergenceError, EXIT_DIVERGED),
    (StreamMismatchError, EXIT_BREACH),
    (PipelineError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
)

STREAM_TOLERANCE = 1e-9


def _load_config(path_arg) -> RunConfig:
    path = path_arg or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return load_run_config(path)
    return RunConfig()


def _recording_paths(data_dir: Path) -> list[Path]:
    return sorted(p for p in data_dir.glob("*.csv") if not p.name.endswith("_truth.csv"))


def _load_segments(data_dir: Path, cfg: RunConfig, motion: str | None):
    """The segments of every recording in `data_dir`, or of those of `motion`."""
    if not data_dir.is_dir():
        raise ConfigError(f"data directory not found: {data_dir}")
    segments = []
    for path in _recording_paths(data_dir):
        rec = dataio.load_recording(path, fs=cfg.fs)
        if motion and rec.meta.motion != motion:
            continue
        segments.extend(dataio.build_segments(rec, cfg.segmentation, cfg.filter))
    if not segments:
        which = f"{motion} recordings" if motion else "recordings"
        raise InsufficientDataError(f"no {which} found in data directory")
    return segments


def _write_overlay_svg(path, target: np.ndarray, prediction: np.ndarray, title: str) -> None:
    """Static overlay plot of true vs predicted envelope (deterministic bytes)."""
    width, height, margin = 720.0, 240.0, 30.0
    # XML-escaped by hand: xml.sax.saxutils would pull in urllib and ssl.
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    n = target.size
    lo = min(float(target.min()), float(prediction.min()), 0.0)
    hi = max(float(target.max()), float(prediction.max()), 1e-12)
    span = hi - lo or 1.0

    def polyline(y):
        pts = []
        for i in range(n):
            px = margin + (width - 2 * margin) * (i / max(n - 1, 1))
            py = height - margin - (height - 2 * margin) * ((float(y[i]) - lo) / span)
            pts.append(f"{px:.2f},{py:.2f}")
        return " ".join(pts)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{margin:.0f}" y="18" font-family="monospace" font-size="12">{title}</text>',
        f'<polyline points="{polyline(target)}" fill="none" stroke="#888888" stroke-width="1.5"/>',
        f'<polyline points="{polyline(prediction)}" fill="none" stroke="#cc3311" stroke-width="1.2"/>',
        f'<text x="{width - 170:.0f}" y="18" font-family="monospace" font-size="11" '
        f'fill="#888888">true</text>',
        f'<text x="{width - 120:.0f}" y="18" font-family="monospace" font-size="11" '
        f'fill="#cc3311">predicted</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")


def cmd_synth_data(args) -> None:
    if args.reps < 1:
        raise ConfigError("--reps must be >= 1")
    if args.sessions < 1:
        raise ConfigError("--sessions must be >= 1")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise ConfigError("--noise must be finite and >= 0")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    profile = synthgen.MotionProfile(
        motion=args.motion, n_reps=args.reps, noise_std=args.noise
    )
    for day in range(1, args.sessions + 1):
        rec, truth = synthgen.generate_recording(
            profile, seed=args.seed + 7919 * day, day=day
        )
        stem = f"{args.motion}_day{day}"
        dataio.write_raw_recording(rec, out_dir / f"{stem}.csv")
        with open(out_dir / f"{stem}_truth.csv", "w", newline="") as fh:
            fh.write("gt_envelope\n")
            dataio.write_float_rows(fh, [truth], eol="\n")
        print(f"wrote {stem}.csv ({len(rec)} samples, {args.reps} reps)")


def cmd_preprocess(args) -> None:
    cfg = _load_config(args.config)
    rec = dataio.load_recording(args.infile, fs=cfg.fs)
    segments = dataio.build_segments(rec, cfg.segmentation, cfg.filter)
    dataio.write_segments(segments, args.out)
    print(f"segments: {len(segments)}")


def cmd_train(args) -> None:
    cfg = _load_config(args.config)
    segments = _load_segments(Path(args.data), cfg, args.motion)

    split = dataio.split_dataset(segments, cfg.train.train_fraction, cfg.train.seed)
    weights = init_weights(cfg.model, cfg.train.seed)
    workers, blas_setting = training.window_workers(cfg.train.batch_size)
    print(f"window workers: {workers} ({blas_setting})")
    weights, history = training.train(weights, split, cfg.train)

    ckpt = Path(args.out)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_weights(weights, ckpt)
    history.to_csv(ckpt.with_suffix(".history.csv"))
    snapshot = cfg.snapshot()
    snapshot["train.motion_filter"] = args.motion or "all"
    snapshot["train.best_epoch"] = history.best_epoch
    snapshot["train.stopped_epoch"] = history.stopped_epoch
    training.write_run_metadata(ckpt.with_suffix(".run.json"), snapshot)
    best_val = min(history.val_losses)
    print(f"best validation loss: {best_val:.6g} (epoch {history.best_epoch})")


def cmd_eval(args) -> None:
    cfg = _load_config(args.config)
    explicit = bool(args.config or os.environ.get(CONFIG_ENV_VAR))
    cfg = segmenting_config(cfg, Path(args.ckpt).with_suffix(".run.json"), explicit)
    weights = load_weights(args.ckpt, expected_config=cfg.model if explicit else None)
    segments = _load_segments(Path(args.data), cfg, args.motion)
    dataio.check_unique_ids(segments)

    # Finite weights can still overflow; such a report is refused, not written.
    with np.errstate(over="ignore", invalid="ignore"):
        report = training.evaluate(weights, segments, include_dc=not args.no_dc)
    for row in report.rows:
        for name in metrics.METRIC_NAMES:
            if not math.isfinite(getattr(row, name)):
                raise CheckpointError(
                    f"{args.ckpt}: its weights give a non-finite {name} on {row.segment_id}"
                )

    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report.to_csv(report_path)
    report_path.with_suffix(".meta.json").write_text(
        json.dumps(
            {
                "checkpoint": str(args.ckpt),
                "segments": len(segments),
                "fft_cosine_dc_bin": "excluded" if args.no_dc else "included",
                "prediction_target": "normalized_envelope",
            },
            indent=2,
        )
        + "\n"
    )

    pred_dir = report_path.with_name(report_path.stem + "_predictions")
    pred_dir.mkdir(parents=True, exist_ok=True)
    for seg, pred in report.pairs:
        with open(pred_dir / f"{seg.segment_id}.csv", "w", newline="") as fh:
            fh.write("t,true,predicted\n")
            t = np.arange(seg.bounds.start, seg.bounds.end, dtype=np.float64)
            dataio.write_float_rows(fh, [t, seg.target, pred], eol="\n")

    if args.plots:
        plots_dir = Path(args.plots)
        plots_dir.mkdir(parents=True, exist_ok=True)
        for seg, pred in report.pairs:
            _write_overlay_svg(
                plots_dir / f"{seg.segment_id}.svg", seg.target, pred, seg.segment_id
            )

    print(report.format_table())


def cmd_stream_bench(args) -> None:
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        raise ConfigError("--seconds must be finite and positive")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    n_samples = int(args.seconds * 1000)
    if n_samples == 0:
        raise ConfigError(f"--seconds {args.seconds} gives no samples at 1000 Hz; use >= 0.001")
    weights = load_weights(args.ckpt)
    cfg = weights.config

    reps = max(1, int(np.ceil(args.seconds / synthgen.REP_PERIOD_S)))
    profile = synthgen.MotionProfile(n_reps=reps)
    rec, _ = synthgen.generate_recording(profile, seed=args.seed)
    imu = rec.imu[:, :n_samples]
    n_samples = imu.shape[1]

    state = StreamState(cfg)
    streamed = np.empty(n_samples)
    latencies = np.empty(n_samples)
    for i in range(n_samples):
        t0 = time.perf_counter()
        streamed[i] = forward_streaming(weights, state, imu[:, i])
        latencies[i] = time.perf_counter() - t0

    with no_grad():
        batch = forward(weights, Tensor(imu)).data[0]
    deviation = float(np.max(np.abs(streamed - batch)))

    p50, p90, p99 = (np.percentile(latencies * 1e3, q) for q in (50, 90, 99))
    print(f"samples: {n_samples}")
    print(f"latency ms: p50={p50:.4f} p90={p90:.4f} p99={p99:.4f}")
    # The first step after a fresh state also builds and folds the plan.
    print(f"first step ms: {latencies[0] * 1e3:.4f}")
    print(f"max |streaming - batch| = {deviation:.3e}")
    # `not (<=)` so a NaN deviation (weights that overflow) also counts as a breach
    if not deviation <= STREAM_TOLERANCE:
        raise StreamMismatchError(
            f"streaming/batch deviation {deviation:.3e} exceeds {STREAM_TOLERANCE}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgforge",
        description="IMU-to-sEMG envelope synthesis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate synthetic sessions")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--reps", type=int, default=7, help="contractions per session")
    p.add_argument("--sessions", type=int, default=4, help="number of session files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--motion", default="bicep_curl", choices=dataio.MOTION_LABELS)
    p.add_argument("--noise", type=float, default=0.01, help="IMU noise std per channel")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("preprocess", help="raw recording -> unified segment CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a directory of recordings")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--config", default=None)
    p.add_argument("--motion", default=None, choices=dataio.MOTION_LABELS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against recordings")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--plots", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--motion", default=None, choices=dataio.MOTION_LABELS)
    p.add_argument(
        "--no-dc",
        action="store_true",
        help="drop the DC bin from the FFT cosine similarity",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stream-bench", help="per-sample latency and batch equivalence")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stream_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
