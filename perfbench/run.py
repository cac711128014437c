#!/usr/bin/env python3
"""Benchmark for emgforge: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload {train,offline,stream} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from the `src/` beside this
directory. With `--trace 0` the last line of standard output holds the
end-to-end metrics; with `--trace 1` it holds per-layer metrics taken by
wrapping emgforge's public functions from outside, and the spans are
written to `perfbench/out/<workload>-seed<N>.trace.jsonl`. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: on two cores the default thread pool made training epochs
# slower and less steady. Must precede the numpy import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5

# Per-layer span name -> (module, function) it wraps.
LAYERS = {
    "tensor.conv1d_causal": ("tensor", "conv1d_causal"),
    "tensor.gated_activation": ("tensor", "gated_activation"),
    "tensor.backward": ("tensor", "backward"),
    "tensor.adam_step": ("tensor", "adam_step"),
    "model.forward": ("model", "forward"),
    "model.forward_streaming": ("model", "forward_streaming"),
    "model.load_weights": ("model", "load_weights"),
    "train.validation_loss": ("train", "validation_loss"),
    "dataio.make_windows": ("dataio", "make_windows"),
    "dataio.load_recording": ("dataio", "load_recording"),
    "dataio.build_segments": ("dataio", "build_segments"),
    "dataio.write_segments": ("dataio", "write_segments"),
    "signal.preprocess_emg": ("signal", "preprocess_emg"),
    "signal.compute_envelope": ("signal", "compute_envelope"),
    "signal.detect_peaks": ("signal", "detect_peaks"),
    "metrics.fft_cosine_sim": ("metrics", "fft_cosine_sim"),
    "metrics.report_from_pairs": ("metrics", "report_from_pairs"),
    "cli.eval": ("cli", "cmd_eval"),
}


def tail_percentile(n: int) -> float:
    """The highest percentile with ten operations beyond it in a round, capped
    at p95; the median below forty operations.

    Over ten seeds the streaming step's p99 spread 10-22% between runs on a
    two-core host, its p95 3-4%; only the latter can hold a 0.25 bound.
    """
    if n < 40:
        return 50.0
    return min(95.0, 100.0 * (1.0 - 10.0 / n))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean after dropping the lowest and highest `cut` share of the values."""
    v = sorted(values)
    k = int(cut * len(v))
    return statistics.fmean(v[k : len(v) - k])


def end_to_end(setup_times, rounds) -> dict:
    """Per-round figures, combined over rounds by a 10%-trimmed mean.

    The host's speed flips between two modes about 1.7x apart every few
    seconds; a median over rounds jumps between the modes from run to run,
    while a trimmed mean moves with the share of time spent in each.
    """
    rate, p50, tail = [], [], []
    for r in rounds:
        ops = np.asarray(r["op_ms"], dtype=float)
        rate.append(r["samples"] / r["seconds"])
        p50.append(float(np.percentile(ops, 50)))
        tail.append(float(np.percentile(ops, tail_percentile(ops.size))))
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
        "samples_per_s": _metric(trimmed_mean(rate), "samples/s"),
        "op_p50_ms": _metric(trimmed_mean(p50), "ms"),
        "op_tail_ms": _metric(trimmed_mean(tail), "ms"),
    }


def per_layer(recorded, rounds) -> dict:
    """Busy time per layer in one set-up plus the mean traced round."""
    by_id = {s.id: s for s in recorded}

    def phase(s):
        while s.parent is not None:
            s = by_id[s.parent]
        return s.name

    setup = [s for s in recorded if phase(s) == "setup"]
    traced = [s for s in recorded if phase(s) == "round"]
    n = sum(1 for r in rounds if r["traced"])
    out = {}
    for layer in LAYERS:
        if layer != "cli.eval":
            busy = spans.busy_s(setup, layer) + spans.busy_s(traced, layer) / n
            out[f"{layer}.busy_s"] = _metric(busy, "s")
    calls = spans.calls(setup, "model.forward") + spans.calls(traced, "model.forward") / n
    out["model.forward.calls"] = _metric(calls, "count")
    out["cli.eval.self_s"] = _metric(spans.self_s(traced, "cli.eval") / n, "s")
    plain = statistics.median(r["seconds"] for r in rounds if not r["traced"])
    with_trace = statistics.median(r["seconds"] for r in rounds if r["traced"])
    out["trace.overhead_s"] = _metric(with_trace - plain, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "offline", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "emgforge" / "__init__.py").is_file():
        print(f"error: emgforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    out_dir = HERE / "out"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} blas_threads={BLAS_THREADS} cpus={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__}"
    )

    tally = workloads.Tally()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = spans.Tracer()
    layers = {
        name: getattr(importlib.import_module(f"emgforge.{mod}"), fn)
        for name, (mod, fn) in LAYERS.items()
    }

    def traced_phase(on: bool):
        if on:
            tracer.install(layers)
        else:
            tracer.uninstall()
        tracer.enabled = on

    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            traced_phase(bool(args.trace))
            with tracer.span("setup"):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            traced_phase(False)

        wl.prepare(tally)

        # Whole rounds until the timed total reaches --seconds. A traced run
        # alternates plain and traced rounds to measure the tracing overhead.
        rounds = []
        while (
            sum(r["seconds"] for r in rounds) < args.seconds
            or len(rounds) < (2 if args.trace else 1)
        ):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            traced_phase(traced)
            with tracer.span("round"):
                t0 = time.perf_counter()
                samples, op_ms = wl.round(tally)
                seconds = time.perf_counter() - t0
            traced_phase(False)
            rounds.append(
                {"traced": traced, "seconds": seconds, "samples": samples, "op_ms": op_ms}
            )
            wl.check_round(tally)

        if args.trace:
            metrics_out = per_layer(tracer.spans, rounds)
            tracer.write_jsonl(out_dir / f"{args.workload}-seed{args.seed}.trace.jsonl")
        else:
            metrics_out = end_to_end(setup_times, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.checks_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
