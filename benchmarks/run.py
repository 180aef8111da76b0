"""camspec benchmark: fit, sweep and render workloads through the API and the CLI.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload fit-m8 --seed 1 --seconds 10 --trace 0

The program is imported from the checkout's own ``src``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md for what each
workload and metric is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS threads, fixed before numpy loads; never more than the CPUs this
# process may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3

PER_LAYER = {
    "response.estimate_response.s": "s",
    "response.estimate_response.calls": "count",
    "response.check_exposure_reciprocity.s": "s",
    "solvers.lsi.s": "s",
    "solvers.lsi.calls": "count",
    "solvers.lsi.failed": "count",
    "solvers.strictly_increasing.s": "s",
    "sensitivity.estimate_constrained.s": "s",
    "sensitivity.cross_validate.s": "s",
    "sensitivity.synthetic_database.s": "s",
    "sensitivity.build_basis.s": "s",
    "gamut.partition_gamut.s": "s",
    "gamut.partition_gamut.points": "count",
    "gamut.fit_gamut_map.s": "s",
    "gamut.apply_gamut_map.s": "s",
    "gamut.apply_gamut_map.calls": "count",
    "camera.simulate_pixel.s": "s",
    "camera.simulate_pixel.calls": "count",
    "camera.apply_response.s": "s",
    "camera.apply_response.calls": "count",
    "spectral.spectral_product.s": "s",
    "spectral.spectral_product.calls": "count",
    "pipeline.run_two_stage.self_s": "s",
    "pipeline.evaluate.self_s": "s",
    "pipeline.generate_synthetic_dataset.s": "s",
    "io.load_dataset.s": "s",
    "io.load_camera.s": "s",
    "io.save_evaluation_report.s": "s",
    "io.bytes_written": "bytes",
    "cli.main.self_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import camspec from this checkout's src, or explain why not."""
    if not (SRC / "camspec" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no camspec sources under {SRC}; run from a full checkout")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import camspec

    if Path(camspec.__file__).resolve().parent != SRC / "camspec":
        raise SystemExit(f"benchmark: imported camspec from {camspec.__file__}, not {SRC}")
    return camspec


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rounds_until(seconds, wl, state, tally, span=None):
    """Whole rounds until ``seconds`` of wall time have passed.

    The checks each round returns run outside the timed round. A workload's
    ``prepare`` step, if it has one, runs before each round and outside it.
    ``span(label)`` wraps the prepare steps and rounds when tracing.
    """
    span = span or (lambda label: contextlib.nullcontext())
    prepare = getattr(wl, "prepare", None)
    start = time.perf_counter()
    while True:
        if prepare is not None:
            with span("bench.prepare"):
                prepare(state, tally)
        t0 = time.perf_counter()
        with span("bench.round"):
            checks = wl.run_round(state, tally)
        tally.round_s.append(time.perf_counter() - t0)
        for check in checks:
            check()
        if time.perf_counter() - start >= seconds:
            return


def untraced(wl, args, workdir, tally):
    def timed_setup(i):
        t0 = time.perf_counter()
        state = wl.setup(args.seed, workdir / f"setup{i}")
        setups.append(time.perf_counter() - t0)
        return state

    # One set-up feeds the rounds; the repeats run after them, so the
    # median samples the machine at both ends of the run.
    setups = []
    rounds_until(args.seconds, wl, timed_setup(0), tally)
    for i in range(1, SETUP_REPEATS):
        timed_setup(i)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "fit_s": (statistics.fmean(tally.fit_s), "s"),
        "fits_per_s": (len(tally.fit_s) / tally.attempt_s, "1/s"),
        "render_px_per_s": (tally.cli_px / sum(tally.round_s), "px/s"),
        "heldout_rmse_codes": (wl.heldout(tally), "codes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, {"setup_s": setups, "round_s": tally.round_s, "fit_s": tally.fit_s}


def traced(wl, args, workdir, tally, camspec, trace_path):
    import tracing

    tracer = tracing.Tracer()

    @contextlib.contextmanager
    def span(label):
        idx = tracer.open(label)
        try:
            yield
        finally:
            tracer.close(idx)

    replaced = tracing.install(tracer, camspec)
    try:
        with span("bench.setup"):
            state = wl.setup(args.seed, workdir / "setup0")
        rounds_until(args.seconds, wl, state, tally, span)
    finally:
        tracing.uninstall(replaced)
    tracer.write(trace_path)

    # Per-layer figures are per set-up plus one round (with its prepare step).
    n = len(tally.round_s)
    per_root = {"bench.setup": 1.0, "bench.prepare": 1.0 / n, "bench.round": 1.0 / n}
    summary = tracer.summary(per_root)
    counts = tracer.weighted_counts(per_root)
    metrics = {}
    for metric, unit in PER_LAYER.items():
        label, _, kind = metric.rpartition(".")
        if kind in ("s", "self_s", "calls"):
            value = summary.get(label, {}).get(kind, 0.0)
        else:
            value = counts.get(metric, 0.0)
        metrics[metric] = (value, unit)
    for layer in tracing.LAYERS:
        own = sum(row["self_s"] for label, row in summary.items()
                  if label.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (own, "s")
    for label in ("bench.setup", "bench.prepare", "bench.round"):
        row = summary.get(label, {"s": 0.0, "self_s": 0.0})
        metrics[f"{label}.s"] = (row["s"], "s")
        metrics[f"{label}.self_s"] = (row["self_s"], "s")
    spans = sum(row["calls"] for row in summary.values())
    metrics["trace.spans"] = (spans, "count")
    metrics["trace.overhead_s"] = (spans * tracing.span_cost_s(), "s")
    return metrics, {"rounds": n, "spans_recorded": len(tracer), "trace_file": str(trace_path)}


def main(argv=None) -> int:
    args = parse_args(argv)
    camspec = load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    tally = workloads.Tally()
    try:
        if args.trace:
            trace_path = HERE / "_traces" / f"{args.workload}-seed{args.seed}.npz"
            metrics, info = traced(wl, args, workdir, tally, camspec, trace_path)
        else:
            metrics, info = untraced(wl, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, blas_threads=BLAS_THREADS,
                errors=tally.errors[:20])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not tally.errors else 1


if __name__ == "__main__":
    sys.exit(main())
