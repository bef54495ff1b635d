#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Data+AI stack.

    python3 perfbench/run.py --workload rag_qa --seed 1 --seconds 12 --trace 0

One invocation runs one workload in a fresh process.  With ``--trace 0`` it
sets the workload up several times (``setup_s`` is the median), runs it
for ``--seconds`` with nothing wrapped, checks the outputs and prints the
end-to-end metrics, every time in them read in quiet-machine time by a
:class:`gauge.Gauge`.  With ``--trace 1`` it runs the same operations three
times, plain, with every layer's public calls wrapped by :mod:`tracer`, and
plain again, requires all passes to produce identical outputs, prints the
per-layer self-time table to standard error, writes a Chrome trace under
``perfbench/out/`` and prints the per-layer metrics.  Which metrics, and
their units, come from ``BENCHMARK.json`` (``end_to_end`` untraced,
``per_layer`` traced).  The last line of standard output is the JSON
result; a run whose checks fail reports them on standard error and exits
nonzero without a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

#: Applied before numpy loads (the process re-executes itself once): one
#: BLAS/OpenMP thread keeps the load on the client's core, and a fixed
#: hash seed keeps set and dict iteration order the same on every run.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKLOADS = ("rag_qa", "lake_analytics", "stream_ingest_query", "fleet_sim")
SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description="End-to-end and per-layer benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})


def _settle() -> None:
    """The GC policy of every run: collect, then freeze what set-up built so
    collections inside the timed region walk only what the run allocates."""
    gc.collect()
    gc.freeze()


def _release() -> None:
    gc.unfreeze()
    gc.collect()


def _environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_env": {key: os.environ[key] for key in PINNED_ENV},
        "gc": f"collect + freeze after set-up, thresholds {gc.get_threshold()}",
    }


def _measured(workload, args):
    from gauge import Gauge
    from tracer import NullTracer

    gauge = Gauge(workload.SENSITIVITY)
    setup_s: list = []
    raw_setup_s: list = []
    state = None
    # At least SETUP_REPEATS set-ups, more while they add up to under a
    # second, so a set-up of a few milliseconds still gets a steady median.
    while len(setup_s) < SETUP_REPEATS or (sum(raw_setup_s) < 1.0 and len(setup_s) < 25):
        state = None
        _release()
        state, raw, scaled = gauge.timed(lambda: workload.setup(args.seed, args.seconds))
        raw_setup_s.append(raw)
        setup_s.append(scaled)
    _settle()
    gauge = Gauge(workload.SENSITIVITY)
    outcome = workload.run(state, NullTracer(), gauge, seconds=args.seconds)
    problems = workload.finish(state, outcome)
    values = dict(outcome.end_to_end)
    values["setup_s"] = statistics.median(setup_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.info["raw_setup_s"] = statistics.median(raw_setup_s)
    outcome.info["machine_slowdown"] = gauge.median_slowdown()
    outcome.info["gauge_runs"] = len(gauge.took)
    return outcome, problems, values


def _pass(workload, args, tracer, ops=None):
    """One fresh set-up and one timed pass; returns (outcome, problems)."""
    from gauge import Gauge
    from tracer import Tracer

    _release()
    state = workload.setup(args.seed, args.seconds)
    _settle()
    tracer.active = isinstance(tracer, Tracer)
    try:
        outcome = workload.run(state, tracer, Gauge(workload.SENSITIVITY),
                               seconds=None if ops else args.seconds, ops=ops)
    finally:
        tracer.active = False
    return outcome, workload.finish(state, outcome)


def _traced(workload, args):
    from tracer import NullTracer, Tracer

    # Three passes over the same operations, each on a fresh set-up.  Later
    # passes in a process run faster, so the traced pass sits between two
    # plain ones and its overhead is taken against their mean.
    first, problems = _pass(workload, args, NullTracer())
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_problems = _pass(workload, args, tracer, ops=first.ops)
    finally:
        tracer.uninstall()
    reference, reference_problems = _pass(workload, args, NullTracer(), ops=first.ops)
    problems += traced_problems + reference_problems
    quality = "output_quality"
    for other in (first, reference):
        if (traced.outputs, traced.end_to_end[quality]) != (other.outputs, other.end_to_end[quality]):
            problems.append("traced outputs differ from untraced outputs")
    _print_self_times(tracer, traced)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(path, {"workload": args.workload, "seed": args.seed})
    print(f"perfbench: Chrome trace in {path}", file=sys.stderr)
    plain_busy_s = (first.busy_s + reference.busy_s) / 2
    return traced, problems, _layer_values(tracer, plain_busy_s, traced)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_values(tracer, plain_busy_s, traced):
    """Calls and self time of every layer, the tracer's counters, the
    client loop's per-layer numbers and the rates derived from them."""
    from common import CLIENT_LAYER_METRICS
    from tracer import layer_names

    counters = tracer.counters
    values = dict.fromkeys(CLIENT_LAYER_METRICS, 0.0)
    values.update(counters)
    values.update(traced.layer_extras)
    for layer in layer_names():
        values[f"{layer}.calls"] = tracer.calls[layer]
        values[f"{layer}.self_ms"] = tracer.self_s[layer] * 1e3
    steps = counters["datalake.extract_steps"]
    values["datalake.extract_cache_hit_rate"] = (
        max(0.0, 1.0 - counters["datalake.extractor_calls"] / steps) if steps else 0.0
    )
    values["semopt.cache_hit_rate"] = _ratio(counters["semopt.cache_hits"], counters["semopt.cache_lookups"])
    values["prep.dedup.admit_rate"] = _ratio(counters["prep.dedup.admitted"], counters["prep.dedup.arrived"])
    values["inference.prefix_hit_rate"] = _ratio(counters["inference.prefix_hits"], counters["inference.prefixed"])
    values["traced_busy_ms"] = traced.busy_s * 1e3
    values["unattributed_ms"] = (traced.busy_s - sum(tracer.self_s.values())) * 1e3
    values["tracing_overhead_pct"] = (traced.busy_s / plain_busy_s - 1.0) * 100.0
    return values


def _print_self_times(tracer, traced) -> None:
    from tracer import layer_names

    busy_ms = traced.busy_s * 1e3
    rows = sorted(
        ((tracer.self_s[layer] * 1e3, layer) for layer in layer_names() if tracer.calls[layer]),
        reverse=True,
    )
    unattributed = busy_ms - sum(ms for ms, _ in rows)
    lines = [f"{'layer':<24}{'calls':>10}{'self_ms':>12}{'share':>8}"]
    lines += [f"{layer:<24}{tracer.calls[layer]:>10}{ms:>12.1f}{ms / busy_ms:>8.1%}" for ms, layer in rows]
    lines.append(f"{'unattributed':<24}{'':>10}{unattributed:>12.1f}{unattributed / busy_ms:>8.1%}")
    lines.append(f"{'traced busy time':<24}{'':>10}{busy_ms:>12.1f}{1.0:>8.1%}")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_environment()
    src = HERE.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources at src/repro; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    workload = importlib.import_module(args.workload)
    print(json.dumps({"env": _environment()}), flush=True)
    outcome, problems, values = (_traced if args.trace else _measured)(workload, args)
    for spec in specs:
        value = values.get(spec["name"])
        if value is None:
            problems.append(f"BENCHMARK.json lists {spec['name']}, which this run does not measure")
        elif not math.isfinite(value):
            problems.append(f"metric {spec['name']} is not a finite number")
    if problems:
        for problem in problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        return 1
    print(json.dumps({"workload_info": outcome.info}, default=str))
    result = {
        "correct": True,
        "attempted": outcome.ops,
        "failed": outcome.failed,
        "metrics": {spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
                    for spec in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
