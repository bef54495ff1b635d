#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload rag_qa --seeds 1 2 3 4 5 6 7 8 9 10

Runs BENCHMARK.json's command once per seed at its ``run_seconds``, one
fresh process after the other, and stops if a run exits nonzero or prints
other metrics than BENCHMARK.json lists.  Then prints per metric the
median over the seeds and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound: ``ok`` below a third of it, ``wide`` within it,
``OVER`` beyond it.  ``--trace 1`` does the same for the per-layer
metrics, which have no bound.  Every result line is appended to
``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(command, seed):
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line)["workload_info"] for line in lines if line.startswith('{"workload_info"')), {})
    return {**json.loads(lines[-1]), "workload_info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark spread over seeds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    expected = {spec["name"]: spec["unit"] for spec in specs}
    log = ROOT / "perfbench" / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values = {name: [] for name in expected}
    for seed in args.seeds:
        command = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        result = _run(command, seed)
        with log.open("a") as out:
            out.write(json.dumps({"seed": seed, "trace": args.trace, **result}) + "\n")
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        if printed != expected:
            raise SystemExit(f"seed {seed}: printed metrics differ from BENCHMARK.json")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
              file=sys.stderr, flush=True)
    print(f"{'metric':<40}{'median':>14}{'spread':>9}{'bound':>7}")
    for spec in specs:
        series = values[spec["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = spec.get("bound")
        verdict = "" if bound is None else "ok" if spread < bound / 3 else "wide" if spread <= bound else "OVER"
        print(f"{spec['name']:<40}{median:>14.4f}{spread:>9.3f}{'' if bound is None else bound:>7} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
