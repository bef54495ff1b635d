#!/usr/bin/env python
"""Layer benchmarks: frozen legacy baselines vs current code, one protocol.

Seven suites (serving, vector, prep, fleet, disagg, semopt, stream) each run
their cases through ``benchmarks.perf.harness.time_pairs``: ``REPEATS``
interleaved legacy/current pairs with the case's parity check on every pair.
Each suite writes ``BENCH_<suite>.json`` with one schema: ``env``,
``repeats``, ``metric``, ``target``, ``target_met``, ``notes`` and a
``cases`` list whose entries hold ``name``, ``workload``, the ``legacy`` and
``current`` seconds and the per-pair ``speedup`` ratios (each as median,
IQR and every run), and a case-specific ``detail``.

Usage (no network, no extra deps)::

    PYTHONPATH=src python scripts/bench.py [--out-dir .] [--only fleet ...] [--quick]
    PYTHONPATH=src python scripts/bench.py --compare OLD.json NEW.json

``--compare`` prints each case both files share with both speedup medians
and flags a move larger than the bigger of the two IQRs; it exits non-zero
only when a file is unreadable or the two do not measure the same cases.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from functools import partial
from pathlib import Path
from typing import Dict, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf.harness import REPEATS, run_serving_case, run_vector_case  # noqa: E402
from benchmarks.perf.harness_disagg import run_disagg_case  # noqa: E402
from benchmarks.perf.harness_fleet import run_fleet_case  # noqa: E402
from benchmarks.perf.harness_prep import (  # noqa: E402
    run_dedup_case,
    run_embed_case,
    run_hnsw_case,
    run_lsh_case,
)
from benchmarks.perf.harness_semopt import run_semopt_case  # noqa: E402
from benchmarks.perf.harness_stream import run_stream_case  # noqa: E402

SUITE_NAMES = ("serving", "vector", "prep", "fleet", "disagg", "semopt", "stream")
FILE_KEYS = ("env", "repeats", "metric", "target", "target_met", "notes", "cases")
CASE_KEYS = ("name", "workload", "legacy", "current", "speedup", "detail")
SPREAD_KEYS = ("median", "iqr", "runs")


def _speedup(case: Dict[str, object]) -> float:
    return case["speedup"]["median"]


def suites(quick: bool) -> Dict[str, Dict[str, object]]:
    """Every suite: its cases (name -> thunk), metric, target rule and notes."""

    def size(small, full):
        return small if quick else full

    # CorpusBuilder docs-per-domain units: 6 domains * 1.2 duplicate factor,
    # so 2_800 -> 20_160 documents (the headline dedup workload).
    dedup_dpd, embed_dpd, ann = size(120, 2_800), size(60, 1_000), size(2_000, 50_000)
    # Fleet headline: a million requests over a 512-replica cluster; the
    # faulty scenario (deaths + shed + autoscale) runs at a smaller scale
    # because it is about rare-event coverage, not the hot-loop headline.
    fleet_n, fleet_r = size(20_000, 1_000_000), size(32, 512)
    # Disaggregated-pool headline: a million requests over 256 prefill + 256
    # decode replicas; a mixed mid-scale case and a rare-event (faults +
    # migration + autoscale warm-up) case ride along at smaller scales.
    disagg_n, disagg_pd = size(20_000, 1_000_000), size(16, 256)
    # Streaming headline: 14_000 docs/domain -> 100_800 docs through the IVF
    # index; HNSW streams at 7_200 docs because its per-row graph insert is
    # the bottleneck (~200 rows/s at dim 64 on one core).
    ivf_kwargs = size(
        {"nlist": 16, "nprobe": 8, "train_size": 256},
        {"nlist": 128, "nprobe": 16, "train_size": 1024},
    )
    return {
        "serving": {
            "metric": "engine.run wall-clock seconds with every request queued at t=0",
            "cases": {
                f"queued_{n}": partial(run_serving_case, n)
                for n in size((200, 500), (1_000, 10_000))
            },
            "target": ">=5x iterations/sec at 10k queued requests",
            "target_met": lambda c: _speedup(list(c.values())[-1]) >= 5.0,
            "notes": {},
        },
        "vector": {
            "metric": "wall-clock seconds for 256 queries (k=10, dim=64, cosine)",
            "cases": {
                f"{kind}_{n}": partial(run_vector_case, kind, n)
                for kind in ("flat", "ivf", "pq")
                for n in size((2_000, 5_000), (10_000, 100_000))
            },
            "target": ">=10x batched query throughput for flat/IVF",
            "target_met": lambda c: {
                kind: any(
                    _speedup(case) >= 10.0
                    for case in c.values()
                    if case["workload"]["index"] == kind
                )
                for kind in ("ivf", "flat")
            },
            "notes": {
                "ivf": "meets the 10x target at 100k vectors: shared per-cell "
                "GEMMs, contiguous inverted lists, and per-cell top-k selection "
                "replace the per-query Python loop.",
                "flat": "roofline-bound below the 10x target on this machine: "
                "the legacy per-query path is already a single BLAS gemv, so "
                "batching can only convert memory-bound gemv into compute-bound "
                "gemm (~2*flops/bandwidth ~ 3-4x on one core). Recorded honestly "
                "rather than inflated with a strawman baseline.",
                "pq": "ADC table lookups are O(n) gather work per query in both "
                "paths; batching amortizes per-query overhead only. Audit: at "
                "100k the median pair ratio beats 1.0 by more than its IQR, so "
                "the batched ADC path stays.",
            },
        },
        "prep": {
            "metric": "wall-clock seconds per call (parity checked on every pair)",
            "cases": {
                "minhash_dedup": partial(run_dedup_case, dedup_dpd),
                "embed_batch": partial(run_embed_case, embed_dpd),
                "hnsw_search": partial(run_hnsw_case, ann),
                "lsh_search": partial(run_lsh_case, ann),
            },
            "target": ">=5x MinHash dedup at ~20k docs; "
            ">=3x batched HNSW search at 50k vectors",
            "target_met": lambda c: {
                "minhash_dedup": _speedup(c["minhash_dedup"]) >= 5.0,
                "hnsw_search": _speedup(c["hnsw_search"]) >= 3.0,
            },
            "notes": {
                "minhash_dedup": "one banded Mersenne-permutation kernel over "
                "the concatenated corpus, np.unique banding on collapsed "
                "signature rows, and vectorized candidate verification replace "
                "the per-document matrix + per-band dict probing.",
                "embed_batch": "one tokenizer pass, one IDF/unit-vector lookup "
                "per distinct key, column-slab accumulation; bitwise-equal to "
                "per-text embed. fit_idf is a single Counter merge over the "
                "same pass (detail.fit_idf_speedup).",
                "hnsw_search": "array-native adjacency + epoch-stamped visited "
                "marks + result-floor prefilter; per-expansion sims keep the "
                "scalar BLAS gather shape, so traversal and scores are "
                "bitwise-unchanged. Below the 3x target: most of the per-query "
                "cost is the mandatory per-expansion gather+gemv (the frontier "
                "is ~m0 rows, too small to batch), and a lockstep cohort kernel "
                "that batches sims across queries was measured at "
                "parity-to-slower. Audit: the median pair ratio beats 1.0 by "
                "more than its IQR, so the search path stays (the array "
                "adjacency also carries delete/repair).",
                "lsh_search": "no optimized probe: search_many runs the same "
                "set-union bucket scan per query as the frozen path (an "
                "np.unique bucket union measured inside the noise was "
                "reverted), so this row measures the shared search_many "
                "bookkeeping only. Audit: that bookkeeping beats 1.0 by more "
                "than its IQR; there is no optimized LSH path left to revert.",
            },
        },
        "fleet": {
            "metric": "fleet DES wall-clock seconds (bitwise trajectory parity "
            "checked on every pair)",
            "cases": {
                **{
                    policy: partial(run_fleet_case, fleet_n, policy, replicas=fleet_r)
                    for policy in ("random", "least-loaded", "prefix-aware")
                },
                "faulty": partial(
                    run_fleet_case,
                    size(5_000, 200_000),
                    "least-loaded",
                    replicas=size(16, 128),
                    faulty=True,
                ),
            },
            "target": ">=5x fleet event loop at 1M requests for every policy",
            "target_met": lambda c: all(
                _speedup(case) >= 5.0
                for case in c.values()
                if not case["workload"]["faulty"]
            ),
            "notes": {
                "core": "a plain ClusterFleet runs on the pool DES "
                "(run_pool_fleet) as PoolSpec(colocated=N): sharded per-replica "
                "finish heaps merged by a lazy top-of-heap tournament, "
                "incrementally maintained packed integer load keys, and "
                "per-prefix holder lists replace the naive global heap that "
                "rebuilds its routable list and rescans every replica's load on "
                "each routing decision.",
                "faulty": "the faulty case layers seeded replica deaths, "
                "in-flight re-routing, a TTFT shed SLO, and queue-depth "
                "autoscaling on both simulators; parity stays bitwise through "
                "every rare-event path.",
            },
        },
        "disagg": {
            "metric": "disaggregated pool DES wall-clock seconds (bitwise "
            "trajectory parity checked on every pair)",
            "cases": {
                "prefix-aware": partial(
                    run_disagg_case,
                    disagg_n,
                    "prefix-aware",
                    prefill=disagg_pd,
                    decode=disagg_pd,
                ),
                "least-loaded/random": partial(
                    run_disagg_case,
                    size(8_000, 200_000),
                    "least-loaded",
                    "random",
                    prefill=size(8, 64),
                    decode=size(8, 64),
                ),
                "faulty": partial(
                    run_disagg_case,
                    size(5_000, 100_000),
                    "least-loaded",
                    prefill=size(8, 64),
                    decode=size(8, 64),
                    faulty=True,
                ),
            },
            "target": ">=5x pool event loop at 1M requests over 256 prefill + "
            "256 decode replicas",
            "target_met": lambda c: _speedup(c["prefix-aware"]) >= 5.0,
            "notes": {
                "core": "per-pool sharded finish heaps merged lazily, "
                "per-decode incoming-handoff heaps, incrementally maintained "
                "packed load keys per role, and advancing fault-window cursors "
                "replace the naive global heap that rescans every replica's "
                "load per routing decision and every fault window per handoff.",
                "faulty": "the faulty case layers seeded deaths, KV transfer "
                "failures, degraded wires, hot-spot migration (ship_wins "
                "break-even), shedding, and warm-up autoscale on both "
                "simulators; parity stays bitwise through every rare-event path.",
            },
        },
        "semopt": {
            "metric": "pipeline wall-clock seconds (identical outputs checked "
            "on every pair); charged LLM calls in detail",
            "cases": {
                # A million-row zipf-skewed lake through the suboptimally
                # written filter/filter/map/map cascade, plus a barrier-heavy
                # (join/topk/group-count) pipeline at a smaller scale.
                "cascade": partial(
                    run_semopt_case, size(20_000, 1_000_000), pool_size=size(2_000, 8_000)
                ),
                "mixed": partial(
                    run_semopt_case,
                    size(5_000, 50_000),
                    pipeline_kind="mixed",
                    pool_size=size(1_000, 4_000),
                ),
            },
            "target": ">=5x wall-clock and >=3x charged LLM calls on the 1M-row "
            "cascade",
            "target_met": lambda c: _speedup(c["cascade"]) >= 5.0
            and c["cascade"]["detail"]["call_reduction"] >= 3.0,
            "notes": {
                "cascade": "the planner runs the compiled price rule before the "
                "topical filter (selectivity x per-row cost ranking), broadcasts "
                "embedding-proxy verdicts across duplicate texts via one "
                "embed_batch, fuses both maps into a single generate_many round, "
                "and the exact cross-operator cache charges each unique prompt "
                "once; the naive baseline pays one embed and one model call per "
                "row-decision in the written order. Both sides run on the "
                "current SimLLM, whose reply memo computes each distinct prompt "
                "once, so the wall-clock ratio counts the optimizer's work "
                "beyond that memo.",
                "mixed": "joins/top-k/group-count are reorder barriers, so wins "
                "come from filter reordering ahead of the barrier, batched "
                "blocking embeddings, and batched judge rounds; call reduction "
                "is modest because join prompts serialize per-row fields and "
                "cannot be deduplicated.",
            },
        },
        "stream": {
            "metric": "legacy: full-rebuild seconds; current: median per-batch "
            "ingest seconds (convergence checked on every pair); throughput and "
            "staleness at 80% utilization in detail",
            "cases": {
                "ivf": partial(run_stream_case, size(150, 14_000), "ivf", **ivf_kwargs),
                "hnsw": partial(
                    run_stream_case, size(60, 1_000), "hnsw", m=12, ef_search=64
                ),
            },
            "target": ">=100x freshness (absorb a batch vs full rebuild) at 100k "
            "docs; survivors identical and recall@10 within 0.05 of the rebuild",
            "target_met": lambda c: _speedup(c["ivf"]) >= 100.0,
            "notes": {
                "ivf": "the 100k headline: persistent-signature-store dedup, "
                "pinned online IDF with drift-triggered re-embeds, and "
                "nearest-centroid incremental inserts with occupancy-triggered "
                "rebalances keep the index live without ever re-signing or "
                "re-embedding the corpus wholesale.",
                "hnsw": "streams at reduced scale: graph insert is per-row "
                "Python, so the headline index for 100k-doc streaming is IVF. "
                "Delete+repair keeps recall at parity with a "
                "rebuilt-from-survivors graph (see tests/test_stream.py).",
                "staleness": "arrival -> retrievable, computed by replaying the "
                "last pair's measured per-batch service times through the "
                "single-server queue recurrence against a seeded Poisson "
                "arrival process at 80% of measured capacity; reported per "
                "document.",
            },
        },
    }


def run_suite(suite: str, spec: Dict[str, object], env: Dict[str, str]) -> Dict[str, object]:
    cases: Dict[str, Dict[str, object]] = {}
    for name, run in spec["cases"].items():
        print(f"[{suite}] {name} ...", flush=True)
        cases[name] = {"name": name, **run()}
        print("  " + _line(cases[name]), flush=True)
    return {
        "env": env,
        "repeats": REPEATS,
        "metric": spec["metric"],
        "target": spec["target"],
        "target_met": spec["target_met"](cases),
        "notes": spec["notes"],
        "cases": list(cases.values()),
    }


def _line(case: Dict[str, object]) -> str:
    legacy, current, ratio = case["legacy"], case["current"], case["speedup"]
    return (
        f"legacy {legacy['median']:.4g}s (IQR {legacy['iqr']:.2g}) | "
        f"current {current['median']:.4g}s (IQR {current['iqr']:.2g}) | "
        f"speedup {ratio['median']:.2f}x (IQR {ratio['iqr']:.2f})"
    )


def check_schema(payload: object) -> None:
    """Raise ``ValueError`` unless ``payload`` is a BENCH file on the schema."""
    if not isinstance(payload, dict) or any(key not in payload for key in FILE_KEYS):
        raise ValueError(f"a BENCH file needs the keys {FILE_KEYS}")
    for case in payload["cases"]:
        if not isinstance(case, dict) or any(key not in case for key in CASE_KEYS):
            raise ValueError(f"every case needs the keys {CASE_KEYS}")
        for side in ("legacy", "current", "speedup"):
            if any(key not in case[side] for key in SPREAD_KEYS):
                raise ValueError(f"{case['name']}: {side} needs the keys {SPREAD_KEYS}")
            if len(case[side]["runs"]) != payload["repeats"]:
                raise ValueError(f"{case['name']}: {side} lists no run per repeat")


def compare(old_path: str, new_path: str) -> int:
    """Print the shared cases' speedup medians; flag moves beyond the IQR."""
    try:
        old, new = (json.loads(Path(path).read_text()) for path in (old_path, new_path))
        check_schema(old)
        check_schema(new)
    except (OSError, ValueError) as exc:
        print(f"compare: unreadable input: {exc}", file=sys.stderr)
        return 2
    before = {case["name"]: case for case in old["cases"]}
    shared = [(before[case["name"]], case) for case in new["cases"] if case["name"] in before]
    mismatched = [a["name"] for a, b in shared if a["workload"] != b["workload"]]
    if old["metric"] != new["metric"] or not shared or mismatched:
        print(
            f"compare: mismatched input (metric, shared cases, workloads {mismatched})",
            file=sys.stderr,
        )
        return 2
    for a, b in shared:
        x, y = a["speedup"], b["speedup"]
        moved = abs(y["median"] - x["median"]) > max(x["iqr"], y["iqr"])
        print(
            f"{b['name']:<24} {x['median']:8.2f}x (IQR {x['iqr']:.2f}) -> "
            f"{y['median']:8.2f}x (IQR {y['iqr']:.2f})  {'MOVED' if moved else 'within IQR'}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir", default=str(REPO_ROOT), help="where to write BENCH_*.json"
    )
    parser.add_argument("--quick", action="store_true", help="small sizes (smoke test)")
    parser.add_argument(
        "--only",
        action="append",
        choices=SUITE_NAMES,
        help="run only the named suite(s); repeatable (default: all)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two BENCH files"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "note": f"{REPEATS} interleaved legacy/current pairs per case, each call "
        "timed with GC collected then off; legacy = frozen implementation from "
        "benchmarks/perf/_legacy*.py (stream: the full rebuild in "
        "_baseline_stream.py)",
    }
    for suite, spec in suites(args.quick).items():
        if args.only and suite not in args.only:
            continue
        path = out_dir / f"BENCH_{suite}.json"
        path.write_text(json.dumps(run_suite(suite, spec, env), indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
