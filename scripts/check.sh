#!/usr/bin/env bash
# Pre-commit gate: ruff -> mypy (analysis/faults/semopt, strict) -> repro-lint -> tier-1
# -> chaos smoke -> perf smoke -> perfbench smoke -> traced lake, stream and fleet smokes.
#
# Usage (from the repo root):
#     bash scripts/check.sh
#
# ruff and mypy are optional dev dependencies (`pip install -e ".[lint]"`);
# when they are not installed the corresponding step is skipped with a
# warning so the gate still runs in minimal containers.  repro-lint and the
# tier-1 pytest run have no dependencies beyond the repo itself and always
# run.
set -u -o pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

step() {
    echo
    echo "==> $1"
}

step "ruff check"
if python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src scripts benchmarks tests || failures=$((failures + 1))
else
    echo "skipped: ruff not installed (pip install -e '.[lint]')"
fi

step "mypy src/repro/{analysis,faults,semopt} (strict)"
if python -m mypy --version >/dev/null 2>&1; then
    python -m mypy src/repro/analysis/ src/repro/faults/ src/repro/semopt/ \
        || failures=$((failures + 1))
else
    echo "skipped: mypy not installed (pip install -e '.[lint]')"
fi

step "repro-lint (scripts/lint.py)"
# Under CI=1 emit GitHub Actions annotations so findings land on the PR diff.
if [ "${CI:-0}" = "1" ]; then
    python scripts/lint.py --format github || failures=$((failures + 1))
else
    python scripts/lint.py || failures=$((failures + 1))
fi

step "tier-1 tests"
python -m pytest -x -q || failures=$((failures + 1))

# The E24 chaos benchmark is the end-to-end proof that injected faults are
# recovered from (100% completion, bit-exact restores).  It uses fast
# configs and carries no `perf` marker, so it is cheap enough to gate on.
step "chaos smoke (benchmarks/test_e24_fault_recovery.py)"
python -m pytest benchmarks/test_e24_fault_recovery.py -x -q || failures=$((failures + 1))

# Perf smoke: the tiny-scale `test_*_smoke` case of the prep, fleet, disagg,
# semopt and stream suites.  Their speedup thresholds live in the perf-marked
# suite; this gate is about the parity each harness checks on every timed
# pair (identical dedup output and bitwise embeddings, bitwise fleet and pool
# DES trajectories, identical semantic-pipeline outputs, streaming
# convergence with the frozen full rebuild) on every commit.
step "perf smoke (benchmarks/perf -m perf -k smoke)"
python -m pytest benchmarks/perf -m perf -k smoke -q || failures=$((failures + 1))

# perfbench smoke: one untraced second of every workload at seed 1.  run.py
# checks each run's outputs (answer accuracy, pipeline repeatability, recall,
# question-pool headroom) and exits nonzero when a check fails.
step "perfbench smoke (perfbench/run.py, every workload, 1 s)"
for workload in rag_qa lake_analytics stream_ingest_query fleet_sim; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        || { echo "perfbench smoke failed: $workload"; failures=$((failures + 1)); }
done

# Traced lake smoke: --trace 1 runs the same operations plain, traced and
# plain again and fails unless all three give identical outputs, so a
# per-call shortcut that changes an answer between passes fails here.
step "traced lake smoke (perfbench/run.py --workload lake_analytics --trace 1)"
python3 perfbench/run.py --workload lake_analytics --seed 1 --seconds 1 --trace 1 \
    || { echo "traced lake smoke failed"; failures=$((failures + 1)); }

# Traced stream smoke: the same three-pass check over the ingest path
# (dedup, embedding, index writes) and the searches beside it.
step "traced stream smoke (perfbench/run.py --workload stream_ingest_query --trace 1)"
python3 perfbench/run.py --workload stream_ingest_query --seed 1 --seconds 1 --trace 1 \
    || { echo "traced stream smoke failed"; failures=$((failures + 1)); }

# Traced fleet smoke: the same three-pass check over every serving
# simulator (flat and pool ClusterFleet, EngineFleet, DisaggEngineFleet).
step "traced fleet smoke (perfbench/run.py --workload fleet_sim --trace 1)"
python3 perfbench/run.py --workload fleet_sim --seed 1 --seconds 1 --trace 1 \
    || { echo "traced fleet smoke failed"; failures=$((failures + 1)); }

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: FAIL ($failures step(s) failed)"
    exit 1
fi
echo "check.sh: ok"
