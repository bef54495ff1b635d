"""The layer-benchmark protocol: ``time_pairs`` and ``scripts/bench.py``.

Stub thunks stand in for real cases, so nothing here times a workload.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

from benchmarks.perf.harness import REPEATS, SelfTimed, time_pairs

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench", REPO_ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _recording_sides():
    calls = []

    def side(label):
        def run():
            calls.append(label)
            return (label, len(calls))

        return run

    return calls, side("legacy"), side("current")


def test_time_pairs_runs_repeats_pairs_alternating_first_side():
    calls, legacy, current = _recording_sides()
    checked = []
    time_pairs(legacy, current, lambda a, b: checked.append((a[0], b[0])))
    expected = []
    for i in range(REPEATS):
        expected += ["legacy", "current"] if i % 2 == 0 else ["current", "legacy"]
    assert calls == expected
    assert checked == [("legacy", "current")] * REPEATS


def test_time_pairs_checks_every_pair_and_raises_on_drift():
    _, legacy, current = _recording_sides()
    seen = []

    def check(a, b):
        seen.append((a, b))
        if len(seen) == 3:
            raise AssertionError("drift")

    with pytest.raises(AssertionError, match="drift"):
        time_pairs(legacy, current, check)
    assert len(seen) == 3
    assert all(a[0] == "legacy" and b[0] == "current" for a, b in seen)


def test_time_pairs_reports_median_and_quantile_iqr():
    legacy_s = iter([5.0, 7.0, 6.5, 9.0, 4.0, 8.0, 6.0][:REPEATS])
    current_s = iter([1.0, 2.5, 1.5, 3.0, 2.0, 1.2, 2.2][:REPEATS])
    timing, last_legacy, last_current = time_pairs(
        lambda: SelfTimed(next(legacy_s), "old"),
        lambda: SelfTimed(next(current_s), "new"),
        lambda a, b: None,
    )
    assert (last_legacy, last_current) == ("old", "new")
    ratios = [a / b for a, b in zip(timing["legacy"]["runs"], timing["current"]["runs"])]
    assert timing["speedup"]["runs"] == ratios
    for side in ("legacy", "current", "speedup"):
        runs = timing[side]["runs"]
        assert len(runs) == REPEATS
        q1, _, q3 = statistics.quantiles(runs, n=4)
        assert timing[side]["iqr"] == q3 - q1
        assert timing[side]["median"] == statistics.median(runs)


def _payload(cases):
    spread = {"median": 1.0, "iqr": 0.1, "runs": [1.0] * REPEATS}
    return {
        "env": {},
        "repeats": REPEATS,
        "metric": "seconds",
        "target": "",
        "target_met": True,
        "notes": {},
        "cases": [
            {
                "name": name,
                "workload": {"n": 1},
                "legacy": spread,
                "current": spread,
                "speedup": {"median": median, "iqr": iqr, "runs": [median] * REPEATS},
                "detail": {},
            }
            for name, median, iqr in cases
        ],
    }


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_compare_flags_a_move_beyond_the_iqr_only(tmp_path, capsys):
    old = _write(tmp_path / "old.json", _payload([("steady", 3.0, 0.4), ("moved", 3.0, 0.2)]))
    new = _write(tmp_path / "new.json", _payload([("steady", 3.3, 0.1), ("moved", 2.5, 0.3)]))
    assert bench.main(["--compare", old, new]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["steady"].endswith("within IQR")
    assert lines["moved"].endswith("MOVED")


def test_compare_rejects_unreadable_or_mismatched_input(tmp_path):
    good = _write(tmp_path / "good.json", _payload([("a", 1.0, 0.1)]))
    other = _payload([("a", 1.0, 0.1)])
    other["cases"][0]["workload"] = {"n": 2}
    assert bench.main(["--compare", good, _write(tmp_path / "w.json", other)]) != 0
    disjoint = _write(tmp_path / "b.json", _payload([("b", 1.0, 0.1)]))
    assert bench.main(["--compare", good, disjoint]) != 0
    assert bench.main(["--compare", good, _write(tmp_path / "s.json", {"cases": []})]) != 0
    assert bench.main(["--compare", good, str(tmp_path / "missing.json")]) != 0


def test_bench_creates_a_missing_out_dir(tmp_path, monkeypatch):
    timing, _, _ = time_pairs(lambda: None, lambda: None, lambda a, b: None)
    stub = {
        "metric": "seconds",
        "cases": {"only": lambda: {"workload": {}, **timing, "detail": {}}},
        "target": "",
        "target_met": lambda cases: True,
        "notes": {},
    }
    monkeypatch.setattr(bench, "suites", lambda quick: {"stub": stub})
    out_dir = tmp_path / "not" / "yet"
    assert bench.main(["--out-dir", str(out_dir)]) == 0
    bench.check_schema(json.loads((out_dir / "BENCH_stub.json").read_text()))


@pytest.mark.parametrize("suite", bench.SUITE_NAMES)
def test_committed_bench_file_has_the_one_schema(suite):
    payload = json.loads((REPO_ROOT / f"BENCH_{suite}.json").read_text())
    bench.check_schema(payload)
    assert payload["repeats"] == REPEATS
    assert [case["name"] for case in payload["cases"]] == list(bench.suites(False)[suite]["cases"])
