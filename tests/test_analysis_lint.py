"""Tests for repro.analysis (repro-lint): rules, suppressions, CLI.

Each rule gets good/bad fixture snippets written into a synthetic repo tree
under tmp_path that mirrors the real scoping (src/repro/inference is a hot
path, src/repro/vector is dtype-scoped, benchmarks/perf is perf-scoped).
The meta-test at the bottom runs the real CLI over the live repository and
asserts it reports no finding.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    format_github,
    format_json,
    run_lint,
    scan_suppressions,
)
from repro.analysis.driver import collect_exports, collect_taxonomy
from repro.analysis.report import _github_escape

REPO_ROOT = Path(__file__).resolve().parent.parent

TAXONOMY_FIXTURE = '''
class ReproError(Exception):
    pass


class ConfigError(ReproError):
    pass


class VectorIndexError(ReproError):
    pass


LegacyAlias = VectorIndexError
'''


@pytest.fixture()
def fixture_repo(tmp_path):
    """A synthetic repo tree matching the default LintConfig scopes."""

    def write(relpath: str, source: str) -> Path:
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        return path

    write("src/repro/errors.py", TAXONOMY_FIXTURE)
    return tmp_path, write


def lint(repo_root, *paths, select=None):
    config = LintConfig(enabled=frozenset(select) if select else LintConfig().enabled)
    return run_lint(list(paths) or ["src", "benchmarks", "tests"],
                    config=config, repo_root=repo_root)


def codes_at(result, code):
    return [v for v in result.violations if v.code == code]


# --------------------------------------------------------------------- R001


class TestDeterminismRule:
    def test_flags_wall_clock_and_global_rng_in_hot_path(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/sim.py", (
            "import time\n"
            "import random\n"
            "import numpy as np\n"
            "def step():\n"
            "    t = time.time()\n"
            "    random.shuffle([1, 2])\n"
            "    x = np.random.rand(3)\n"
            "    rng = np.random.default_rng()\n"
            "    return t, x, rng\n"
        ))
        found = codes_at(lint(root, "src"), "R001")
        messages = " | ".join(v.message for v in found)
        assert len(found) == 4
        assert "time.time" in messages
        assert "random.shuffle" in messages
        assert "numpy.random.rand" in messages
        assert "without a seed" in messages

    def test_seeded_generator_and_aliased_import_ok(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/ok.py", (
            "import numpy as np\n"
            "def step(rng: np.random.Generator, seed: int):\n"
            "    local = np.random.default_rng(seed)\n"
            "    return rng.random() + local.random()\n"
        ))
        assert codes_at(lint(root, "src"), "R001") == []

    def test_sees_through_import_aliases(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/vector/aliased.py", (
            "from time import time as now\n"
            "def stamp():\n"
            "    return now()\n"
        ))
        found = codes_at(lint(root, "src"), "R001")
        assert len(found) == 1 and "time.time" in found[0].message

    def test_outside_hot_path_not_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/prep/timing.py", (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ))
        assert codes_at(lint(root, "src"), "R001") == []


# --------------------------------------------------------------------- R002


class TestExceptionTaxonomyRule:
    def test_flags_non_taxonomy_raise(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "def f():\n"
            "    raise ValueError('nope')\n"
        ))
        found = codes_at(lint(root, "src"), "R002")
        assert len(found) == 1 and "ValueError" in found[0].message

    def test_taxonomy_subclass_alias_and_reraise_ok(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "from .errors import ConfigError, LegacyAlias\n"
            "def f(x):\n"
            "    if x < 0:\n"
            "        raise ConfigError('bad')\n"
            "    if x == 0:\n"
            "        raise LegacyAlias('legacy name still taxonomy')\n"
            "    try:\n"
            "        return 1 / x\n"
            "    except ZeroDivisionError:\n"
            "        raise\n"
        ))
        assert codes_at(lint(root, "src"), "R002") == []

    def test_not_implemented_and_variable_reraise_allowed(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "def abstract():\n"
            "    raise NotImplementedError\n"
            "def rethrow(exc):\n"
            "    raise exc\n"
        ))
        assert codes_at(lint(root, "src"), "R002") == []

    def test_flags_bare_and_swallowing_broad_except(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n"
            "def h():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        return None\n"
        ))
        found = codes_at(lint(root, "src"), "R002")
        assert len(found) == 2
        assert any("bare" in v.message for v in found)
        assert any("re-raise" in v.message for v in found)

    def test_broad_except_with_reraise_ok(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "from .errors import ConfigError\n"
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        raise ConfigError('wrapped') from exc\n"
        ))
        assert codes_at(lint(root, "src"), "R002") == []

    def test_out_of_scope_paths_ignored(self, fixture_repo):
        root, write = fixture_repo
        write("benchmarks/bench_mod.py", "def f():\n    raise ValueError('fine here')\n")
        assert codes_at(lint(root, "benchmarks"), "R002") == []


# --------------------------------------------------------------------- R003


class TestDtypeDisciplineRule:
    def test_flags_missing_dtype_in_kernel_scope(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/vector/kern.py", (
            "import numpy as np\n"
            "def alloc(n):\n"
            "    return np.zeros(n), np.empty(n), np.full(n, 0.0)\n"
        ))
        found = codes_at(lint(root, "src"), "R003")
        assert len(found) == 3

    def test_explicit_or_positional_dtype_ok(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/vector/kern.py", (
            "import numpy as np\n"
            "def alloc(n, xs):\n"
            "    a = np.zeros(n, dtype=np.float64)\n"
            "    b = np.array(xs, np.float32)\n"
            "    c = np.full(n, 0.0, np.float64)\n"
            "    return a, b, c\n"
        ))
        assert codes_at(lint(root, "src"), "R003") == []

    def test_kvcache_file_is_in_scope_but_other_inference_not(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/kvcache.py", (
            "import numpy as np\n"
            "def alloc(n):\n"
            "    return np.zeros(n)\n"
        ))
        write("src/repro/inference/other.py", (
            "import numpy as np\n"
            "def alloc(n):\n"
            "    return np.zeros(n)\n"
        ))
        found = codes_at(lint(root, "src"), "R003")
        assert len(found) == 1 and found[0].path.endswith("kvcache.py")


# --------------------------------------------------------------------- R004


class TestMutableDefaultRule:
    def test_flags_literal_and_constructor_defaults(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "def f(xs=[], *, mapping=dict()):\n"
            "    return xs, mapping\n"
        ))
        assert len(codes_at(lint(root, "src"), "R004")) == 2

    def test_none_and_immutable_defaults_ok(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "def f(xs=None, pair=(1, 2), name='x'):\n"
            "    return xs, pair, name\n"
        ))
        assert codes_at(lint(root, "src"), "R004") == []

    def test_applies_outside_src_too(self, fixture_repo):
        root, write = fixture_repo
        write("tests/helper.py", "def f(acc={}):\n    return acc\n")
        assert len(codes_at(lint(root, "tests"), "R004")) == 1


# --------------------------------------------------------------------- R005


class TestPublicApiAnnotationRule:
    def test_flags_unannotated_reexported_function(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/pkg/__init__.py", "from .mod import exported\n")
        write("src/repro/pkg/mod.py", (
            "def exported(x):\n"
            "    return x\n"
            "def internal(y):\n"
            "    return y\n"
        ))
        found = codes_at(lint(root, "src"), "R005")
        assert len(found) == 2  # missing param + missing return
        assert all("exported" in v.message for v in found)

    def test_chained_reexport_through_package_init(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/__init__.py", "from .pkg import exported\n")
        write("src/repro/pkg/__init__.py", "from .mod import exported\n")
        write("src/repro/pkg/mod.py", "def exported(x):\n    return x\n")
        exports = collect_exports(root, LintConfig())
        assert exports.get("src/repro/pkg/mod.py") == frozenset({"exported"})

    def test_annotated_function_and_class_ok(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/pkg/__init__.py", "from .mod import Exported, exported\n")
        write("src/repro/pkg/mod.py", (
            "class Exported:\n"
            "    def __init__(self, x: int) -> None:\n"
            "        self.x = x\n"
            "    def get(self) -> int:\n"
            "        return self.x\n"
            "    def _private(self, y):\n"
            "        return y\n"
            "def exported(x: int, *, flag: bool = False) -> int:\n"
            "    return x\n"
        ))
        assert codes_at(lint(root, "src"), "R005") == []

    def test_unexported_module_not_checked(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/pkg/__init__.py", "")
        write("src/repro/pkg/mod.py", "def loose(x):\n    return x\n")
        assert codes_at(lint(root, "src"), "R005") == []


# --------------------------------------------------------------------- R006


class TestPerfMarkerRule:
    def test_module_pytestmark_covers_all_tests(self, fixture_repo):
        root, write = fixture_repo
        write("benchmarks/perf/test_fast.py", (
            "import pytest\n"
            "pytestmark = pytest.mark.perf\n"
            "def test_speed():\n"
            "    assert True\n"
        ))
        assert codes_at(lint(root, "benchmarks"), "R006") == []

    def test_unmarked_test_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("benchmarks/perf/test_slow.py", (
            "import pytest\n"
            "@pytest.mark.perf\n"
            "def test_marked():\n"
            "    assert True\n"
            "def test_unmarked():\n"
            "    assert True\n"
            "class TestGroup:\n"
            "    def test_inner(self):\n"
            "        assert True\n"
        ))
        found = codes_at(lint(root, "benchmarks"), "R006")
        assert len(found) == 2
        assert any("test_unmarked" in v.message for v in found)
        assert any("TestGroup" in v.message for v in found)

    def test_non_test_helpers_ignored(self, fixture_repo):
        root, write = fixture_repo
        write("benchmarks/perf/harness.py", "def run_case():\n    return 1\n")
        write("benchmarks/perf/test_ok.py", (
            "import pytest\n"
            "pytestmark = [pytest.mark.perf]\n"
            "def test_one():\n"
            "    assert True\n"
        ))
        assert codes_at(lint(root, "benchmarks"), "R006") == []


# --------------------------------------------------------------------- R007


class TestDeterminismTaintRule:
    def test_unseeded_draw_reachable_from_entry_point_with_witness_chain(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/policy.py", (
            "import numpy as np\n"
            "def choose(xs):\n"
            "    return xs[int(np.random.rand() * len(xs))]\n"
        ))
        write("src/repro/inference/scheduler.py", (
            "from ..policy import choose\n"
            "class ServingEngine:\n"
            "    def step(self, xs):\n"
            "        return choose(xs)\n"
        ))
        found = codes_at(lint(root, "src", select={"R007"}), "R007")
        assert len(found) == 1
        assert found[0].path.endswith("policy.py")
        assert "ServingEngine.step -> choose" in found[0].message
        assert "numpy.random.rand" in found[0].message

    def test_unreachable_unseeded_draw_not_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/policy.py", (
            "import numpy as np\n"
            "def stray(xs):\n"
            "    return xs[int(np.random.rand() * len(xs))]\n"
        ))
        write("src/repro/inference/scheduler.py", (
            "class ServingEngine:\n"
            "    def step(self, xs):\n"
            "        return xs\n"
        ))
        assert codes_at(lint(root, "src", select={"R007"}), "R007") == []

    def test_set_order_escape_on_hot_path(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/scheduler.py", (
            "class ServingEngine:\n"
            "    def step(self, items):\n"
            "        pending = set(items)\n"
            "        return [x for x in pending]\n"
        ))
        found = codes_at(lint(root, "src", select={"R007"}), "R007")
        assert len(found) == 1 and "set iteration order escapes" in found[0].message

    def test_sorted_set_and_seeded_stream_are_clean(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/scheduler.py", (
            "from ..utils import derive_rng\n"
            "class ServingEngine:\n"
            "    def step(self, items, seed):\n"
            "        rng = derive_rng(seed, 'sched')\n"
            "        pending = set(items)\n"
            "        return sorted(pending), rng.random()\n"
        ))
        write("src/repro/utils.py", (
            "import numpy as np\n"
            "def derive_rng(seed, *names):\n"
            "    return np.random.default_rng(seed)\n"
        ))
        assert codes_at(lint(root, "src", select={"R007"}), "R007") == []


# --------------------------------------------------------------------- R008


class TestRNGStreamRule:
    def test_direct_default_rng_construction_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n"
        ))
        found = codes_at(lint(root, "src", select={"R008"}), "R008")
        assert len(found) == 1 and "derive streams via repro.utils.derive_rng" in found[0].message

    def test_factory_module_is_exempt(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/utils.py", (
            "import numpy as np\n"
            "def derive_rng(seed, *names):\n"
            "    return np.random.default_rng(seed)\n"
        ))
        assert codes_at(lint(root, "src", select={"R008"}), "R008") == []

    def test_module_level_stream_global_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "from .utils import derive_rng\n"
            "RNG = derive_rng(0, 'shared')\n"
        ))
        found = codes_at(lint(root, "src", select={"R008"}), "R008")
        assert len(found) == 1 and "module-level RNG stream global 'RNG'" in found[0].message

    def test_duplicate_static_tags_flagged_once_per_duplicate(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "from .utils import derive_rng\n"
            "def a(seed):\n"
            "    return derive_rng(seed, 'arrivals')\n"
            "def b(seed):\n"
            "    return derive_rng(seed, 'arrivals')\n"
        ))
        found = codes_at(lint(root, "src", select={"R008"}), "R008")
        assert len(found) == 1
        assert "duplicates an earlier stream in a()" in found[0].message

    def test_distinct_and_dynamic_tags_are_clean(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "from .utils import derive_rng\n"
            "def a(seed):\n"
            "    return derive_rng(seed, 'arrivals')\n"
            "def b(seed):\n"
            "    return derive_rng(seed, 'service')\n"
            "def c(seed, key):\n"
            "    return derive_rng(seed, 'emb', key), derive_rng(seed, 'emb', key)\n"
        ))
        assert codes_at(lint(root, "src", select={"R008"}), "R008") == []

    def test_cross_stream_coupled_loop_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "from .utils import derive_rng\n"
            "def sample(seed):\n"
            "    rng_a = derive_rng(seed, 'count')\n"
            "    rng_b = derive_rng(seed, 'value')\n"
            "    n = int(rng_a.integers(1, 5))\n"
            "    out = []\n"
            "    for _ in range(n):\n"
            "        out.append(rng_b.random())\n"
            "    return out\n"
        ))
        found = codes_at(lint(root, "src", select={"R008"}), "R008")
        assert len(found) == 1
        assert "trip count drawn from stream 'rng_a'" in found[0].message


# --------------------------------------------------------------------- R009


class TestLedgerTagRule:
    def test_unregistered_stage_kind_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/semopt/exec.py", (
            "def run(ledger, usage):\n"
            "    ledger.charge(usage, tag='semopt.s0.reduce')\n"
        ))
        found = codes_at(lint(root, "src", select={"R009"}), "R009")
        assert len(found) == 1
        assert "does not match the registered" in found[0].message

    def test_batched_charge_tags_are_checked_too(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/semopt/exec.py", (
            "def run(ledger, usages):\n"
            "    ledger.charge_many(usages, tag='semopt.s0.reduce')\n"
        ))
        found = codes_at(lint(root, "src", select={"R009"}), "R009")
        assert len(found) == 1
        assert "does not match the registered" in found[0].message

    def test_charged_but_never_read_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/semopt/exec.py", (
            "def run(ledger, usage):\n"
            "    ledger.charge(usage, tag='semopt.s0.filter')\n"
        ))
        found = codes_at(lint(root, "src", select={"R009"}), "R009")
        assert len(found) == 1
        assert "charged but never read" in found[0].message

    def test_valid_tag_read_in_another_module_is_clean(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/semopt/exec.py", (
            "def run(ledger, usage):\n"
            "    ledger.charge(usage, tag='semopt.s0.filter')\n"
        ))
        write("src/repro/semopt/report.py", (
            "def stage_cost(ledger):\n"
            "    return ledger.by_tag.get('semopt.s0.filter', 0.0)\n"
        ))
        assert codes_at(lint(root, "src", select={"R009"}), "R009") == []

    def test_flat_legacy_and_fstring_tags_exempt(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/semopt/exec.py", (
            "def run(ledger, usage, i):\n"
            "    ledger.charge(usage, tag='sft-gen')\n"
            "    ledger.charge(usage, tag=f'pipe.s{i}.map')\n"
        ))
        assert codes_at(lint(root, "src", select={"R009"}), "R009") == []


# --------------------------------------------------------------------- R010


class TestHotLoopAllocRule:
    def test_direct_while_loop_allocation_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/scheduler.py", (
            "class ServingEngine:\n"
            "    def run(self, horizon):\n"
            "        t = 0\n"
            "        while t < horizon:\n"
            "            batch = list(self.pending)\n"
            "            t += 1\n"
            "        return t\n"
        ))
        found = codes_at(lint(root, "src", select={"R010"}), "R010")
        assert len(found) == 1
        assert "list() allocation inside the per-event while loop" in found[0].message

    def test_numpy_alloc_in_depth_one_callee_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/scheduler.py", (
            "import numpy as np\n"
            "class ServingEngine:\n"
            "    def _snapshot(self):\n"
            "        return np.zeros(8, dtype=float)\n"
            "    def run(self, horizon):\n"
            "        t = 0\n"
            "        while t < horizon:\n"
            "            state = self._snapshot()\n"
            "            t += 1\n"
            "        return t\n"
        ))
        found = codes_at(lint(root, "src", select={"R010"}), "R010")
        assert len(found) == 1
        assert "numpy.zeros() in ServingEngine._snapshot()" in found[0].message
        assert "called per event" in found[0].message

    def test_setup_allocation_outside_while_loop_is_clean(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/scheduler.py", (
            "import numpy as np\n"
            "class ServingEngine:\n"
            "    def run(self, horizon):\n"
            "        buf = np.zeros(8, dtype=float)\n"
            "        t = 0\n"
            "        while t < horizon:\n"
            "            buf[t % 8] = t\n"
            "            t += 1\n"
            "        return buf\n"
        ))
        assert codes_at(lint(root, "src", select={"R010"}), "R010") == []

    def test_non_hot_functions_may_allocate_in_loops(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/scheduler.py", (
            "def offline_report(rows):\n"
            "    i = 0\n"
            "    while i < len(rows):\n"
            "        chunk = list(rows[i])\n"
            "        i += 1\n"
            "    return chunk\n"
        ))
        assert codes_at(lint(root, "src", select={"R010"}), "R010") == []


# --------------------------------------------------------------------- R011


class TestResourceLeakRule:
    def test_early_return_while_holding_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/sched.py", (
            "def place(alloc, req):\n"
            "    block = alloc.admit(req)\n"
            "    if block is None:\n"
            "        return None\n"
            "    alloc.release(block)\n"
            "    return req\n"
        ))
        found = codes_at(lint(root, "src", select={"R011"}), "R011")
        assert len(found) == 1
        assert "kv-block may leak in place()" in found[0].message
        assert "return on a path still holding" in found[0].message

    def test_raise_while_holding_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/sched.py", (
            "from ..errors import ConfigError\n"
            "def place(alloc, req, ok):\n"
            "    block = alloc.admit(req)\n"
            "    if not ok:\n"
            "        raise ConfigError('rejected')\n"
            "    alloc.release(block)\n"
        ))
        found = codes_at(lint(root, "src", select={"R011"}), "R011")
        assert len(found) == 1 and "raises on a path still holding" in found[0].message

    def test_try_finally_release_protects_all_exits(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/sched.py", (
            "from ..errors import ConfigError\n"
            "def place(alloc, req, ok):\n"
            "    block = alloc.admit(req)\n"
            "    try:\n"
            "        if not ok:\n"
            "            raise ConfigError('rejected')\n"
            "        return req\n"
            "    finally:\n"
            "        alloc.release(block)\n"
        ))
        assert codes_at(lint(root, "src", select={"R011"}), "R011") == []

    def test_may_raise_callee_while_holding_flagged(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/sched.py", (
            "from ..errors import ConfigError\n"
            "def validate(req):\n"
            "    if req is None:\n"
            "        raise ConfigError('empty')\n"
            "def place(alloc, req):\n"
            "    block = alloc.admit(req)\n"
            "    validate(req)\n"
            "    alloc.release(block)\n"
        ))
        found = codes_at(lint(root, "src", select={"R011"}), "R011")
        assert len(found) == 1
        assert "calls validate() which may raise" in found[0].message

    def test_acquire_only_transfers_ownership(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/sched.py", (
            "def place(alloc, req):\n"
            "    return alloc.admit(req)\n"
        ))
        assert codes_at(lint(root, "src", select={"R011"}), "R011") == []

    def test_outside_resource_scope_not_checked(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/prep/sched.py", (
            "def place(alloc, req):\n"
            "    block = alloc.admit(req)\n"
            "    if block is None:\n"
            "        return None\n"
            "    alloc.release(block)\n"
        ))
        assert codes_at(lint(root, "src", select={"R011"}), "R011") == []


# ------------------------------------------------------- acceptance fixtures


class TestAcceptanceFixtures:
    """The ISSUE's deliberately-broken fixtures, each caught by exactly one rule."""

    def all_codes_for(self, root, filename):
        result = lint(root, "src")
        return {v.code for v in result.violations if v.path.endswith(filename)}

    def test_unseeded_draw_under_serving_step_is_exactly_r007(self, fixture_repo):
        root, write = fixture_repo
        # The draw lives outside R001's hot-path *file* scope but inside the
        # entry point's transitive *execution* — only the taint rule sees it.
        write("src/repro/sampling.py", (
            "import numpy as np\n"
            "def pick(xs):\n"
            "    return xs[int(np.random.rand() * len(xs))]\n"
        ))
        write("src/repro/inference/scheduler.py", (
            "from ..sampling import pick\n"
            "class ServingEngine:\n"
            "    def step(self, xs):\n"
            "        return pick(xs)\n"
        ))
        assert self.all_codes_for(root, "sampling.py") == {"R007"}

    def test_leaked_kv_block_on_exception_path_is_exactly_r011(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/inference/placement.py", (
            "from ..errors import ConfigError\n"
            "def place(alloc, req, budget):\n"
            "    block = alloc.admit(req)\n"
            "    if req.tokens > budget:\n"
            "        raise ConfigError('over budget')\n"
            "    alloc.release(block)\n"
            "    return block\n"
        ))
        assert self.all_codes_for(root, "placement.py") == {"R011"}

    def test_unregistered_ledger_tag_is_exactly_r009(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/semopt/stages.py", (
            "def run_stage(ledger, usage):\n"
            "    ledger.charge(usage, tag='pipe.s2.reduce')\n"
        ))
        assert self.all_codes_for(root, "stages.py") == {"R009"}


# -------------------------------------------------------------- suppressions


class TestSuppressions:
    def test_inline_suppression_with_justification(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "def f():\n"
            "    raise ValueError('x')  # repro-lint: disable=R002 — external API contract\n"
        ))
        result = lint(root, "src")
        assert codes_at(result, "R002") == []
        assert codes_at(result, "R000") == []

    def test_comment_above_suppresses_next_code_line(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "def f():\n"
            "    # repro-lint: disable=R002 — wrapping happens one level up\n"
            "    raise ValueError('x')\n"
        ))
        assert codes_at(lint(root, "src"), "R002") == []

    def test_suppression_without_justification_reports_r000(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", (
            "def f():\n"
            "    raise ValueError('x')  # repro-lint: disable=R002\n"
        ))
        result = lint(root, "src")
        assert len(codes_at(result, "R000")) == 1
        # An unjustified suppression does not silence the finding.
        assert len(codes_at(result, "R002")) == 1

    def test_suppression_only_covers_named_codes(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/vector/kern.py", (
            "import numpy as np\n"
            "def f(xs=[]):  # repro-lint: disable=R004 — fixture exercising scoping\n"
            "    return np.zeros(3)\n"
        ))
        result = lint(root, "src")
        assert codes_at(result, "R004") == []
        assert len(codes_at(result, "R003")) == 1

    def test_malformed_directive_reported(self):
        index = scan_suppressions("x.py", "pass  # repro-lint: disable-next-line\n")
        assert len(index.problems) == 1
        assert "malformed" in index.problems[0].message


# ------------------------------------------------------------ output formats


class TestOutputFormats:
    def test_json_payload_is_stable_and_machine_readable(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", "def f():\n    raise ValueError('x')\n")
        result = lint(root, "src")
        payload = json.loads(format_json(result.violations, files_checked=result.files_checked))
        assert payload["ok"] is False
        assert payload["files_checked"] == result.files_checked
        (finding,) = [v for v in payload["violations"] if v["code"] == "R002"]
        assert finding["path"].endswith("mod.py")
        assert isinstance(finding["line"], int) and finding["line"] > 0

    def test_github_annotations_format_and_escaping(self, fixture_repo):
        root, write = fixture_repo
        write("src/repro/mod.py", "def f():\n    raise ValueError('x')\n")
        lines = format_github(lint(root, "src").violations).splitlines()
        assert any(
            line.startswith("::error file=src/repro/mod.py,line=2,title=R002::")
            for line in lines
        )
        escaped = _github_escape("a\nb%c")
        assert "\n" not in escaped and escaped == "a%0Ab%25c"


# ------------------------------------------------------------------ taxonomy


class TestTaxonomyCollection:
    def test_transitive_subclasses_and_aliases(self, fixture_repo):
        root, _ = fixture_repo
        taxonomy = collect_taxonomy(root, LintConfig())
        assert {"ReproError", "ConfigError", "VectorIndexError", "LegacyAlias"} <= taxonomy

    def test_live_taxonomy_includes_vector_index_error(self):
        taxonomy = collect_taxonomy(REPO_ROOT, LintConfig())
        assert "VectorIndexError" in taxonomy
        assert "SchedulerError" in taxonomy


# ------------------------------------------------------------- live meta-test


class TestLiveRepository:
    def test_lint_cli_passes_with_zero_findings(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "lint.py"), "--quiet"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_lint_cli_json_format_reports_clean_repo(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "lint.py"),
             "--format", "json"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True and payload["violations"] == []

    def test_stream_entry_points_taint_dedup_and_the_key_kernel(self):
        import ast

        from repro.analysis.dataflow import build_program
        from repro.analysis.driver import ModuleInfo

        stream = (
            "src/repro/stream/corpus.py::StreamingCorpus.ingest",
            "src/repro/stream/corpus.py::StreamingCorpus.search",
        )
        assert set(stream) <= set(LintConfig().hot_entry_points)
        modules = {}
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            relpath = path.relative_to(REPO_ROOT).as_posix()
            source = path.read_text()
            modules[relpath] = ModuleInfo(relpath=relpath, source=source, tree=ast.parse(source))
        program = build_program(modules, entry_specs=stream)
        for fid in (
            "src/repro/prep/dedup.py::MinHashDeduper.dedup_incremental",
            "src/repro/llm/embedding.py::EmbeddingModel._key_vectors",
            "src/repro/llm/embedding.py::EmbeddingModel.idf_drift",
            "src/repro/stream/corpus.py::StreamingCorpus._reembed_all",
        ):
            assert program.is_entry_reachable(fid), fid

    def test_seeded_violation_is_caught(self, tmp_path):
        """A determinism regression in a hot path must fail the gate."""
        result = run_lint(["src"], config=LintConfig(), repo_root=REPO_ROOT)
        assert result.violations == []
        # Simulate the regression in a scratch copy of the hot-path scope.
        scratch = tmp_path / "src" / "repro" / "inference"
        scratch.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "errors.py").write_text(TAXONOMY_FIXTURE)
        (scratch / "scheduler.py").write_text(
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        seeded = run_lint(["src"], config=LintConfig(), repo_root=tmp_path)
        assert any(v.code == "R001" for v in seeded.violations)
