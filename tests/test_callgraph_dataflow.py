"""Unit tests for the interprocedural layer: callgraph.py and dataflow.py.

These test the analyzer core in isolation from the lint driver: graphs are
built over in-memory ModuleInfo dicts (no filesystem), so every resolution
feature — imported names, ``__init__`` re-export chains, self/attribute
method dispatch, subclass overrides, nested closures — is pinned down
independently of rule behavior.
"""

from __future__ import annotations

import ast

import pytest

from repro.analysis.callgraph import build_callgraph
from repro.analysis.dataflow import (
    build_program,
    collect_module_facts,
    summarize_function,
)
from repro.analysis.driver import ModuleInfo

KV = ("kv", frozenset({"admit"}), frozenset({"release"}))


def modules_from(sources):
    """Build the {relpath: ModuleInfo} dict the analyzer layers consume."""
    out = {}
    for relpath, source in sources.items():
        out[relpath] = ModuleInfo(relpath=relpath, source=source, tree=ast.parse(source))
    return out


def edge_targets(graph, fid):
    return sorted({edge.callee for edge in graph.callees(fid)})


# ----------------------------------------------------------------- callgraph


class TestCallGraphResolution:
    def test_module_local_and_imported_function_edges(self):
        graph = build_callgraph(modules_from({
            "src/repro/a.py": (
                "from repro.b import helper\n"
                "def local():\n"
                "    return 1\n"
                "def caller():\n"
                "    return local() + helper()\n"
            ),
            "src/repro/b.py": "def helper():\n    return 2\n",
        }))
        assert edge_targets(graph, "src/repro/a.py::caller") == [
            "src/repro/a.py::local",
            "src/repro/b.py::helper",
        ]

    def test_relative_import_resolution(self):
        graph = build_callgraph(modules_from({
            "src/repro/pkg/a.py": (
                "from .b import helper\n"
                "def caller():\n"
                "    return helper()\n"
            ),
            "src/repro/pkg/b.py": "def helper():\n    return 2\n",
        }))
        assert edge_targets(graph, "src/repro/pkg/a.py::caller") == [
            "src/repro/pkg/b.py::helper"
        ]

    def test_init_reexport_chain_resolution(self):
        """Importing through a package __init__ lands on the defining module."""
        graph = build_callgraph(modules_from({
            "src/repro/pkg/__init__.py": "from .impl import work\n",
            "src/repro/pkg/impl.py": "def work():\n    return 3\n",
            "src/repro/use.py": (
                "from repro.pkg import work\n"
                "def caller():\n"
                "    return work()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/use.py::caller") == [
            "src/repro/pkg/impl.py::work"
        ]

    def test_module_alias_attribute_call(self):
        graph = build_callgraph(modules_from({
            "src/repro/a.py": (
                "import repro.b as b\n"
                "def caller():\n"
                "    return b.helper()\n"
            ),
            "src/repro/b.py": "def helper():\n    return 2\n",
        }))
        assert edge_targets(graph, "src/repro/a.py::caller") == [
            "src/repro/b.py::helper"
        ]

    def test_self_method_and_constructor_edges(self):
        graph = build_callgraph(modules_from({
            "src/repro/c.py": (
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self.n = 0\n"
                "    def helper(self):\n"
                "        return 1\n"
                "    def run(self):\n"
                "        return self.helper()\n"
                "def make():\n"
                "    return Engine()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/c.py::Engine.run") == [
            "src/repro/c.py::Engine.helper"
        ]
        assert edge_targets(graph, "src/repro/c.py::make") == [
            "src/repro/c.py::Engine.__init__"
        ]

    def test_attribute_type_from_constructor_assignment(self):
        """self.alloc = Allocator(...) types later self.alloc.admit() calls."""
        graph = build_callgraph(modules_from({
            "src/repro/kv.py": (
                "class Allocator:\n"
                "    def admit(self):\n"
                "        return True\n"
            ),
            "src/repro/eng.py": (
                "from repro.kv import Allocator\n"
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self.alloc = Allocator()\n"
                "    def step(self):\n"
                "        return self.alloc.admit()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/eng.py::Engine.step") == [
            "src/repro/kv.py::Allocator.admit"
        ]

    def test_annotated_parameter_receiver(self):
        graph = build_callgraph(modules_from({
            "src/repro/kv.py": (
                "class Allocator:\n"
                "    def admit(self):\n"
                "        return True\n"
            ),
            "src/repro/use.py": (
                "from repro.kv import Allocator\n"
                "def drive(alloc: Allocator):\n"
                "    return alloc.admit()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/use.py::drive") == [
            "src/repro/kv.py::Allocator.admit"
        ]

    def test_subclass_override_virtual_dispatch(self):
        """A call through the base type also edges to subclass overrides."""
        graph = build_callgraph(modules_from({
            "src/repro/policy.py": (
                "class Policy:\n"
                "    def plan(self):\n"
                "        return 0\n"
                "class Greedy(Policy):\n"
                "    def plan(self):\n"
                "        return 1\n"
                "def drive(p: Policy):\n"
                "    return p.plan()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/policy.py::drive") == [
            "src/repro/policy.py::Greedy.plan",
            "src/repro/policy.py::Policy.plan",
        ]

    def test_inherited_method_resolves_up_the_mro(self):
        graph = build_callgraph(modules_from({
            "src/repro/base.py": (
                "class Base:\n"
                "    def shared(self):\n"
                "        return 0\n"
            ),
            "src/repro/sub.py": (
                "from repro.base import Base\n"
                "class Sub(Base):\n"
                "    def run(self):\n"
                "        return self.shared()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/sub.py::Sub.run") == [
            "src/repro/base.py::Base.shared"
        ]

    def test_nested_closure_edges(self):
        graph = build_callgraph(modules_from({
            "src/repro/f.py": (
                "def outer():\n"
                "    def inner():\n"
                "        return 1\n"
                "    return inner()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/f.py::outer") == [
            "src/repro/f.py::outer.inner"
        ]

    def test_attribute_type_from_or_default(self):
        """self.x = x or ClassName(...) types self.x through either operand."""
        graph = build_callgraph(modules_from({
            "src/repro/kv.py": (
                "class Allocator:\n"
                "    def admit(self):\n"
                "        return True\n"
            ),
            "src/repro/eng.py": (
                "from typing import Optional\n"
                "from repro.kv import Allocator\n"
                "class Engine:\n"
                "    def __init__(self, alloc: Optional[Allocator] = None):\n"
                "        self.alloc = alloc or Allocator()\n"
                "    def step(self):\n"
                "        return self.alloc.admit()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/eng.py::Engine.step") == [
            "src/repro/kv.py::Allocator.admit"
        ]

    def test_local_typed_by_self_method_return_annotation(self):
        graph = build_callgraph(modules_from({
            "src/repro/r.py": (
                "class Rel:\n"
                "    def join(self, other):\n"
                "        return self\n"
                "class Exec:\n"
                "    def _input(self) -> Rel:\n"
                "        return Rel()\n"
                "    def run(self):\n"
                "        left = self._input()\n"
                "        return left.join(left)\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/r.py::Exec.run") == [
            "src/repro/r.py::Exec._input",
            "src/repro/r.py::Rel.join",
        ]

    def test_getattr_prefix_dispatch_edges_to_every_prefixed_method(self):
        graph = build_callgraph(modules_from({
            "src/repro/d.py": (
                "class Exec:\n"
                "    def _op_scan(self):\n"
                "        return 1\n"
                "    def _op_join(self):\n"
                "        return 2\n"
                "    def other(self):\n"
                "        return 3\n"
                "    def run(self, kind):\n"
                "        handler = getattr(self, f\"_op_{kind}\", None)\n"
                "        return handler()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/d.py::Exec.run") == [
            "src/repro/d.py::Exec._op_join",
            "src/repro/d.py::Exec._op_scan",
        ]

    def test_unresolvable_calls_produce_no_edges(self):
        graph = build_callgraph(modules_from({
            "src/repro/g.py": (
                "import os\n"
                "def caller(x):\n"
                "    return os.getpid() + x.anything() + unknown()\n"
            ),
        }))
        assert edge_targets(graph, "src/repro/g.py::caller") == []


# ------------------------------------------------------------------ dataflow


def single_summary(source, protocols=()):
    modules = modules_from({"src/repro/m.py": source})
    graph = build_callgraph(modules)
    (fid,) = [f for f in graph.functions if not graph.functions[f].class_id]
    return summarize_function(
        graph.functions[fid], modules["src/repro/m.py"].aliases, tuple(protocols)
    )


class TestFunctionSummaries:
    def test_unseeded_sources_detected(self):
        summary = single_summary(
            "import numpy as np\n"
            "import random\n"
            "def f():\n"
            "    a = np.random.rand(3)\n"
            "    b = random.random()\n"
            "    c = np.random.default_rng()\n"
            "    return a, b, c\n"
        )
        apis = sorted(s.api for s in summary.unseeded)
        assert apis == ["default_rng()", "numpy.random.rand", "random.random"]

    def test_seeded_creation_is_not_unseeded_but_is_a_creation(self):
        summary = single_summary(
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert summary.unseeded == []
        assert len(summary.rng_creations) == 1 and summary.rng_creations[0].seeded

    def test_derive_call_static_and_dynamic_tags(self):
        summary = single_summary(
            "from repro.utils import derive_rng\n"
            "def f(seed, key):\n"
            "    a = derive_rng(seed, 'emb', 'proto')\n"
            "    b = derive_rng(seed, 'emb', key)\n"
            "    return a, b\n"
        )
        tags = [d.static_tags for d in summary.derive_calls]
        assert ("emb", "proto") in tags and None in tags

    def test_set_iteration_escapes(self):
        summary = single_summary(
            "def f(items):\n"
            "    seen = {x for x in items}\n"
            "    out = [y for y in seen]\n"
            "    for z in seen:\n"
            "        out.append(z)\n"
            "    return out + list(seen)\n"
        )
        assert len(summary.set_escapes) == 3  # comprehension, for-loop, list()

    def test_sorted_set_iteration_is_clean(self):
        summary = single_summary(
            "def f(items):\n"
            "    seen = set(items)\n"
            "    return [y for y in sorted(seen)]\n"
        )
        assert summary.set_escapes == []

    def test_dict_iteration_is_clean(self):
        summary = single_summary(
            "def f(d):\n"
            "    return [k for k in d.keys()]\n"
        )
        assert summary.set_escapes == []

    def test_alloc_sites_record_loop_context(self):
        summary = single_summary(
            "import numpy as np\n"
            "def f(n):\n"
            "    base = np.zeros(4, dtype=float)\n"
            "    while n > 0:\n"
            "        buf = list(range(n))\n"
            "        n -= 1\n"
            "    return base, buf\n"
        )
        by_label = {a.label: a for a in summary.allocs}
        assert not by_label["numpy.zeros"].in_while
        assert by_label["list"].in_while

    def test_resource_ops_and_while_call_lines(self):
        summary = single_summary(
            "def f(alloc, req):\n"
            "    while req:\n"
            "        ok = alloc.admit(req)\n"
            "        alloc.release(req)\n",
            protocols=[KV],
        )
        assert [op.method for op in summary.acquires] == ["admit"]
        assert [op.method for op in summary.releases] == ["release"]
        assert summary.while_call_linenos == {3, 4}

    def test_cross_stream_loop_hazard(self):
        summary = single_summary(
            "from repro.utils import derive_rng\n"
            "def f(seed):\n"
            "    rng_a = derive_rng(seed, 'a')\n"
            "    rng_b = derive_rng(seed, 'b')\n"
            "    n = int(rng_a.integers(1, 5))\n"
            "    total = 0.0\n"
            "    for _ in range(n):\n"
            "        total += rng_b.random()\n"
            "    return total\n"
        )
        assert len(summary.cross_streams) == 1
        hazard = summary.cross_streams[0]
        assert hazard.trip_rng == "rng_a" and hazard.body_rng == "rng_b"

    def test_same_stream_loop_is_clean(self):
        summary = single_summary(
            "from repro.utils import derive_rng\n"
            "def f(seed):\n"
            "    rng = derive_rng(seed, 'a')\n"
            "    n = int(rng.integers(1, 5))\n"
            "    return sum(rng.random() for _ in range(n))\n"
        )
        assert summary.cross_streams == []


class TestModuleFacts:
    def test_charge_tags_and_reads(self):
        modules = modules_from({
            "src/repro/m.py": (
                "def f(ledger, usage):\n"
                "    ledger.charge(usage, tag='lake.s0.filter')\n"
                "    ledger.charge(usage, tag=f'dyn.s{1}.map')\n"
                "    return ledger.by_tag.get('lake.s0.filter')\n"
            ),
        })
        facts = collect_module_facts(modules["src/repro/m.py"])
        literals = [c.literal for c in facts.charge_tags]
        assert "lake.s0.filter" in literals and None in literals
        assert "lake.s0.filter" in facts.read_literals

    def test_module_level_rng_global(self):
        modules = modules_from({
            "src/repro/m.py": (
                "from repro.utils import derive_rng\n"
                "RNG = derive_rng(0, 'shared')\n"
            ),
        })
        facts = collect_module_facts(modules["src/repro/m.py"])
        assert facts.rng_globals == [(2, "RNG")]


class TestProgram:
    @pytest.fixture()
    def program(self):
        modules = modules_from({
            "src/repro/engine.py": (
                "from repro.deep import middle\n"
                "class Engine:\n"
                "    def run(self):\n"
                "        return middle()\n"
                "def stray():\n"
                "    return middle()\n"
            ),
            "src/repro/deep.py": (
                "import numpy as np\n"
                "def middle():\n"
                "    return leaf()\n"
                "def leaf():\n"
                "    return np.random.rand(2)\n"
                "def boom():\n"
                "    raise ValueError('x')\n"
                "def calls_boom():\n"
                "    return boom()\n"
                "def quiet():\n"
                "    return 1\n"
                "def releaser(alloc, req):\n"
                "    alloc.release(req)\n"
                "def delegates(alloc, req):\n"
                "    releaser(alloc, req)\n"
            ),
        })
        return build_program(
            modules,
            entry_specs=("src/repro/engine.py::Engine.run",),
            protocols=(KV,),
        )

    def test_reachability_and_witness_chain(self, program):
        assert program.is_entry_reachable("src/repro/deep.py::leaf")
        assert not program.is_entry_reachable("src/repro/deep.py::quiet")
        # stray() also calls middle() but is not an entry, so not a root.
        assert not program.is_entry_reachable("src/repro/engine.py::stray")
        assert program.witness_chain("src/repro/deep.py::leaf") == [
            "Engine.run", "middle", "leaf",
        ]

    def test_may_raise_fixpoint(self, program):
        assert "src/repro/deep.py::boom" in program.may_raise
        assert "src/repro/deep.py::calls_boom" in program.may_raise
        assert "src/repro/deep.py::quiet" not in program.may_raise

    def test_missing_entry_specs_are_skipped(self):
        modules = modules_from({"src/repro/solo.py": "def f():\n    return 1\n"})
        program = build_program(
            modules, entry_specs=("src/repro/absent.py::Gone.run",)
        )
        assert program.entry_fids == []
        assert not program.is_entry_reachable("src/repro/solo.py::f")
