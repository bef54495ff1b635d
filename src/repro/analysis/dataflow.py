"""Per-function summaries and fixpoint propagation over the call graph.

The interprocedural rules (R007–R011) never re-walk ASTs during judgment:
this module extracts one :class:`FunctionSummary` per function (unseeded
randomness sources, RNG stream creations, set-order escapes, allocation
sites with loop context, resource acquire/release sites, direct raises)
plus one :class:`ModuleFacts` per file (ledger charge tags, tag-read
literals, module-level RNG globals), then :class:`Program` closes the
interprocedural facts over the :class:`~repro.analysis.callgraph.CallGraph`:

* **reachability** from configured hot entry points, with parent edges so
  a finding can print its witness call chain;
* **may_raise** — a function raises directly or calls something that may.

Unresolved calls (third-party, dynamic dispatch we can't type) contribute
nothing to any fixpoint — the analysis under-approximates edges, so every
reported path is a real syntactic path through repo code.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionNode, build_callgraph
from .rules import DeterminismRule, iter_own_nodes, resolve_call_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .driver import ModuleInfo

_ALLOC_NUMPY: FrozenSet[str] = frozenset(
    {
        "array", "zeros", "empty", "ones", "full", "arange", "linspace",
        "concatenate", "vstack", "hstack", "stack", "column_stack",
        "zeros_like", "empty_like", "ones_like", "full_like",
    }
)
_ALLOC_BUILTINS: FrozenSet[str] = frozenset({"list", "dict", "set"})

#: (protocol name, acquire method names, release method names)
Protocol = Tuple[str, FrozenSet[str], FrozenSet[str]]


# ------------------------------------------------------------------ records


@dataclass(frozen=True)
class UnseededSource:
    lineno: int
    api: str  # e.g. "numpy.random.choice", "random.random", "default_rng()"


@dataclass(frozen=True)
class SetEscape:
    lineno: int
    detail: str


@dataclass(frozen=True)
class RNGCreation:
    lineno: int
    api: str
    seeded: bool


@dataclass(frozen=True)
class DeriveCall:
    lineno: int
    #: Static string tags among derive_rng's name args; None when any name
    #: arg is dynamic (per-key streams are distinct by construction).
    static_tags: Optional[Tuple[str, ...]]


@dataclass(frozen=True)
class AllocSite:
    lineno: int
    label: str  # "numpy.concatenate", "list", ...
    in_while: bool
    in_for: bool


@dataclass(frozen=True)
class ResourceOp:
    lineno: int
    protocol: str
    method: str
    receiver: str


@dataclass(frozen=True)
class CrossStreamLoop:
    lineno: int
    trip_rng: str
    body_rng: str


@dataclass
class FunctionSummary:
    """Everything the rules need to know about one function's own body."""

    fid: str
    unseeded: List[UnseededSource] = field(default_factory=list)
    set_escapes: List[SetEscape] = field(default_factory=list)
    rng_creations: List[RNGCreation] = field(default_factory=list)
    derive_calls: List[DeriveCall] = field(default_factory=list)
    allocs: List[AllocSite] = field(default_factory=list)
    acquires: List[ResourceOp] = field(default_factory=list)
    releases: List[ResourceOp] = field(default_factory=list)
    cross_streams: List[CrossStreamLoop] = field(default_factory=list)
    raises_directly: bool = False
    #: Line numbers of call expressions inside while-loops of the own body
    #: (lets R010 tell which callees execute per event, one level deep).
    while_call_linenos: Set[int] = field(default_factory=set)


@dataclass(frozen=True)
class ChargeTag:
    lineno: int
    literal: Optional[str]  # None for f-strings / variables (dynamic tags)


@dataclass
class ModuleFacts:
    """Module-granularity facts that don't belong to any one function."""

    relpath: str
    charge_tags: List[ChargeTag] = field(default_factory=list)
    read_literals: Set[str] = field(default_factory=set)
    #: Module-level ``NAME = derive_rng(...)/default_rng(...)`` assignments.
    rng_globals: List[Tuple[int, str]] = field(default_factory=list)


# --------------------------------------------------------------- AST helpers


def _loop_context(func_node: ast.AST) -> Dict[int, Tuple[bool, bool]]:
    """Map id(node) -> (inside a while, inside a for) within the own body."""
    context: Dict[int, Tuple[bool, bool]] = {}

    def visit(node: ast.AST, in_while: bool, in_for: bool) -> None:
        context[id(node)] = (in_while, in_for)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            child_while = in_while or isinstance(node, ast.While)
            child_for = in_for or isinstance(node, (ast.For, ast.AsyncFor))
            visit(child, child_while, child_for)

    visit(func_node, False, False)
    return context


def is_derive_call(node: ast.Call, aliases: Dict[str, str]) -> bool:
    dotted = resolve_call_name(node.func, aliases)
    if dotted is not None and (dotted == "derive_rng" or dotted.endswith(".derive_rng")):
        return True
    # Local helper named derive_rng (the factory module itself, fixtures).
    return isinstance(node.func, ast.Name) and node.func.id == "derive_rng"


def _derive_static_tags(node: ast.Call) -> Optional[Tuple[str, ...]]:
    """Static name tags of a derive_rng(seed, *names) call; None if dynamic."""
    tags: List[str] = []
    for arg in node.args[1:]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            tags.append(arg.value)
        else:
            return None
    return tuple(tags)


def _is_set_expr(node: ast.expr, set_locals: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name):
        return node.id in set_locals
    if isinstance(node, ast.Attribute) and node.attr == "keys":
        return False  # dict views are insertion-ordered on py>=3.7
    return False


def _receiver_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover - pathological ASTs
        return "<expr>"


# ------------------------------------------------------------- summarization


def summarize_function(
    func: FunctionNode,
    aliases: Dict[str, str],
    protocols: Tuple[Protocol, ...],
) -> FunctionSummary:
    """Extract the per-function facts the interprocedural rules consume."""
    summary = FunctionSummary(fid=func.fid)
    loops = _loop_context(func.node)

    # Pass 1: local classification — RNG-typed locals, set-typed locals,
    # and variables assigned from a draw on some RNG stream.
    rng_locals: Set[str] = set()
    set_locals: Set[str] = set()
    draw_assigns: Dict[str, str] = {}  # var -> rng name it was drawn from
    args = func.node.args  # type: ignore[attr-defined]
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        ann = arg.annotation
        ann_text = _receiver_text(ann) if ann is not None else ""
        if "Generator" in ann_text or arg.arg == "rng" or arg.arg.endswith("_rng"):
            rng_locals.add(arg.arg)
    # iter_own_nodes yields in traversal (stack) order, not source order, so
    # classify locals in two sub-passes: stream/set names first, then the
    # draw-assignments that reference them.
    own_assigns: List[Tuple[ast.Name, ast.expr]] = []
    for node in iter_own_nodes(func.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        own_assigns.append((target, node.value))
        value = node.value
        if isinstance(value, ast.Call):
            dotted = resolve_call_name(value.func, aliases)
            if is_derive_call(value, aliases) or (
                dotted is not None and dotted.endswith("default_rng")
            ):
                rng_locals.add(target.id)
                continue
        if _is_set_expr(value, set_locals=set()):
            set_locals.add(target.id)
    for target, value in own_assigns:
        if target.id in rng_locals or target.id in set_locals:
            continue
        for inner in ast.walk(value):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and isinstance(inner.func.value, ast.Name)
                and inner.func.value.id in rng_locals
            ):
                draw_assigns[target.id] = inner.func.value.id
                break

    # Pass 2: site extraction.
    for node in iter_own_nodes(func.node):
        if isinstance(node, ast.Raise):
            summary.raises_directly = True
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self_escape = _set_iteration_escape(node, set_locals)
            if self_escape is not None:
                summary.set_escapes.append(self_escape)
            cross = _cross_stream_hazard(node, rng_locals, draw_assigns)
            if cross is not None:
                summary.cross_streams.append(cross)
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter, set_locals):
                    summary.set_escapes.append(
                        SetEscape(
                            lineno=node.lineno,
                            detail="comprehension iterates a set; wrap in sorted()",
                        )
                    )
        if not isinstance(node, ast.Call):
            continue
        in_while, in_for = loops.get(id(node), (False, False))
        if in_while:
            summary.while_call_linenos.add(node.lineno)
        dotted = resolve_call_name(node.func, aliases)
        # ---- randomness sources -------------------------------------
        if is_derive_call(node, aliases):
            summary.derive_calls.append(
                DeriveCall(lineno=node.lineno, static_tags=_derive_static_tags(node))
            )
        elif dotted is not None:
            if dotted.startswith("random.") and dotted.count(".") == 1:
                summary.unseeded.append(UnseededSource(node.lineno, dotted))
            elif dotted.startswith("numpy.random."):
                tail = dotted[len("numpy.random."):]
                if tail in DeterminismRule._NUMPY_GLOBAL:  # R001's legacy global-RNG API
                    summary.unseeded.append(
                        UnseededSource(node.lineno, f"numpy.random.{tail}")
                    )
                elif tail == "default_rng":
                    seeded = bool(node.args or node.keywords)
                    if not seeded:
                        summary.unseeded.append(
                            UnseededSource(node.lineno, "default_rng()")
                        )
                    summary.rng_creations.append(
                        RNGCreation(node.lineno, "numpy.random.default_rng", seeded)
                    )
                elif tail in {"Generator", "RandomState"}:
                    summary.rng_creations.append(
                        RNGCreation(node.lineno, f"numpy.random.{tail}", True)
                    )
        # ---- list(<set>) / tuple(<set>) ------------------------------
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple"}
            and len(node.args) == 1
            and _is_set_expr(node.args[0], set_locals)
        ):
            summary.set_escapes.append(
                SetEscape(
                    lineno=node.lineno,
                    detail=f"{node.func.id}() materializes a set in iteration "
                    "order; wrap in sorted()",
                )
            )
        # ---- allocations --------------------------------------------
        if dotted is not None and dotted.startswith("numpy."):
            tail = dotted[len("numpy."):]
            if tail in _ALLOC_NUMPY:
                summary.allocs.append(
                    AllocSite(node.lineno, f"numpy.{tail}", in_while, in_for)
                )
        elif isinstance(node.func, ast.Name) and node.func.id in _ALLOC_BUILTINS:
            summary.allocs.append(
                AllocSite(node.lineno, node.func.id, in_while, in_for)
            )
        # ---- resource protocol operations ---------------------------
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = _receiver_text(node.func.value)
            for name, acquire_methods, release_methods in protocols:
                if method in acquire_methods:
                    summary.acquires.append(
                        ResourceOp(node.lineno, name, method, receiver)
                    )
                if method in release_methods:
                    summary.releases.append(
                        ResourceOp(node.lineno, name, method, receiver)
                    )
    return summary


def _set_iteration_escape(
    loop: "ast.For | ast.AsyncFor", set_locals: Set[str]
) -> Optional[SetEscape]:
    if not _is_set_expr(loop.iter, set_locals):
        return None
    return SetEscape(
        lineno=loop.lineno,
        detail="for-loop iterates a set in hash order; wrap the iterable "
        "in sorted()",
    )


def _cross_stream_hazard(
    loop: "ast.For | ast.AsyncFor",
    rng_locals: Set[str],
    draw_assigns: Dict[str, str],
) -> Optional[CrossStreamLoop]:
    """``for _ in range(n)`` where n came from stream A and the body draws B.

    The draw *count* of stream B then depends on stream A's values — reseed
    one stream and the other silently shifts, the seeded-parallelism
    equivalent of a data race.
    """
    iter_expr = loop.iter
    if not (
        isinstance(iter_expr, ast.Call)
        and isinstance(iter_expr.func, ast.Name)
        and iter_expr.func.id == "range"
    ):
        return None
    trip_rng: Optional[str] = None
    for arg in iter_expr.args:
        for inner in ast.walk(arg):
            if isinstance(inner, ast.Name) and inner.id in draw_assigns:
                trip_rng = draw_assigns[inner.id]
                break
        if trip_rng is not None:
            break
    if trip_rng is None:
        return None
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in rng_locals
            and node.func.value.id != trip_rng
        ):
            return CrossStreamLoop(
                lineno=loop.lineno, trip_rng=trip_rng, body_rng=node.func.value.id
            )
    return None


_READ_METHODS = frozenset({"get", "pop", "startswith"})
#: The ledger's charge entry points (``UsageLedger.charge``/``charge_many``).
_CHARGE_METHODS = frozenset({"charge", "charge_many"})


def collect_module_facts(module: "ModuleInfo") -> ModuleFacts:
    """Charge sites, tag-read literals, and module-level RNG globals."""
    facts = ModuleFacts(relpath=module.relpath)
    aliases = module.aliases
    charge_value_ids: Set[int] = set()
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CHARGE_METHODS
        ):
            for kw in node.keywords:
                if kw.arg != "tag":
                    continue
                charge_value_ids.add(id(kw.value))
                literal: Optional[str] = None
                if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str):
                    literal = kw.value.value
                facts.charge_tags.append(ChargeTag(node.lineno, literal))
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Subscript):
            s = node.slice
            if isinstance(s, ast.Constant) and isinstance(s.value, str):
                facts.read_literals.add(s.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _READ_METHODS:
                for arg in node.args:
                    if (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and id(arg) not in charge_value_ids
                    ):
                        facts.read_literals.add(arg.value)
        elif isinstance(node, ast.Compare):
            for operand in [node.left] + list(node.comparators):
                if isinstance(operand, ast.Constant) and isinstance(operand.value, str):
                    facts.read_literals.add(operand.value)
    for node in module.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            dotted = resolve_call_name(value.func, aliases)
            if is_derive_call(value, aliases) or (
                dotted is not None and dotted.endswith("default_rng")
            ):
                facts.rng_globals.append((node.lineno, target.id))
    return facts


# ------------------------------------------------------------------- Program


class Program:
    """The whole-repo view: call graph + summaries + interprocedural facts."""

    def __init__(
        self,
        graph: CallGraph,
        summaries: Dict[str, FunctionSummary],
        module_facts: Dict[str, ModuleFacts],
        entry_fids: List[str],
    ) -> None:
        self.graph = graph
        self.summaries = summaries
        self.module_facts = module_facts
        self.entry_fids = entry_fids
        #: fid -> parent edge on the BFS tree from the entries (None = entry).
        self.reachable: Dict[str, Optional[object]] = {}
        self.may_raise: Set[str] = set()
        self._compute_reachability()
        self._compute_may_raise()

    # --------------------------------------------------------------- builds
    def _compute_reachability(self) -> None:
        queue = deque()
        for fid in self.entry_fids:
            if fid in self.graph.functions and fid not in self.reachable:
                self.reachable[fid] = None
                queue.append(fid)
        while queue:
            current = queue.popleft()
            for edge in self.graph.callees(current):
                if edge.callee not in self.reachable:
                    self.reachable[edge.callee] = edge
                    queue.append(edge.callee)

    def _compute_may_raise(self) -> None:
        raising = {
            fid for fid, summary in self.summaries.items() if summary.raises_directly
        }
        changed = True
        while changed:
            changed = False
            for fid in self.graph.functions:
                if fid in raising:
                    continue
                if any(edge.callee in raising for edge in self.graph.callees(fid)):
                    raising.add(fid)
                    changed = True
        self.may_raise = raising

    # ---------------------------------------------------------------- query
    def is_entry_reachable(self, fid: str) -> bool:
        return fid in self.reachable

    def witness_chain(self, fid: str) -> List[str]:
        """Human-readable call chain from an entry point down to ``fid``."""
        chain: List[str] = []
        current: Optional[str] = fid
        guard = 0
        while current is not None and guard < 64:
            guard += 1
            func = self.graph.functions.get(current)
            chain.append(func.qualname if func else current)
            edge = self.reachable.get(current)
            current = edge.caller if edge is not None else None  # type: ignore[attr-defined]
        return list(reversed(chain))

    def summary_of(self, fid: str) -> Optional[FunctionSummary]:
        return self.summaries.get(fid)


def resolve_entry_fids(
    graph: CallGraph, entry_specs: Tuple[str, ...]
) -> List[str]:
    """Resolve ``relpath::qualname`` entry specs against the call graph.

    Missing entries are skipped silently: a narrowed lint run (or a fixture
    repo) simply has fewer hot roots.
    """
    return [spec for spec in entry_specs if spec in graph.functions]


def build_program(
    modules: Dict[str, "ModuleInfo"],
    *,
    entry_specs: Tuple[str, ...] = (),
    protocols: Tuple[Protocol, ...] = (),
) -> Program:
    """Parse-free program construction from already-parsed modules."""
    graph = build_callgraph(modules)
    summaries: Dict[str, FunctionSummary] = {}
    for fid, func in graph.functions.items():
        module = modules[func.relpath]
        summaries[fid] = summarize_function(func, module.aliases, protocols)
    module_facts = {
        relpath: collect_module_facts(module) for relpath, module in modules.items()
    }
    entry_fids = resolve_entry_fids(graph, entry_specs)
    return Program(graph, summaries, module_facts, entry_fids)
