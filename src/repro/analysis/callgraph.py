"""Module-qualified call-graph construction for the interprocedural rules.

PR 2's repro-lint judged every module in isolation, which is exactly the
blind spot scale-out refactors exploit: an unseeded draw three calls below
``ServingEngine.step`` is invisible to a per-module walker.  This module
builds a repository-wide call graph from the already-parsed
:class:`~repro.analysis.driver.ModuleInfo` set:

* **functions** are addressed as ``<relpath>::<qualname>`` (methods include
  their class, nested functions their enclosing function), so two modules
  can define the same name without colliding;
* **imports** resolve through package ``__init__.py`` re-export chains
  (the same convention the PR 2 export index relies on), so
  ``from ..faults import FaultInjector`` lands on ``faults/plan.py``;
* **attribute calls** resolve through ``self``, through parameter / local
  annotations, through constructor assignments (``x = ClassName(...)``),
  through ``x = self.method(...)`` when that method's return annotation
  names a class of its module, and through ``self.attr`` types inferred
  from ``__init__`` bodies (``self.x = x or ClassName(...)`` included);
* **prefix dispatch** ``handler = getattr(self, f"_op_{kind}")`` followed
  by ``handler(...)`` edges to every method whose name has that prefix;
* **virtual dispatch** is over-approximated: a call to ``C.method`` also
  edges to every subclass override, so taint never escapes through a
  polymorphic scheduler policy.

Resolution is deliberately conservative-but-partial: a call we cannot
resolve produces *no* edge (precision over recall), which the rules accept
because every rule here reports real syntactic evidence at the callee site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .driver import ModuleInfo

#: Directories (relative to the repo root) that act as import roots.
SOURCE_ROOTS: Tuple[str, ...] = ("src", "")

_MAX_REEXPORT_DEPTH = 8


@dataclass(frozen=True)
class ImportedName:
    """Where a locally-bound name comes from.

    ``relpath`` is ``None`` for third-party imports; ``name`` is ``None``
    when the binding is a whole module (``import numpy as np``).
    """

    relpath: Optional[str]
    name: Optional[str]


@dataclass
class FunctionNode:
    """One function or method, addressed as ``relpath::qualname``."""

    fid: str
    relpath: str
    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    lineno: int
    class_id: Optional[str] = None  # owning ClassNode.cid for methods

    @property
    def label(self) -> str:
        return f"{self.relpath}::{self.qualname}"


@dataclass
class ClassNode:
    """One class definition with resolved bases and inferred attribute types."""

    cid: str
    relpath: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)  # resolved ClassNode.cid
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fid
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> cid


@dataclass(frozen=True)
class CallEdge:
    """A resolved call site: ``caller`` invokes ``callee`` at ``lineno``."""

    caller: str
    callee: str
    lineno: int


class CallGraph:
    """The resolved program: functions, classes, and call edges."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        self.edges: Dict[str, List[CallEdge]] = {}
        self.subclasses: Dict[str, List[str]] = {}

    def callees(self, fid: str) -> List[CallEdge]:
        return self.edges.get(fid, [])

    def functions_in(self, relpath: str) -> List[FunctionNode]:
        return [f for f in self.functions.values() if f.relpath == relpath]

    def mro(self, cid: str) -> List[str]:
        """Depth-first base-class chain (repo-defined classes only)."""
        seen: List[str] = []
        stack = [cid]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.append(current)
            stack.extend(self.classes[current].bases)
        return seen

    def all_subclasses(self, cid: str) -> List[str]:
        """Every transitive subclass of ``cid`` defined in the repo."""
        out: List[str] = []
        stack = list(self.subclasses.get(cid, []))
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out.append(current)
            stack.extend(self.subclasses.get(current, []))
        return out

    def resolve_method(self, cid: str, method: str) -> List[str]:
        """Possible targets of ``obj.method()`` where ``obj: cid``.

        The static target (first definition up the MRO) plus every subclass
        override — the virtual-dispatch over-approximation.
        """
        targets: List[str] = []
        for ancestor in self.mro(cid):
            fid = self.classes[ancestor].methods.get(method)
            if fid is not None:
                targets.append(fid)
                break
        for sub in self.all_subclasses(cid):
            fid = self.classes[sub].methods.get(method)
            if fid is not None and fid not in targets:
                targets.append(fid)
        return targets


# ------------------------------------------------------------ import binding


def _module_candidates(dotted: str) -> Iterator[str]:
    """Candidate relpaths for an absolute dotted module name."""
    tail = dotted.replace(".", "/")
    for root in SOURCE_ROOTS:
        prefix = f"{root}/" if root else ""
        yield f"{prefix}{tail}.py"
        yield f"{prefix}{tail}/__init__.py"


def _relative_candidates(relpath: str, level: int, module: Optional[str]) -> Iterator[str]:
    """Candidate relpaths for a ``from ...mod import name`` relative import."""
    parts = relpath.split("/")[:-1]  # directory of the importing file
    ascend = level - 1
    if ascend > len(parts):
        return
    base = parts[: len(parts) - ascend]
    tail = base + (module.split(".") if module else [])
    joined = "/".join(tail)
    if joined:
        yield f"{joined}.py"
        yield f"{joined}/__init__.py"
    elif base:
        yield "/".join(base) + "/__init__.py"


def _toplevel_defs(tree: ast.Module) -> Set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


class _Binder:
    """Resolves every module's imported names to repo files, chasing re-exports."""

    def __init__(self, modules: Dict[str, "ModuleInfo"]) -> None:
        self.modules = modules
        self._defs: Dict[str, Set[str]] = {}

    def defs(self, relpath: str) -> Set[str]:
        if relpath not in self._defs:
            self._defs[relpath] = _toplevel_defs(self.modules[relpath].tree)
        return self._defs[relpath]

    def _find_module(self, candidates: Iterator[str]) -> Optional[str]:
        for candidate in candidates:
            if candidate in self.modules:
                return candidate
        return None

    def _chase(self, relpath: str, name: str, depth: int = 0) -> ImportedName:
        """Find the module whose top level defines ``name``; follow re-exports."""
        if depth > _MAX_REEXPORT_DEPTH:
            return ImportedName(None, name)
        if name in self.defs(relpath):
            return ImportedName(relpath, name)
        for node in self.modules[relpath].tree.body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for item in node.names:
                if (item.asname or item.name) != name:
                    continue
                target = self._resolve_from(relpath, node)
                if target is not None:
                    return self._chase(target, item.name, depth + 1)
        return ImportedName(relpath, name)  # defined dynamically or assigned

    def _resolve_from(self, relpath: str, node: ast.ImportFrom) -> Optional[str]:
        if node.level:
            return self._find_module(
                _relative_candidates(relpath, node.level, node.module)
            )
        if node.module:
            return self._find_module(_module_candidates(node.module))
        return None

    def bind(self, relpath: str) -> Dict[str, ImportedName]:
        """Map each locally-bound imported name to its defining repo module."""
        bindings: Dict[str, ImportedName] = {}
        for node in ast.walk(self.modules[relpath].tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    dotted = item.name if item.asname else item.name.split(".")[0]
                    target = self._find_module(_module_candidates(dotted))
                    bindings[local] = ImportedName(target, None)
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve_from(relpath, node)
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    if target is None:
                        bindings[local] = ImportedName(None, item.name)
                    else:
                        resolved = self._chase(target, item.name)
                        # ``from . import mod`` binds a module, not a symbol.
                        if resolved.relpath is not None and resolved.name is not None:
                            submodule = self._find_module(
                                iter(
                                    [
                                        f"{resolved.relpath[: -len('/__init__.py')]}/{item.name}.py",
                                        f"{resolved.relpath[: -len('/__init__.py')]}/{item.name}/__init__.py",
                                    ]
                                )
                                if resolved.relpath.endswith("/__init__.py")
                                and resolved.name not in self.defs(resolved.relpath)
                                else iter(())
                            )
                            if submodule is not None:
                                bindings[local] = ImportedName(submodule, None)
                                continue
                        bindings[local] = resolved
        return bindings


# ----------------------------------------------------------------- collection


class _Collector(ast.NodeVisitor):
    """First pass: register every function and class in one module."""

    def __init__(self, graph: CallGraph, relpath: str) -> None:
        self.graph = graph
        self.relpath = relpath
        self.stack: List[str] = []  # qualname parts
        self.class_stack: List[str] = []  # cids

    def _qual(self, name: str) -> str:
        return ".".join(self.stack + [name])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual(node.name)
        cid = f"{self.relpath}::{qual}"
        self.graph.classes[cid] = ClassNode(
            cid=cid, relpath=self.relpath, name=node.name, node=node
        )
        self.stack.append(node.name)
        self.class_stack.append(cid)
        self.generic_visit(node)
        self.class_stack.pop()
        self.stack.pop()

    def _visit_function(self, node: ast.AST, name: str) -> None:
        qual = self._qual(name)
        fid = f"{self.relpath}::{qual}"
        owner = self.class_stack[-1] if self.class_stack else None
        self.graph.functions[fid] = FunctionNode(
            fid=fid,
            relpath=self.relpath,
            qualname=qual,
            name=name,
            node=node,
            lineno=getattr(node, "lineno", 1),
            class_id=owner,
        )
        # Only direct class-body functions register as methods (nested
        # closures inside a method are locals, not attributes).
        if owner is not None and len(self.stack) and self.stack[-1] == self.graph.classes[owner].name:
            self.graph.classes[owner].methods.setdefault(name, fid)
        self.stack.append(name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)


def _annotation_class(
    annotation: Optional[ast.expr],
    local_classes: Dict[str, str],
    imports: Dict[str, ImportedName],
    graph: CallGraph,
) -> Optional[str]:
    """Resolve a parameter/variable annotation to a repo ClassNode cid."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value.strip().split("[")[0].split(".")[-1]
    elif isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Attribute):
        name = annotation.attr
    elif isinstance(annotation, ast.Subscript):
        # Optional[X] / "Optional[X]" — judge the first simple type argument.
        base = annotation.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        if base_name == "Optional" and isinstance(annotation.slice, (ast.Name, ast.Constant)):
            return _annotation_class(annotation.slice, local_classes, imports, graph)
        return None
    else:
        return None
    if name in local_classes:
        return local_classes[name]
    imported = imports.get(name)
    if imported is not None and imported.relpath and imported.name:
        cid = f"{imported.relpath}::{imported.name}"
        if cid in graph.classes:
            return cid
    return None


class _Resolver:
    """Second pass: resolve call sites inside one function to edges."""

    def __init__(
        self,
        graph: CallGraph,
        relpath: str,
        imports: Dict[str, ImportedName],
        local_functions: Dict[str, str],
        local_classes: Dict[str, str],
    ) -> None:
        self.graph = graph
        self.relpath = relpath
        self.imports = imports
        self.local_functions = local_functions
        self.local_classes = local_classes

    # ------------------------------------------------------- type inference
    def _infer_locals(self, func: FunctionNode) -> Dict[str, str]:
        """Map local variable names to repo class cids (annotations + ctors)."""
        types: Dict[str, str] = {}
        args = func.node.args  # type: ignore[attr-defined]
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            cid = _annotation_class(arg.annotation, self.local_classes, self.imports, self.graph)
            if cid is not None:
                types[arg.arg] = cid
        for node in ast.walk(func.node):
            target: Optional[str] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name
            ):
                target, value = node.targets[0].id, node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                cid = _annotation_class(
                    node.annotation, self.local_classes, self.imports, self.graph
                )
                if cid is not None:
                    types[node.target.id] = cid
                continue
            if target is None or value is None:
                continue
            if isinstance(value, ast.Call):
                ctor = self._class_of_callable(value.func) or self._returned_class(
                    value.func, func
                )
                if ctor is not None:
                    types[target] = ctor
        return types

    def _returned_class(self, callee: ast.expr, func: FunctionNode) -> Optional[str]:
        """The class a ``self.method(...)`` call returns, read from the
        method's return annotation when it is defined in this module."""
        if not (
            isinstance(callee, ast.Attribute)
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "self"
            and func.class_id is not None
        ):
            return None
        for fid in self.graph.resolve_method(func.class_id, callee.attr):
            target = self.graph.functions[fid]
            if target.relpath == self.relpath:
                returns = getattr(target.node, "returns", None)
                cid = _annotation_class(returns, self.local_classes, self.imports, self.graph)
                if cid is not None:
                    return cid
        return None

    def _dispatch_locals(self, func: FunctionNode) -> Dict[str, List[str]]:
        """``name = getattr(self, f"<prefix>{...}"[, default])``: every
        method of the class whose name starts with the literal prefix."""
        dispatch: Dict[str, List[str]] = {}
        if func.class_id is None:
            return dispatch
        for node in ast.walk(func.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "getattr"
                and len(node.value.args) >= 2
                and isinstance(node.value.args[0], ast.Name)
                and node.value.args[0].id == "self"
                and isinstance(node.value.args[1], ast.JoinedStr)
                and node.value.args[1].values
                and isinstance(node.value.args[1].values[0], ast.Constant)
            ):
                continue
            prefix = str(node.value.args[1].values[0].value)
            dispatch[node.targets[0].id] = [
                fid
                for cid in self.graph.mro(func.class_id)
                for name, fid in sorted(self.graph.classes[cid].methods.items())
                if name.startswith(prefix)
            ]
        return dispatch

    def _class_of_callable(self, func: ast.expr) -> Optional[str]:
        """If ``func`` names a repo class, return its cid (a constructor call)."""
        if isinstance(func, ast.Name):
            if func.id in self.local_classes:
                return self.local_classes[func.id]
            imported = self.imports.get(func.id)
            if imported is not None and imported.relpath and imported.name:
                cid = f"{imported.relpath}::{imported.name}"
                if cid in self.graph.classes:
                    return cid
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            imported = self.imports.get(func.value.id)
            if imported is not None and imported.relpath and imported.name is None:
                cid = f"{imported.relpath}::{func.attr}"
                if cid in self.graph.classes:
                    return cid
        return None

    def _attr_types_of(self, cid: Optional[str]) -> Dict[str, str]:
        merged: Dict[str, str] = {}
        if cid is None:
            return merged
        for ancestor in reversed(self.graph.mro(cid)):
            merged.update(self.graph.classes[ancestor].attr_types)
        return merged

    # ----------------------------------------------------------- resolution
    def resolve_calls(
        self, func: FunctionNode, nested: Dict[str, str]
    ) -> List[CallEdge]:
        local_types = self._infer_locals(func)
        attr_types = self._attr_types_of(func.class_id)
        dispatch = self._dispatch_locals(func)
        edges: List[CallEdge] = []

        def add(targets: List[str], lineno: int) -> None:
            for target in targets:
                if target in self.graph.functions:
                    edges.append(CallEdge(func.fid, target, lineno))

        stack: List[ast.AST] = [func.node]
        while stack:
            node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                stack.append(child)
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id in dispatch:
                    add(dispatch[node.func.id], node.lineno)
                    continue
                add(
                    self._targets_of(node.func, func, local_types, attr_types, nested),
                    node.lineno,
                )
        return edges

    def _targets_of(
        self,
        callee: ast.expr,
        func: FunctionNode,
        local_types: Dict[str, str],
        attr_types: Dict[str, str],
        nested: Dict[str, str],
    ) -> List[str]:
        graph = self.graph
        if isinstance(callee, ast.Name):
            name = callee.id
            if name in nested:
                return [nested[name]]
            if name in self.local_functions:
                return [self.local_functions[name]]
            cid = self._class_of_callable(callee)
            if cid is not None:
                init = graph.classes[cid].methods.get("__init__")
                return [init] if init else []
            imported = self.imports.get(name)
            if imported is not None and imported.relpath and imported.name:
                fid = f"{imported.relpath}::{imported.name}"
                if fid in graph.functions:
                    return [fid]
            return []
        if isinstance(callee, ast.Attribute):
            method = callee.attr
            receiver = callee.value
            if isinstance(receiver, ast.Name):
                if receiver.id == "self" and func.class_id is not None:
                    sub_attr = attr_types.get(method)
                    _ = sub_attr  # self.method(): plain method dispatch below
                    return graph.resolve_method(func.class_id, method)
                if receiver.id in local_types:
                    return graph.resolve_method(local_types[receiver.id], method)
                imported = self.imports.get(receiver.id)
                if imported is not None and imported.relpath and imported.name is None:
                    fid = f"{imported.relpath}::{method}"
                    if fid in graph.functions:
                        return [fid]
                    return []
                cid = self._class_of_callable(receiver)
                if cid is not None:  # ClassName.method(obj) unbound style
                    return graph.resolve_method(cid, method)
                return []
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
            ):
                owner_cid = attr_types.get(receiver.attr)
                if owner_cid is not None:
                    return graph.resolve_method(owner_cid, method)
                return []
            if isinstance(receiver, ast.Call):
                cid = self._class_of_callable(receiver.func)
                if cid is not None:  # ClassName(...).method(...)
                    return graph.resolve_method(cid, method)
        return []


def _collect_attr_types(
    graph: CallGraph,
    cls: ClassNode,
    imports: Dict[str, ImportedName],
    local_classes: Dict[str, str],
) -> None:
    """Infer ``self.x`` attribute classes from assignments in method bodies."""
    resolver = _Resolver(graph, cls.relpath, imports, {}, local_classes)
    for item in cls.node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = item.args
        param_types: Dict[str, str] = {}
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            cid = _annotation_class(arg.annotation, local_classes, imports, graph)
            if cid is not None:
                param_types[arg.arg] = cid
        for node in ast.walk(item):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            # ``x or ClassName(...)`` takes the first operand that resolves.
            operands = node.value.values if isinstance(node.value, ast.BoolOp) else [node.value]
            for value in operands:
                cid = None
                if isinstance(value, ast.Call):
                    cid = resolver._class_of_callable(value.func)
                elif isinstance(value, ast.Name):
                    cid = param_types.get(value.id)
                if cid is not None:
                    cls.attr_types.setdefault(target.attr, cid)
                    break


def build_callgraph(modules: Dict[str, "ModuleInfo"]) -> CallGraph:
    """Construct the repo-wide call graph from parsed modules."""
    graph = CallGraph()
    for relpath, module in modules.items():
        _Collector(graph, relpath).visit(module.tree)
    binder = _Binder(modules)
    bindings = {relpath: binder.bind(relpath) for relpath in modules}
    # Local class / function maps per module (top-level definitions).
    local_classes: Dict[str, Dict[str, str]] = {}
    local_functions: Dict[str, Dict[str, str]] = {}
    for relpath, module in modules.items():
        classes: Dict[str, str] = {}
        functions: Dict[str, str] = {}
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = f"{relpath}::{node.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = f"{relpath}::{node.name}"
        local_classes[relpath] = classes
        local_functions[relpath] = functions
    # Resolve class bases and subclass index.
    for cls in graph.classes.values():
        imports = bindings[cls.relpath]
        for base in cls.node.bases:
            cid: Optional[str] = None
            if isinstance(base, ast.Name):
                cid = local_classes[cls.relpath].get(base.id)
                if cid is None:
                    imported = imports.get(base.id)
                    if imported is not None and imported.relpath and imported.name:
                        candidate = f"{imported.relpath}::{imported.name}"
                        if candidate in graph.classes:
                            cid = candidate
            elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                imported = imports.get(base.value.id)
                if imported is not None and imported.relpath and imported.name is None:
                    candidate = f"{imported.relpath}::{base.attr}"
                    if candidate in graph.classes:
                        cid = candidate
            if cid is not None:
                cls.bases.append(cid)
                graph.subclasses.setdefault(cid, []).append(cls.cid)
    # Attribute types need bases resolved first (inherited attrs via mro()).
    for cls in graph.classes.values():
        _collect_attr_types(graph, cls, bindings[cls.relpath], local_classes[cls.relpath])
    # Direct-children index: enclosing function fid -> {name: nested fid},
    # so closures resolve without scanning the whole function table.
    nested_children: Dict[str, Dict[str, str]] = {}
    for child in graph.functions.values():
        if "." not in child.qualname:
            continue
        parent_fid = f"{child.relpath}::{child.qualname.rsplit('.', 1)[0]}"
        if parent_fid in graph.functions:
            nested_children.setdefault(parent_fid, {}).setdefault(child.name, child.fid)
    # Call edges.
    resolvers: Dict[str, _Resolver] = {}
    for func in list(graph.functions.values()):
        resolver = resolvers.get(func.relpath)
        if resolver is None:
            resolver = _Resolver(
                graph,
                func.relpath,
                bindings[func.relpath],
                local_functions[func.relpath],
                local_classes[func.relpath],
            )
            resolvers[func.relpath] = resolver
        edges = resolver.resolve_calls(func, nested_children.get(func.fid, {}))
        if edges:
            graph.edges[func.fid] = edges
    return graph
