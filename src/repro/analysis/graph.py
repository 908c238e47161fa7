"""Project-wide call graph over the reprolint :class:`ProjectIndex`.

The per-module rules reason about one file at a time; the whole-program
passes (lock-order, async-blocking, snapshot-reachability) need to know
*who calls whom* across the tree.  :func:`build_call_graph` resolves, for
every function and method in the index:

* direct calls — ``helper()``, ``module.helper()``, ``ClassName(...)``
  (an edge to ``ClassName.__init__``) and ``Class.method(...)``;
* ``self.`` calls — ``self.method()`` through the enclosing class and its
  project-defined bases, and ``self.attr.method()`` through the inferred
  type of ``self.attr`` (assignments like ``self._journal =
  JournalWriter(...)`` record the attribute's class);
* annotated receivers — ``def f(journal: JournalWriter)`` lets
  ``journal.method()`` resolve, including string annotations under
  ``TYPE_CHECKING`` imports;
* closures — a nested ``def`` is its own node, and a bare-name call to it
  resolves through the lexical scope chain;
* dispatch edges — callables handed to ``pool.submit`` / ``pool.map``,
  ``loop.run_in_executor(executor, fn)`` and ``asyncio.to_thread(fn)``
  (unwrapping ``functools.partial``).  Dispatch edges mark a
  thread/executor boundary: lock-order does not propagate "lock held"
  across them, and async-blocking treats them as the sanctioned hop off
  the event loop.

Resolution is deliberately conservative: a call that cannot be resolved
produces *no* edge rather than a guessed one, so graph-based rules err
toward silence, never toward false positives.  Reachability queries are
cycle-safe (recursive call chains terminate).
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.analysis.core import Module, ProjectIndex
from repro.analysis.rules._ast_utils import ImportMap, dotted_name

__all__ = [
    "CALL",
    "DISPATCH",
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "build_call_graph",
    "call_graph",
    "iter_own_nodes",
]

FunctionAst = ast.FunctionDef | ast.AsyncFunctionDef

#: Edge kind: an ordinary same-thread call (including ``await``).
CALL = "call"
#: Edge kind: the callee runs on another thread/executor (``pool.submit``,
#: ``pool.map``, ``run_in_executor``, ``asyncio.to_thread``).
DISPATCH = "dispatch"

_POOL_DISPATCH_METHODS = frozenset({"submit", "map"})
_EXECUTOR_TYPE_SUFFIXES = ("PoolExecutor",)


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: ``caller`` invokes (or dispatches) ``callee``."""

    caller: str
    callee: str
    kind: str
    line: int


@dataclass
class FunctionInfo:
    """One function/method/closure node of the graph."""

    name: str  #: node id, ``module:Qual.name``
    module: Module
    qualname: str  #: dotted name within the module, e.g. ``Class.method``
    node: FunctionAst
    is_async: bool
    class_id: str | None  #: nearest enclosing class node id (through closures)
    parent: str | None  #: enclosing function node id for closures
    nested: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class of the project, with inferred attribute types."""

    name: str  #: node id, ``module:Qual``
    module: Module
    qualname: str
    bare_name: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> project class id or external dotted constructor
    #: (e.g. ``sqlite3.connect``, ``threading.RLock``).
    attribute_types: dict[str, str] = field(default_factory=dict)
    base_ids: tuple[str, ...] = ()


def iter_own_nodes(fn: FunctionAst) -> Iterator[ast.AST]:
    """Every node of ``fn``'s own body, not descending into nested defs.

    Nested functions, classes and lambdas are separate units of execution
    (they run when *called*, not when defined), so whole-program passes
    walking a function's behaviour must not attribute their bodies to it.
    """
    stack: list[ast.AST] = list(reversed(fn.body))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.append(child)


class CallGraph:
    """The resolved call graph; query with :meth:`reachable` / :meth:`witness`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module name -> {bare function name -> node id} (module level only)
        self.module_functions: dict[str, dict[str, str]] = {}
        #: module name -> {bare class name -> class id} (module level only)
        self.module_classes: dict[str, dict[str, str]] = {}
        self._edges: dict[str, list[CallEdge]] = {}
        self._imports: dict[str, ImportMap] = {}

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def edges_from(self, name: str) -> tuple[CallEdge, ...]:
        return tuple(self._edges.get(name, ()))

    def function(self, name: str) -> FunctionInfo | None:
        return self.functions.get(name)

    def functions_named(self, bare_name: str) -> list[str]:
        """Every node whose qualname's last segment is ``bare_name``."""
        return sorted(
            node_id
            for node_id, info in self.functions.items()
            if info.qualname.rsplit(".", 1)[-1] == bare_name
        )

    def resolve_method(self, class_id: str, method: str) -> str | None:
        """``method`` on ``class_id`` or its project-defined bases."""
        seen: set[str] = set()
        queue: deque[str] = deque([class_id])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            found = info.methods.get(method)
            if found is not None:
                return found
            queue.extend(info.base_ids)
        return None

    def attribute_type(self, class_id: str | None, attr: str) -> str | None:
        """The inferred type of ``self.attr`` on ``class_id`` (or its bases)."""
        seen: set[str] = set()
        queue: deque[str] = deque([class_id] if class_id is not None else [])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            found = info.attribute_types.get(attr)
            if found is not None:
                return found
            queue.extend(info.base_ids)
        return None

    def reachable(
        self, roots: Iterable[str], *, follow_dispatch: bool = True
    ) -> set[str]:
        """Every function reachable from ``roots`` (cycle-safe BFS)."""
        seen: set[str] = set()
        queue: deque[str] = deque(roots)
        while queue:
            current = queue.popleft()
            if current in seen or current not in self.functions:
                continue
            seen.add(current)
            for edge in self._edges.get(current, ()):
                if not follow_dispatch and edge.kind == DISPATCH:
                    continue
                if edge.callee not in seen:
                    queue.append(edge.callee)
        return seen

    def witness(
        self, start: str, goal: str, *, follow_dispatch: bool = True
    ) -> list[CallEdge] | None:
        """A shortest edge path ``start -> ... -> goal`` (``[]`` if equal)."""
        if start == goal:
            return []
        parents: dict[str, CallEdge] = {}
        queue: deque[str] = deque([start])
        seen = {start}
        while queue:
            current = queue.popleft()
            for edge in self._edges.get(current, ()):
                if not follow_dispatch and edge.kind == DISPATCH:
                    continue
                if edge.callee in seen:
                    continue
                seen.add(edge.callee)
                parents[edge.callee] = edge
                if edge.callee == goal:
                    path: list[CallEdge] = []
                    cursor = goal
                    while cursor != start:
                        step = parents[cursor]
                        path.append(step)
                        cursor = step.caller
                    return list(reversed(path))
                queue.append(edge.callee)
        return None


# ---------------------------------------------------------------------- #
# builder
# ---------------------------------------------------------------------- #
def build_call_graph(index: ProjectIndex) -> CallGraph:
    """Index every function/class of ``index`` and resolve its call edges."""
    graph = CallGraph(index)
    for module in index:
        graph._imports[module.name] = ImportMap(module.tree)
        graph.module_functions.setdefault(module.name, {})
        graph.module_classes.setdefault(module.name, {})
        _index_scope(graph, module, module.tree.body, [], None, None, at_module=True)
    _resolve_bases(graph)
    _infer_attribute_types(graph)
    for info in list(graph.functions.values()):
        _Resolver(graph, info).build_edges()
    return graph


_GRAPH_CACHE: WeakKeyDictionary[ProjectIndex, CallGraph] = WeakKeyDictionary()


def call_graph(index: ProjectIndex) -> CallGraph:
    """The (memoized) call graph of ``index`` — rules share one build."""
    graph = _GRAPH_CACHE.get(index)
    if graph is None:
        graph = build_call_graph(index)
        _GRAPH_CACHE[index] = graph
    return graph


def _index_scope(
    graph: CallGraph,
    module: Module,
    body: Iterable[ast.stmt],
    qual_stack: list[str],
    class_ctx: str | None,
    func_ctx: FunctionInfo | None,
    *,
    at_module: bool = False,
    at_class: ClassInfo | None = None,
) -> None:
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            qualname = ".".join([*qual_stack, stmt.name])
            info = ClassInfo(
                name=f"{module.name}:{qualname}",
                module=module,
                qualname=qualname,
                bare_name=stmt.name,
                node=stmt,
            )
            graph.classes[info.name] = info
            if at_module:
                graph.module_classes[module.name][stmt.name] = info.name
            _index_scope(
                graph,
                module,
                stmt.body,
                [*qual_stack, stmt.name],
                info.name,
                func_ctx,
                at_class=info,
            )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = ".".join([*qual_stack, stmt.name])
            info = FunctionInfo(
                name=f"{module.name}:{qualname}",
                module=module,
                qualname=qualname,
                node=stmt,
                is_async=isinstance(stmt, ast.AsyncFunctionDef),
                class_id=class_ctx,
                parent=func_ctx.name if func_ctx is not None else None,
            )
            graph.functions[info.name] = info
            if at_module:
                graph.module_functions[module.name][stmt.name] = info.name
            if at_class is not None:
                at_class.methods[stmt.name] = info.name
            if func_ctx is not None:
                func_ctx.nested[stmt.name] = info.name
            _index_scope(
                graph, module, stmt.body, [*qual_stack, stmt.name], class_ctx, info
            )
        elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            # Definitions under conditionals/guards still exist at runtime.
            for nested in ast.iter_child_nodes(stmt):
                if isinstance(nested, ast.ExceptHandler):
                    inner: Iterable[ast.stmt] = nested.body
                elif isinstance(nested, ast.stmt):
                    inner = [nested]
                else:
                    continue
                _index_scope(
                    graph,
                    module,
                    inner,
                    qual_stack,
                    class_ctx,
                    func_ctx,
                    at_module=at_module,
                    at_class=at_class,
                )


def _resolve_bases(graph: CallGraph) -> None:
    for info in graph.classes.values():
        imports = graph._imports[info.module.name]
        base_ids: list[str] = []
        for base in info.node.bases:
            name = dotted_name(base)
            if name is None:
                continue
            resolved = _resolve_type_name(graph, info.module, imports, name)
            if resolved is not None and resolved in graph.classes:
                base_ids.append(resolved)
        info.base_ids = tuple(base_ids)


def _infer_attribute_types(graph: CallGraph) -> None:
    for info in graph.classes.values():
        imports = graph._imports[info.module.name]
        ordered = sorted(info.methods, key=lambda name: (name != "__init__", name))
        for method_name in ordered:
            fn_info = graph.functions.get(info.methods[method_name])
            if fn_info is None:
                continue
            for node in iter_own_nodes(fn_info.node):
                attr, value, annotation = _self_assignment(node)
                if attr is None:
                    continue
                inferred: str | None = None
                if isinstance(value, ast.Call):
                    ctor = dotted_name(value.func)
                    if ctor is not None:
                        resolved = imports.resolve(ctor)
                        class_id = _lookup_class(graph, info.module, resolved)
                        inferred = class_id if class_id is not None else resolved
                if inferred is None and annotation is not None:
                    inferred = _annotation_type(graph, info.module, imports, annotation)
                if inferred is not None:
                    info.attribute_types.setdefault(attr, inferred)


def _self_assignment(
    node: ast.AST,
) -> tuple[str | None, ast.expr | None, ast.expr | None]:
    """``(attr, value, annotation)`` for ``self.attr = ...`` statements."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr, node.value, None
    elif isinstance(node, ast.AnnAssign):
        target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr, node.value, node.annotation
    return None, None, None


def _unwrap_annotation(annotation: ast.expr) -> ast.expr | None:
    """Strip ``Optional[X]`` / ``X | None`` / quotes down to a type expr."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return None
        return _unwrap_annotation(parsed.body)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            return _unwrap_annotation(side)
        return None
    if isinstance(annotation, ast.Subscript):
        head = dotted_name(annotation.value)
        if head is not None and head.rsplit(".", 1)[-1] == "Optional":
            inner = annotation.slice
            return _unwrap_annotation(inner)
        return None
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        return annotation
    return None


def _annotation_type(
    graph: CallGraph, module: Module, imports: ImportMap, annotation: ast.expr
) -> str | None:
    """Project class id an annotation names, when resolvable."""
    unwrapped = _unwrap_annotation(annotation)
    if unwrapped is None:
        return None
    name = dotted_name(unwrapped)
    if name is None:
        return None
    return _resolve_type_name(graph, module, imports, name)


def _resolve_type_name(
    graph: CallGraph, module: Module, imports: ImportMap, name: str
) -> str | None:
    resolved = imports.resolve(name)
    return _lookup_class(graph, module, resolved)


def _lookup_class(graph: CallGraph, module: Module, resolved: str) -> str | None:
    """Map a resolved dotted name to a project class id, if it names one."""
    if "." not in resolved:
        return graph.module_classes.get(module.name, {}).get(resolved)
    parts = resolved.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        if module_name not in graph.index.by_name:
            continue
        rest = parts[cut:]
        if len(rest) == 1:
            return graph.module_classes.get(module_name, {}).get(rest[0])
        return None
    return None


def _lookup_callable(graph: CallGraph, module: Module, resolved: str) -> str | None:
    """Map a resolved dotted name to a function node id, if it names one.

    ``pkg.mod.func`` resolves to the module-level function; ``pkg.mod.Cls``
    to ``Cls.__init__``; ``pkg.mod.Cls.method`` to the method (classmethod
    and staticmethod call sites look identical at the AST level).
    """
    if "." not in resolved:
        fn = graph.module_functions.get(module.name, {}).get(resolved)
        if fn is not None:
            return fn
        class_id = graph.module_classes.get(module.name, {}).get(resolved)
        if class_id is not None:
            return graph.resolve_method(class_id, "__init__")
        return None
    parts = resolved.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        if module_name not in graph.index.by_name:
            continue
        rest = parts[cut:]
        if len(rest) == 1:
            fn = graph.module_functions.get(module_name, {}).get(rest[0])
            if fn is not None:
                return fn
            class_id = graph.module_classes.get(module_name, {}).get(rest[0])
            if class_id is not None:
                return graph.resolve_method(class_id, "__init__")
            return None
        if len(rest) == 2:
            class_id = graph.module_classes.get(module_name, {}).get(rest[0])
            if class_id is not None:
                return graph.resolve_method(class_id, rest[1])
            return None
        return None
    return None


class _Resolver:
    """Resolves one function's call sites into graph edges."""

    def __init__(self, graph: CallGraph, info: FunctionInfo) -> None:
        self.graph = graph
        self.info = info
        self.module = info.module
        self.imports = graph._imports[info.module.name]
        self.param_types = self._param_types()
        self.local_types = self._local_types()

    # -------------------------- type environments --------------------- #
    def _param_types(self) -> dict[str, str]:
        types: dict[str, str] = {}
        args = self.info.node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in every:
            if arg.arg == "self" and self.info.class_id is not None:
                types["self"] = self.info.class_id
                continue
            if arg.arg == "cls" and self.info.class_id is not None:
                types["cls"] = self.info.class_id
                continue
            if arg.annotation is None:
                continue
            resolved = _annotation_type(
                self.graph, self.module, self.imports, arg.annotation
            )
            if resolved is not None:
                types[arg.arg] = resolved
        return types

    def _local_types(self) -> dict[str, str]:
        types: dict[str, str] = {}
        for node in iter_own_nodes(self.info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name) or not isinstance(node.value, ast.Call):
                continue
            ctor = dotted_name(node.value.func)
            if ctor is None:
                continue
            class_id = _lookup_class(
                self.graph, self.module, self.imports.resolve(ctor)
            )
            if class_id is not None:
                types.setdefault(target.id, class_id)
        return types

    # ----------------------------- edges ------------------------------ #
    def build_edges(self) -> None:
        edges: list[CallEdge] = []
        for node in iter_own_nodes(self.info.node):
            if not isinstance(node, ast.Call):
                continue
            handed = self._dispatched_callable(node)
            if handed is not None:
                callee = self._resolve_reference(handed)
                if callee is not None:
                    edges.append(
                        CallEdge(self.info.name, callee, DISPATCH, node.lineno)
                    )
                continue
            callee = self._resolve_reference(node.func)
            if callee is not None:
                edges.append(CallEdge(self.info.name, callee, CALL, node.lineno))
        if edges:
            self.graph._edges.setdefault(self.info.name, []).extend(edges)

    def _dispatched_callable(self, call: ast.Call) -> ast.expr | None:
        """The callable a dispatch-style call hands off, if this is one."""
        func = call.func
        handed: ast.expr | None = None
        if isinstance(func, ast.Attribute):
            if func.attr in _POOL_DISPATCH_METHODS and call.args:
                receiver = dotted_name(func.value)
                if receiver is not None and self._is_pool(receiver):
                    handed = call.args[0]
            elif func.attr == "run_in_executor" and len(call.args) >= 2:
                handed = call.args[1]
        resolved = dotted_name(func)
        if handed is None and resolved is not None:
            if self.imports.resolve(resolved) == "asyncio.to_thread" and call.args:
                handed = call.args[0]
        if isinstance(handed, ast.Call):
            inner = dotted_name(handed.func)
            if inner is not None and self.imports.resolve(inner) == "functools.partial":
                handed = handed.args[0] if handed.args else None
        return handed

    def _is_pool(self, receiver: str) -> bool:
        last = receiver.rsplit(".", 1)[-1].lower()
        if "pool" in last or "executor" in last:
            return True
        receiver_type = self._name_type(receiver)
        return receiver_type is not None and receiver_type.endswith(
            _EXECUTOR_TYPE_SUFFIXES
        )

    def _name_type(self, name: str) -> str | None:
        """Inferred type of a dotted receiver like ``self._engine``."""
        parts = name.split(".")
        if parts[0] in ("self", "cls") and len(parts) == 2:
            return self.graph.attribute_type(self.info.class_id, parts[1])
        if len(parts) == 1:
            return self.param_types.get(parts[0]) or self.local_types.get(parts[0])
        return None

    def _resolve_reference(self, expr: ast.expr) -> str | None:
        """Resolve a call target or handed-callable expression to a node id."""
        name = dotted_name(expr)
        if name is None:
            return None
        parts = name.split(".")
        graph, module = self.graph, self.module
        if parts[0] in ("self", "cls") and self.info.class_id is not None:
            if len(parts) == 2:
                return graph.resolve_method(self.info.class_id, parts[1])
            if len(parts) == 3:
                attr_type = graph.attribute_type(self.info.class_id, parts[1])
                if attr_type is not None and attr_type in graph.classes:
                    return graph.resolve_method(attr_type, parts[2])
            return None
        if len(parts) == 1:
            nested = self._lookup_nested(parts[0])
            if nested is not None:
                return nested
            local = graph.module_functions.get(module.name, {}).get(parts[0])
            if local is not None:
                return local
            class_id = graph.module_classes.get(module.name, {}).get(parts[0])
            if class_id is not None:
                return graph.resolve_method(class_id, "__init__")
            return _lookup_callable(graph, module, self.imports.resolve(parts[0]))
        if len(parts) == 2:
            receiver_type = self.param_types.get(parts[0]) or self.local_types.get(
                parts[0]
            )
            if receiver_type is not None and receiver_type in graph.classes:
                return graph.resolve_method(receiver_type, parts[1])
            class_id = graph.module_classes.get(module.name, {}).get(parts[0])
            if class_id is not None:
                return graph.resolve_method(class_id, parts[1])
        return _lookup_callable(graph, module, self.imports.resolve(name))

    def _lookup_nested(self, bare: str) -> str | None:
        """A closure name through the lexical function scope chain."""
        cursor: FunctionInfo | None = self.info
        while cursor is not None:
            found = cursor.nested.get(bare)
            if found is not None:
                return found
            cursor = (
                self.graph.functions.get(cursor.parent)
                if cursor.parent is not None
                else None
            )
        return None
