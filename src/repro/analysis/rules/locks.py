"""Rule: shared mutable state in the concurrent layers must be lock-guarded.

The serving scheduler runs tenant sessions concurrently on a
:class:`~repro.runtime.pool.WorkerPool`; the
:class:`~repro.planning.engine.PlannerEngine` is shared across all of
them.  An unguarded write to shared instance state from that context is a
data race that no test reliably catches.  This rule is a lightweight
intra-class race detector with two triggers:

* **Declared-lock classes** — a class that creates a ``self._lock`` (or
  ``self.*_lock``) in ``__init__`` has opted into locking; every write to
  a private ``self._*`` attribute (assignment, augmented assignment, or a
  mutating method call such as ``.append`` / ``.pop`` / ``.clear``) in
  any other method must then sit lexically inside a ``with self._lock:``
  block.  Half-locked classes are worse than unlocked ones: the lock
  reads as a guarantee it does not give.
* **Worker-reachable writes** — functions handed to ``<pool>.map(...)``
  or ``<pool>.submit(...)`` (and everything they call inside the same
  module, including ``self.`` methods and closures) run on executor
  threads.  A write to ``self._*``
  reached from there in a class *without* a lock is flagged too: either
  add a lock or keep worker functions free of shared-state writes.

Scope defaults to the concurrent layers only (``repro.serving``,
``repro.runtime``, ``repro.planning.engine``) — single-threaded code is
free to mutate itself without ceremony.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence

from repro.analysis.core import Module, ProjectIndex, Rule, Violation
from repro.analysis.rules._ast_utils import dotted_name, iter_classes, iter_functions, self_attribute

__all__ = ["LockDisciplineRule"]

#: Method names that mutate common containers in place.
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

#: Methods allowed to write without the lock: construction happens before
#: the object is shared.
_EXEMPT_METHODS = {"__init__", "__post_init__", "__new__"}


def _is_lock_attr(name: str) -> bool:
    return name == "_lock" or name.endswith("_lock")


def _with_locks(node: ast.With | ast.AsyncWith) -> bool:
    for item in node.items:
        attr = self_attribute(item.context_expr)
        if attr is not None and _is_lock_attr(attr):
            return True
        # ``with self._lock:`` wrapped in a call, e.g. ``self._lock()``.
        if isinstance(item.context_expr, ast.Call):
            attr = self_attribute(item.context_expr.func)
            if attr is not None and _is_lock_attr(attr):
                return True
    return False


class _WriteCollector(ast.NodeVisitor):
    """Collects unguarded writes to ``self._*`` inside one function body.

    Tracks lexical ``with self._lock`` nesting; nested ``def``/``lambda``
    bodies are *included* (a closure dispatched to an executor still
    writes through the enclosing ``self``), but a nested ``with`` in a
    nested function correctly scopes only that function's statements.
    """

    def __init__(self) -> None:
        self.lock_depth = 0
        #: ``(attribute, node, kind)`` for writes seen outside any lock.
        self.unguarded: list[tuple[str, ast.AST, str]] = []

    def visit_With(self, node: ast.With) -> None:
        if _with_locks(node):
            self.lock_depth += 1
            self.generic_visit(node)
            self.lock_depth -= 1
        else:
            self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        # ``async with self._lock:`` (asyncio.Lock) guards exactly like
        # the sync spelling; before this visitor existed, coroutine
        # bodies could never satisfy the rule.
        if _with_locks(node):
            self.lock_depth += 1
            self.generic_visit(node)
            self.lock_depth -= 1
        else:
            self.generic_visit(node)

    def _record(self, target: ast.expr, node: ast.AST, kind: str) -> None:
        attr = self_attribute(target)
        if attr is None or not attr.startswith("_") or _is_lock_attr(attr):
            return
        if self.lock_depth == 0:
            self.unguarded.append((attr, node, kind))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, node, "assignment")
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._record(element, node, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target, node, "assignment")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record(node.target, node, "assignment")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            self._record(node.func.value, node, f".{node.func.attr}() call")
        self.generic_visit(node)


def _has_declared_lock(class_node: ast.ClassDef) -> bool:
    for fn in iter_functions(class_node):
        if fn.name != "__init__":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = self_attribute(target)
                    if attr is not None and _is_lock_attr(attr):
                        return True
    return False


class LockDisciplineRule(Rule):
    rule_id = "lock-discipline"
    description = (
        "self._* writes in lock-owning classes (and in code reachable from "
        "WorkerPool executors) must happen inside `with self._lock`"
    )
    invariant = (
        "state shared across WorkerPool executor threads is mutated only "
        "under its lock, so concurrent tenant rounds cannot race"
    )

    def __init__(
        self,
        scope_prefixes: Sequence[str] = (
            "repro.serving",
            "repro.runtime",
            "repro.planning.engine",
            "repro.gateway",
        ),
    ) -> None:
        self.scope_prefixes = tuple(scope_prefixes)

    def _in_scope(self, module: Module) -> bool:
        return any(
            module.name == prefix or module.name.startswith(prefix + ".")
            for prefix in self.scope_prefixes
        )

    def check_module(self, module: Module, index: ProjectIndex) -> Iterable[Violation]:
        if not self._in_scope(module):
            return
        worker_roots = _worker_entry_points(module.tree)
        for class_node in iter_classes(module.tree):
            locked_class = _has_declared_lock(class_node)
            if locked_class:
                # Trigger A: the class opted into locking — every private
                # write outside __init__ must hold the lock, whatever
                # thread it runs on.  Half-locked classes read as a
                # guarantee they do not give.
                for fn in iter_functions(class_node):
                    if fn.name in _EXEMPT_METHODS:
                        continue
                    for attr, node, kind in _unguarded_writes(fn.body):
                        yield self.violation(
                            module,
                            node,
                            f"unguarded {kind} to self.{attr} in "
                            f"{class_node.name}.{fn.name} outside `with "
                            f"self._lock`: class {class_node.name} owns a "
                            f"lock, so every self.{attr} write must hold it",
                            f"unguarded:{class_node.name}.{fn.name}.{attr}",
                        )
                continue
            # Trigger B: no lock declared — flag private writes in code
            # that actually runs on executor threads (worker functions and
            # everything they call on self, intra-class).
            for context_name, body in _worker_contexts(class_node, worker_roots):
                for attr, node, kind in _unguarded_writes(body):
                    yield self.violation(
                        module,
                        node,
                        f"unguarded {kind} to self.{attr} in "
                        f"{class_node.name}.{context_name}, which runs on a "
                        "WorkerPool executor; add a self._lock and guard the "
                        "write, or keep worker paths free of shared-state "
                        "writes",
                        f"worker-write:{class_node.name}.{context_name}.{attr}",
                    )


#: Pool methods whose first argument is a function that will run on an
#: executor thread.  ``submit`` is how the serving server dispatches
#: tenant batches; ``map`` is the other ``concurrent.futures`` idiom.
_DISPATCH_METHODS = {"map", "submit"}


def _worker_entry_points(tree: ast.Module) -> set[str]:
    """Names of functions handed to an executor in this module.

    Three dispatch idioms are recognized:

    * ``<pool>.map(fn, ...)`` / ``<pool>.submit(fn, ...)`` — the receiver
      is pool-like when its dotted name's last segment contains ``pool``
      (``self._pool``, ``pool``, ``worker_pool``), matching how every
      call site in the runtime and serving layers names its pools;
    * ``<loop>.run_in_executor(executor, fn, ...)`` — the asyncio bridge
      the gateway's coroutines use; the function is the *second*
      argument.  Before this was recognized, writes in executor-bound
      functions dispatched from ``async def`` bodies were invisible to
      the rule.
    """
    roots: set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        handed: ast.expr | None = None
        if node.func.attr in _DISPATCH_METHODS and node.args:
            receiver = dotted_name(node.func.value)
            if receiver is None or "pool" not in receiver.split(".")[-1].lower():
                continue
            handed = node.args[0]
        elif node.func.attr == "run_in_executor" and len(node.args) >= 2:
            handed = node.args[1]
        if handed is None:
            continue
        name = dotted_name(handed)
        if name is not None:
            roots.add(name.rsplit(".", 1)[-1])
    return roots


def _unguarded_writes(body: list[ast.stmt]) -> list[tuple[str, ast.AST, str]]:
    collector = _WriteCollector()
    for statement in body:
        collector.visit(statement)
    return collector.unguarded


def _worker_contexts(
    class_node: ast.ClassDef, worker_roots: set[str]
) -> list[tuple[str, list[ast.stmt]]]:
    """``(name, body)`` of every function of ``class_node`` that runs on a
    WorkerPool executor.

    Seeds are methods named in ``worker_roots`` and *nested* functions of
    that name (the ``_run_one`` closure pattern: only the closure's body
    runs on workers, the enclosing method stays on the scheduler thread).
    ``self.x()`` calls inside a worker context pull method ``x`` in
    transitively.  Cross-class dispatch is deliberately out of scope —
    each class is judged on its own writes.
    """
    methods = {fn.name: fn for fn in iter_functions(class_node)}
    contexts: dict[str, list[ast.stmt]] = {}
    frontier: list[tuple[str, list[ast.stmt]]] = []

    def _add(name: str, body: list[ast.stmt]) -> None:
        if name not in contexts:
            contexts[name] = body
            frontier.append((name, body))

    for fn in methods.values():
        if fn.name in worker_roots:
            _add(fn.name, fn.body)
        for node in ast.walk(fn):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not fn
                and node.name in worker_roots
            ):
                _add(f"{fn.name}.<{node.name}>", node.body)
    while frontier:
        _, body = frontier.pop()
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    attr = self_attribute(node.func)
                    if attr is not None and attr in methods:
                        _add(attr, methods[attr].body)
    return sorted(contexts.items())
