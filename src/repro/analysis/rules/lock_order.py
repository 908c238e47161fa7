"""Rule: the project-wide lock-ordering graph must be acyclic.

Two threads that acquire the same pair of locks in opposite orders can
deadlock — classic AB/BA.  One module at a time this is invisible: the
serving layer may call into the store while holding its own lock, and the
store may (transitively, through a callback or a planner hop) call back
into a lock the serving layer owns.  This pass makes it visible:

1. every lock is discovered from its construction site
   (``self._lock = threading.RLock()`` and friends) and identified as
   ``ClassName.attr``;
2. every acquisition site (``with self._lock:`` / ``async with``) is
   extracted;
3. an ordering edge ``A -> B`` is recorded whenever code that holds ``A``
   reaches an acquisition of ``B`` — lexically nested, or transitively
   through the call graph (``call`` edges only: a ``pool.submit`` /
   ``run_in_executor`` dispatch runs on another thread that does *not*
   inherit the caller's locks);
4. any cycle in the ordering graph is reported as a potential deadlock,
   with the full acquisition witness path (who held what where, and the
   call chain to the inner acquisition).

Re-acquiring the *same* lock is flagged only for non-reentrant kinds
(``threading.Lock``, ``asyncio.Lock``); an ``RLock`` held twice on one
thread is fine and stays silent.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.analysis.core import ProjectIndex, Rule, Violation
from repro.analysis.graph import (
    CALL,
    CallGraph,
    FunctionInfo,
    call_graph,
    iter_own_nodes,
)

__all__ = ["LockOrderRule"]

#: Lock constructors the pass recognizes, mapped to reentrancy.
_LOCK_CONSTRUCTORS: dict[str, bool] = {
    "threading.Lock": False,
    "threading.RLock": True,
    "threading.Condition": True,  # wraps an RLock by default
    "asyncio.Lock": False,
    "multiprocessing.Lock": False,
    "multiprocessing.RLock": True,
}


@dataclass(frozen=True)
class _Acquisition:
    """One ``with self.<lock>`` site."""

    identity: str  #: ``ClassName.attr``
    reentrant: bool
    function: str  #: graph node id of the acquiring function
    node: ast.With | ast.AsyncWith


@dataclass(frozen=True)
class _OrderEdge:
    """``outer`` was held while ``inner`` was acquired; how we got there."""

    outer: _Acquisition
    inner: _Acquisition
    chain: tuple[str, ...]  #: qualnames of the call path, outer fn first


def _lock_attr_of(item: ast.withitem) -> str | None:
    """``attr`` when the context manager is ``self.attr`` or ``self.attr()``."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


class LockOrderRule(Rule):
    rule_id = "lock-order"
    description = (
        "the cross-class lock acquisition-order graph must be acyclic; "
        "a cycle (or a non-reentrant self-acquisition) is a potential "
        "deadlock"
    )
    invariant = (
        "no two threads can acquire the serving/runtime/gateway/store "
        "locks in opposite orders, so the system cannot AB/BA deadlock"
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        graph = call_graph(index)
        class_locks = self._discover_locks(graph)
        if not class_locks:
            return
        acquisitions = self._acquisition_sites(graph, class_locks)
        edges: dict[tuple[str, str], _OrderEdge] = {}
        for function_id in sorted(acquisitions):
            for outer in acquisitions[function_id]:
                yield from self._trace_region(
                    graph, acquisitions, outer, edges
                )
        yield from self._report_cycles(graph, edges)

    # ------------------------------------------------------------------ #
    # discovery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _discover_locks(graph: CallGraph) -> dict[str, dict[str, bool]]:
        """class id -> {lock attr -> reentrant}."""
        locks: dict[str, dict[str, bool]] = {}
        for class_id, info in graph.classes.items():
            for attr, type_name in info.attribute_types.items():
                reentrant = _LOCK_CONSTRUCTORS.get(type_name)
                if reentrant is not None:
                    locks.setdefault(class_id, {})[attr] = reentrant
        return locks

    def _acquisition_sites(
        self, graph: CallGraph, class_locks: dict[str, dict[str, bool]]
    ) -> dict[str, list[_Acquisition]]:
        sites: dict[str, list[_Acquisition]] = {}
        for function_id, info in graph.functions.items():
            if info.class_id is None:
                continue
            own_locks = self._locks_in_scope(graph, class_locks, info.class_id)
            if not own_locks:
                continue
            for node in self._function_withs(info):
                for item in node.items:
                    attr = _lock_attr_of(item)
                    if attr is None or attr not in own_locks:
                        continue
                    identity = self._identity(graph, info.class_id, attr)
                    sites.setdefault(function_id, []).append(
                        _Acquisition(
                            identity=identity,
                            reentrant=own_locks[attr],
                            function=function_id,
                            node=node,
                        )
                    )
        return sites

    @staticmethod
    def _locks_in_scope(
        graph: CallGraph,
        class_locks: dict[str, dict[str, bool]],
        class_id: str,
    ) -> dict[str, bool]:
        """Locks declared on ``class_id`` or inherited from project bases."""
        merged: dict[str, bool] = {}
        seen: set[str] = set()
        queue: deque[str] = deque([class_id])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            for attr, reentrant in class_locks.get(current, {}).items():
                merged.setdefault(attr, reentrant)
            info = graph.classes.get(current)
            if info is not None:
                queue.extend(info.base_ids)
        return merged

    @staticmethod
    def _identity(graph: CallGraph, class_id: str, attr: str) -> str:
        info = graph.classes.get(class_id)
        bare = info.qualname if info is not None else class_id
        return f"{bare}.{attr}"

    @staticmethod
    def _function_withs(
        info: FunctionInfo,
    ) -> Iterator[ast.With | ast.AsyncWith]:
        for node in iter_own_nodes(info.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                yield node

    # ------------------------------------------------------------------ #
    # ordering edges
    # ------------------------------------------------------------------ #
    def _trace_region(
        self,
        graph: CallGraph,
        acquisitions: dict[str, list[_Acquisition]],
        outer: _Acquisition,
        edges: dict[tuple[str, str], _OrderEdge],
    ) -> Iterator[Violation]:
        region = outer.node
        span = (region.lineno, region.end_lineno or region.lineno)
        # Lexically nested acquisitions in the same function.
        for inner in acquisitions.get(outer.function, []):
            if inner is outer or not span[0] <= inner.node.lineno <= span[1]:
                continue
            yield from self._record(graph, edges, outer, inner, chain=())
        # Transitive acquisitions through the call graph (call edges only:
        # a dispatched callee runs on a thread that holds none of our locks).
        outer_info = graph.functions[outer.function]
        for edge in graph.edges_from(outer.function):
            if edge.kind != CALL or not span[0] <= edge.line <= span[1]:
                continue
            yield from self._trace_calls(
                graph, acquisitions, outer, outer_info, edge.callee, edges
            )

    def _trace_calls(
        self,
        graph: CallGraph,
        acquisitions: dict[str, list[_Acquisition]],
        outer: _Acquisition,
        outer_info: FunctionInfo,
        entry: str,
        edges: dict[tuple[str, str], _OrderEdge],
    ) -> Iterator[Violation]:
        parents: dict[str, str] = {}
        seen = {entry}
        queue: deque[str] = deque([entry])
        while queue:
            current = queue.popleft()
            for inner in acquisitions.get(current, []):
                chain = self._chain(graph, outer_info, entry, current, parents)
                yield from self._record(graph, edges, outer, inner, chain=chain)
            for edge in graph.edges_from(current):
                if edge.kind != CALL or edge.callee in seen:
                    continue
                seen.add(edge.callee)
                parents[edge.callee] = current
                queue.append(edge.callee)

    @staticmethod
    def _chain(
        graph: CallGraph,
        outer_info: FunctionInfo,
        entry: str,
        target: str,
        parents: dict[str, str],
    ) -> tuple[str, ...]:
        path = [target]
        cursor = target
        while cursor != entry:
            cursor = parents[cursor]
            path.append(cursor)
        path.append(outer_info.name)
        return tuple(
            graph.functions[node].qualname for node in reversed(path)
        )

    def _record(
        self,
        graph: CallGraph,
        edges: dict[tuple[str, str], _OrderEdge],
        outer: _Acquisition,
        inner: _Acquisition,
        chain: tuple[str, ...],
    ) -> Iterator[Violation]:
        if outer.identity == inner.identity:
            if outer.reentrant:
                return
            module = graph.functions[outer.function].module
            yield self.violation(
                module,
                outer.node,
                f"non-reentrant lock {outer.identity} is re-acquired while "
                f"already held: {self._witness(graph, outer, inner, chain)}; "
                "this deadlocks the acquiring thread — use an RLock or "
                "restructure so the inner path does not re-lock",
                f"self-deadlock:{outer.identity}:{self._site(graph, inner)}",
            )
            return
        edges.setdefault(
            (outer.identity, inner.identity),
            _OrderEdge(outer=outer, inner=inner, chain=chain),
        )

    # ------------------------------------------------------------------ #
    # cycle reporting
    # ------------------------------------------------------------------ #
    def _report_cycles(
        self, graph: CallGraph, edges: dict[tuple[str, str], _OrderEdge]
    ) -> Iterator[Violation]:
        adjacency: dict[str, set[str]] = {}
        for outer_id, inner_id in edges:
            adjacency.setdefault(outer_id, set()).add(inner_id)
        for cycle in self._cycles(adjacency):
            witness_parts = []
            for position, outer_id in enumerate(cycle):
                inner_id = cycle[(position + 1) % len(cycle)]
                edge = edges[(outer_id, inner_id)]
                witness_parts.append(
                    self._witness(graph, edge.outer, edge.inner, edge.chain)
                )
            first = edges[(cycle[0], cycle[1 % len(cycle)])]
            module = graph.functions[first.outer.function].module
            loop = " -> ".join([*cycle, cycle[0]])
            yield self.violation(
                module,
                first.outer.node,
                f"potential deadlock: lock-order cycle {loop}; witness: "
                + "; then ".join(witness_parts)
                + " — two threads taking these paths concurrently can "
                "block forever; pick one global order and acquire in it",
                f"cycle:{'->'.join(cycle)}",
            )

    @staticmethod
    def _cycles(adjacency: dict[str, set[str]]) -> list[list[str]]:
        """One representative cycle per strongly connected component."""
        index_counter = 0
        indices: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []

        def strongconnect(root: str) -> None:
            nonlocal index_counter
            work: list[tuple[str, Iterator[str]]] = [
                (root, iter(sorted(adjacency.get(root, ()))))
            ]
            indices[root] = low[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in indices:
                        indices[successor] = low[successor] = index_counter
                        index_counter += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append(
                            (successor, iter(sorted(adjacency.get(successor, ()))))
                        )
                        advanced = True
                        break
                    if successor in on_stack:
                        low[node] = min(low[node], indices[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == indices[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(component)

        for node in sorted(adjacency):
            if node not in indices:
                strongconnect(node)

        cycles = []
        for component in components:
            members = set(component)
            start = min(component)
            cycle = LockOrderRule._shortest_cycle(adjacency, members, start)
            if cycle:
                cycles.append(cycle)
        return sorted(cycles)

    @staticmethod
    def _shortest_cycle(
        adjacency: dict[str, set[str]], members: set[str], start: str
    ) -> list[str]:
        """Shortest ``start -> ... -> start`` path inside one SCC."""
        parents: dict[str, str] = {}
        queue: deque[str] = deque(
            successor
            for successor in sorted(adjacency.get(start, ()))
            if successor in members
        )
        seen = set(queue)
        for node in list(queue):
            parents[node] = start
        while queue:
            current = queue.popleft()
            if current == start:
                break
            for successor in sorted(adjacency.get(current, ())):
                if successor == start:
                    path = [start, current]
                    cursor = current
                    while parents[cursor] != start:
                        cursor = parents[cursor]
                        path.append(cursor)
                    return [start, *reversed(path[1:])]
                if successor in members and successor not in seen:
                    seen.add(successor)
                    parents[successor] = current
                    queue.append(successor)
        return []

    # ------------------------------------------------------------------ #
    # witness rendering
    # ------------------------------------------------------------------ #
    @staticmethod
    def _site(graph: CallGraph, acquisition: _Acquisition) -> str:
        info = graph.functions[acquisition.function]
        return f"{info.qualname}"

    @staticmethod
    def _witness(
        graph: CallGraph,
        outer: _Acquisition,
        inner: _Acquisition,
        chain: tuple[str, ...],
    ) -> str:
        outer_info = graph.functions[outer.function]
        inner_info = graph.functions[inner.function]
        where_outer = (
            f"{outer.identity} acquired in {outer_info.qualname} "
            f"({outer_info.module.rel_path}:{outer.node.lineno})"
        )
        where_inner = (
            f"{inner.identity} acquired in {inner_info.qualname} "
            f"({inner_info.module.rel_path}:{inner.node.lineno})"
        )
        if chain:
            route = " -> ".join(chain)
            return f"{where_outer}, then via {route}, {where_inner}"
        return f"{where_outer}, then (lexically nested) {where_inner}"
