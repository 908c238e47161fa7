"""Span tracer for the traced benchmark run.

The benchmark measures its end-to-end metrics with nothing installed.  A
traced pass calls :meth:`Tracer.install` before it builds the system;
that replaces each layer's public entry points (the table in
``LAYER_OPS``) with timing wrappers defined here, in the benchmark's own
files, so no program file changes.  Untraced passes never import this
module.

Every wrapped call is a span: name, start, end, parent span, thread and,
when the call carries a tenant id and a claim or a journal seq, a request
id (``"<tenant>:<claim>"``, or the claim id alone on the single-caller
``report`` workload).  A frame's journal append, its serving submit and
the crowd verification of its claim therefore share one request id.
Parents follow a context variable, so concurrent coroutines on the event
loop never parent each other; the worker pool and the gateway's engine
hop carry the context across threads, so a batch run on a pool thread
is the child of the round that dispatched it.

Spans stay in memory and are written out at the end of the pass.  Per
operation the pass reports ``calls`` (outermost spans of that name),
``busy_s`` (their summed duration, thread-seconds) and ``self_s`` (each
span's duration minus the union of its children's intervals).  These
totals, and the counters, take only the spans that began, and the events
recorded, before the pass's last verdict: the build and the traffic, the
window ``setup_s`` and ``claims_per_s`` time.  The graceful stop and the
restarts after it are left out; the restarts are summarized per restart
by the ``gateway.restart_*`` counters.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

#: ``<layer>.<op>`` → the public entry points that op wraps, as
#: ``(module, owner, attribute)``; ``owner`` is ``None`` for a module-level
#: function.  Layers carry their module names.
LAYER_OPS: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "gateway.journal_append": (("repro.gateway.journal", "JournalWriter", "append"),),
    "gateway.journal_commit": (("repro.gateway.journal", "JournalWriter", "commit"),),
    "gateway.pump": (("repro.gateway.server", "GatewayServer", "pump_once"),),
    "gateway.recover": (("repro.gateway.server", None, "recover_server"),),
    "serving.submit": (("repro.serving.server", "VerificationServer", "submit"),),
    "serving.run_round": (("repro.serving.server", "VerificationServer", "run_round"),),
    "serving.schedule": (("repro.serving.scheduler", "TenantScheduler", "select"),),
    "runtime.snapshot_capture": (("repro.runtime.snapshot", "ServiceSnapshot", "capture"),),
    "runtime.snapshot_restore": (
        ("repro.runtime.snapshot", "ServiceSnapshot", "restore_into"),
        ("repro.translation.translator", "ClaimTranslator", "from_state"),
    ),
    "runtime.store_save": (("repro.runtime.snapshot", "SnapshotStore", "save"),),
    # One span per snapshot file parsed, whether SnapshotStore.load or
    # SnapshotStore.items asked for it: the restart-cost count needs both.
    "runtime.store_load": (("repro.runtime.snapshot", "ServiceSnapshot", "load"),),
    "api.run_batch": (("repro.api.service", "VerificationService", "run_batch"),),
    "planning.plan_batch": (("repro.planning.planner", "QuestionPlanner", "plan_batch"),),
    "planning.plan_questions": (("repro.planning.planner", "QuestionPlanner", "plan_questions"),),
    "planning.plan_fused": (("repro.planning.engine", "PlannerEngine", "plan_fused"),),
    "pipeline.feature_matrix": (("repro.pipeline.feature_store", "ClaimFeatureStore", "matrix"),),
    "pipeline.score": (
        ("repro.planning.planner", "QuestionPlanner", "estimate_costs_batch"),
        ("repro.planning.planner", "QuestionPlanner", "estimate_utilities_batch"),
        ("repro.planning.planner", "QuestionPlanner", "estimate_scores_batch"),
    ),
    "translation.predict_many": (("repro.translation.translator", "ClaimTranslator", "predict_many"),),
    "translation.retrain": (("repro.translation.translator", "ClaimTranslator", "retrain"),),
    "translation.translate": (("repro.translation.translator", "ClaimTranslator", "translate"),),
    "translation.evaluate_accuracy": (
        ("repro.translation.translator", "ClaimTranslator", "evaluate_accuracy"),
    ),
    "ml.fit": (("repro.ml.logistic", "SoftmaxRegressionClassifier", "fit"),),
    # ClaimPreprocessor.fit delegates to fit_texts, as do vocabulary refits
    # and snapshot restores: wrapping fit_texts counts every featurizer fit once.
    "text.fit": (("repro.translation.preprocess", "ClaimPreprocessor", "fit_texts"),),
    "crowd.verify": (
        ("repro.crowd.worker", "SimulatedChecker", "verify_with_plan"),
        ("repro.crowd.worker", "SimulatedChecker", "verify_manually"),
    ),
}

#: Counters and ratios reported beside the per-operation numbers.  Each is
#: filled by a call hook below or read from the program's own stats
#: objects at the end of the pass (see ``workloads``).
EXTRA_METRICS: dict[str, tuple[str, str]] = {
    "gateway.appends_per_commit": ("share", "higher"),
    "gateway.backlog_max": ("count", "lower"),
    "gateway.frames_in": ("count", "higher"),
    "gateway.frames_out": ("count", "higher"),
    "gateway.shed": ("count", "lower"),
    "gateway.restart_tenants": ("count", "lower"),
    "gateway.restart_store_loads": ("count", "lower"),
    "gateway.restart_recover_s": ("s", "lower"),
    "serving.deferred": ("count", "lower"),
    "serving.evictions": ("count", "lower"),
    "serving.rehydrations": ("count", "lower"),
    "serving.steals": ("count", "higher"),
    "serving.wait_rounds": ("count", "lower"),
    "serving.fusion_hit_rate": ("share", "higher"),
    "runtime.store_bytes": ("bytes", "lower"),
    "api.batch_size_mean": ("claims", "higher"),
    "planning.milp_solves": ("count", "lower"),
    "planning.score_reuse_ratio": ("share", "higher"),
    "planning.prune_ratio": ("share", "higher"),
    "ml.fit_work": ("count", "lower"),
    "text.vocab_refits": ("count", "lower"),
    "trace.claims_per_s_ratio": ("share", "higher"),
}

_OP_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    names = [
        (f"{op}.{field}", unit, "lower")
        for op in LAYER_OPS
        for field, unit in _OP_FIELDS
    ]
    names.extend((name, unit, better) for name, (unit, better) in EXTRA_METRICS.items())
    return names


_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_TENANT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_tenant", default=None
)


def _tenant_of_service(service) -> str | None:
    name = getattr(service, "system_name", "")
    return name.split("/", 1)[1] if "/" in name else None


def _single(claim_ids) -> str | None:
    ids = list(claim_ids)
    return str(ids[0]) if len(ids) == 1 else None


class Tracer:
    """Collects spans and counters for one pass of one workload."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent, thread, request)`` per span.
        self.spans: list[tuple] = []
        #: ``(time, counter, amount)`` per counted event or sample.
        self.events: list[tuple[float, str, float]] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        #: The open ``gateway.pump`` span, handed to the engine thread.
        self._pump_span: int | None = None

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _record(self, sid, name, start, end, parent, request) -> None:
        self.spans.append(
            (sid, name, start, end, parent, threading.get_ident(), request)
        )

    def _wrap_function(self, name, function, request_of, after):
        tracer = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                sid = next(tracer._ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(sid)
                request = request_of(args, kwargs) if request_of else None
                if name == "gateway.pump":
                    tracer._pump_span = sid
                    tracer._event("gateway.backlog_max", args[0].backlog_size)
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    tracer._record(sid, name, start, time.perf_counter(), parent, request)
                    _CURRENT.reset(token)
                    if name == "gateway.pump":
                        tracer._pump_span = None
                return result

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            tenant_token = None
            if name == "api.run_batch":
                tenant_token = _TENANT.set(_tenant_of_service(args[0]))
            elif name == "serving.submit":
                tenant_token = _TENANT.set(str(args[1]))
            request = request_of(args, kwargs) if request_of else None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception as error:
                if name == "serving.submit" and type(error).__name__ == "BackpressureError":
                    tracer._event("serving.deferred", 1)
                raise
            finally:
                tracer._record(sid, name, start, time.perf_counter(), parent, request)
                _CURRENT.reset(token)
                if tenant_token is not None:
                    _TENANT.reset(tenant_token)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attribute, name, request_of=None, after=None) -> None:
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(
                self._wrap_function(name, raw.__func__, request_of, after)
            )
        else:
            replacement = self._wrap_function(name, raw, request_of, after)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, raw))

    def _carry_context(self, owner, attribute, *, from_pump: bool = False) -> None:
        """Run ``owner.attribute``'s work under the caller's span context.

        ``WorkerPool.submit`` hands a copy of the submitting context to
        the pool thread; the gateway engine step, which the event loop
        reaches through ``run_in_executor`` (no context copy), adopts the
        open pump span instead.  Neither records a span of its own.
        """
        raw = owner.__dict__[attribute]
        tracer = self

        if from_pump:

            @functools.wraps(raw)
            def adopted(*args, **kwargs):
                token = _CURRENT.set(tracer._pump_span)
                try:
                    return raw(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)

            setattr(owner, attribute, adopted)
        else:

            @functools.wraps(raw)
            def carried(pool, fn, /, *args):
                return raw(pool, contextvars.copy_context().run, fn, *args)

            setattr(owner, attribute, carried)
        self._patches.append((owner, attribute, raw))

    def _event(self, key: str, amount: float) -> None:
        with self._lock:
            self.events.append((time.perf_counter(), key, float(amount)))

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        import importlib

        hooks = {
            "api.run_batch": (None, self._after_run_batch),
            "ml.fit": (None, self._after_fit),
            "runtime.store_save": (None, self._after_store_save),
            "gateway.journal_append": (
                lambda args, kwargs: _request(args[1], _single(args[2])),
                None,
            ),
            "serving.submit": (
                lambda args, kwargs: _request(args[1], _single(args[2])),
                None,
            ),
            "crowd.verify": (lambda args, kwargs: _request(_TENANT.get(), args[1].claim_id), None),
            "planning.plan_questions": (
                lambda args, kwargs: _request(_TENANT.get(), args[1].claim_id),
                None,
            ),
            "translation.translate": (
                lambda args, kwargs: _request(_TENANT.get(), args[1].claim_id),
                None,
            ),
        }
        for name, entry_points in LAYER_OPS.items():
            request_of, after = hooks.get(name, (None, None))
            for module_name, owner_name, attribute in entry_points:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                self._patch(owner, attribute, name, request_of, after)
        pool = importlib.import_module("repro.runtime.pool")
        self._carry_context(pool.WorkerPool, "submit")
        gateway = importlib.import_module("repro.gateway.server")
        self._carry_context(gateway.GatewayServer, "_engine_step", from_pump=True)
        # Count every MILP solver invocation, on the per-round path
        # (planning.ilp) and inside the engine alike.
        for module_name in ("repro.planning.ilp", "repro.planning.engine"):
            module = importlib.import_module(module_name)
            solver = getattr(module, "milp", None)
            if solver is not None:
                setattr(module, "milp", self._counting(solver, "planning.milp_solves"))
                self._patches.append((module, "milp", solver))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def _counting(self, function, key):
        @functools.wraps(function)
        def counted(*args, **kwargs):
            self._event(key, 1)
            return function(*args, **kwargs)

        return counted

    def _after_run_batch(self, args, result) -> None:
        if result is not None:
            self._event("api.batch_size", len(result.claim_ids))

    def _after_fit(self, args, result) -> None:
        rows, features = args[1].shape
        self._event("ml.fit_work", rows * features * len(result.classes) * result.epochs)

    def _after_store_save(self, args, result) -> None:
        self._event("runtime.store_bytes", os.path.getsize(result))

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def per_layer(self, until: float) -> dict[str, float]:
        """Per-operation calls, busy and self time, plus span-derived counts.

        ``until`` is the ``perf_counter`` time of the pass's last verdict;
        later spans count only toward the ``gateway.restart_*`` counters,
        later events not at all.
        """
        by_id = {span[0]: span for span in self.spans}
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append(span)

        def ancestors(span):
            parent = span[4]
            while parent is not None and parent in by_id:
                yield by_id[parent]
                parent = by_id[parent][4]

        metrics: dict[str, float] = {}
        for op in LAYER_OPS:
            metrics[f"{op}.calls"] = 0.0
            metrics[f"{op}.busy_s"] = 0.0
            metrics[f"{op}.self_s"] = 0.0
        traffic = [span for span in self.spans if span[2] < until]
        for span in traffic:
            _, name, start, end, _, _, _ = span
            metrics[f"{name}.self_s"] += (end - start) - _covered(
                start, end, children.get(span[0], ())
            )
            if any(ancestor[1] == name for ancestor in ancestors(span)):
                continue
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.busy_s"] += end - start
        metrics["text.vocab_refits"] = float(sum(
            span[1] == "text.fit"
            and any(ancestor[1] == "translation.retrain" for ancestor in ancestors(span))
            for span in traffic
        ))
        # Each restart's recover_server call and the snapshot files parsed
        # under it, per restart.
        restarts = {
            span[0]: span for span in self.spans
            if span[1] == "gateway.recover" and span[2] >= until
        }
        loads = sum(
            span[1] == "runtime.store_load"
            and any(ancestor[0] in restarts for ancestor in ancestors(span))
            for span in self.spans
        )
        metrics["gateway.restart_store_loads"] = loads / len(restarts) if restarts else 0.0
        metrics["gateway.restart_recover_s"] = (
            statistics.median(end - start for _, _, start, end, *_ in restarts.values())
            if restarts else 0.0
        )

        counted: dict[str, list[float]] = defaultdict(list)
        for at, key, amount in self.events:
            if at < until:
                counted[key].append(amount)
        sizes = counted["api.batch_size"]
        metrics["api.batch_size_mean"] = statistics.fmean(sizes) if sizes else 0.0
        metrics["gateway.backlog_max"] = max(counted["gateway.backlog_max"], default=0.0)
        for key in ("ml.fit_work", "runtime.store_bytes", "planning.milp_solves",
                    "serving.deferred"):
            metrics[key] = float(sum(counted[key]))
        return metrics

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON document (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0.0)
        payload = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "thread", "request"],
            "spans": [
                [sid, name, round(start - origin, 7), round(end - origin, 7), parent, thread, request]
                for sid, name, start, end, parent, thread, request in self.spans
            ],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _request(tenant: str | None, claim: str | None) -> str | None:
    if claim is None:
        return None
    return f"{tenant}:{claim}" if tenant else str(claim)


def _covered(start: float, end: float, children) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    intervals = sorted(
        (max(start, child[2]), min(end, child[3])) for child in children
    )
    covered = 0.0
    cursor = start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered
