"""Per-rule tests for the reprolint invariant checker.

Every rule gets at least one fixture that triggers it and one that
passes, written to a ``repro/`` package directory under ``tmp_path`` so
module-name-scoped rules (layering, lock discipline, wall-clock
allow-list) see the same dotted names they see on the real tree.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import build_index, run_rules
from repro.analysis.core import Rule, Violation
from repro.analysis.rules import (
    ErrorTaxonomyRule,
    LayeringRule,
    LockDisciplineRule,
    PrintHygieneRule,
    RngDisciplineRule,
    SnapshotCoverageRule,
    WallClockRule,
    default_rules,
)


def check(tmp_path: Path, rule: Rule, files: dict[str, str]) -> list[Violation]:
    """Write ``files`` under ``tmp_path/repro`` and run one rule."""
    package = tmp_path / "repro"
    for rel, source in files.items():
        target = package / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        init = target.parent / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    (package / "__init__.py").touch()
    index = build_index([package])
    return run_rules(index, [rule])


# --------------------------------------------------------------------- #
# rng-discipline
# --------------------------------------------------------------------- #
class TestRngDiscipline:
    def test_flags_unseeded_default_rng(self, tmp_path):
        violations = check(
            tmp_path,
            RngDisciplineRule(),
            {"a.py": """
                import numpy as np
                def draw():
                    return np.random.default_rng().random()
            """},
        )
        assert [v.rule for v in violations] == ["rng-discipline"]
        assert "unseeded" in violations[0].key

    def test_flags_module_state_draw(self, tmp_path):
        violations = check(
            tmp_path,
            RngDisciplineRule(),
            {"a.py": """
                import numpy as np
                import random
                def draw():
                    return np.random.random() + random.randint(0, 3)
            """},
        )
        assert len(violations) == 2
        assert all("module-state" in v.key for v in violations)

    def test_flags_volatile_seed(self, tmp_path):
        violations = check(
            tmp_path,
            RngDisciplineRule(),
            {"a.py": """
                import time
                import numpy as np
                def make():
                    return np.random.default_rng(int(time.time()))
            """},
        )
        assert len(violations) == 1
        assert "volatile-seed" in violations[0].key

    def test_passes_seeded_generators(self, tmp_path):
        violations = check(
            tmp_path,
            RngDisciplineRule(),
            {"a.py": """
                import random
                import numpy as np
                def make(seed):
                    return np.random.default_rng(seed), random.Random(7)
            """},
        )
        assert violations == []


# --------------------------------------------------------------------- #
# snapshot-coverage
# --------------------------------------------------------------------- #
class TestSnapshotCoverage:
    def test_flags_fitted_class_without_hooks(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotCoverageRule(),
            {"a.py": """
                class Model:
                    def fit(self, xs):
                        self._weights = list(xs)
            """},
        )
        assert [v.key for v in violations] == [
            "snapshot-coverage:missing-hooks:Model"
        ]

    def test_flags_rng_holder_without_hooks(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotCoverageRule(),
            {"a.py": """
                import numpy as np
                class Sampler:
                    def __init__(self, seed):
                        self._rng = np.random.default_rng(seed)
            """},
        )
        assert len(violations) == 1
        assert "Sampler" in violations[0].key

    def test_passes_class_with_hooks(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotCoverageRule(),
            {"a.py": """
                class Model:
                    def fit(self, xs):
                        self._weights = list(xs)
                    def to_state(self):
                        return {"weights": self._weights}
                    def from_state(self, state):
                        self._weights = state["weights"]
            """},
        )
        assert violations == []

    def test_passes_stateless_and_interface_classes(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotCoverageRule(),
            {"a.py": """
                from typing import Protocol

                class Reader(Protocol):
                    def fit(self, xs):
                        self._ignored = xs

                class Plain:
                    def transform(self, x):
                        return x + 1
            """},
        )
        assert violations == []

    def test_cross_check_flags_unknown_snapshot_hook(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotCoverageRule(snapshot_module="repro.runtime.snapshot"),
            {"runtime/snapshot.py": """
                def capture(service):
                    hook = getattr(service, "dump_exotic_state", None)
                    return hook() if hook else None
            """},
        )
        assert [v.key for v in violations] == [
            "snapshot-coverage:unknown-hook:dump_exotic_state"
        ]


# --------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------- #
class TestLockDiscipline:
    def test_flags_unguarded_write_in_lock_owning_class(self, tmp_path):
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"serving/cache.py": """
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._hits = 0
                    def record(self):
                        self._hits += 1
            """},
        )
        assert [v.key for v in violations] == [
            "lock-discipline:unguarded:Cache.record._hits"
        ]

    def test_passes_guarded_write(self, tmp_path):
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"serving/cache.py": """
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._hits = 0
                    def record(self):
                        with self._lock:
                            self._hits += 1
            """},
        )
        assert violations == []

    def test_flags_worker_closure_write_without_lock(self, tmp_path):
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"serving/server.py": """
                class Server:
                    def __init__(self, pool):
                        self._pool = pool
                        self._done = []
                    def run(self, items):
                        def _run_one(item):
                            self._done.append(item)
                            return item
                        return self._pool.map(_run_one, items)
            """},
        )
        assert [v.key for v in violations] == [
            "lock-discipline:worker-write:Server.run.<_run_one>._done"
        ]

    def test_flags_worker_write_dispatched_via_submit(self, tmp_path):
        # The server dispatches with submit instead of map; functions
        # handed to <pool>.submit run on executors all the same.
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"serving/server.py": """
                class Server:
                    def __init__(self, pool):
                        self._pool = pool
                        self._done = []
                    def run(self, items):
                        futures = []
                        def _run_one(item):
                            self._done.append(item)
                            return item
                        for item in items:
                            futures.append(self._pool.submit(_run_one, item))
                        return [future.result() for future in futures]
            """},
        )
        assert [v.key for v in violations] == [
            "lock-discipline:worker-write:Server.run.<_run_one>._done"
        ]

    def test_async_with_lock_guards_coroutine_writes(self, tmp_path):
        # ``async with self._lock:`` (asyncio.Lock) satisfies the rule the
        # same way the sync spelling does; before visit_AsyncWith existed,
        # coroutine bodies could never count as guarded.
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"gateway/conn.py": """
                import asyncio

                class Conn:
                    def __init__(self):
                        self._lock = asyncio.Lock()
                        self._sent = 0
                    async def send(self, frame):
                        async with self._lock:
                            self._sent += 1
            """},
        )
        assert violations == []

    def test_flags_unguarded_write_in_async_method(self, tmp_path):
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"gateway/conn.py": """
                import asyncio

                class Conn:
                    def __init__(self):
                        self._lock = asyncio.Lock()
                        self._sent = 0
                    async def send(self, frame):
                        self._sent += 1
            """},
        )
        assert [v.key for v in violations] == [
            "lock-discipline:unguarded:Conn.send._sent"
        ]

    def test_flags_worker_write_dispatched_via_run_in_executor(self, tmp_path):
        # The gateway bridges its coroutines onto the engine thread with
        # loop.run_in_executor(executor, fn); fn is the *second* argument,
        # and its writes run off the event loop just like pool workers.
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"gateway/server.py": """
                class Gateway:
                    def __init__(self, engine):
                        self._engine = engine
                        self._rounds = []
                    async def pump(self, loop):
                        def _step():
                            self._rounds.append(1)
                            return len(self._rounds)
                        return await loop.run_in_executor(self._engine, _step)
            """},
        )
        assert [v.key for v in violations] == [
            "lock-discipline:worker-write:Gateway.pump.<_step>._rounds"
        ]

    def test_scheduler_thread_writes_in_lockless_class_pass(self, tmp_path):
        # Writes in the enclosing method (scheduler thread) are fine; only
        # the closure handed to the pool runs on executors.
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"serving/server.py": """
                class Server:
                    def __init__(self, pool):
                        self._pool = pool
                        self._round = 0
                    def run(self, items):
                        self._round += 1
                        def _run_one(item):
                            return item * 2
                        return self._pool.map(_run_one, items)
            """},
        )
        assert violations == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        violations = check(
            tmp_path,
            LockDisciplineRule(),
            {"text/cache.py": """
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                    def record(self):
                        self._count = 1
            """},
        )
        assert violations == []


# --------------------------------------------------------------------- #
# layering
# --------------------------------------------------------------------- #
class TestLayering:
    def test_flags_upward_import(self, tmp_path):
        violations = check(
            tmp_path,
            LayeringRule(),
            {"text/model.py": "from repro.serving.server import VerificationServer\n"},
        )
        assert [v.key for v in violations] == ["layering:upward:text->serving"]

    def test_scheduler_module_sits_in_the_serving_layer(self, tmp_path):
        # repro.serving.scheduler is covered by the serving prefix: an
        # upward import from below it is flagged, and the scheduler
        # importing downward (errors) passes.
        violations = check(
            tmp_path,
            LayeringRule(),
            {
                "runtime/pool.py": "from repro.serving.scheduler import TenantScheduler\n",
                "serving/scheduler.py": "from repro.errors import ConfigurationError\n",
            },
        )
        assert [v.key for v in violations] == ["layering:upward:runtime->serving"]

    def test_gateway_sits_above_serving(self, tmp_path):
        # The network front door wraps the serving engine: gateway may
        # import serving, never the reverse.
        violations = check(
            tmp_path,
            LayeringRule(),
            {
                "serving/server.py": "from repro.gateway.server import GatewayServer\n",
                "gateway/server.py": "from repro.serving.server import VerificationServer\n",
            },
        )
        assert [v.key for v in violations] == ["layering:upward:serving->gateway"]

    def test_pipeline_sits_below_translation_and_planning(self, tmp_path):
        # Feature rows and batch predictions are produced by translation
        # and scored by planning, so both may import pipeline; pipeline
        # importing either is upward.
        violations = check(
            tmp_path,
            LayeringRule(),
            {
                "translation/translator.py": "from repro.pipeline.batch import PropertyBatch\n",
                "planning/scoring.py": "from repro.pipeline.batch import ClaimBatchPredictions\n",
                "pipeline/a.py": "from repro.translation.translator import ClaimTranslator\n",
                "pipeline/b.py": "from repro.planning.planner import QuestionPlanner\n",
            },
        )
        assert [v.key for v in violations] == [
            "layering:upward:pipeline->translation",
            "layering:upward:pipeline->planning",
        ]

    def test_passes_downward_and_type_checking_imports(self, tmp_path):
        violations = check(
            tmp_path,
            LayeringRule(),
            {"serving/server.py": """
                from typing import TYPE_CHECKING
                from repro.runtime import pool
                if TYPE_CHECKING:
                    from repro.experiments import runner

                def lazy():
                    from repro.experiments import runner as r
                    return r
            """},
        )
        assert violations == []

    def test_flags_unmapped_package(self, tmp_path):
        violations = check(
            tmp_path,
            LayeringRule(),
            {"brandnew/thing.py": "X = 1\n"},
        )
        assert [v.key for v in violations] == ["layering:unmapped:brandnew"]


# --------------------------------------------------------------------- #
# error-taxonomy
# --------------------------------------------------------------------- #
class TestErrorTaxonomy:
    def test_flags_builtin_raise(self, tmp_path):
        violations = check(
            tmp_path,
            ErrorTaxonomyRule(),
            {"a.py": """
                def f(x):
                    if x < 0:
                        raise ValueError("negative")
            """},
        )
        assert [v.key for v in violations] == [
            "error-taxonomy:builtin-raise:ValueError:f"
        ]

    def test_passes_taxonomy_and_programmer_errors(self, tmp_path):
        violations = check(
            tmp_path,
            ErrorTaxonomyRule(),
            {"a.py": """
                from repro.errors import ConfigurationError

                def f(x):
                    if x is None:
                        raise TypeError("x must not be None")
                    if x < 0:
                        raise ConfigurationError("negative")
                    try:
                        return 1 / x
                    except ZeroDivisionError:
                        raise
            """},
        )
        assert violations == []


# --------------------------------------------------------------------- #
# print-hygiene and wall-clock
# --------------------------------------------------------------------- #
class TestHygiene:
    def test_flags_print_in_library_code(self, tmp_path):
        violations = check(
            tmp_path,
            PrintHygieneRule(),
            {"a.py": "def f():\n    print('hi')\n"},
        )
        assert len(violations) == 1
        assert violations[0].rule == "print-hygiene"

    def test_cli_modules_exempt_from_print(self, tmp_path):
        violations = check(
            tmp_path,
            PrintHygieneRule(),
            {
                "cli.py": "def f():\n    print('hi')\n",
                "sub/__main__.py": "print('hi')\n",
            },
        )
        assert violations == []

    def test_flags_wall_clock_calls(self, tmp_path):
        violations = check(
            tmp_path,
            WallClockRule(),
            {"a.py": """
                import time
                from datetime import datetime

                def stamp():
                    return time.time(), datetime.now()
            """},
        )
        assert sorted(v.key for v in violations) == [
            "wall-clock:wall-clock:datetime.datetime.now",
            "wall-clock:wall-clock:time.time",
        ]

    def test_wall_clock_seen_inside_coroutines_loop_time_allowed(self, tmp_path):
        # Coroutine bodies are no blind spot: time.time() in an async def
        # is flagged, while the event loop's monotonic loop.time() (the
        # clock the gateway's flush timer runs on) passes.
        violations = check(
            tmp_path,
            WallClockRule(),
            {"a.py": """
                import asyncio
                import time

                async def tick():
                    loop = asyncio.get_running_loop()
                    return loop.time(), time.time()
            """},
        )
        assert [v.key for v in violations] == ["wall-clock:wall-clock:time.time"]

    def test_gateway_journal_module_exempt_from_wall_clock(self, tmp_path):
        # The journal stamps records with an operator-metadata ``ts`` and
        # is allow-listed; sibling gateway modules are not.
        violations = check(
            tmp_path,
            WallClockRule(),
            {
                "gateway/journal.py": """
                    import time
                    def stamp():
                        return time.time()
                """,
                "gateway/server.py": """
                    import time
                    async def stamp():
                        return time.time()
                """,
            },
        )
        assert [(v.path, v.key) for v in violations] == [
            ("repro/gateway/server.py", "wall-clock:wall-clock:time.time")
        ]

    def test_perf_counter_and_timing_model_module_allowed(self, tmp_path):
        violations = check(
            tmp_path,
            WallClockRule(),
            {
                "a.py": """
                    import time
                    def elapsed():
                        return time.perf_counter()
                """,
                "crowd/timing.py": """
                    import time
                    def now():
                        return time.time()
                """,
            },
        )
        assert violations == []


# --------------------------------------------------------------------- #
# framework behaviour
# --------------------------------------------------------------------- #
class TestFramework:
    def test_suppression_comment_silences_rule(self, tmp_path):
        violations = check(
            tmp_path,
            PrintHygieneRule(),
            {"a.py": (
                "def f():\n"
                "    print('allowed')  # reprolint: ignore[print-hygiene]\n"
                "    print('bare suppression')  # reprolint: ignore\n"
            )},
        )
        assert violations == []

    def test_suppression_for_other_rule_does_not_silence(self, tmp_path):
        violations = check(
            tmp_path,
            PrintHygieneRule(),
            {"a.py": "def f():\n    print('x')  # reprolint: ignore[wall-clock]\n"},
        )
        assert len(violations) == 1

    def test_duplicate_keys_are_disambiguated(self, tmp_path):
        violations = check(
            tmp_path,
            ErrorTaxonomyRule(),
            {"a.py": """
                def f(x):
                    if x < 0:
                        raise ValueError("negative")
                    if x > 9:
                        raise ValueError("too large")
            """},
        )
        keys = [v.key for v in violations]
        assert keys == [
            "error-taxonomy:builtin-raise:ValueError:f",
            "error-taxonomy:builtin-raise:ValueError:f#2",
        ]

    def test_violations_sorted_and_paths_relative(self, tmp_path):
        violations = check(
            tmp_path,
            PrintHygieneRule(),
            {
                "b.py": "print('b')\n",
                "a.py": "print('a')\n",
            },
        )
        assert [v.path for v in violations] == ["repro/a.py", "repro/b.py"]

    def test_rule_ids_unique(self):
        rules = default_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids))
        assert all(rule.description and rule.invariant for rule in rules)


# --------------------------------------------------------------------- #
# the real tree
# --------------------------------------------------------------------- #
class TestRealTree:
    REPO_ROOT = Path(__file__).resolve().parent.parent

    def test_src_repro_has_no_violations(self):
        index = build_index([self.REPO_ROOT / "src" / "repro"])
        real_violations = run_rules(index, default_rules())
        assert real_violations == [], "\n".join(v.render() for v in real_violations)
