"""Tests for the whole-program reprolint passes.

Each rule gets at least one fixture that triggers it and one that passes
(same conventions as ``test_analysis_rules.py``), plus a pinned JSON
schema for the CLI invocation the CI tooling scripts rely on.
"""

from __future__ import annotations

import json
import textwrap
from io import StringIO
from pathlib import Path

from repro.analysis import build_index, run_rules
from repro.analysis.cli import main
from repro.analysis.core import Rule, Violation
from repro.analysis.rules import (
    AsyncBlockingRule,
    LockOrderRule,
    SnapshotReachabilityRule,
)


def check(tmp_path: Path, rule: Rule, files: dict[str, str]) -> list[Violation]:
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
# lock-order
# --------------------------------------------------------------------- #
class TestLockOrder:
    def test_flags_cycle_across_call_chain(self, tmp_path):
        violations = check(
            tmp_path,
            LockOrderRule(),
            {"a.py": """
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def left(self):
                        with self._a:
                            self._take_b()

                    def _take_b(self):
                        with self._b:
                            pass

                    def right(self):
                        with self._b:
                            with self._a:
                                pass
            """},
        )
        assert [v.rule for v in violations] == ["lock-order"]
        assert v_key(violations[0]).startswith("lock-order:cycle:")
        message = violations[0].message
        assert "potential deadlock" in message
        assert "Pair._a" in message and "Pair._b" in message
        # The witness names both acquisition sites with file:line anchors.
        assert message.count("repro/a.py:") >= 2

    def test_flags_nonreentrant_self_deadlock(self, tmp_path):
        violations = check(
            tmp_path,
            LockOrderRule(),
            {"a.py": """
                import threading

                class Once:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def outer(self):
                        with self._lock:
                            self.inner()

                    def inner(self):
                        with self._lock:
                            pass
            """},
        )
        assert len(violations) == 1
        assert "self-deadlock:Once._lock" in v_key(violations[0])

    def test_reentrant_lock_passes(self, tmp_path):
        violations = check(
            tmp_path,
            LockOrderRule(),
            {"a.py": """
                import threading

                class Once:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def outer(self):
                        with self._lock:
                            self.inner()

                    def inner(self):
                        with self._lock:
                            pass
            """},
        )
        assert violations == []

    def test_consistent_order_passes(self, tmp_path):
        violations = check(
            tmp_path,
            LockOrderRule(),
            {"a.py": """
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def one(self):
                        with self._a:
                            with self._b:
                                pass

                    def two(self):
                        with self._a:
                            with self._b:
                                pass
            """},
        )
        assert violations == []


# --------------------------------------------------------------------- #
# async-blocking
# --------------------------------------------------------------------- #
class TestAsyncBlocking:
    def test_flags_transitive_blocking_call(self, tmp_path):
        violations = check(
            tmp_path,
            AsyncBlockingRule(),
            {"a.py": """
                import time

                async def handler():
                    helper()

                def helper():
                    time.sleep(1)
            """},
        )
        assert len(violations) == 1
        assert v_key(violations[0]) == "async-blocking:blocking:handler:time.sleep:helper"
        assert "handler -> helper" in violations[0].message

    def test_flags_direct_blocking_call(self, tmp_path):
        violations = check(
            tmp_path,
            AsyncBlockingRule(),
            {"a.py": """
                import os

                async def flush(fd):
                    os.fsync(fd)
            """},
        )
        assert len(violations) == 1
        assert "os.fsync" in v_key(violations[0])
        assert "directly" in violations[0].message

    def test_executor_hop_passes(self, tmp_path):
        violations = check(
            tmp_path,
            AsyncBlockingRule(),
            {"a.py": """
                import asyncio
                import time

                def helper():
                    time.sleep(1)

                async def handler():
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, helper)
            """},
        )
        assert violations == []

    def test_sync_only_code_passes(self, tmp_path):
        violations = check(
            tmp_path,
            AsyncBlockingRule(),
            {"a.py": """
                import time

                def helper():
                    time.sleep(1)

                def caller():
                    helper()
            """},
        )
        assert violations == []


# --------------------------------------------------------------------- #
# snapshot-reachability
# --------------------------------------------------------------------- #
_SNAPSHOT_FIXTURE_SERVICE = """
    import numpy as np
    from repro.comp import Component

    class Service:
        def __init__(self):
            self._comp = Component(7)

        def run_batch(self):
            self._comp.step()
"""

_SNAPSHOT_FIXTURE_COMPONENT = """
    import numpy as np

    class Component:
        def __init__(self, seed):
            self._rng = np.random.default_rng(seed)
            self._count = 0

        def step(self):
            self._count += 1

        def to_state(self):
            return {"count": self._count}

        def from_state(self, state):
            self._count = state["count"]
"""


class TestSnapshotReachability:
    def test_flags_unreached_hooks(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotReachabilityRule(snapshot_module="repro.runtime.snapshot"),
            {
                "comp.py": _SNAPSHOT_FIXTURE_COMPONENT,
                "svc.py": _SNAPSHOT_FIXTURE_SERVICE,
                "runtime/snapshot.py": """
                    class ServiceSnapshot:
                        def capture(self, service):
                            return {}

                        def restore_into(self, service, state):
                            pass
                """,
            },
        )
        keys = sorted(v_key(v) for v in violations)
        assert keys == [
            "snapshot-reachability:unreached-capture:Component",
            "snapshot-reachability:unreached-restore:Component",
        ]
        assert "run_batch path" in violations[0].message

    def test_invoked_hooks_pass(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotReachabilityRule(snapshot_module="repro.runtime.snapshot"),
            {
                "comp.py": _SNAPSHOT_FIXTURE_COMPONENT,
                "svc.py": _SNAPSHOT_FIXTURE_SERVICE,
                "runtime/snapshot.py": """
                    class ServiceSnapshot:
                        def capture(self, service):
                            return {"comp": service._comp.to_state()}

                        def restore_into(self, service, state):
                            service._comp.from_state(state["comp"])
                """,
            },
        )
        assert violations == []

    def test_getattr_string_dispatch_counts_as_invocation(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotReachabilityRule(snapshot_module="repro.runtime.snapshot"),
            {
                "comp.py": _SNAPSHOT_FIXTURE_COMPONENT,
                "svc.py": _SNAPSHOT_FIXTURE_SERVICE,
                "runtime/snapshot.py": """
                    class ServiceSnapshot:
                        def capture(self, service):
                            hook = getattr(service._comp, "to_state", None)
                            return hook() if hook else {}

                        def restore_into(self, service, state):
                            hook = getattr(service._comp, "from_state", None)
                            if hook:
                                hook(state)
                """,
            },
        )
        assert violations == []

    def test_class_off_the_run_path_passes(self, tmp_path):
        violations = check(
            tmp_path,
            SnapshotReachabilityRule(snapshot_module="repro.runtime.snapshot"),
            {
                "comp.py": _SNAPSHOT_FIXTURE_COMPONENT,
                "svc.py": """
                    class Service:
                        def run_batch(self):
                            return 1
                """,
                "runtime/snapshot.py": """
                    class ServiceSnapshot:
                        def capture(self, service):
                            return {}

                        def restore_into(self, service, state):
                            pass
                """,
            },
        )
        assert violations == []


# --------------------------------------------------------------------- #
# CLI: pinned JSON schema for the whole-program rules invocation
# --------------------------------------------------------------------- #
class TestWholeProgramCli:
    def test_json_schema_for_rule_selection(self, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").touch()
        (package / "a.py").write_text(
            textwrap.dedent("""
                import time

                async def handler():
                    time.sleep(1)
            """),
            encoding="utf-8",
        )
        out = StringIO()
        code = main(
            [
                str(package),
                "--rules",
                "lock-order,async-blocking",
                "--json",
            ],
            out,
        )
        assert code == 1
        payload = json.loads(out.getvalue())
        assert payload["schema_version"] == 2
        assert set(payload["summary"]) == {"violations", "modules", "rules"}
        assert payload["summary"]["rules"] == 2
        assert payload["summary"]["violations"] == 1
        (violation,) = payload["violations"]
        assert set(violation) == {"rule", "path", "line", "key", "message"}
        assert violation["rule"] == "async-blocking"
        assert violation["key"].startswith("async-blocking:blocking:handler:")


def v_key(violation: Violation) -> str:
    return violation.key
