"""The worker pool the verification server schedules tenant batches on.

:class:`WorkerPool` wraps the two executor kinds once — ``"serial"``
(inline, deterministic debugging) and ``"thread"`` (parallel numpy
sections, zero pickling) — so repeated scheduling rounds reuse the same
threads instead of paying pool startup per round.

The pool is lazy (no executor exists until the first task) and reusable
(``close()`` only happens explicitly or via the context manager), which is
what a long-lived serving process needs.

Callers dispatch with :meth:`~WorkerPool.submit` and observe completions
*as they happen* with :meth:`~WorkerPool.wait_any`, handing freed workers
new tasks immediately: the serving scheduler keeps the pool saturated this
way instead of waiting on a round barrier.  On the ``"serial"`` kind
:meth:`~WorkerPool.submit` runs the task inline and returns an
already-resolved future, so single-threaded runs stay deterministic.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import TypeVar

from repro.errors import ConfigurationError

__all__ = ["EXECUTOR_KINDS", "WorkerPool"]

#: The executor kinds every runtime component understands.
EXECUTOR_KINDS = ("serial", "thread")

_ResultT = TypeVar("_ResultT")


class WorkerPool:
    """A lazily created, reusable serial/thread executor facade.

    Parameters
    ----------
    kind:
        ``"serial"`` or ``"thread"``.
    max_workers:
        Pool width for the threaded kind; ``None`` defers to
        ``concurrent.futures`` defaults.  Ignored by ``"serial"``.
    """

    def __init__(self, kind: str = "thread", max_workers: int | None = None) -> None:
        if kind not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTOR_KINDS}, got {kind!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        self.kind = kind
        self.max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> int | None:
        """How many tasks can genuinely overlap (1 for serial, ``None``
        when the executor default decides)."""
        if self.kind == "serial":
            return 1
        return self.max_workers

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def submit(
        self, fn: Callable[..., _ResultT], /, *args: object
    ) -> "Future[_ResultT]":
        """Dispatch one task; returns its future.

        On the ``"serial"`` kind the task runs inline on the caller's
        thread and the returned future is already resolved — completion
        order equals submission order, so serial scheduling stays fully
        deterministic while consumers keep one code path.
        """
        if self._closed:
            raise ConfigurationError("the worker pool has been closed")
        if self.kind == "serial":
            future: Future[_ResultT] = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as error:  # noqa: BLE001 - mirrored to future
                future.set_exception(error)
            return future
        return self._ensure_executor().submit(fn, *args)

    @staticmethod
    def wait_any(
        futures: Iterable["Future[_ResultT]"],
    ) -> tuple[set["Future[_ResultT]"], set["Future[_ResultT]"]]:
        """Block until at least one future completes: ``(done, pending)``.

        The steal primitive: a scheduler waits on its in-flight set, books
        whatever finished, and immediately hands the freed workers new
        work.  Serial futures are born resolved, so this never blocks on
        the serial kind.
        """
        pending = list(futures)
        if not pending:
            return set(), set()
        done, not_done = wait(pending, return_when=FIRST_COMPLETED)
        return set(done), set(not_done)
