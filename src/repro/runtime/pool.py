"""The worker pool the verification server schedules tenant batches on.

:class:`WorkerPool` wraps one :class:`~concurrent.futures.ThreadPoolExecutor`
(parallel numpy sections, zero pickling) so repeated scheduling rounds
reuse the same threads instead of paying pool startup per round.

The pool is lazy (no executor exists until the first task) and reusable
(``close()`` only happens explicitly or via the context manager), which is
what a long-lived serving process needs.

Callers dispatch with :meth:`~WorkerPool.submit`.  Tasks beyond the pool's
width wait in the executor's own work queue, and each starts on the first
worker to free up.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TypeVar

from repro.errors import ConfigurationError

__all__ = ["WorkerPool"]

_ResultT = TypeVar("_ResultT")


class WorkerPool:
    """A lazily created, reusable thread executor facade.

    Parameters
    ----------
    max_workers:
        Pool width: how many tasks run at once.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        self.max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
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
        """Dispatch one task; returns its future."""
        if self._closed:
            raise ConfigurationError("the worker pool has been closed")
        return self._ensure_executor().submit(fn, *args)
