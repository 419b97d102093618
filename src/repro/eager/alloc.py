"""Tensor allocation accounting for the memory-footprint experiment (Fig. 13).

Every :class:`~repro.eager.tensor.Tensor` (and graph-backend runtime buffer)
registers its byte size here under the *allocation scope* current at creation
time.  The Amanda manager pushes the ``"amanda"`` scope while framework code
runs and the ``"tool"`` scope while user instrumentation routines run, so the
footprint can be split into DNN / framework / tool shares exactly like the
paper's Fig. 13 breakdown.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["AllocationTracker", "tracker", "scope"]


class AllocationTracker:
    """Accumulates live and peak bytes per allocation scope.

    Thread-safe: the serving runtime (``repro.serve``) runs concurrent
    sessions that all account through this process-global instance, so the
    counter read-modify-writes are lock-guarded and the *scope stack* is
    per-thread (a tool scope pushed by one worker must not re-attribute a
    concurrent worker's allocations).  The lock is re-entrant: a garbage
    collection can start inside any locked section that allocates (``reset``
    and ``snapshot`` build dicts) and run a tensor's finalizer, which calls
    :meth:`release` on the thread that already holds the lock.
    """

    SCOPES = ("dnn", "amanda", "tool")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._tls = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.live = dict.fromkeys(self.SCOPES, 0)
            self.peak = dict.fromkeys(self.SCOPES, 0)
            self.total_allocated = dict.fromkeys(self.SCOPES, 0)

    def _scope_stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = ["dnn"]
        return stack

    @property
    def current_scope(self) -> str:
        return self._scope_stack()[-1]

    def push_scope(self, name: str) -> None:
        if name not in self.SCOPES:
            raise ValueError(f"unknown allocation scope {name!r}")
        self._scope_stack().append(name)

    def pop_scope(self) -> None:
        stack = self._scope_stack()
        if len(stack) > 1:
            stack.pop()

    def allocate(self, nbytes: int, scope: str | None = None) -> str:
        scope = scope or self.current_scope
        with self._lock:
            self.live[scope] += nbytes
            self.total_allocated[scope] += nbytes
            if self.live[scope] > self.peak[scope]:
                self.peak[scope] = self.live[scope]
        return scope

    def release(self, nbytes: int, scope: str) -> None:
        with self._lock:
            self.live[scope] -= nbytes

    def snapshot(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                "live": dict(self.live),
                "peak": dict(self.peak),
                "total": dict(self.total_allocated),
            }


#: Process-global tracker shared by both backends.
tracker = AllocationTracker()


@contextmanager
def scope(name: str):
    """Attribute allocations inside the block to ``name``."""
    tracker.push_scope(name)
    try:
        yield
    finally:
        tracker.pop_scope()
