"""Work-conserving request queue: one FIFO per (tenant, lane) key.

Requests queue in arrival order under their (tenant, lane) key.  A free
worker takes the oldest queued request at once, together with up to
``max_batch - 1`` more requests already queued under the same key, so a
worker never sleeps while work is queued and a lone request never waits for
company.  The key whose head request is oldest is served first, so no
tenant can starve another.

A batch is a *dispatch* grouping only: its requests run back to back on
one session (a sampled batch under one lease acquire), one ``session.run``
each, so a served response stays bit-identical to a direct ``session.run``.

The batcher is the single synchronization point between client threads
(:meth:`put`) and serving workers (:meth:`take`); everything is guarded by
one condition variable.
"""

from __future__ import annotations

import threading
from collections import deque

from .queue import ServeRequest

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Thread-safe per-key FIFO queue that hands out same-key batches."""

    def __init__(self, max_batch: int) -> None:
        self.max_batch = max(1, int(max_batch))
        self._cond = threading.Condition()
        #: (tenant, lane) -> its queued requests, oldest first; a key is
        #: present only while it has queued requests
        self._queues: dict[tuple, deque[ServeRequest]] = {}
        self._stopped = False
        # observability (``ServeRuntime.snapshot()["queue"]``)
        self.enqueued = 0
        self.batches = 0

    # -- producer side --------------------------------------------------------
    def put(self, request: ServeRequest) -> None:
        with self._cond:
            if self._stopped:
                raise RuntimeError("serving queue is stopped")
            self._queues.setdefault(request.key, deque()).append(request)
            self.enqueued += 1
            self._cond.notify()

    # -- consumer side --------------------------------------------------------
    def take(self, timeout: float | None = None) -> list[ServeRequest] | None:
        """The oldest queued request plus up to ``max_batch - 1`` more of its
        key, or ``None`` on timeout or once stopped and drained."""
        with self._cond:
            self._cond.wait_for(lambda: self._queues or self._stopped,
                                timeout)
            if not self._queues:
                return None
            key = min(self._queues,
                      key=lambda k: self._queues[k][0].enqueued_at)
            queue = self._queues[key]
            batch = [queue.popleft()
                     for _ in range(min(self.max_batch, len(queue)))]
            if not queue:
                del self._queues[key]
            self.batches += 1
            return batch

    # -- lifecycle -------------------------------------------------------------
    def stop(self) -> None:
        """Stop accepting requests; queued ones are still handed out."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    @property
    def pending(self) -> int:
        """Requests enqueued but not yet handed to a worker."""
        with self._cond:
            return sum(len(queue) for queue in self._queues.values())

    def stats(self) -> dict:
        with self._cond:
            return {
                "enqueued": self.enqueued,
                "batches": self.batches,
                # always 0, since no batch waits for a deadline; kept for
                # readers that compute a deadline-flush ratio
                "deadline_flushes": 0,
                "max_batch": self.max_batch,
            }
