"""Request/response primitives for the serving runtime.

A :class:`ServeRequest` is one tenant inference call moving through the
pipeline: submitted by a client thread, queued under its (tenant, lane) key
by the :class:`~repro.serve.batcher.MicroBatcher`, taken by the next free
worker (with any requests queued behind it under the same key), executed on
its graph's vanilla or instrumented session, and resolved through its
:class:`ServeFuture`.

The future is deliberately tiny — an event plus a result/exception slot —
because the serving runtime is thread-based: clients block on
:meth:`ServeFuture.result` (or poll :meth:`ServeFuture.done`) exactly like a
``concurrent.futures.Future``, without pulling in an executor they do not
own.
"""

from __future__ import annotations

import threading
import time
from typing import Any

__all__ = ["ServeFuture", "ServeRequest"]


class ServeFuture:
    """Resolution slot for one submitted request (set exactly once)."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: BaseException | None = None

    # -- producer side (serving workers) ------------------------------------
    def set_result(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    # -- consumer side (client threads) --------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError("request not resolved within timeout")
        return self._error

    def result(self, timeout: float | None = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError("request not resolved within timeout")
        if self._error is not None:
            raise self._error
        return self._value


class ServeRequest:
    """One enqueued inference call and its bookkeeping timestamps."""

    __slots__ = ("tenant", "feed", "sampled", "future", "enqueued_at")

    def __init__(self, tenant, feed: dict, sampled: bool) -> None:
        self.tenant = tenant
        self.feed = feed
        #: True when this request drew the 1-in-N instrumentation sample
        #: (executed on the tenant's instrumented lane), False for the
        #: vanilla fast path
        self.sampled = sampled
        self.future = ServeFuture()
        self.enqueued_at = time.perf_counter()

    @property
    def key(self) -> tuple:
        """Queue key: requests of one tenant and lane batch together."""
        return (self.tenant.name, self.sampled)

    def __repr__(self) -> str:
        lane = "sampled" if self.sampled else "vanilla"
        return f"ServeRequest(tenant={self.tenant.name!r}, {lane})"
