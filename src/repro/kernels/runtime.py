"""Simulated kernel runtime with a CUPTI-like profiling interface.

The paper's Amanda framework demonstrates synergy with low-level kernel
instrumentation (CUPTI, Sec. 6.3).  We do not have GPUs here, so every
numpy-level numeric routine in this reproduction is dispatched through a
:class:`KernelRuntime` as a named *kernel launch*.  Profilers subscribe to the
runtime (like ``cuptiSubscribe``) and receive one :class:`KernelEvent` per
launch with timing and byte-count metadata.  Amanda's operator-level
instrumentation points can then bracket these kernel events and aggregate them
per operator, which is exactly the Fig. 8 experiment.

The runtime is **thread-safe**: serving workers launch kernels from several
threads at once, so

* correlation-tag stacks are per-thread (a tag pushed on one worker is
  invisible to the others — the CUPTI thread-local correlation model);
* ``launch_count`` and the subscriber list are guarded by a lock.

Every event is delivered inline, on the launching thread, as the kernel
returns.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "KernelEvent",
    "KernelRuntime",
    "runtime",
    "launch",
]


@dataclass
class KernelEvent:
    """A record of one kernel launch, delivered to subscribers.

    Mirrors the fields a CUPTI activity record would carry: kernel name, the
    operator-level correlation tag set by the framework, wall-clock launch
    time, duration, and the number of bytes touched by the kernel.
    """

    name: str
    correlation_tag: str | None
    start_time: float
    duration: float
    bytes_accessed: int
    meta: dict = field(default_factory=dict)


def _nbytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


class KernelRuntime:
    """Dispatches named kernels and notifies subscribed profilers.

    The runtime keeps a stack of *correlation tags* per thread: the
    instrumentation framework pushes the current operator's identity before
    the operator body runs, so kernel events can be attributed to operators
    (the CUPTI correlation-id mechanism).
    """

    def __init__(self) -> None:
        self._subscribers: list[Callable[[KernelEvent], None]] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.launch_count = 0

    # -- subscription (cuptiSubscribe / cuptiUnsubscribe analogs) ----------
    def subscribe(self, callback: Callable[[KernelEvent], None]) -> None:
        """Register ``callback`` for kernel events."""
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[KernelEvent], None]) -> None:
        with self._lock:
            self._subscribers.remove(callback)

    @property
    def has_subscribers(self) -> bool:
        with self._lock:
            return bool(self._subscribers)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    # -- correlation tags (per-thread) --------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def push_tag(self, tag: str) -> None:
        self._stack().append(tag)

    def pop_tag(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def current_tag(self) -> str | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- launch -------------------------------------------------------------
    def launch(self, name: str, fn: Callable[..., Any], *args: Any,
               meta: dict | None = None, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as the kernel ``name``.

        When no profiler is subscribed this is a near-zero-overhead
        passthrough (one locked counter bump), so un-instrumented execution
        stays fast.
        """
        with self._lock:
            self.launch_count += 1
            subscribers = tuple(self._subscribers)
        if not subscribers:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        duration = time.perf_counter() - start
        event = KernelEvent(
            name=name,
            correlation_tag=self.current_tag(),
            start_time=start,
            duration=duration,
            bytes_accessed=_nbytes(args) + _nbytes(result),
            meta=dict(meta or {}),
        )
        for callback in subscribers:
            callback(event)
        return result


#: Process-global runtime instance used by both execution backends.
runtime = KernelRuntime()


def launch(name: str, fn: Callable[..., Any], *args: Any,
           meta: dict | None = None, **kwargs: Any) -> Any:
    """Module-level convenience wrapper over :data:`runtime`."""
    return runtime.launch(name, fn, *args, meta=meta, **kwargs)
