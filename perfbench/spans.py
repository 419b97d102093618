"""The traced run: spans at the program's layer seams, recorded from outside.

:class:`Tracer` wraps public seams of the program and records every span
in memory until the run ends; nothing under ``src/`` changes.  The seams:

* the kernel runtime's subscriber interface (``runtime.subscribe``);
* the ``manager`` instance's ``run_analysis``, ``run_instrumentation`` and
  ``cache_lookup``;
* ``Session.run`` and the ``Session.run_interceptor`` seam the graph driver
  patches (re-wrapped whenever a lease swap re-attaches the driver), plus
  the ``run_impl`` callable the interceptor is handed;
* the ``repro.graph.session.CompiledPlan`` constructor and
  ``repro.analysis.remat.plan_remat``.

A span is (name, start, end, parent, root): the root is the step or request
the span belongs to.  Leaf events that fire hundreds of times per step —
kernel launches, tool routines and analysis routines, action-cache lookups —
are folded into their enclosing span as (count, seconds, bytes) instead of
becoming spans of their own.  A span's self time is its duration minus its
child spans and folded leaves.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager

clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "attrs", "leaves",
                 "children")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 root) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.attrs: dict = {}
        #: folded leaf events: name -> [count, seconds, bytes]
        self.leaves: dict[str, list] = {}
        self.children = 0.0  # seconds covered by child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        leaf_seconds = sum(entry[1] for entry in self.leaves.values())
        return self.duration - self.children - leaf_seconds

    def leaf(self, name: str) -> list:
        return self.leaves.get(name, (0, 0.0, 0))


class Recorder:
    """In-memory span store with per-thread open-span stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        #: id(feed dict) -> root: binds a serving request's worker-side
        #: spans to the request the generator submitted
        self.feed_roots: dict[int, object] = {}
        self._tls = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str, root=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if root is None and parent is not None:
            root = parent.root
        span = Span(name, clock(), parent, root)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self._stack().pop()
        if span.parent is not None:
            span.parent.children += span.duration

    @contextmanager
    def span(self, name: str, root=None):
        span = self.open(name, root)
        try:
            yield span
        finally:
            self.close(span)

    def leaf(self, name: str, seconds: float, nbytes: int = 0) -> None:
        """Fold one leaf event into the innermost open span, if any."""
        stack = self._stack()
        if not stack:
            return
        entry = stack[-1].leaves.get(name)
        if entry is None:
            stack[-1].leaves[name] = [1, seconds, nbytes]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += nbytes

    def by_root(self) -> dict:
        roots: dict = {}
        for span in self.spans:
            roots.setdefault(span.root, []).append(span)
        return roots


class Tracer:
    """Installs and removes the seam wrappers around a :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._undo: list = []

    def install(self) -> None:
        from repro.analysis import remat as remat_module
        from repro.core.manager import manager
        from repro.graph import session as session_module
        from repro.kernels.runtime import runtime as kernel_runtime

        rec = self.rec
        rec.active = True

        def on_kernel(event) -> None:
            rec.leaf("kernel", event.duration, event.bytes_accessed)

        kernel_runtime.subscribe(on_kernel)
        self._undo.append(lambda: kernel_runtime.unsubscribe(on_kernel))

        def folded(name, fn):
            def wrapper(*args, **kwargs):
                if not rec.active:
                    return fn(*args, **kwargs)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.leaf(name, clock() - start)
            return wrapper

        lookup = manager.cache_lookup

        def cache_lookup(op_id):
            record = lookup(op_id)
            if rec.active:
                rec.leaf("core.cache_hit" if record is not None
                         else "core.cache_miss", 0.0)
            return record

        # instance attributes shadow the methods; the graph driver bakes
        # ``run_instrumentation`` into the PyCalls it realizes, so those keep
        # the wrapper after uninstall and fall through on ``rec.active``
        manager.run_analysis = folded("tools.analysis", manager.run_analysis)
        manager.run_instrumentation = folded("tools.routine",
                                             manager.run_instrumentation)
        manager.cache_lookup = cache_lookup
        for name in ("run_analysis", "run_instrumentation", "cache_lookup"):
            self._undo.append(lambda name=name: delattr(manager, name))

        Session = session_module.Session
        original_run = Session.run
        tracer = self

        def run(session, fetches, feed_dict=None):
            if not rec.active:
                return original_run(session, fetches, feed_dict)
            tracer._wrap_interceptor(Session)
            span = rec.open("session.run",
                            root=rec.feed_roots.get(id(feed_dict)))
            try:
                return original_run(session, fetches, feed_dict)
            finally:
                compiled = session.last_compiled
                span.attrs["ops"] = len(compiled.ops) if compiled else 0
                rec.close(span)

        Session.run = run
        self._undo.append(lambda: setattr(Session, "run", original_run))
        self._undo.append(lambda: tracer._unwrap_interceptor(Session))

        original_plan = session_module.CompiledPlan

        class TracedPlan(original_plan):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                with rec.span("session.compile"):
                    super().__init__(*args, **kwargs)

        session_module.CompiledPlan = TracedPlan
        self._undo.append(
            lambda: setattr(session_module, "CompiledPlan", original_plan))

        original_remat = remat_module.plan_remat

        def plan_remat(*args, **kwargs):
            with rec.span("remat.plan"):
                return original_remat(*args, **kwargs)

        remat_module.plan_remat = plan_remat
        self._undo.append(
            lambda: setattr(remat_module, "plan_remat", original_remat))

    def _wrap_interceptor(self, Session) -> None:
        """Wrap the driver's current ``run_interceptor`` (idempotent)."""
        current = Session.run_interceptor
        if current is None or getattr(current, "traced", False):
            return
        rec = self.rec
        driver = getattr(current, "__self__", None)

        def run_impl_of(run_impl):
            def traced_run_impl(graph, fetches, feed):
                with rec.span("session.run_impl"):
                    return run_impl(graph, fetches, feed)
            return traced_run_impl

        def intercept(session, fetches, feed, run_impl):
            hits = getattr(driver, "cache_hits", 0)
            misses = getattr(driver, "cache_misses", 0)
            span = rec.open("graph_driver.intercept")
            try:
                return current(session, fetches, feed, run_impl_of(run_impl))
            finally:
                span.attrs["hit"] = getattr(driver, "cache_hits", 0) > hits
                span.attrs["miss"] = \
                    getattr(driver, "cache_misses", 0) > misses
                rec.close(span)

        intercept.traced = True
        intercept.original = current
        Session.run_interceptor = intercept

    @staticmethod
    def _unwrap_interceptor(Session) -> None:
        current = Session.run_interceptor
        if getattr(current, "traced", False):
            Session.run_interceptor = current.original

    def uninstall(self) -> None:
        self.rec.active = False
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rec: Recorder, primary: list, vanilla: list,
                  setup_root) -> dict[str, float]:
    """Per-layer numbers from the recorded spans, per primary operation.

    ``primary``/``vanilla`` are the root keys of the traced phase's
    primary and vanilla operations (a training step of either replica, or a
    served request); ``setup_root`` is the root of the primary replica's
    first step during the traced set-up.  Layers that do no work on a
    workload read 0.
    """
    roots = rec.by_root()
    ops = max(1, len(primary))

    def spans_of(keys, name=None):
        for key in keys:
            for span in roots.get(key, ()):
                if name is None or span.name == name:
                    yield span

    def leaf_total(keys, name, field):
        return sum(span.leaf(name)[field] for span in spans_of(keys))

    def per_root(key, name, field):
        return sum(span.leaf(name)[field] for span in roots.get(key, ()))

    out: dict[str, float] = {}
    out["kernels.launches"] = leaf_total(primary, "kernel", 0) / ops
    out["kernels.busy_ms"] = leaf_total(primary, "kernel", 1) / ops * 1e3
    out["kernels.mb_moved"] = leaf_total(primary, "kernel", 2) / ops / 1e6
    for layer, leaf in (("analysis", "tools.analysis"),
                        ("routine", "tools.routine")):
        out[f"tools.{layer}_calls"] = leaf_total(primary, leaf, 0) / ops
        out[f"tools.{layer}_ms"] = leaf_total(primary, leaf, 1) / ops * 1e3

    hits = leaf_total(primary, "core.cache_hit", 0)
    misses = leaf_total(primary, "core.cache_miss", 0)
    out["core.action_cache_hit_ratio"] = _ratio(hits, hits + misses)
    # every op the eager driver intercepts looks its plan up exactly once
    eager_ops = (hits + misses) / ops
    out["eager.ops"] = eager_ops

    step_spans = {span.root: span for span in rec.spans
                  if span.parent is None and span.name == "step"}
    dispatch, overhead = [], []
    if eager_ops:
        for key in vanilla:
            span = step_spans.get(key)
            if span is not None:
                dispatch.append((span.duration
                                 - span.leaf("kernel")[1]) / eager_ops)
        for key in primary:
            mine = step_spans.get(key)
            twin = step_spans.get(("vanilla",) + tuple(key[1:]))
            if mine is None or twin is None:
                continue
            tools = (per_root(key, "tools.routine", 1)
                     + per_root(key, "tools.analysis", 1))
            overhead.append((mine.duration - twin.duration - tools)
                            / eager_ops)
    out["eager.dispatch_us"] = _median(dispatch) * 1e6
    out["eager_driver.overhead_us"] = _median(overhead) * 1e6

    setup_capture = [span for span in roots.get(setup_root, ())
                     if span.name == "capture.step"]
    out["capture.trace_ms"] = (setup_capture[0].self_time * 1e3
                               if setup_capture else 0.0)
    out["capture.wrapper_us"] = _median(
        span.self_time for span in spans_of(primary, "capture.step")) * 1e6

    intercepts = list(spans_of(primary, "graph_driver.intercept"))
    per_op_intercept = {}
    for span in intercepts:
        per_op_intercept[span.root] = \
            per_op_intercept.get(span.root, 0.0) + span.self_time
    out["graph_driver.intercept_us"] = _median(
        per_op_intercept.values()) * 1e6
    driver_hits = sum(1 for span in intercepts if span.attrs.get("hit"))
    missed = [span for span in intercepts if span.attrs.get("miss")]
    out["graph_driver.cache_hit_ratio"] = _ratio(
        driver_hits, driver_hits + len(missed))
    out["graph_driver.rewrites"] = len(missed) / ops
    out["graph_driver.rewrite_ms"] = _mean(
        span.self_time for span in missed) * 1e3

    runs = list(spans_of(primary, "session.run"))
    out["session.ops"] = sum(span.attrs.get("ops", 0) for span in runs) / ops
    # the session layer's own time: Session.run's self time plus the self
    # time of the run_impl the graph driver calls back into
    impl_time: dict[int, float] = {}
    for span in spans_of(primary, "session.run_impl"):
        run = span.parent
        while run is not None and run.name != "session.run":
            run = run.parent
        if run is not None:
            impl_time[id(run)] = impl_time.get(id(run), 0.0) + span.self_time
    out["session.dispatch_us"] = _median(
        (run.self_time + impl_time.get(id(run), 0.0)) / run.attrs["ops"]
        for run in runs if run.attrs.get("ops")) * 1e6
    out["session.plan_compiles"] = \
        sum(1 for _ in spans_of(primary, "session.compile")) / ops
    out["session.compile_ms"] = _mean(
        span.self_time for span in rec.spans
        if span.name == "session.compile") * 1e3
    out["remat.plan_ms"] = _mean(
        span.duration for span in rec.spans
        if span.name == "remat.plan") * 1e3
    return out
