"""Amanda core: tool management, callback management, caching, control APIs.

The manager is the backend-independent layer (Fig. 3).  It

* resolves the tool dependency graph (topological order, cycle detection) so
  mapping/transformation tools run before the tools that consume them;
* triggers analysis routines at the four instrumentation points and records
  the actions they produce;
* owns the **action cache**: per stable op-id, the actions recorded the first
  time an operator is analyzed are replayed on later executions without
  re-running analysis routines (Sec. 5.2/5.3, evaluated in Fig. 12);
* evaluates instrumentation routines with AD isolation (instrumented code does
  not alter the backward graph unless explicitly enabled) and tool-scoped
  memory accounting;
* exposes the control APIs of Lst. 5 (``apply``/``disabled``/``enabled``/
  ``cache_disabled``/``cache_enabled``);
* keeps the process-level counters — failures, the drivers' fallbacks,
  plan compiles and replays — and reports them, with the kernel launches,
  in one :meth:`InstrumentationManager.snapshot`.
"""

from __future__ import annotations

import copy
import threading
import time
from contextlib import contextmanager
from typing import Callable

from ..eager import alloc
from ..eager.dispatch import enable_grad, no_grad
from ..kernels.runtime import runtime as kernel_runtime
from .actions import Action, IPoint
from .context import OpContext
from .faults import (FALLBACK_REASONS, InstrumentationError, Provenance,
                     check_error_policy)
from .ids import OpIdAssigner
from .plans import ExecutionPlan, PlanKind, compile_plan
from .tool import Tool

__all__ = ["InstrumentationManager", "manager", "apply", "disabled", "enabled",
           "cache_disabled", "cache_enabled", "allow_instrumented_ad",
           "new_iteration", "register_driver_factory", "error_policy",
           "InstrumentationError", "Provenance"]


class Span:
    """An open framework-time span (Fig. 11 accounting).

    Created by :meth:`InstrumentationManager.begin_span`; closing is
    idempotent so drivers can close eagerly on the happy path *and*
    unconditionally in a ``finally`` block — the error path can then never
    leak an open span (which would permanently skew the framework/tool
    breakdown).
    """

    __slots__ = ("start", "tool_before", "framework_before", "closed")

    def __init__(self, start: float, tool_before: float,
                 framework_before: float) -> None:
        self.start = start
        self.tool_before = tool_before
        self.framework_before = framework_before
        self.closed = False


class CachedOpRecord:
    """Per-op-id cache entry: recorded actions plus the analyzed context."""

    __slots__ = ("forward_actions", "backward_actions", "context", "user_state",
                 "plan")

    def __init__(self) -> None:
        self.forward_actions: list[Action] = []
        self.backward_actions: list[Action] = []
        self.context: OpContext | None = None
        #: True when analysis stored user keys in the context (e.g. a pruning
        #: mask) that backward contexts must still see — disables the vanilla
        #: fast path even with no forward actions
        self.user_state = False
        #: compiled execution plan; attached by the manager at cache-store
        #: time and recompiled on epoch change / ``cache_append``
        self.plan: ExecutionPlan | None = None

    @property
    def empty(self) -> bool:
        return (not self.forward_actions and not self.backward_actions
                and not self.user_state)


_driver_factories: list[Callable[["InstrumentationManager"], object]] = []


def register_driver_factory(factory) -> None:
    """Backends register a driver factory at import time (Fig. 7)."""
    _driver_factories.append(factory)


class InstrumentationManager:
    """Singleton coordinating tools, drivers, ids and caches."""

    def __init__(self) -> None:
        self.tools: list[Tool] = []
        self.enabled = True
        self.cache_enabled = True
        self.instrumented_ad = False
        self.ids = OpIdAssigner()
        self.backward_ids = OpIdAssigner(seed=0xB5EED)
        #: eager-mode action cache: op_id -> CachedOpRecord
        self.action_cache: dict[int, CachedOpRecord] = {}
        #: bumped whenever the active toolset or the quarantine set changes;
        #: compiled per-op plans (``plan_for``) are stale once it moves
        self.tool_epoch = 0
        self._drivers: list = []
        #: the toolset of each enclosing apply scope, innermost last
        self._enclosing: list[list[Tool]] = []
        # Fig. 11 breakdown accounting
        self.timers = {"framework": 0.0, "tool": 0.0}
        # plan totals (snapshot()["plans"]); bumped unlocked on the replay
        # path, like the timers
        self._plans_compiled = 0
        self._plans_recompiled = 0
        self._plan_replays = 0
        # fault-isolation layer (snapshot()["faults"] and ["fallbacks"])
        #: what happens when a tool routine raises: "raise" | "quarantine"
        #: | "record" (see repro.core.faults)
        self.error_policy = "raise"
        #: names of tools disabled after a failure under "quarantine"
        self.quarantined: set[str] = set()
        #: most recent failures (full provenance), capped
        self.errors: list[InstrumentationError] = []
        self._error_total = 0
        self._errors_by_tool: dict[str, int] = {}
        self._errors_by_i_point: dict[str, int] = {}
        self._errors_by_op: dict[str, int] = {}
        self._fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        #: guards the failure and fallback counters, error log and
        #: quarantine set: tools fail from concurrent serving workers, and
        #: unlocked read-modify-writes would lose increments (and
        #: ``snapshot()`` would return torn reports)
        self._health_lock = threading.RLock()

    #: how many recent failures ``errors`` retains (counters stay complete)
    MAX_RECORDED_ERRORS = 100

    # -- tool management ------------------------------------------------------
    @staticmethod
    def resolve_tools(tools: tuple[Tool, ...]) -> list[Tool]:
        """Dependency-closure topological order; raises on cycles."""
        order: list[Tool] = []
        state: dict[int, str] = {}

        def visit(tool: Tool, chain: list[Tool]) -> None:
            mark = state.get(id(tool))
            if mark == "done":
                return
            if mark == "visiting":
                cycle = " -> ".join(t.name for t in chain + [tool])
                raise ValueError(f"instrumentation tool dependency cycle: {cycle}")
            state[id(tool)] = "visiting"
            for dependency in tool.dependencies:
                visit(dependency, chain + [tool])
            state[id(tool)] = "done"
            order.append(tool)

        for tool in tools:
            visit(tool, [])
        return order

    @property
    def active(self) -> bool:
        return self.enabled and bool(self.tools)

    # -- lifecycle -------------------------------------------------------------
    def activate(self, tools: tuple[Tool, ...]) -> None:
        """Open an apply scope: ``tools`` join the enclosing scope's toolset.

        The first scope attaches the drivers.  If a tool's ``on_apply``
        raises, the scope closes again — ``on_remove`` for the tools already
        applied — before the error propagates.
        """
        previous = self.tools
        self._enclosing.append(previous)
        self.tools = previous + [t for t in self.resolve_tools(tools)
                                 if t not in previous]
        self._invalidate()
        if not self._drivers:
            for factory in _driver_factories:
                driver = factory(self)
                driver.attach()
                self._drivers.append(driver)
        try:
            self._apply_joining(previous)
        except BaseException:
            self.deactivate()
            raise

    def deactivate(self) -> None:
        """Close the innermost apply scope; a no-op when none is open.

        The enclosing scope's toolset comes back and the tools that leave
        get ``on_remove``.  Closing the outermost scope detaches the drivers
        and lifts the quarantine.
        """
        if not self._enclosing:
            return
        previous = self._enclosing.pop()
        removed = [t for t in self.tools if t not in previous]
        self.tools = previous
        if not self._enclosing:
            for driver in self._drivers:
                driver.detach()
            self._drivers = []
            # quarantine is scoped to the apply scope that observed the
            # failure; the error log survives for post-mortem (reset_health)
            with self._health_lock:
                self.quarantined.clear()
        for tool in removed:
            tool.on_remove()
        self._invalidate()

    def replace_tools(self, tools: tuple[Tool, ...]) -> None:
        """Swap the open scope's toolset for ``tools`` in place.

        Unlike ``deactivate()`` followed by ``activate()``, the drivers stay
        attached and keep their caches; the graph driver keys its
        instrumented graphs by toolset, so a toolset that comes back finds
        its graphs again.  Tools leaving get ``on_remove``, tools entering
        ``on_apply``; the quarantine set, the action cache and the op ids
        reset as for a fresh scope.  If an ``on_apply`` raises, the scope
        stays open with the tools that were applied.
        """
        if not self._enclosing:
            raise RuntimeError("replace_tools() needs an open apply scope")
        previous = self.tools
        self.tools = self.resolve_tools(tools)
        with self._health_lock:
            self.quarantined.clear()
        self._invalidate()
        for tool in previous:
            if tool not in self.tools:
                tool.on_remove()
        self._apply_joining(previous)

    def _apply_joining(self, previous: list[Tool]) -> None:
        """``on_apply`` for the tools not in ``previous``.  If one raises,
        the toolset drops the tools not applied, so none of them later gets
        an ``on_remove`` it never had the ``on_apply`` for."""
        applied: list[Tool] = []
        try:
            for tool in self.tools:
                if tool not in previous:
                    tool.on_apply()
                    applied.append(tool)
        except BaseException:
            self.tools = [t for t in self.tools
                          if t in previous or t in applied]
            raise

    def _invalidate(self) -> None:
        self.tool_epoch += 1
        self.clear_action_cache()
        self.ids.reset()
        self.backward_ids.reset()

    def new_iteration(self) -> None:
        self.ids.new_iteration()
        self.backward_ids.new_iteration()
        for tool in self.tools:
            for callback in tool.iteration_callbacks:
                callback(self.ids.iteration)

    # -- analysis-routine triggering -------------------------------------------
    def run_analysis(self, context: OpContext, i_point: IPoint) -> None:
        """Trigger the analysis routines registered at ``i_point``.

        Tools run in dependency order; each may transform the context for the
        tools after it (context transformation, Fig. 6).  A raising routine
        is handled per :attr:`error_policy`: ``"raise"`` propagates a
        provenance-carrying :class:`InstrumentationError` (after the context
        write-state is restored), ``"quarantine"`` disables the tool and
        drops the actions it recorded into this context, ``"record"`` counts
        the failure and moves on to the next routine.
        """
        backward = i_point in (IPoint.BEFORE_BACKWARD, IPoint.AFTER_BACKWARD)
        require_outputs = i_point in (IPoint.AFTER_FORWARD, IPoint.AFTER_BACKWARD)
        start = time.perf_counter()
        tool_before = self.timers["tool"]
        try:
            for tool in self.tools:
                if tool.name in self.quarantined:
                    continue
                registrations = tool.registrations_at(backward, require_outputs)
                if not registrations:
                    continue
                context._current_tool = tool.name
                context._transform_write = tool.is_context_transform
                for registration in registrations:
                    t0 = time.perf_counter()
                    try:
                        registration.callback(context)
                    except Exception as exc:
                        self.timers["tool"] += time.perf_counter() - t0
                        error = InstrumentationError(
                            exc, self._context_provenance(tool.name, context,
                                                          i_point),
                            phase="analysis")
                        self.record_failure(error)
                        if self.error_policy == "raise":
                            raise error from exc
                        if self.error_policy == "quarantine":
                            self.quarantine(tool.name)
                            context.actions = [a for a in context.actions
                                               if a.tool != tool.name]
                            break  # skip the tool's remaining registrations
                    else:
                        self.timers["tool"] += time.perf_counter() - t0
        finally:
            context._current_tool = None
            context._transform_write = True
            total = time.perf_counter() - start
            # framework share = dispatch minus the callback time already
            # accrued to timers["tool"] inside this call (Fig. 11 breakdown)
            tool_this_call = self.timers["tool"] - tool_before
            self.timers["framework"] += max(0.0, total - tool_this_call)

    @staticmethod
    def _context_provenance(tool: str | None, context: OpContext,
                            i_point: IPoint) -> Provenance:
        return Provenance(
            tool=tool,
            op_id=(context.get_op_id() if context.is_forward()
                   else context.get_backward_op_id()),
            op_type=context.get("_raw_type", context.get("type")),
            i_point=i_point.value,
            backend=context.namespace)

    # -- instrumentation-routine evaluation --------------------------------------
    def run_instrumentation(self, func: Callable, args: tuple, kwargs: dict,
                            provenance: Provenance | None = None):
        """Evaluate one instrumentation routine with AD/memory isolation.

        A raising routine is counted in :meth:`snapshot` (and its tool
        quarantined under the ``"quarantine"`` policy), then an
        :class:`InstrumentationError` carrying ``provenance`` propagates —
        always, regardless of policy: recovery (substituting the vanilla
        computation) needs backend knowledge, so it lives at the drivers'
        recovery points, which consult :attr:`error_policy`.
        """
        t0 = time.perf_counter()
        guard = enable_grad() if self.instrumented_ad else no_grad()
        try:
            with guard, alloc.scope("tool"):
                result = func(*args, **kwargs)
        except InstrumentationError:
            raise  # already wrapped/recorded by a nested evaluation
        except Exception as exc:
            error = InstrumentationError(exc, provenance,
                                         phase="instrumentation")
            self.record_failure(error)
            if self.error_policy == "quarantine" and error.tool:
                self.quarantine(error.tool)
            raise error from exc
        finally:
            self.timers["tool"] += time.perf_counter() - t0
        return result

    def record_framework_time(self, seconds: float) -> None:
        self.timers["framework"] += seconds

    def begin_span(self) -> Span:
        """Open a framework-time span (Fig. 11 accounting).

        Pairs with :meth:`end_span`, which attributes the wall time of the
        span *minus* any tool/framework time accrued inside it — so nested
        ``run_analysis``/``run_instrumentation`` calls are never counted
        twice and ``framework + tool <= wall`` holds structurally.  Closing
        is idempotent (see :class:`Span`): drivers close eagerly before
        handing off to kernel execution and again in a ``finally`` block, so
        error paths cannot leak an open span.
        """
        return Span(time.perf_counter(), self.timers["tool"],
                    self.timers["framework"])

    def end_span(self, span: Span) -> None:
        if span.closed:
            return
        span.closed = True
        elapsed = time.perf_counter() - span.start
        inner = (self.timers["tool"] - span.tool_before
                 + self.timers["framework"] - span.framework_before)
        self.timers["framework"] += max(0.0, elapsed - inner)

    def reset_timers(self) -> None:
        self.timers = {"framework": 0.0, "tool": 0.0}

    # -- fault isolation -----------------------------------------------------------
    def set_error_policy(self, policy: str) -> None:
        self.error_policy = check_error_policy(policy)

    def record_failure(self, error: InstrumentationError) -> None:
        """Count a routine failure (full provenance) in :meth:`snapshot`."""
        p = error.provenance
        with self._health_lock:
            self._error_total += 1
            for counts, key in ((self._errors_by_tool, p.tool or "<unknown>"),
                                (self._errors_by_i_point,
                                 p.i_point or "<unknown>"),
                                (self._errors_by_op,
                                 f"{p.op_type or '?'}:{p.op_id}")):
                counts[key] = counts.get(key, 0) + 1
            self.errors.append(error)
            if len(self.errors) > self.MAX_RECORDED_ERRORS:
                del self.errors[0]

    def count_fallback(self, reason: str) -> None:
        """Count a driver's fallback under one of
        :data:`~repro.core.faults.FALLBACK_REASONS`."""
        with self._health_lock:
            self._fallbacks[reason] += 1

    def quarantine(self, tool_name: str) -> None:
        """Disable ``tool_name``'s routines and recorded actions.

        Reuses the epoch invalidation mechanism: bumping ``tool_epoch``
        (without clearing caches or ids) forces every compiled plan to
        recompile, graph-mode instrumented graphs are keyed by the
        quarantine set, and plan compilation excludes quarantined tools'
        actions, so subsequent execution is vanilla with respect to the
        tool.
        """
        with self._health_lock:
            if tool_name in self.quarantined:
                return
            self.quarantined.add(tool_name)
            self.tool_epoch += 1

    def clear_quarantine(self) -> None:
        """Re-enable all quarantined tools (plans recompile via the epoch)."""
        with self._health_lock:
            if self.quarantined:
                self.quarantined.clear()
                self.tool_epoch += 1

    def reset_health(self) -> None:
        """Zero the failure and fallback counters and drop the error log."""
        with self._health_lock:
            self.errors = []
            self._error_total = 0
            self._errors_by_tool = {}
            self._errors_by_i_point = {}
            self._errors_by_op = {}
            self._fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)

    # -- observability -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every process-level counter, in one deep-copied report.

        Its four keys are present whether or not a scope is open:

        * ``faults``: the error policy, failure counts in total and per
          tool / instrumentation point / op, the quarantined tools and the
          most recent failures with full provenance;
        * ``fallbacks``: one count per
          :data:`~repro.core.faults.FALLBACK_REASONS` code;
        * ``plans``: per-op plans ``compiled``, ``recompiled`` (stale plans
          compiled again) and ``replays`` (cached-path lookups), plus
          ``by_kind`` over the live action cache;
        * ``kernels``: kernel ``launches`` and profiler ``subscribers``.

        The report is assembled under the lock the failure counters mutate
        under, so a reader concurrent with failing tools never sees totals
        that disagree with the per-key breakdowns; counts survive the apply
        scope and go back to zero only in :meth:`reset_health`.
        """
        with self._health_lock:
            by_kind = {kind.value: 0 for kind in PlanKind}
            for record in list(self.action_cache.values()):
                if record.plan is not None:
                    by_kind[record.plan.kind.value] += 1
            report = {
                "faults": {
                    "policy": self.error_policy,
                    "errors": self._error_total,
                    "by_tool": self._errors_by_tool,
                    "by_i_point": self._errors_by_i_point,
                    "by_op": self._errors_by_op,
                    "quarantined": sorted(self.quarantined),
                    "recent": [error.summary() for error in self.errors],
                },
                "fallbacks": self._fallbacks,
                "plans": {
                    "compiled": self._plans_compiled,
                    "recompiled": self._plans_recompiled,
                    "replays": self._plan_replays,
                    "by_kind": by_kind,
                },
                "kernels": {
                    "launches": kernel_runtime.launch_count,
                    "subscribers": kernel_runtime.subscriber_count,
                },
            }
            return copy.deepcopy(report)

    # -- cache -------------------------------------------------------------------
    def clear_action_cache(self) -> None:
        """Drop every cached op record and tell the drivers."""
        self.action_cache.clear()
        for driver in self._drivers:
            driver.action_cache_cleared()

    def cache_lookup(self, op_id: int) -> CachedOpRecord | None:
        if not self.cache_enabled:
            return None
        return self.action_cache.get(op_id)

    def cache_store(self, op_id: int, record: CachedOpRecord) -> None:
        # compile the plan even when caching is disabled: the record's own
        # execution this call still replays through it
        self.plan_for(record, op_id=op_id, replay=False)
        if self.cache_enabled:
            self.action_cache[op_id] = record

    def cache_append(self, op_id: int, action: Action) -> bool:
        """Late-register an action on an already-cached operator.

        Used by tools (e.g. subgraph rewriting) whose analysis of a *later*
        operator retroactively instruments an earlier one; in eager mode the
        action takes effect from the next execution of that operator.
        Invalidates the record's compiled plan so a stale fast-path
        classification (e.g. a record promoted to ``VANILLA``) cannot
        survive the append.
        """
        record = self.action_cache.get(op_id)
        if record is None:
            return False
        if action.type.is_backward:
            record.backward_actions.append(action)
        else:
            record.forward_actions.append(action)
        if record.plan is not None:
            record.plan.invalidate()
        return True

    # -- execution plans ----------------------------------------------------------
    def plan_for(self, record: CachedOpRecord, op_id: int | None = None,
                 replay: bool = True) -> ExecutionPlan:
        """The record's compiled plan, recompiling when stale.

        A plan is stale when it predates the current ``tool_epoch`` or was
        explicitly invalidated (``cache_append``).  ``replay`` counts the
        lookup as a cached-path replay.
        """
        plan = record.plan
        if plan is None or plan.epoch != self.tool_epoch:
            if plan is not None:
                self._plans_recompiled += 1
                if op_id is None:
                    op_id = plan.op_id
            plan = compile_plan(record, epoch=self.tool_epoch, op_id=op_id,
                                exclude_tools=self.quarantined)
            record.plan = plan
            self._plans_compiled += 1
        if replay:
            self._plan_replays += 1
        return plan

    def plan_stats(self) -> dict:
        """``snapshot()["plans"]``, kept for callers that read ``compiled``."""
        return self.snapshot()["plans"]


#: process-global manager instance
manager = InstrumentationManager()


# ---------------------------------------------------------------------------
# control APIs (Lst. 5)
# ---------------------------------------------------------------------------

@contextmanager
def apply(*tools: Tool):
    """Apply instrumentation tools to all DNN execution inside the block."""
    manager.activate(tools)
    try:
        yield manager
    finally:
        manager.deactivate()


@contextmanager
def disabled():
    """Temporarily disable instrumentation inside an ``apply`` scope."""
    previous = manager.enabled
    manager.enabled = False
    try:
        yield
    finally:
        manager.enabled = previous


@contextmanager
def enabled():
    previous = manager.enabled
    manager.enabled = True
    try:
        yield
    finally:
        manager.enabled = previous


@contextmanager
def cache_disabled():
    """Disable the action cache (every execution re-runs analysis routines)."""
    previous = manager.cache_enabled
    manager.cache_enabled = False
    manager.clear_action_cache()
    try:
        yield
    finally:
        manager.cache_enabled = previous


@contextmanager
def cache_enabled():
    previous = manager.cache_enabled
    manager.cache_enabled = True
    try:
        yield
    finally:
        manager.cache_enabled = previous


@contextmanager
def allow_instrumented_ad():
    """Let inserted instrumentation routines participate in backward (expert)."""
    previous = manager.instrumented_ad
    manager.instrumented_ad = True
    try:
        yield
    finally:
        manager.instrumented_ad = previous


@contextmanager
def error_policy(policy: str):
    """Select what happens when a tool routine raises inside the block.

    ``"raise"`` (default) propagates a provenance-carrying
    :class:`InstrumentationError` after the drivers have cleanly unwound;
    ``"quarantine"`` disables the failing tool and continues vanilla;
    ``"record"`` counts the failure in ``manager.snapshot()["faults"]``
    and continues.
    """
    previous = manager.error_policy
    manager.set_error_policy(policy)
    try:
        yield
    finally:
        manager.error_policy = previous


def new_iteration() -> None:
    """Explicitly mark an iteration boundary (resets occurrence counters)."""
    manager.new_iteration()
