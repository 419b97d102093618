"""Graph execution: Session, execution plans, and session hooks.

``Session.run(fetches, feed_dict)`` compiles (and caches) an execution plan —
the dependency closure of the fetches in topological order — then evaluates it
with the runtime compute functions.  Mirrors the TF-1 details the paper leans
on:

* the graph *finalizes* on first submission (user mutations then raise);
* :class:`SessionRunHook` offers the ``before_run``/``after_run`` interface —
  the session-hook instrumentation baseline, which can only attach extra
  fetches, not rewrite the graph;
* the Amanda graph driver intercepts ``Session.run`` via the class-level
  ``run_interceptor`` seam to swap in an instrumented graph (graph switching,
  Sec. 5.3).

One serial executor runs every plan (see DESIGN.md, "Executor").  It walks
the plan's instance list in order and moves values through an
integer-indexed **slot table** assigned at plan-compile time (one stable slot
id per instance output), so the per-op framework overhead is a couple of
list indexings.  Every intermediate is freed — its slots cleared and its
bytes returned to the allocation tracker — right after the step that uses it
last.  One function, :func:`repro.graph.core.lifetime_rule`, computes these
releases for every plan, budgeted or not, and the release never drops bytes
the run still holds:

* a ``PyCall`` or ``Identity`` output may be its own input, so that input
  stays counted for as long as the output lives;
* a captured forward op stashes an ``OpCtx`` for its backward ops; its inputs
  and outputs stay counted until the last backward op in the plan that reads
  the stash, and that op then drops the stash from the run's table.  A
  forward op that no backward op in the plan reads stashes nothing.

Fetched values live until the run returns.  Under ``amanda.config
.memory_budget`` the instance list is the rematerialization schedule
(:mod:`repro.analysis.remat`): recomputed ops repeat, and the same rules
hold for each incarnation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.config import config
from ..eager import alloc
from ..kernels.runtime import runtime as kernel_runtime
from .builder import COMPUTE
from .core import (Graph, GraphTensor, Operation, VariableStore,
                   lifetime_rule, topo_plan)

__all__ = ["Session", "SessionRunHook", "RunContext", "CompiledPlan"]


class SessionRunHook:
    """TF-style session hook: observe runs and request extra fetches."""

    def before_run(self, run_context: "RunContext"):
        """Return extra fetches (list of GraphTensor) or None."""
        return None

    def after_run(self, run_context: "RunContext", run_values) -> None:
        pass


@dataclass
class RunContext:
    session: "Session"
    fetches: list
    feed_dict: dict
    extra_results: dict = field(default_factory=dict)


class _Runtime:
    """Per-run evaluation state handed to compute functions.

    ``stash`` is the run's side table for state one op hands to later ops
    (a captured forward op's ``OpCtx``).  Only ops named in ``stashers``
    stash; an op named in ``stash_drops`` reads its stash for the last time
    in the plan and removes it.
    """

    def __init__(self, feeds: dict[str, np.ndarray], variables: VariableStore,
                 stashers: frozenset, stash_drops: frozenset):
        self.feeds = feeds
        self.variables = variables
        self.stash: dict = {}
        self.stashers = stashers
        self.stash_drops = stash_drops


class CompiledPlan:
    """A cached execution plan: instance order, slot table, release steps.

    Compiled once per ``(graph fingerprint, fetches)`` and replayed by every
    later ``run()``.  Without a memory budget the plan runs each op of the
    topological order once; with ``amanda.config.memory_budget`` the
    rematerialization schedule (:mod:`repro.analysis.remat`) repeats the ops
    it recomputes.  Either instance list is lowered the same way onto an
    integer-indexed **slot table**: every executed instance publishes its
    outputs at ``output_base[i]`` onward, ``input_slots[i]`` holds the slot
    ids instance ``i`` reads, and ``release_after_step[i]`` lists the
    instances whose outputs are freed after step ``i``
    (:func:`repro.graph.core.lifetime_rule`), so the executor never touches
    a name-keyed dict on the hot path.

    Captured backward ops name the forward op whose stash they read in
    ``attrs["forward_name"]``; ``stashers`` holds those forward ops and
    ``stash_drops`` each stash's last reader.
    """

    __slots__ = ("ops", "num_slots", "slot_base", "input_slots",
                 "output_base", "computes", "release_after_step", "stashers",
                 "stash_drops", "remat", "remat_error")

    def __init__(self, ops: list[Operation], fetch_ops: tuple[str, ...],
                 memory_budget: int = 0,
                 feed_shapes: dict[str, tuple] | None = None):
        # -- memory-budgeted schedule (amanda.config.memory_budget) ----------
        self.remat = None
        self.remat_error: str | None = None
        instances = None
        if memory_budget > 0 and ops:
            # looked up on the module at compile time, so a wrapper installed
            # on ``remat.plan_remat`` sees every call
            from ..analysis import remat
            try:
                bytes_of, flops_of, _unknown = remat.op_costs(
                    ops, ops[0].graph, feed_shapes=feed_shapes)
                self.remat = remat.plan_remat(ops, fetch_ops, memory_budget,
                                              bytes_of, flops_of)
                instances = self.remat.instances
            except Exception as exc:  # budgeting must never break execution
                self.remat_error = f"{type(exc).__name__}: {exc}"
        lifetimes = lifetime_rule(ops, fetch_ops)(instances)
        if instances is not None:
            ops = [ops[j] for j in instances]
        self.ops = ops

        # -- slot table: one stable integer slot per instance output ---------
        # incarnations never share slots: one the lifetime rule keeps alive
        # (through an alias or a stash) may be freed after its op's next
        # incarnation published.  A fetched op runs once, so ``slot_base``
        # finds its value by name.
        self.output_base: list[int] = []
        self.slot_base: dict[str, int] = {}
        next_slot = 0
        for op in ops:
            self.output_base.append(next_slot)
            self.slot_base[op.name] = next_slot
            next_slot += len(op.outputs)
        self.num_slots = next_slot
        self.input_slots: list[tuple[int, ...]] = [
            tuple(self.output_base[u] + edge.index
                  for u, edge in zip(read, op.inputs))
            for op, read in zip(ops, lifetimes.reads)]
        # compute callables resolved once at compile time; a None entry
        # (op type registered after this plan compiled) falls back to a
        # registry lookup at execution
        self.computes: list = [COMPUTE.get(op.type) for op in ops]
        self.release_after_step = lifetimes.release_after_step
        self.stashers = lifetimes.stashers
        self.stash_drops = lifetimes.stash_drops

    def __repr__(self) -> str:
        remat = ""
        if self.remat is not None:
            remat = (f", remat={self.remat.num_recomputes} recomputes"
                     f"/{self.remat.budget}B budget")
        return f"CompiledPlan({len(self.ops)} ops{remat})"


class Session:
    """Executes a graph; holds the plan cache and registered hooks."""

    #: class-level interception seam used by the Amanda graph driver:
    #: ``run_interceptor(session, fetches, feed_dict, run_impl) -> results``
    run_interceptor: Callable | None = None

    def __init__(self, graph: Graph, hooks: list[SessionRunHook] | None = None):
        self.graph = graph
        self.hooks: list[SessionRunHook] = list(hooks or [])
        #: LRU-ordered plan cache, bounded by ``config.plan_cache_size``
        self._plan_cache: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        #: guards the plan cache: ``run()`` is safe to call from concurrent
        #: threads on a shared session (the serving runtime's hammer case) —
        #: LRU reorder and eviction happen under this lock
        self._state_lock = threading.RLock()
        #: instrumentation opt-out consulted by the Amanda graph driver: an
        #: exempt session always runs its vanilla graph even while tools are
        #: active.  The serving runtime marks each graph's vanilla-lane
        #: session exempt so an open instrumentation lease for one tenant
        #: can never leak into another tenant's un-sampled requests.
        self.instrumentation_exempt = False
        self.run_count = 0
        #: the plan the most recent run executed — diagnostic access to the
        #: rematerialization schedule (``last_compiled.remat``) under a
        #: memory budget
        self.last_compiled: CompiledPlan | None = None

    def add_hook(self, hook: SessionRunHook) -> None:
        self.hooks.append(hook)

    # -- public entry ---------------------------------------------------------
    def run(self, fetches, feed_dict: dict | None = None):
        if not self.graph.finalized:
            self.graph.finalize()
        single = not isinstance(fetches, (list, tuple))
        fetch_list = [fetches] if single else list(fetches)
        feed = self._normalize_feed(feed_dict or {})

        context = RunContext(self, fetch_list, feed)
        extra: list[GraphTensor] = []
        for hook in self.hooks:
            requested = hook.before_run(context)
            if requested:
                extra.extend(requested)

        all_fetches = fetch_list + extra
        if Session.run_interceptor is not None:
            results = Session.run_interceptor(self, all_fetches, feed,
                                              self._run_impl)
        else:
            results = self._run_impl(self.graph, all_fetches, feed)

        main = results[:len(fetch_list)]
        if extra:
            context.extra_results = dict(zip((t.name for t in extra),
                                             results[len(fetch_list):]))
        for hook in self.hooks:
            hook.after_run(context, main)
        with self._state_lock:
            self.run_count += 1
        return main[0] if single else main

    # -- execution ------------------------------------------------------------
    def _normalize_feed(self, feed_dict: dict) -> dict[str, np.ndarray]:
        feed: dict[str, np.ndarray] = {}
        for key, value in feed_dict.items():
            name = key.op.name if isinstance(key, GraphTensor) else str(key)
            arr = np.asarray(value)
            if np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
            feed[name] = arr
        return feed

    def _plan(self, graph: Graph, fetch_ops: tuple[str, ...],
              memory_budget: int = 0,
              feed_shapes: dict[str, tuple] | None = None) -> CompiledPlan:
        # the whole lookup-or-compile is one critical section: unlocked, a
        # concurrent get/move_to_end/insert/evict on the OrderedDict corrupts
        # the LRU order (or double-evicts) the first time two run() calls
        # share a session — the serving runtime's baseline workload
        key = graph.fingerprint() + (fetch_ops,)
        if memory_budget > 0:
            # the remat schedule depends on the budget and on the feed shapes
            # (byte costs), so budget variants get distinct cache entries; the
            # fingerprint stays in key[:3] so stale-version eviction below
            # keeps working unchanged
            shapes_key = (tuple(sorted(feed_shapes.items()))
                          if feed_shapes else ())
            key = key + (memory_budget, shapes_key)
        with self._state_lock:
            compiled = self._plan_cache.get(key)
            if compiled is not None:
                self._plan_cache.move_to_end(key)
                return compiled
            # evict plans compiled for earlier versions of this same graph:
            # the rewriter mutates instrumented copies across tool epochs, and
            # stale entries would otherwise accumulate without bound
            stale = [cached for cached in self._plan_cache
                     if cached[0] == key[0] and cached[:3] != key[:3]]
            for cached in stale:
                del self._plan_cache[cached]
            plan = topo_plan([graph.get_operation(name) for name in fetch_ops])
            compiled = CompiledPlan(plan, fetch_ops,
                                    memory_budget=memory_budget,
                                    feed_shapes=feed_shapes)
            self._plan_cache[key] = compiled
            # distinct fetch tuples (and distinct graphs) are evicted
            # LRU-first: a long-lived session cycling fetch sets stays bounded
            while len(self._plan_cache) > max(1, config.plan_cache_size):
                self._plan_cache.popitem(last=False)
            return compiled

    def _run_impl(self, graph: Graph, fetches: list[GraphTensor],
                  feed: dict[str, np.ndarray]) -> list[np.ndarray]:
        budget = config.memory_budget
        feed_shapes = ({name: value.shape for name, value in feed.items()}
                       if budget > 0 else None)
        compiled = self._plan(graph, tuple(t.op.name for t in fetches),
                              memory_budget=budget, feed_shapes=feed_shapes)
        self.last_compiled = compiled
        runtime = _Runtime(feed, graph.variables, compiled.stashers,
                           compiled.stash_drops)
        return self._execute(compiled, fetches, runtime)

    def _execute(self, compiled: CompiledPlan, fetches: list[GraphTensor],
                 runtime: _Runtime) -> list[np.ndarray]:
        slots: list = [None] * compiled.num_slots
        # per step, the (bytes, scope) the run still holds for its outputs
        live: list[tuple[int, str] | None] = [None] * len(compiled.ops)
        variables = runtime.variables
        tag_kernels = kernel_runtime.has_subscribers
        computes = compiled.computes
        input_slots = compiled.input_slots
        output_base = compiled.output_base
        release_after_step = compiled.release_after_step
        allocate = alloc.tracker.allocate
        release = self._release_op
        try:
            for index, op in enumerate(compiled.ops):
                compute = computes[index]
                if compute is None:
                    compute = COMPUTE.get(op.type)
                    if compute is None:
                        raise NotImplementedError(
                            f"no compute for op type {op.type!r}")
                    computes[index] = compute
                inputs = [slots[slot] for slot in input_slots[index]]
                if tag_kernels:
                    kernel_runtime.push_tag(f"{op.type}|{op.name}")
                    try:
                        outputs = compute(op, inputs, runtime)
                    finally:
                        kernel_runtime.pop_tag()
                else:
                    outputs = compute(op, inputs, runtime)
                base = output_base[index]
                input_ids = {id(value) for value in inputs}
                nbytes = 0
                for offset, value in enumerate(outputs):
                    slots[base + offset] = value
                    if id(value) in input_ids or variables.owns(value):
                        # aliased pass-throughs and store-backed values (a
                        # Variable compute returns the stored array itself)
                        # are not fresh
                        continue
                    nbytes += np.asarray(value).nbytes
                live[index] = (nbytes, allocate(
                    nbytes, scope=op.tags.get("alloc_scope")))
                for released in release_after_step[index]:
                    release(released, compiled, slots, live)
            return [slots[compiled.slot_base[t.op.name] + t.index]
                    for t in fetches]
        finally:
            # fetched values, and everything an op failure (e.g. a raising
            # instrumentation callback inside a PyCall) left behind
            for index, entry in enumerate(live):
                if entry is not None:
                    release(index, compiled, slots, live)

    @staticmethod
    def _release_op(index: int, compiled: CompiledPlan, slots: list,
                    live: list) -> None:
        """Free step ``index``'s accounting entry and slot values."""
        alloc.tracker.release(*live[index])
        live[index] = None
        base = compiled.output_base[index]
        for slot in range(base, base + len(compiled.ops[index].outputs)):
            slots[slot] = None

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drop the cached plans.

        Idempotent; the session stays usable afterwards (plans recompile on
        the next run).  Prefer the context-manager form: ``with
        Session(graph) as sess: ...``.
        """
        with self._state_lock:
            self._plan_cache.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
