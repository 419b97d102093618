"""Amanda driver for the graph backend (Sec. 5.3, "Graph Mode Driver").

Mirrors the paper's TensorFlow driver:

* **graph rewriting** — on submission, the driver copies the vanilla graph,
  runs all analysis routines against the copy's operators (analysis happens
  *statically*, at rewrite time), and realizes the recorded actions as
  ``PyCall`` operator insertions/replacements;
* **graph switching** — the vanilla graph instance the user holds is never
  mutated; ``Session.run`` is intercepted and redirected to the instrumented
  instance, with variable state shared through the common variable store;
* **graph-level caching** — the instrumented graph is cached keyed by what
  the rewrite depends on: the vanilla graph's fingerprint, the resolved
  toolset and the quarantined set; the expensive rewrite/switch only reruns
  when one of those changes (Fig. 12).  A toolset swapped out and back in
  (``manager.replace_tools``, the serving lease) finds its graph again.
  The cache lives as long as the driver stays attached: leaving the
  outermost apply scope detaches it, so a tool applied again re-analyses
  against the current variable values.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from ..core.actions import IPoint
from ..core.config import config
from ..core.context import OpContext
from ..core.faults import InstrumentationError, Provenance
from ..core.ids import OpIdAssigner
from ..core.interceptor import Interceptor
from ..core.manager import register_driver_factory
from ..core.plans import ExecutionPlan, PlanSlice, compile_actions
from ..eager import alloc
from ..graph.core import SKIP_TYPES, Graph, Operation
from ..graph.rewrite import GraphRewriter, copy_graph
from ..graph.session import Session
from .interface import BackendDriver, SymbolicInput

__all__ = ["GraphDriver"]


class _Instrumented(NamedTuple):
    """One rewrite of a vanilla graph under one toolset."""

    graph: Graph
    #: tensor name -> inserted wrapper output the fetch is redirected to
    redirects: dict
    #: bytes charged to the ``amanda`` allocation scope while it lives
    charge: int


class GraphDriver(BackendDriver):
    namespace = "graph"
    mode = "graph"

    def __init__(self, manager, verify: bool | None = None) -> None:
        super().__init__(manager)
        self._interceptor = Interceptor()
        #: (graph id, graph version, digest, tools, quarantined) -> its
        #: rewrite.  LRU-ordered and bounded by ``config.plan_cache_size``
        #: (distinct graphs and toolsets within one attachment).
        self._graph_cache: OrderedDict[tuple, _Instrumented] = OrderedDict()
        #: guards the cache dict and the charge total; the rewrite that
        #: *fills* the cache stays outside the lock — instrumented runs are
        #: serialized by the serving lease, and a rare duplicate rewrite of
        #: the same key is benign (last writer wins)
        self._cache_lock = threading.RLock()
        #: bytes rewrites charged to the ``amanda`` scope and not yet
        #: released; detach releases what is left
        self._charged = 0
        self.rewrite_count = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: run the static verifier on every freshly instrumented graph.
        #: None = auto: on under pytest or with REPRO_VERIFY_GRAPHS=1.
        self.verify = verify
        #: per-op contexts of the most recent rewrite (lint-pass input)
        self.last_contexts: list[OpContext] = []
        #: verification report of the most recent rewrite (when verifying)
        self.last_report = None

    @property
    def _should_verify(self) -> bool:
        if self.verify is not None:
            return self.verify
        return ("PYTEST_CURRENT_TEST" in os.environ
                or os.environ.get("REPRO_VERIFY_GRAPHS") == "1")

    # -- lifecycle --------------------------------------------------------------
    def attach(self) -> None:
        self._interceptor.patch(Session, "run_interceptor", self._intercept_run)

    def detach(self) -> None:
        self._interceptor.restore_all()
        with self._cache_lock:
            self._graph_cache.clear()
            alloc.tracker.release(self._charged, "amanda")
            self._charged = 0
        self.rewrite_count = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.last_contexts = []
        self.last_report = None

    # -- run interception ----------------------------------------------------------
    def _intercept_run(self, session: Session, fetches, feed, run_impl):
        mgr = self.manager
        if not mgr.active or getattr(session, "instrumentation_exempt",
                                     False):
            # exempt sessions (the serving runtime's vanilla lane) always
            # run their own graph, even while another tenant's tools hold
            # the instrumentation lease
            return run_impl(session.graph, fetches, feed)
        caching = mgr.cache_enabled
        entry = self._cache_get(self._key(session.graph)) if caching else None
        if entry is None:
            self.cache_misses += 1
            try:
                entry = self._instrument_graph(
                    session.graph, feed_shapes={
                        name: np.asarray(value).shape
                        for name, value in feed.items()})
            except Exception as exc:
                if mgr.error_policy == "raise":
                    raise
                if not isinstance(exc, InstrumentationError):
                    # rewrite machinery failed realizing recorded actions;
                    # record it with rewrite provenance before falling back
                    mgr.record_failure(InstrumentationError(
                        exc, Provenance(backend=self.namespace),
                        phase="rewrite"))
                mgr.count_fallback("graph.vanilla_graph")
                return run_impl(session.graph, fetches, feed)
            if caching:
                # analysis may have quarantined a tool mid-rewrite: store
                # under the key the *next* lookup will compute, never
                # orphaning the entry under the stale quarantine set
                self._cache_put(self._key(session.graph), entry)
        else:
            self.cache_hits += 1
        mapped = []
        for tensor in fetches:
            target = entry.redirects.get(tensor.name)
            if target is None:
                target = entry.graph.get_tensor(tensor.name)
            mapped.append(target)
        try:
            return run_impl(entry.graph, mapped, feed)
        except InstrumentationError:
            # a callback op failed inside the instrumented graph: switch
            # back to the vanilla graph the user submitted, unless the
            # policy says propagate (provenance already recorded)
            if mgr.error_policy == "raise":
                raise
            mgr.count_fallback("graph.vanilla_graph")
            return run_impl(session.graph, fetches, feed)
        finally:
            if not caching:
                self._release(entry)  # an uncached rewrite dies with its run

    # -- instrumented-graph cache (LRU, bounded) --------------------------------
    def _key(self, graph: Graph) -> tuple:
        """What a rewrite of ``graph`` depends on: the graph itself, the
        resolved toolset and the tools quarantined out of it."""
        mgr = self.manager
        return graph.fingerprint() + (tuple(mgr.tools),
                                      frozenset(mgr.quarantined))

    def _cache_get(self, key: tuple) -> _Instrumented | None:
        with self._cache_lock:
            entry = self._graph_cache.get(key)
            if entry is not None:
                self._graph_cache.move_to_end(key)
            return entry

    def _cache_put(self, key: tuple, entry: _Instrumented) -> None:
        with self._cache_lock:
            replaced = self._graph_cache.pop(key, None)
            if replaced is not None:
                self._release(replaced)
            self._graph_cache[key] = entry
            bound = max(1, config.plan_cache_size)
            while len(self._graph_cache) > bound:
                self._release(self._graph_cache.popitem(last=False)[1])

    def _release(self, entry: _Instrumented) -> None:
        """Return a dropped rewrite's charge to the ``amanda`` scope."""
        with self._cache_lock:
            self._charged -= entry.charge
            alloc.tracker.release(entry.charge, "amanda")

    # -- rewriting ---------------------------------------------------------------
    def _instrument_graph(self, graph: Graph,
                          feed_shapes: dict | None = None) -> _Instrumented:
        self.rewrite_count += 1
        mgr = self.manager
        span = mgr.begin_span()
        try:
            return self._instrument_graph_inner(graph, feed_shapes)
        finally:
            mgr.end_span(span)

    def _instrument_graph_inner(self, graph: Graph,
                                feed_shapes: dict | None) -> _Instrumented:
        mgr = self.manager
        clone, _ = copy_graph(graph)
        # account the instrumented graph instance + per-op contexts as
        # framework bookkeeping memory (Fig. 13), held until the rewrite
        # leaves the cache (or its run ends, uncached)
        charge = 512 * max(1, len(clone.operations))
        alloc.tracker.allocate(charge, scope="amanda")
        with self._cache_lock:
            self._charged += charge
        rewriter = GraphRewriter(clone, verify=self._should_verify)
        redirects: dict = {}
        # stable ids: deterministic assignment over the op stream
        ids = OpIdAssigner()
        snapshot = list(clone.operations)
        backward_of: dict[str, list[Operation]] = {}
        for op in snapshot:
            if op.forward_op is not None:
                backward_of.setdefault(op.forward_op.name, []).append(op)

        # Phase 1: run every analysis routine (analysis is static, at rewrite
        # time — Fig. 4).  Actions are only realized afterwards so that a
        # later op's analysis may still instrument an earlier op (subgraph
        # rewriting).
        analyzed: list[tuple[Operation, OpContext]] = []
        backward_analyzed: list[tuple[Operation, OpContext, OpContext]] = []
        for op in snapshot:
            if op.type in SKIP_TYPES or op.forward_op is not None:
                continue
            op.op_id = ids.assign(op.type)
            context = self._build_forward_context(clone, op)
            mgr.run_analysis(context, IPoint.BEFORE_FORWARD)
            mgr.run_analysis(context, IPoint.AFTER_FORWARD)
            analyzed.append((op, context))

            for bop in backward_of.get(op.name, ()):
                bop.op_id = ids.assign(bop.type)
                bcontext = self._build_backward_context(clone, op, bop, context)
                mgr.run_analysis(bcontext, IPoint.BEFORE_BACKWARD)
                mgr.run_analysis(bcontext, IPoint.AFTER_BACKWARD)
                backward_analyzed.append((bop, bcontext, context))

        # Phase 2: compile each context's actions into an execution plan and
        # realize the plan's slices as graph edits (static replay — the
        # instrumented graph *is* the compiled form of the plan).
        plan_by_context: dict[int, ExecutionPlan] = {}
        for op, context in analyzed:
            plan = compile_actions(context.actions, epoch=mgr.tool_epoch,
                                   op_id=op.op_id,
                                   user_state=context.has_user_state,
                                   context=context,
                                   exclude_tools=mgr.quarantined)
            plan_by_context[id(context)] = plan
            self._realize_forward(rewriter, op, plan.forward, redirects)
        for bop, bcontext, fcontext in backward_analyzed:
            forward_plan = plan_by_context[id(fcontext)]
            backward_plan = compile_actions(bcontext.actions,
                                            epoch=mgr.tool_epoch,
                                            op_id=bcontext.get("_backward_op_id"),
                                            context=bcontext,
                                            exclude_tools=mgr.quarantined)
            # a backward op is addressable by its raw type or the normalized
            # name a mapping tool wrote into the context
            names = (bcontext.get("backward_type") or bop.type, bop.type)
            combined = PlanSlice.concat(forward_plan.backward_slice(names),
                                        backward_plan.backward_slice(names))
            self._realize_backward(rewriter, bop, combined, redirects)

        self.last_contexts = ([context for _, context in analyzed]
                              + [bcontext for _, bcontext, _
                                 in backward_analyzed])

        if self._should_verify:
            # lazy import: analysis sits above the driver in the layering
            from ..analysis.verify import verify_graph
            self.last_report = verify_graph(
                clone, feed_shapes=feed_shapes, redirects=redirects,
                source_graph=graph, raise_on_error=True)

        return _Instrumented(clone, redirects, charge)

    # -- contexts -------------------------------------------------------------------
    def _symbolic_inputs(self, graph: Graph, op: Operation) -> list[SymbolicInput]:
        wrapped = []
        for edge in op.inputs:
            value = None
            if edge.op.type == "Variable":
                value = graph.variables.read(edge.op.name)
            elif edge.op.type == "Const":
                value = edge.op.attrs["value"]
            wrapped.append(SymbolicInput(edge, value))
        return wrapped

    def _build_forward_context(self, graph: Graph, op: Operation) -> OpContext:
        context = OpContext()
        context["_op"] = op
        context["_namespace"] = self.namespace
        context["_namespace_tags"] = self.namespace_tags
        context["_is_forward"] = True
        context["_op_id"] = op.op_id
        context["_inputs"] = self._symbolic_inputs(graph, op)
        context["_outputs"] = [SymbolicInput(t) for t in op.outputs]
        context["_raw_type"] = op.type
        context["_attrs"] = dict(
            (k, v) for k, v in op.attrs.items() if k != "value")
        context["type"] = op.type  # raw TF-style name; MappingTool normalizes
        return context

    def _build_backward_context(self, graph: Graph, op: Operation,
                                bop: Operation,
                                forward_context: OpContext) -> OpContext:
        context = OpContext()
        for key, value in forward_context.items():
            if key not in OpContext.RESERVED:
                context[key] = value
        context["_op"] = op
        context["_namespace"] = self.namespace
        context["_namespace_tags"] = self.namespace_tags
        context["_is_forward"] = False
        context["_op_id"] = op.op_id
        context["_backward_op"] = bop
        context["_backward_name"] = bop.type
        context["_backward_op_id"] = bop.op_id
        context["_inputs"] = self._symbolic_inputs(graph, op)
        context["_outputs"] = [SymbolicInput(t) for t in op.outputs]
        context["_grad_outputs"] = [
            SymbolicInput(t) for t in self._grad_input_edges(bop)]
        context["_grad_inputs"] = [SymbolicInput(t) for t in bop.outputs]
        context["_raw_type"] = op.type
        context["type"] = op.type
        context["backward_type"] = bop.type
        return context

    @staticmethod
    def _grad_input_edges(bop: Operation):
        """The backward op's inputs that carry incoming gradients."""
        return [e for e in bop.inputs if e.op.forward_op is not None
                or e.op.type == "OnesLike"]

    # -- plan realization -----------------------------------------------------------
    # Realization turns a compiled plan slice into graph edits; step
    # semantics (partitioning, selector defaults, observation passthrough)
    # come from repro.core.plans — only the edit geometry lives here.

    #: tags of every realized PyCall: the executor charges the fresh bytes
    #: it produces to the ``tool`` allocation scope
    _TAGS = {"alloc_scope": "tool"}

    def _prov(self, op: Operation, i_point: str,
              tool: str | None = None) -> Provenance:
        return Provenance(tool=tool, op_id=op.op_id, op_type=op.type,
                          i_point=i_point, backend=self.namespace)

    def _realize_forward(self, rewriter: GraphRewriter, op: Operation,
                         plan_slice: PlanSlice,
                         redirects: dict[str, Operation]) -> None:
        runner = self.manager.run_instrumentation
        for step in plan_slice.before:
            indices = step.indices
            if indices is None:
                indices = tuple(range(len(op.inputs)))
            elif not indices:
                # observation-only routine: trigger it off the first input
                indices = (0,) if op.inputs else ()
            if not indices:
                continue
            rewriter.insert_before_inputs(
                op, indices,
                step.pycall(runner, len(indices),
                            self._prov(op, "before_forward_op",
                                       step.action.tool)),
                name=f"PyCall_before_{op.name}",
                tags=self._TAGS)
        for step in plan_slice.after:
            indices = step.indices
            if indices is None:
                indices = tuple(range(len(op.outputs)))
            elif not indices:
                indices = (0,)
            node = rewriter.insert_after_outputs(
                op, indices,
                step.pycall(runner, len(indices),
                            self._prov(op, "after_forward_op",
                                       step.action.tool)),
                name=f"PyCall_after_{op.name}",
                tags=self._TAGS)
            for position, index in enumerate(indices):
                redirects.setdefault(op.outputs[index].name,
                                     node.outputs[position])
        if plan_slice.replace is not None:
            node = rewriter.replace_op(
                op, plan_slice.replace.pycall(
                    runner, len(op.outputs),
                    self._prov(op, "replace_op",
                               plan_slice.replace.action.tool)),
                name=f"PyCall_replace_{op.name}",
                tags=self._TAGS)
            for index, tensor in enumerate(op.outputs):
                redirects.setdefault(tensor.name, node.outputs[index])

    def _realize_backward(self, rewriter: GraphRewriter, bop: Operation,
                          plan_slice: PlanSlice,
                          redirects: dict[str, Operation]) -> None:
        runner = self.manager.run_instrumentation
        grad_edges = self._grad_input_edges(bop)
        grad_positions = [bop.inputs.index(e) for e in grad_edges]
        for step in plan_slice.before:
            indices = step.indices
            if not indices:  # None or (): all incoming gradients
                indices = tuple(range(len(grad_positions)))
            positions = tuple(grad_positions[i] for i in indices
                              if i < len(grad_positions))
            if not positions:
                continue
            rewriter.insert_before_inputs(
                bop, positions,
                step.pycall(runner, len(positions),
                            self._prov(bop, "before_backward_op",
                                       step.action.tool)),
                name=f"PyCall_before_{bop.name}",
                tags=self._TAGS)
        for step in plan_slice.after:
            indices = step.indices
            if not indices:
                indices = tuple(range(len(bop.outputs)))
            indices = tuple(i for i in indices if i < len(bop.outputs))
            if not indices:
                continue
            node = rewriter.insert_after_outputs(
                bop, indices,
                step.pycall(runner, len(indices),
                            self._prov(bop, "after_backward_op",
                                       step.action.tool)),
                name=f"PyCall_after_{bop.name}",
                tags=self._TAGS)
            for position, index in enumerate(indices):
                redirects.setdefault(bop.outputs[index].name,
                                     node.outputs[position])
        if plan_slice.replace is not None:
            node = rewriter.replace_op(
                bop, plan_slice.replace.pycall(
                    runner, len(bop.outputs),
                    self._prov(bop, "replace_backward_op",
                               plan_slice.replace.action.tool)),
                name=f"PyCall_replace_{bop.name}",
                tags=self._TAGS)
            for index, tensor in enumerate(bop.outputs):
                redirects.setdefault(tensor.name, node.outputs[index])


register_driver_factory(GraphDriver)
