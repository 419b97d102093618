"""Amanda driver for the eager backend (Sec. 5.3, "Eager Mode Driver").

Implementation mirrors the paper's PyTorch driver:

* **monkey-patching via registration snooping** — the driver subscribes to the
  operator registry and patches every operator's ``call_override`` (and
  ``backward_call_override``), including operators registered later;
* **lazy analysis** — analysis routines run the first time an operator
  executes; the recorded actions are compiled into an
  :class:`~repro.core.plans.ExecutionPlan` cached per stable op id, and later
  executions replay the plan (the action cache of Fig. 12).  ``VANILLA`` ops
  take the uninstrumented fast path; every other op, analyzed or replayed,
  runs through one forward path (``_forward``) and its backward ops through
  one backward path (``_backward``);
* **backward tracking** — each instrumented forward op links its backward
  ops to its call record, so the driver supplies them the forward context
  (operator mapping, Fig. 5) and replays the forward plan's backward slice
  alongside actions recorded by backward analysis routines;
* **iteration boundaries** — backward completion and top-level module entry
  reset occurrence counters so op IDs stay consistent across iterations.

All action evaluation is delegated to :mod:`repro.core.plans`; the only
backend-specific pieces are the :class:`~repro.core.plans.TensorAdapter`
subclasses saying how eager tensors cross the instrumentation boundary.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.actions import IPoint
from ..core.context import OpContext
from ..core.faults import InstrumentationError, Provenance
from ..core.interceptor import Interceptor
from ..core.manager import CachedOpRecord, register_driver_factory
from ..core.plans import (EMPTY_SLICE, NDARRAY_ADAPTER, ExecutionPlan,
                          PlanKind, PlanSlice, TensorAdapter,
                          compile_backward_slice, compile_forward_slice,
                          run_steps)
from ..eager import alloc, autograd, dispatch
from ..eager.dispatch import OpCall, OpDef, Tensor, vanilla_apply
from .interface import BackendDriver

__all__ = ["EagerDriver"]


class _InputAdapter(TensorAdapter):
    """Op inputs: unwrap ``Tensor.data``, wrap replacements as new tensors."""

    def unwrap(self, value):
        return value.data if isinstance(value, Tensor) else value

    def wrap(self, value):
        return Tensor(np.asarray(value))


class _OutputAdapter(TensorAdapter):
    """Op outputs: replacements are written back into the tensor in place so
    downstream consumers (and autograd saved values) observe them."""

    def unwrap(self, value):
        return value.data

    def assign(self, values, index, value) -> None:
        values[index].data = np.asarray(value)


INPUT_ADAPTER = _InputAdapter()
OUTPUT_ADAPTER = _OutputAdapter()


class EagerDriver(BackendDriver):
    namespace = "eager"
    mode = "eager"

    def __init__(self, manager) -> None:
        super().__init__(manager)
        self._interceptor = Interceptor()
        self._busy = False
        self._patched: set[str] = set()
        self._last_top_module = None
        #: forward OpCalls carrying per-iteration backward-tracking metadata
        #: (``forward_plan``/``context``) — cleared at iteration boundaries
        #: and on detach so no plan or context outlives its apply scope
        self._pending_calls: list[OpCall] = []
        #: bytes analysed contexts charged to the ``amanda`` scope and not
        #: yet released: the action cache's records stand for them, so
        #: clearing that cache or detaching releases them
        self._charged = 0
        self._charge_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------------
    def attach(self) -> None:
        dispatch.registry.add_registration_listener(self._patch_op, replay=True)
        autograd.add_backward_completion_listener(self._on_backward_done)
        dispatch.add_top_level_entry_listener(self._on_module_entry)

    def detach(self) -> None:
        dispatch.registry.remove_registration_listener(self._patch_op)
        autograd.remove_backward_completion_listener(self._on_backward_done)
        dispatch.remove_top_level_entry_listener(self._on_module_entry)
        self._interceptor.restore_all()
        self._patched.clear()
        self._busy = False
        self._last_top_module = None
        self._clear_pending()
        self.action_cache_cleared()

    def action_cache_cleared(self) -> None:
        with self._charge_lock:
            charged, self._charged = self._charged, 0
        alloc.tracker.release(charged, "amanda")

    def _clear_pending(self) -> None:
        """Reset per-forward-op backward tracking (iteration/detach boundary).

        Stale ``forward_plan``/``context`` metadata on user-held autograd
        graphs would otherwise leak a previous apply scope's plans into a
        later attach (the eager twin of the PR-1 ``GraphDriver.detach`` fix).
        """
        for op_call in self._pending_calls:
            op_call.metadata.pop("forward_plan", None)
            op_call.metadata.pop("context", None)
        self._pending_calls.clear()

    def _on_backward_done(self) -> None:
        self.manager.new_iteration()
        self._last_top_module = None
        self._clear_pending()

    def _on_module_entry(self, module) -> None:
        # Re-entering the *same* top-level module starts a new iteration
        # (steady-state inference loops); a different module chained at top
        # level is still part of the current iteration.
        if module is getattr(self, "_last_top_module", None):
            self.manager.new_iteration()
            self._clear_pending()
        self._last_top_module = module

    def _prov(self, op_id, op_type: str, i_point: str,
              tool: str | None = None) -> Provenance:
        return Provenance(tool=tool, op_id=op_id, op_type=op_type,
                          i_point=i_point, backend=self.namespace)

    def _patch_op(self, opdef: OpDef) -> None:
        if opdef.name in self._patched:
            return
        self._patched.add(opdef.name)
        self._interceptor.patch(opdef, "call_override", self._instrumented_call)
        self._interceptor.patch(opdef, "backward_call_override",
                                self._instrumented_backward)

    # -- forward path -------------------------------------------------------------
    def _instrumented_call(self, opdef: OpDef, inputs: tuple, attrs: dict):
        mgr = self.manager
        if not mgr.active or self._busy:
            return vanilla_apply(opdef, inputs, attrs)

        span = mgr.begin_span()
        op_id = mgr.ids.assign(opdef.name)
        try:
            cached = mgr.cache_lookup(op_id)
            plan = None
            if cached is not None:
                plan = mgr.plan_for(cached, op_id=op_id)
                if plan.kind is PlanKind.VANILLA:
                    # this op instance was analyzed and left alone
                    mgr.end_span(span)
                    return vanilla_apply(opdef, inputs, attrs)
            return self._forward(plan, opdef, inputs, attrs, op_id, span)
        except InstrumentationError:
            # recovery point: the span is closed by the finally, then policy
            # decides between propagating and substituting the vanilla
            # computation
            if mgr.error_policy == "raise":
                if op_id not in mgr.action_cache:
                    # aborted trace: make the occurrence counter look like
                    # the op never executed, so a retried iteration derives
                    # the same op id instead of drifting
                    mgr.ids.retract(opdef.name)
                raise
            mgr.count_fallback("eager.vanilla_op")
            mgr.end_span(span)
            return vanilla_apply(opdef, inputs, attrs)
        finally:
            mgr.end_span(span)

    def _analyze(self, context: OpContext, i_point: IPoint) -> None:
        """Run analysis routines; ops they execute run uninstrumented."""
        self._busy = True
        try:
            self.manager.run_analysis(context, i_point)
        finally:
            self._busy = False

    def _forward(self, plan: ExecutionPlan | None, opdef: OpDef,
                 inputs: tuple, attrs: dict, op_id: int, span):
        """Run one instrumented forward op: before steps on its inputs, the
        (possibly replaced) op, then after steps on its outputs.

        A ``plan`` of ``None`` is the op's first execution under the current
        toolset.  Analysis then runs around the op, and the plan is cached
        only once the op has executed, because ``AFTER_FORWARD`` routines
        read its outputs and may still record actions.
        """
        mgr = self.manager
        op_call = OpCall(opdef, inputs, attrs, seq=dispatch.next_seq(),
                         module=dispatch.current_module())
        op_call.metadata["op_id"] = op_id
        if plan is None:
            context = self._build_forward_context(op_call, op_id)
            self._analyze(context, IPoint.BEFORE_FORWARD)
            steps = compile_forward_slice(context.actions)
        else:
            steps = plan.forward
        exec_inputs = inputs
        if steps.before:
            values = list(inputs)
            if run_steps(steps.before, values, INPUT_ADAPTER,
                         mgr.run_instrumentation,
                         provenance=self._prov(op_id, opdef.name,
                                               "before_forward_op")):
                exec_inputs = tuple(values)
        forward_override = None
        if steps.replace is not None:
            forward_override = steps.replace.guarded_override(
                mgr.run_instrumentation,
                self._prov(op_id, opdef.name, "replace_op",
                           tool=steps.replace.action.tool))
        mgr.end_span(span)

        result = vanilla_apply(opdef, exec_inputs, attrs,
                               forward_override=forward_override,
                               op_call=op_call, autograd_inputs=inputs)

        span = mgr.begin_span()
        try:
            outputs = op_call.outputs
            if plan is None:
                context["_outputs"] = list(outputs)
                self._analyze(context, IPoint.AFTER_FORWARD)
                record = CachedOpRecord()
                record.forward_actions = [a for a in context.actions
                                          if not a.type.is_backward]
                record.backward_actions = [a for a in context.actions
                                           if a.type.is_backward]
                record.context = context
                record.user_state = context.has_user_state
                mgr.cache_store(op_id, record)
                plan = record.plan
            if op_call.node is not None:
                op_call.metadata["forward_plan"] = plan
                op_call.metadata["context"] = plan.context
                self._pending_calls.append(op_call)
            if plan.forward.after:
                run_steps(plan.forward.after, list(outputs), OUTPUT_ADAPTER,
                          mgr.run_instrumentation,
                          provenance=self._prov(op_id, opdef.name,
                                                "after_forward_op"))
        except InstrumentationError:
            # the op already executed: under the non-raise policies keep its
            # outputs (no double execution); under "raise" the recovery
            # point in _instrumented_call unwinds and propagates
            if mgr.error_policy == "raise":
                raise
            mgr.count_fallback("eager.kept_outputs")
        finally:
            mgr.end_span(span)
        return result

    #: estimated bookkeeping bytes per context/action object, fed to the
    #: allocation tracker so the Fig. 13 breakdown sees framework memory
    CONTEXT_BYTES = 512

    def _charge_context(self) -> None:
        alloc.tracker.allocate(self.CONTEXT_BYTES, scope="amanda")
        with self._charge_lock:
            self._charged += self.CONTEXT_BYTES

    def _build_forward_context(self, op_call: OpCall, op_id: int) -> OpContext:
        self._charge_context()
        context = OpContext()
        context["_op"] = op_call
        context["_namespace"] = self.namespace
        context["_namespace_tags"] = self.namespace_tags
        context["_is_forward"] = True
        context["_op_id"] = op_id
        context["_inputs"] = list(op_call.inputs)
        context["_raw_type"] = op_call.opdef.name
        context["_backward_names"] = [b.name for b in op_call.opdef.backward_defs]
        context["_module"] = op_call.module
        context["_attrs"] = dict(op_call.attrs)
        # the eager backend's raw names double as the canonical namespace
        context["type"] = op_call.opdef.name
        return context

    # -- backward path ---------------------------------------------------------
    def _instrumented_backward(self, node, bdef, grad_outputs):
        mgr = self.manager
        if not mgr.active or self._busy:
            return bdef.fn(node.ctx, grad_outputs)

        span = mgr.begin_span()
        bwd_id = mgr.backward_ids.assign(bdef.name)
        try:
            cached = mgr.cache_lookup(bwd_id)
            op_call = node.op_call
            forward_plan: ExecutionPlan | None = None
            if op_call is not None:
                forward_plan = op_call.metadata.get("forward_plan")
                if (forward_plan is not None
                        and forward_plan.epoch != mgr.tool_epoch):
                    # the toolset changed between forward and backward (e.g.
                    # a mid-iteration quarantine): recompile so a disabled
                    # tool's backward actions are not replayed stale
                    fwd_id = op_call.metadata.get("op_id")
                    record = mgr.action_cache.get(fwd_id)
                    if record is not None:
                        forward_plan = mgr.plan_for(record, op_id=fwd_id,
                                                    replay=False)
                        op_call.metadata["forward_plan"] = forward_plan
                    else:
                        forward_plan = None
            inherited = (forward_plan.backward_slice(bdef.name)
                         if forward_plan is not None else EMPTY_SLICE)

            plan = None
            if cached is not None:
                plan = mgr.plan_for(cached, op_id=bwd_id)
                if plan.kind is PlanKind.VANILLA and inherited.empty:
                    mgr.end_span(span)
                    return bdef.fn(node.ctx, grad_outputs)
            return self._backward(plan, inherited, node, bdef, grad_outputs,
                                  bwd_id, span)
        except InstrumentationError:
            # recovery point, mirroring _instrumented_call: propagate or fall
            # back to the vanilla backward computation with the original
            # gradients
            if mgr.error_policy == "raise":
                if bwd_id not in mgr.action_cache:
                    mgr.backward_ids.retract(bdef.name)
                raise
            mgr.count_fallback("eager.vanilla_op")
            mgr.end_span(span)
            return bdef.fn(node.ctx, grad_outputs)
        finally:
            mgr.end_span(span)

    def _backward(self, plan: ExecutionPlan | None, inherited: PlanSlice,
                  node, bdef, grad_outputs, bwd_id: int, span):
        """Run one backward op: before steps on its incoming gradients, the
        (possibly replaced) backward computation, then after steps on the
        gradients it produced.

        ``inherited`` is the forward plan's slice for this backward op; the
        op's own actions run after it.  A ``plan`` of ``None`` is the op's
        first execution under the current toolset: backward analysis runs
        around it and its record is cached once the gradients exist.
        """
        mgr = self.manager
        if plan is None:
            context = self._build_backward_context(node, bdef, bwd_id,
                                                   grad_outputs)
            self._analyze(context, IPoint.BEFORE_BACKWARD)
            own = compile_backward_slice(context.actions, bdef.name)
        else:
            own = plan.backward_slice(bdef.name)
        steps = PlanSlice.concat(inherited, own)
        if steps.before:
            values = list(grad_outputs)
            run_steps(steps.before, values, NDARRAY_ADAPTER,
                      mgr.run_instrumentation, clamp=True,
                      provenance=self._prov(bwd_id, bdef.name,
                                            "before_backward_op"))
            grad_outputs = tuple(values)
        mgr.end_span(span)

        grads = self._backward_compute(node, bdef, grad_outputs,
                                       steps.replace, bwd_id)

        span = mgr.begin_span()
        try:
            if plan is None:
                context["_grad_inputs"] = [grads[k] for k in sorted(grads)]
                self._analyze(context, IPoint.AFTER_BACKWARD)
                record = CachedOpRecord()
                record.forward_actions = [
                    a for a in context.actions
                    if a.backward_op is None or a.backward_op == bdef.name]
                record.context = context
                mgr.cache_store(bwd_id, record)
                steps = PlanSlice.concat(
                    inherited, record.plan.backward_slice(bdef.name))
            if steps.after:
                keys = sorted(grads)
                values = [grads[k] for k in keys]
                run_steps(steps.after, values, NDARRAY_ADAPTER,
                          mgr.run_instrumentation, clamp=True,
                          provenance=self._prov(bwd_id, bdef.name,
                                                "after_backward_op"))
                grads = dict(zip(keys, values))
        except InstrumentationError:
            # the backward computation already produced grads: keep them
            # under the non-raise policies instead of recomputing vanilla
            if mgr.error_policy == "raise":
                raise
            mgr.count_fallback("eager.kept_outputs")
        finally:
            mgr.end_span(span)
        return grads

    def _backward_compute(self, node, bdef, grad_outputs, replace, bwd_id):
        if replace is None:
            return bdef.fn(node.ctx, grad_outputs)
        mgr = self.manager
        provenance = self._prov(bwd_id, bdef.name, "replace_backward_op",
                                tool=replace.action.tool)
        grads = mgr.run_instrumentation(
            replace.func, tuple(replace.select(grad_outputs)), replace.kwargs,
            provenance)
        if not isinstance(grads, dict):
            # a wrong-shaped return is a tool failure like any other: wrap
            # it so policy-driven recovery and failure provenance apply
            error = InstrumentationError(
                TypeError("replace_backward_op routines must return a dict "
                          "{forward_input_index: grad}"),
                provenance, phase="instrumentation")
            mgr.record_failure(error)
            if mgr.error_policy == "quarantine" and provenance.tool:
                mgr.quarantine(provenance.tool)
            raise error
        return grads

    def _build_backward_context(self, node, bdef, bwd_id,
                                grad_outputs) -> OpContext:
        self._charge_context()
        context = OpContext()
        op_call = node.op_call
        forward_context = None
        if op_call is not None:
            forward_context = op_call.metadata.get("context")
        if forward_context is not None:
            for key, value in forward_context.items():
                if key not in OpContext.RESERVED:
                    context[key] = value
            context["_op_id"] = forward_context.get("_op_id")
        context["_op"] = op_call
        context["_namespace"] = self.namespace
        context["_namespace_tags"] = self.namespace_tags
        context["_is_forward"] = False
        context["_backward_op"] = bdef
        context["_backward_name"] = bdef.name
        context["_backward_op_id"] = bwd_id
        context["_inputs"] = list(node.inputs)
        context["_outputs"] = list(node.outputs)
        context["_grad_outputs"] = list(grad_outputs)
        context["_raw_type"] = node.opdef.name
        context["type"] = node.opdef.name
        context["backward_type"] = bdef.name
        return context


register_driver_factory(EagerDriver)
