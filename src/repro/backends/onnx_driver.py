"""Amanda driver for the ONNX-style inference backend.

Demonstrates the paper's extensibility claim (Sec. 5.1/7): supporting a new
backend only requires a driver that adapts the backend's native callback
mechanism to the backend interface.  Here the native mechanism is the
session's per-node execution seam; the driver

* assigns stable op ids per static node (the plan is fixed, so node identity
  is the id key);
* runs forward analysis routines lazily on a node's first execution and
  caches the recorded actions (the same action cache as the eager driver);
* replays the compiled :class:`~repro.core.plans.ExecutionPlan` around the
  node — node values are plain ndarrays, so the shared
  :data:`~repro.core.plans.NDARRAY_ADAPTER` is the whole backend seam.

The backend is inference-only, so backward instrumentation points simply
never fire — tools that register backward routines still load and run.
"""

from __future__ import annotations

import numpy as np

from ..core.actions import IPoint
from ..core.context import OpContext
from ..core.faults import InstrumentationError, Provenance
from ..core.interceptor import Interceptor
from ..core.manager import CachedOpRecord, register_driver_factory
from ..core.plans import NDARRAY_ADAPTER, PlanKind, run_steps
from ..onnx.model import Node
from ..onnx.session import InferenceSession
from .interface import BackendDriver, SymbolicInput

__all__ = ["OnnxDriver"]


class OnnxDriver(BackendDriver):
    namespace = "onnx"
    mode = "inference"

    def __init__(self, manager) -> None:
        super().__init__(manager)
        self._interceptor = Interceptor()
        #: node identity -> stable op id
        self._node_ids: dict[int, int] = {}

    def attach(self) -> None:
        self._interceptor.patch(InferenceSession, "node_interceptor",
                                self._intercept_node)

    def detach(self) -> None:
        self._interceptor.restore_all()
        self._node_ids.clear()

    def _prov(self, op_id: int, node: Node, i_point: str,
              tool: str | None = None) -> Provenance:
        return Provenance(tool=tool, op_id=op_id, op_type=node.op_type,
                          i_point=i_point, backend=self.namespace)

    # -- node interception ---------------------------------------------------
    def _intercept_node(self, session: InferenceSession, node: Node,
                        inputs: list[np.ndarray], run_node):
        mgr = self.manager
        if not mgr.active:
            return run_node(node, inputs)

        span = mgr.begin_span()
        known = id(node) in self._node_ids
        op_id = self._node_ids.get(id(node))
        if op_id is None:
            op_id = mgr.ids.assign(f"onnx/{node.name or node.op_type}")
            self._node_ids[id(node)] = op_id
        try:
            return self._run_instrumented(session, node, inputs, run_node,
                                          op_id, span)
        except InstrumentationError:
            # recovery point, mirroring the eager driver: restore the
            # invariants, then propagate or run the vanilla node with the
            # original inputs
            if mgr.error_policy == "raise":
                if not known and op_id not in mgr.action_cache:
                    # aborted trace: forget the id assignment so a retried
                    # run derives the same one (no occurrence drift)
                    del self._node_ids[id(node)]
                    mgr.ids.retract(f"onnx/{node.name or node.op_type}")
                raise
            mgr.count_fallback("onnx.vanilla_node")
            mgr.end_span(span)
            return run_node(node, inputs)
        finally:
            mgr.end_span(span)

    def _run_instrumented(self, session: InferenceSession, node: Node,
                          inputs: list[np.ndarray], run_node, op_id: int,
                          span):
        mgr = self.manager
        cached = mgr.cache_lookup(op_id)
        if cached is None:
            # trace path: first execution of this node under this toolset
            context = self._build_context(session, node, inputs, op_id)
            mgr.run_analysis(context, IPoint.BEFORE_FORWARD)
            mgr.run_analysis(context, IPoint.AFTER_FORWARD)
            record = CachedOpRecord()
            record.forward_actions = [a for a in context.actions
                                      if not a.type.is_backward]
            record.context = context
            record.user_state = context.has_user_state
            mgr.cache_store(op_id, record)
            plan = record.plan
        else:
            plan = mgr.plan_for(cached, op_id=op_id)
            if plan.kind is PlanKind.VANILLA:
                mgr.end_span(span)
                return run_node(node, inputs)

        forward = plan.forward
        values = list(inputs)
        if forward.before:
            run_steps(forward.before, values, NDARRAY_ADAPTER,
                      mgr.run_instrumentation, clamp=True,
                      provenance=self._prov(op_id, node, "before_forward_op"))
        mgr.end_span(span)

        if forward.replace is not None:
            # replacement routines consume the node's full input list
            result = forward.replace.invoke(
                mgr.run_instrumentation, tuple(values),
                self._prov(op_id, node, "replace_op",
                           tool=forward.replace.action.tool))
            outputs = list(result) if isinstance(result, tuple) else [result]
            outputs = [np.asarray(o) for o in outputs]
        else:
            outputs = list(run_node(node, values))

        if forward.after:
            span = mgr.begin_span()
            try:
                run_steps(forward.after, outputs, NDARRAY_ADAPTER,
                          mgr.run_instrumentation, clamp=True,
                          provenance=self._prov(op_id, node,
                                                "after_forward_op"))
            except InstrumentationError:
                # the node already produced outputs: keep them under the
                # non-raise policies instead of re-executing vanilla
                if mgr.error_policy == "raise":
                    raise
                mgr.count_fallback("onnx.kept_outputs")
            finally:
                mgr.end_span(span)
        return outputs

    def _build_context(self, session: InferenceSession, node: Node,
                       inputs: list[np.ndarray], op_id: int) -> OpContext:
        context = OpContext()
        context["_op"] = node
        context["_namespace"] = self.namespace
        context["_namespace_tags"] = self.namespace_tags
        context["_is_forward"] = True
        context["_op_id"] = op_id
        # initializers are statically known; fed/intermediate tensors are
        # runtime values and exposed as such (inference analysis may use them)
        wrapped = []
        for name, value in zip(node.inputs, inputs):
            static = session.model.initializers.get(name)
            wrapped.append(SymbolicInput(name, static if static is not None
                                         else np.asarray(value)))
        context["_inputs"] = wrapped
        context["_raw_type"] = node.op_type
        context["_attrs"] = dict(node.attrs)
        context["type"] = node.op_type  # raw ONNX name; MappingTool normalizes
        return context


register_driver_factory(OnnxDriver)
