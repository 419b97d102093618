"""Context mapping tool (Sec. 5.2, Fig. 6, Lst. 6).

Raw instrumentation contexts are backend-specific: the graph backend reports
TF-style op types (``Conv2D``/``Conv2DBackpropFilter``) and NHWC/HWIO layouts,
the eager backend reports its own names and NCHW/OIHW layouts.  A
:class:`MappingTool` holds *rules* — ``[namespace, transformation_fn]`` pairs —
that translate the raw context into a common namespace, so one high-level tool
ports across backends.  :func:`standard_mapping_tool` bundles the rules that
normalize both built-in backends to the canonical namespace used by every tool
in :mod:`repro.tools`.
"""

from __future__ import annotations

from typing import Callable

from ..core.context import OpContext
from ..core.tool import Tool

__all__ = ["MappingTool", "standard_mapping_tool", "CANONICAL_NAMESPACE"]

CANONICAL_NAMESPACE = "amanda/canonical"


class MappingTool(Tool):
    """Applies namespace-filtered transformation rules to every context."""

    is_context_transform = True

    def __init__(self, rules: list) -> None:
        super().__init__()
        self.rules: list[tuple[str, Callable[[OpContext], None]]] = [
            (namespace, fn) for namespace, fn in rules]
        # mapping must run at every instrumentation point so dependent tools
        # always see the normalized context
        self.add_inst_for_op(self._transform)
        self.add_inst_for_op(self._transform, require_outputs=True)
        self.add_inst_for_op(self._transform, backward=True)
        self.add_inst_for_op(self._transform, backward=True, require_outputs=True)

    def _transform(self, context: OpContext) -> None:
        namespace = context.namespace
        tags = context.namespace_tags or namespace or ""
        for rule_namespace, fn in self.rules:
            # a rule matches its namespace name exactly or any more specific
            # tag group, so "eager" applies to "eager/1.0/eager" while
            # "eager/2.0" would only apply to that version
            if (rule_namespace == namespace or rule_namespace == tags
                    or tags.startswith(rule_namespace + "/")):
                fn(context)


# ---------------------------------------------------------------------------
# canonical rules for the two built-in backends
# ---------------------------------------------------------------------------

#: graph-backend (TF-style) op type -> canonical type
_GRAPH_TYPE_MAP = {
    "Conv2D": "conv2d",
    "MatMul": "matmul",
    "BiasAdd": "bias_add",
    "Relu": "relu",
    "Gelu": "gelu",
    "Sigmoid": "sigmoid",
    "Tanh": "tanh",
    "Softmax": "softmax",
    "LogSoftmax": "log_softmax",
    "MaxPool": "max_pool2d",
    "AvgPool": "avg_pool2d",
    "FusedBatchNorm": "batch_norm",
    "LayerNorm": "layer_norm",
    "Reshape": "reshape",
    "Transpose": "transpose",
    "ConcatV2": "concat",
    "Mean": "mean",
    "Sum": "sum",
    "GatherV2": "embedding",
    "SparseSoftmaxCrossEntropyWithLogits": "cross_entropy",
    "Dropout": "dropout",
    "Add": "add",
    "Sub": "sub",
    "Mul": "mul",
    "RealDiv": "div",
    "Neg": "neg",
    "Square": "square",
    "Sqrt": "sqrt",
    "AddN": "accumulate_grad",
    "Identity": "identity",
    "Placeholder": "placeholder",
    "Const": "constant",
    "Variable": "variable",
}

#: graph-backend backward op type -> canonical backward type
_GRAPH_BACKWARD_MAP = {
    "Conv2DBackpropInput": "conv2d_backward_input",
    "Conv2DBackpropFilter": "conv2d_backward_weight",
    "BiasAddGrad": "bias_add_backward",
    "ReluGrad": "relu_backward",
    "GeluGrad": "gelu_backward",
    "SigmoidGrad": "sigmoid_backward",
    "TanhGrad": "tanh_backward",
    "SoftmaxGrad": "softmax_backward",
    "LogSoftmaxGrad": "log_softmax_backward",
    "MaxPoolGrad": "max_pool2d_backward",
    "AvgPoolGrad": "avg_pool2d_backward",
    "FusedBatchNormGrad": "batch_norm_backward",
    "LayerNormGrad": "layer_norm_backward",
    "ReshapeGrad": "reshape_backward",
    "ConcatGrad": "concat_backward",
    "ReduceGrad": "reduce_backward",
    "GatherGrad": "embedding_backward",
    "XentGrad": "cross_entropy_backward",
    "BroadcastGradient": "broadcast_backward",
    "AddN": "accumulate_grad",
    "OnesLike": "grad_seed",
}

#: eager matmul-as-linear: the eager backend's raw names are already canonical
_EAGER_BACKWARD_ALIASES = {
    "matmul_backward": "matmul_backward",
}


#: fused compiler ops -> the canonical type of their head op (Sec. 7:
#: the intermediate level relating remaining points to original ones)
_GRAPH_FUSED_MAP = {"FusedConv2D": "conv2d", "FusedMatMul": "matmul"}


def _graph_rule(context: OpContext) -> None:
    raw = context.get("_raw_type")
    op = context.get_op()
    if getattr(op, "tags", {}).get("captured"):
        # symbolic capture (repro.capture): the graph holds *eager* op types
        # in eager layouts, so it normalizes like the eager backend — TF-name
        # translation or NHWC/HWIO annotations would mislabel every op
        context["type"] = raw
        context["weight_layout"] = "OIHW"
        context["data_layout"] = "NCHW"
        if not context.is_forward():
            raw_backward = context.get("_backward_name")
            context["backward_type"] = _EAGER_BACKWARD_ALIASES.get(
                raw_backward, raw_backward)
        return
    context["type"] = _GRAPH_TYPE_MAP.get(raw, raw)
    context["weight_layout"] = "HWIO"
    context["data_layout"] = "NHWC"
    if raw in _GRAPH_FUSED_MAP:
        context["type"] = _GRAPH_FUSED_MAP[raw]
        op = context.get_op()
        fused_from = getattr(op, "tags", {}).get("fused_from", [])
        context["fused_types"] = [
            _GRAPH_TYPE_MAP.get(t, t) for t in fused_from]
    if not context.is_forward():
        raw_backward = context.get("_backward_name")
        context["backward_type"] = _GRAPH_BACKWARD_MAP.get(
            raw_backward, _GRAPH_TYPE_MAP.get(raw_backward, raw_backward))
    # graph-mode MatMul grads reuse the MatMul op type; distinguish them by
    # their position in the backward graph
    if (not context.is_forward()
            and context.get("_backward_name") == "MatMul"):
        context["backward_type"] = "matmul_backward"


def _eager_rule(context: OpContext) -> None:
    context["type"] = context.get("_raw_type")
    context["weight_layout"] = "OIHW"
    context["data_layout"] = "NCHW"
    if not context.is_forward():
        raw_backward = context.get("_backward_name")
        context["backward_type"] = _EAGER_BACKWARD_ALIASES.get(
            raw_backward, raw_backward)


#: ONNX-backend op type -> canonical type (ONNX is NCHW like the eager
#: backend; Gemm carries its bias like the eager linear op)
_ONNX_TYPE_MAP = {
    "Conv": "conv2d",
    "Gemm": "linear",
    "MatMul": "matmul",
    "Relu": "relu",
    "Sigmoid": "sigmoid",
    "Softmax": "softmax",
    "MaxPool": "max_pool2d",
    "AveragePool": "avg_pool2d",
    "GlobalAveragePool": "mean",
    "Add": "add",
    "Concat": "concat",
    "Flatten": "reshape",
    "Reshape": "reshape",
    "BatchNormalization": "batch_norm",
}


def _onnx_rule(context: OpContext) -> None:
    raw = context.get("_raw_type")
    context["type"] = _ONNX_TYPE_MAP.get(raw, raw)
    context["weight_layout"] = "OIHW"
    context["data_layout"] = "NCHW"


def standard_mapping_tool() -> MappingTool:
    """The mapping tool normalizing all built-in backends (Lst. 6 analog)."""
    return MappingTool(rules=[
        ["graph", _graph_rule],
        ["eager", _eager_rule],
        ["onnx", _onnx_rule],
    ])
