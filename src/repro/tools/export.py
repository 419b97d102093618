"""ONNX export as an instrumentation tool.

A showcase of the instrumentation abstraction's reach: exporting a model is
"just" a tracing task — observe every operator execution with its attributes,
weights and dataflow, then serialize.  The tool records one execution of any
eager model (no model-source cooperation needed) and builds an
:class:`~repro.onnx.model.OnnxModel` that the ONNX-style backend executes
with bit-identical results (inference mode).

Supported canonical ops: conv2d (+folded bias_add), linear, matmul, relu,
sigmoid, softmax, max_pool2d, global mean pooling, add, concat,
reshape/flatten, batch_norm (eval), dropout (eval: dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.context import OpContext
from ..core.tool import Tool
from ..eager.module import Parameter
from ..eager.tensor import Tensor
from ..onnx.model import Node, OnnxModel
from .mapping import standard_mapping_tool

__all__ = ["OnnxExportTool", "export_onnx"]


@dataclass
class _OpRecord:
    op_type: str
    attrs: dict
    input_ids: list[int]
    output_ids: list[int]
    #: strong refs keep tensor ids unique for the lifetime of the export
    tensors: list = field(default_factory=list)
    #: leaf input values captured at record time (potential initializers)
    leaf_values: dict = field(default_factory=dict)
    leaf_is_param: dict = field(default_factory=dict)


class OnnxExportTool(Tool):
    """Records one eager execution; ``build()`` emits the ONNX model."""

    is_context_transform = True  # observation only: keep the fast path alive

    def __init__(self) -> None:
        super().__init__()
        self.records: list[_OpRecord] = []
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis, require_outputs=True)

    # -- recording ---------------------------------------------------------------
    def analysis(self, context: OpContext) -> None:
        if context.namespace != "eager":
            return
        inputs = [t for t in context.get_inputs()]
        outputs = [t for t in context.get_outputs()]
        record = _OpRecord(
            op_type=context.get("type"),
            attrs=dict(context.get("_attrs", {})),
            input_ids=[id(t) for t in inputs],
            output_ids=[id(t) for t in outputs],
            tensors=inputs + outputs,
        )
        for t in inputs:
            if isinstance(t, Tensor) and t.node is None:
                record.leaf_values[id(t)] = np.array(t.data)
                record.leaf_is_param[id(t)] = isinstance(t, Parameter)
        self.records.append(record)

    def reset(self) -> None:
        self.records.clear()

    # -- model construction ---------------------------------------------------------
    def build(self, input_tensor, output_tensor) -> OnnxModel:
        """Build the ONNX model; ``input_tensor``/``output_tensor`` mark the
        graph boundary (the tensors passed to / returned by the module)."""
        model = OnnxModel()
        names: dict[int, str] = {id(input_tensor): "input"}
        model.inputs.append("input")
        counter = [0]

        def fresh(base: str) -> str:
            counter[0] += 1
            return f"{base}_{counter[0]}"

        def initializer(tensor_id: int, value: np.ndarray, base: str) -> str:
            name = names.get(tensor_id)
            if name is None:
                name = fresh(base)
                model.initializers[name] = value
                names[tensor_id] = name
            return name

        def resolve(record: _OpRecord, index: int, base: str = "const") -> str:
            tensor_id = record.input_ids[index]
            if tensor_id in names:
                return names[tensor_id]
            if tensor_id in record.leaf_values:
                return initializer(tensor_id, record.leaf_values[tensor_id],
                                   base)
            raise ValueError(
                f"cannot export: input {index} of {record.op_type!r} is an "
                "intermediate tensor produced by an unsupported operator")

        records = self._fold_conv_bias(self.records)
        for record in records:
            emit = _EMITTERS.get(record.op_type)
            if emit is None:
                raise NotImplementedError(
                    f"ONNX export does not support op {record.op_type!r}")
            emit(model, record, names, resolve, fresh)

        output_name = names.get(id(output_tensor))
        if output_name is None:
            raise ValueError("output tensor was not produced by a recorded op")
        model.outputs.append(output_name)
        return model

    @staticmethod
    def _fold_conv_bias(records: list[_OpRecord]) -> list[_OpRecord]:
        """Fold a bias_add whose data input comes from a conv2d into the conv
        (ONNX Conv carries its bias)."""
        conv_outputs = {}
        for record in records:
            if record.op_type == "conv2d":
                conv_outputs[record.output_ids[0]] = record
        folded: list[_OpRecord] = []
        for record in records:
            if (record.op_type == "bias_add"
                    and record.input_ids[0] in conv_outputs
                    and record.input_ids[1] in record.leaf_values):
                conv = conv_outputs[record.input_ids[0]]
                conv.input_ids.append(record.input_ids[1])
                conv.leaf_values[record.input_ids[1]] = \
                    record.leaf_values[record.input_ids[1]]
                conv.output_ids = record.output_ids  # bias output replaces
                conv.tensors += record.tensors
                continue
            folded.append(record)
        return folded


# ---------------------------------------------------------------------------
# per-op emitters: record -> ONNX node(s)
# ---------------------------------------------------------------------------

def _emit_simple(onnx_type: str, attr_map=None):
    def emit(model, record, names, resolve, fresh):
        inputs = [resolve(record, i) for i in range(len(record.input_ids))]
        name = fresh(onnx_type)
        output = f"{name}:0"
        attrs = attr_map(record.attrs) if attr_map else {}
        model.add_node(Node(onnx_type, inputs, [output], attrs, name))
        names[record.output_ids[0]] = output
    return emit


def _emit_conv(model, record, names, resolve, fresh):
    inputs = [resolve(record, 0), resolve(record, 1, "conv_w")]
    if len(record.input_ids) > 2:
        inputs.append(resolve(record, 2, "conv_b"))
    name = fresh("Conv")
    output = f"{name}:0"
    model.add_node(Node("Conv", inputs, [output],
                        {"strides": tuple(record.attrs.get("stride", (1, 1))),
                         "pads": tuple(record.attrs.get("padding", (0, 0)))},
                        name))
    names[record.output_ids[0]] = output


def _emit_linear(model, record, names, resolve, fresh):
    inputs = [resolve(record, 0), resolve(record, 1, "gemm_w")]
    if len(record.input_ids) > 2:
        inputs.append(resolve(record, 2, "gemm_b"))
    name = fresh("Gemm")
    output = f"{name}:0"
    model.add_node(Node("Gemm", inputs, [output], {"transB": 1}, name))
    names[record.output_ids[0]] = output


def _emit_mean(model, record, names, resolve, fresh):
    axis = record.attrs.get("axis")
    if tuple(axis or ()) == (2, 3) and record.attrs.get("keepdims"):
        name = fresh("GlobalAveragePool")
        output = f"{name}:0"
        model.add_node(Node("GlobalAveragePool", [resolve(record, 0)],
                            [output], {}, name))
        names[record.output_ids[0]] = output
        return
    raise NotImplementedError(f"mean over axis {axis!r} has no ONNX mapping")


def _emit_reshape(model, record, names, resolve, fresh):
    shape = tuple(record.attrs.get("shape", ()))
    name = fresh("Flatten" if len(shape) == 2 and shape[-1] == -1 else "Reshape")
    output = f"{name}:0"
    if name.startswith("Flatten"):
        model.add_node(Node("Flatten", [resolve(record, 0)], [output], {}, name))
    else:
        model.add_node(Node("Reshape", [resolve(record, 0)], [output],
                            {"shape": shape}, name))
    names[record.output_ids[0]] = output


def _emit_batch_norm(model, record, names, resolve, fresh):
    if record.attrs.get("training"):
        raise NotImplementedError("export requires eval-mode batch norm")
    inputs = [resolve(record, 0)] + [resolve(record, i, "bn")
                                     for i in range(1, 5)]
    name = fresh("BatchNormalization")
    output = f"{name}:0"
    model.add_node(Node("BatchNormalization", inputs, [output],
                        {"eps": record.attrs.get("eps", 1e-5)}, name))
    names[record.output_ids[0]] = output


def _emit_dropout(model, record, names, resolve, fresh):
    if record.attrs.get("training"):
        raise NotImplementedError("export requires eval-mode dropout")
    # identity: route the name through
    names[record.output_ids[0]] = resolve(record, 0)


_EMITTERS = {
    "conv2d": _emit_conv,
    "bias_add": _emit_simple("Add"),
    "linear": _emit_linear,
    "matmul": _emit_simple("MatMul"),
    "relu": _emit_simple("Relu"),
    "sigmoid": _emit_simple("Sigmoid"),
    "softmax": _emit_simple("Softmax"),
    "max_pool2d": _emit_simple(
        "MaxPool", lambda attrs: {"kernel_shape": tuple(attrs.get("kernel", (2, 2))),
                                  "strides": tuple(attrs.get("stride")
                                                   or attrs.get("kernel", (2, 2)))}),
    "avg_pool2d": _emit_simple(
        "AveragePool",
        lambda attrs: {"kernel_shape": tuple(attrs.get("kernel", (2, 2))),
                       "strides": tuple(attrs.get("stride")
                                        or attrs.get("kernel", (2, 2))),
                       "pads": tuple(attrs.get("padding", (0, 0)))}),
    "add": _emit_simple("Add"),
    "concat": _emit_simple("Concat",
                           lambda attrs: {"axis": attrs.get("axis", 1)}),
    "mean": _emit_mean,
    "reshape": _emit_reshape,
    "batch_norm": _emit_batch_norm,
    "dropout": _emit_dropout,
}


def export_onnx(module, sample_input) -> OnnxModel:
    """Export an eager module to an :class:`OnnxModel` by traced execution."""
    from .. import backends  # noqa: F401  (ensures drivers are registered)
    from ..core.manager import apply as amanda_apply

    module.eval()
    tool = OnnxExportTool()
    with amanda_apply(tool):
        output = module(sample_input)
    return tool.build(sample_input, output)
