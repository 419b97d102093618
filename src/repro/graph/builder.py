"""Op builders and runtime compute functions for the graph backend.

``builder`` plays the role of the TensorFlow python op library: each builder
appends a node to the default graph.  Op types follow TF naming and tensors
are NHWC (conv weights HWIO); the compute functions convert at op boundaries
and delegate the numerics to :mod:`repro.kernels.nn`, sharing kernels with the
eager backend.

The ``COMPUTE`` registry maps op type -> runtime function and the ``GRAD``
registry maps op type -> backward-graph builder used by
:func:`repro.graph.gradients.gradients`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..kernels import nn as K
from ..kernels.runtime import launch
from .core import Graph, GraphTensor, Operation, get_default_graph

__all__ = [
    "COMPUTE", "GRAD", "register_compute", "register_grad",
    "convert_to_tensor", "placeholder", "constant", "variable", "identity",
    "conv2d", "bias_add", "matmul", "relu", "gelu", "sigmoid", "tanh",
    "softmax", "log_softmax", "max_pool", "avg_pool", "fused_batch_norm",
    "layer_norm", "reshape", "transpose", "concat", "reduce_mean",
    "reduce_sum", "gather", "dropout", "sparse_softmax_cross_entropy",
    "square", "sqrt", "assign_sub", "assign_add", "group", "py_call",
    "capture_op", "capture_variable", "capture_constant",
]

COMPUTE: dict[str, Callable] = {}
GRAD: dict[str, Callable] = {}


def register_compute(op_type: str):
    def deco(fn):
        COMPUTE[op_type] = fn
        return fn
    return deco


def register_grad(op_type: str):
    def deco(fn):
        GRAD[op_type] = fn
        return fn
    return deco


def _graph(explicit: Graph | None = None) -> Graph:
    # explicit identity check: an *empty* Graph is falsy (len() == 0), and
    # building the first node of a fresh graph must not silently target the
    # default graph
    return explicit if explicit is not None else get_default_graph()


def convert_to_tensor(value, graph: Graph | None = None) -> GraphTensor:
    if isinstance(value, GraphTensor):
        return value
    return constant(np.asarray(value, dtype=np.float64), graph=graph)


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def placeholder(shape=None, name: str = "Placeholder",
                graph: Graph | None = None) -> GraphTensor:
    op = _graph(graph).add_op("Placeholder", [], {"shape": shape}, name=name)
    return op.outputs[0]


@register_compute("Placeholder")
def _compute_placeholder(op, inputs, runtime):
    try:
        return (runtime.feeds[op.name],)
    except KeyError:
        raise KeyError(f"placeholder {op.name!r} was not fed") from None


def constant(value, name: str = "Const", graph: Graph | None = None) -> GraphTensor:
    arr = np.asarray(value)
    if np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    op = _graph(graph).add_op("Const", [], {"value": arr}, name=name)
    return op.outputs[0]


@register_compute("Const")
def _compute_const(op, inputs, runtime):
    return (op.attrs["value"],)


def variable(initial_value, name: str = "Variable",
             trainable: bool = True, graph: Graph | None = None) -> GraphTensor:
    g = _graph(graph)
    op = g.add_op("Variable", [], {"trainable": trainable}, name=name)
    g.variables.create(op.name, np.asarray(initial_value))
    return op.outputs[0]


@register_compute("Variable")
def _compute_variable(op, inputs, runtime):
    return (runtime.variables.read(op.name),)


def identity(x: GraphTensor, name: str = "Identity") -> GraphTensor:
    return x.graph.add_op("Identity", [x], name=name).outputs[0]


@register_compute("Identity")
def _compute_identity(op, inputs, runtime):
    return (inputs[0],)


@register_grad("Identity")
def _grad_identity(op, grads):
    return [grads[0]]


# ---------------------------------------------------------------------------
# elementwise binary (+ broadcasting-aware backward via BroadcastGradient)
# ---------------------------------------------------------------------------

@register_compute("Add")
def _compute_add(op, inputs, runtime):
    return (launch("ewise_add", np.add, inputs[0], inputs[1]),)


@register_compute("Sub")
def _compute_sub(op, inputs, runtime):
    return (launch("ewise_sub", np.subtract, inputs[0], inputs[1]),)


@register_compute("Mul")
def _compute_mul(op, inputs, runtime):
    return (launch("ewise_mul", np.multiply, inputs[0], inputs[1]),)


@register_compute("RealDiv")
def _compute_div(op, inputs, runtime):
    return (launch("ewise_div", np.divide, inputs[0], inputs[1]),)


@register_compute("Neg")
def _compute_neg(op, inputs, runtime):
    return (launch("ewise_neg", np.negative, inputs[0]),)


def _unbroadcast_to(grad: GraphTensor, reference: GraphTensor) -> GraphTensor:
    """Insert a BroadcastGradient op reducing ``grad`` to ``reference``'s shape."""
    op = grad.graph.add_op("BroadcastGradient", [grad, reference])
    return op.outputs[0]


@register_compute("BroadcastGradient")
def _compute_broadcast_gradient(op, inputs, runtime):
    grad, reference = inputs
    from ..eager.dispatch import unbroadcast
    return (unbroadcast(np.asarray(grad), reference.shape),)


@register_grad("Add")
def _grad_add(op, grads):
    g = grads[0]
    return [_unbroadcast_to(g, op.inputs[0]), _unbroadcast_to(g, op.inputs[1])]


@register_grad("Sub")
def _grad_sub(op, grads):
    g = grads[0]
    neg = g.graph.add_op("Neg", [g]).outputs[0]
    return [_unbroadcast_to(g, op.inputs[0]), _unbroadcast_to(neg, op.inputs[1])]


@register_grad("Mul")
def _grad_mul(op, grads):
    g = grads[0]
    a, b = op.inputs
    ga = g.graph.add_op("Mul", [g, b]).outputs[0]
    gb = g.graph.add_op("Mul", [g, a]).outputs[0]
    return [_unbroadcast_to(ga, a), _unbroadcast_to(gb, b)]


@register_grad("RealDiv")
def _grad_div(op, grads):
    g = grads[0]
    a, b = op.inputs
    ga = g.graph.add_op("RealDiv", [g, b]).outputs[0]
    ab2 = g.graph.add_op("Mul", [a, g]).outputs[0]
    b2 = g.graph.add_op("Mul", [b, b]).outputs[0]
    gb_pos = g.graph.add_op("RealDiv", [ab2, b2]).outputs[0]
    gb = g.graph.add_op("Neg", [gb_pos]).outputs[0]
    return [_unbroadcast_to(ga, a), _unbroadcast_to(gb, b)]


@register_grad("Neg")
def _grad_neg(op, grads):
    return [grads[0].graph.add_op("Neg", [grads[0]]).outputs[0]]


def square(x: GraphTensor) -> GraphTensor:
    return x.graph.add_op("Square", [x]).outputs[0]


@register_compute("Square")
def _compute_square(op, inputs, runtime):
    return (launch("ewise_mul", np.multiply, inputs[0], inputs[0]),)


@register_grad("Square")
def _grad_square(op, grads):
    g, x = grads[0], op.inputs[0]
    two_x = g.graph.add_op("Mul", [x, convert_to_tensor(2.0, g.graph)]).outputs[0]
    return [g.graph.add_op("Mul", [g, two_x]).outputs[0]]


def sqrt(x: GraphTensor) -> GraphTensor:
    return x.graph.add_op("Sqrt", [x]).outputs[0]


@register_compute("Sqrt")
def _compute_sqrt(op, inputs, runtime):
    return (launch("ewise_sqrt", np.sqrt, inputs[0]),)


# ---------------------------------------------------------------------------
# matmul / conv / bias
# ---------------------------------------------------------------------------

def matmul(a: GraphTensor, b: GraphTensor, transpose_a: bool = False,
           transpose_b: bool = False, name: str = "MatMul") -> GraphTensor:
    op = a.graph.add_op("MatMul", [a, b],
                        {"transpose_a": transpose_a, "transpose_b": transpose_b},
                        name=name)
    return op.outputs[0]


@register_compute("MatMul")
def _compute_matmul(op, inputs, runtime):
    a, b = inputs
    if op.attrs.get("transpose_a"):
        a = np.swapaxes(a, -1, -2)
    if op.attrs.get("transpose_b"):
        b = np.swapaxes(b, -1, -2)
    return (K.matmul(a, b),)


@register_grad("MatMul")
def _grad_matmul(op, grads):
    g = grads[0]
    a, b = op.inputs
    ta = op.attrs.get("transpose_a", False)
    tb = op.attrs.get("transpose_b", False)
    # Standard TF MatMul gradient table (no transposes on gradients needed
    # beyond flag combinations); only the common (False, *) cases are used by
    # the model zoo but all four are supported.
    if not ta and not tb:
        ga = matmul(g, b, transpose_b=True)
        gb = matmul(a, g, transpose_a=True)
    elif not ta and tb:
        ga = matmul(g, b)
        gb = matmul(g, a, transpose_a=True)
    elif ta and not tb:
        ga = matmul(b, g, transpose_b=True)
        gb = matmul(a, g)
    else:
        ga = matmul(b, g, transpose_a=True, transpose_b=True)
        gb = matmul(g, a, transpose_a=True, transpose_b=True)
    return [ga, gb]


def conv2d(x: GraphTensor, filters: GraphTensor, strides=(1, 1),
           padding=(0, 0), name: str = "Conv2D") -> GraphTensor:
    op = x.graph.add_op("Conv2D", [x, filters],
                        {"strides": tuple(strides), "padding": tuple(padding)},
                        name=name)
    return op.outputs[0]


def _nhwc_to_nchw(x):
    return np.ascontiguousarray(np.transpose(x, (0, 3, 1, 2)))


def _nchw_to_nhwc(x):
    return np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)))


def _hwio_to_oihw(w):
    return np.ascontiguousarray(np.transpose(w, (3, 2, 0, 1)))


@register_compute("Conv2D")
def _compute_conv2d(op, inputs, runtime):
    x, w = inputs
    out = K.conv2d_forward(_nhwc_to_nchw(x), _hwio_to_oihw(w),
                           op.attrs["strides"], op.attrs["padding"])
    return (_nchw_to_nhwc(out),)


@register_grad("Conv2D")
def _grad_conv2d(op, grads):
    g = grads[0]
    x, w = op.inputs
    attrs = {"strides": op.attrs["strides"], "padding": op.attrs["padding"]}
    gi = g.graph.add_op("Conv2DBackpropInput", [x, w, g], attrs)
    gf = g.graph.add_op("Conv2DBackpropFilter", [x, w, g], attrs)
    return [gi.outputs[0], gf.outputs[0]]


@register_compute("Conv2DBackpropInput")
def _compute_conv2d_bwd_input(op, inputs, runtime):
    x, w, g = inputs
    out = K.conv2d_backward_input(_nhwc_to_nchw(g), _hwio_to_oihw(w),
                                  _nhwc_to_nchw(x).shape,
                                  op.attrs["strides"], op.attrs["padding"])
    return (_nchw_to_nhwc(out),)


@register_compute("Conv2DBackpropFilter")
def _compute_conv2d_bwd_filter(op, inputs, runtime):
    x, w, g = inputs
    out = K.conv2d_backward_weight(_nhwc_to_nchw(g), _nhwc_to_nchw(x),
                                   _hwio_to_oihw(w).shape,
                                   op.attrs["strides"], op.attrs["padding"])
    # OIHW -> HWIO
    return (np.ascontiguousarray(np.transpose(out, (2, 3, 1, 0))),)


def bias_add(x: GraphTensor, bias: GraphTensor, name: str = "BiasAdd") -> GraphTensor:
    return x.graph.add_op("BiasAdd", [x, bias], name=name).outputs[0]


@register_compute("BiasAdd")
def _compute_bias_add(op, inputs, runtime):
    # NHWC: bias broadcasts over the trailing channel dim
    return (launch("bias_add", np.add, inputs[0], inputs[1]),)


@register_grad("BiasAdd")
def _grad_bias_add(op, grads):
    g = grads[0]
    gb = g.graph.add_op("BiasAddGrad", [g])
    return [g, gb.outputs[0]]


@register_compute("BiasAddGrad")
def _compute_bias_add_grad(op, inputs, runtime):
    g = inputs[0]
    return (g.reshape(-1, g.shape[-1]).sum(axis=0),)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def _unary(op_type: str):
    def build(x: GraphTensor, name: str | None = None) -> GraphTensor:
        return x.graph.add_op(op_type, [x], name=name or op_type).outputs[0]
    return build


relu = _unary("Relu")
gelu = _unary("Gelu")
sigmoid = _unary("Sigmoid")
tanh = _unary("Tanh")


@register_compute("Relu")
def _compute_relu(op, inputs, runtime):
    return (K.relu(inputs[0]),)


@register_grad("Relu")
def _grad_relu(op, grads):
    g = grads[0]
    return [g.graph.add_op("ReluGrad", [g, op.inputs[0]]).outputs[0]]


@register_compute("ReluGrad")
def _compute_relu_grad(op, inputs, runtime):
    return (K.relu_backward(inputs[0], inputs[1]),)


@register_compute("Gelu")
def _compute_gelu(op, inputs, runtime):
    return (K.gelu(inputs[0]),)


@register_grad("Gelu")
def _grad_gelu(op, grads):
    g = grads[0]
    return [g.graph.add_op("GeluGrad", [g, op.inputs[0]]).outputs[0]]


@register_compute("GeluGrad")
def _compute_gelu_grad(op, inputs, runtime):
    return (K.gelu_backward(inputs[0], inputs[1]),)


@register_compute("Sigmoid")
def _compute_sigmoid(op, inputs, runtime):
    return (K.sigmoid(inputs[0]),)


@register_grad("Sigmoid")
def _grad_sigmoid(op, grads):
    g = grads[0]
    return [g.graph.add_op("SigmoidGrad", [g, op.outputs[0]]).outputs[0]]


@register_compute("SigmoidGrad")
def _compute_sigmoid_grad(op, inputs, runtime):
    return (K.sigmoid_backward(inputs[0], inputs[1]),)


@register_compute("Tanh")
def _compute_tanh(op, inputs, runtime):
    return (launch("tanh", np.tanh, inputs[0]),)


@register_grad("Tanh")
def _grad_tanh(op, grads):
    g = grads[0]
    return [g.graph.add_op("TanhGrad", [g, op.outputs[0]]).outputs[0]]


@register_compute("TanhGrad")
def _compute_tanh_grad(op, inputs, runtime):
    return (K.tanh_backward(inputs[0], inputs[1]),)


def softmax(x: GraphTensor, name: str = "Softmax") -> GraphTensor:
    return x.graph.add_op("Softmax", [x], name=name).outputs[0]


@register_compute("Softmax")
def _compute_softmax(op, inputs, runtime):
    return (K.softmax(inputs[0], axis=-1),)


@register_grad("Softmax")
def _grad_softmax(op, grads):
    g = grads[0]
    return [g.graph.add_op("SoftmaxGrad", [g, op.outputs[0]]).outputs[0]]


@register_compute("SoftmaxGrad")
def _compute_softmax_grad(op, inputs, runtime):
    return (K.softmax_backward(inputs[0], inputs[1], axis=-1),)


def log_softmax(x: GraphTensor, name: str = "LogSoftmax") -> GraphTensor:
    return x.graph.add_op("LogSoftmax", [x], name=name).outputs[0]


@register_compute("LogSoftmax")
def _compute_log_softmax(op, inputs, runtime):
    return (K.log_softmax(inputs[0], axis=-1),)


@register_grad("LogSoftmax")
def _grad_log_softmax(op, grads):
    g = grads[0]
    return [g.graph.add_op("LogSoftmaxGrad", [g, op.outputs[0]]).outputs[0]]


@register_compute("LogSoftmaxGrad")
def _compute_log_softmax_grad(op, inputs, runtime):
    return (K.log_softmax_backward(inputs[0], inputs[1], axis=-1),)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def max_pool(x: GraphTensor, ksize=(2, 2), strides=None, padding=(0, 0),
             name: str = "MaxPool") -> GraphTensor:
    attrs = {"ksize": tuple(ksize), "strides": tuple(strides or ksize),
             "padding": tuple(padding)}
    return x.graph.add_op("MaxPool", [x], attrs, name=name).outputs[0]


@register_compute("MaxPool")
def _compute_max_pool(op, inputs, runtime):
    out = K.maxpool2d_forward(_nhwc_to_nchw(inputs[0]), op.attrs["ksize"],
                              op.attrs["strides"], op.attrs["padding"])
    return (_nchw_to_nhwc(out),)


@register_grad("MaxPool")
def _grad_max_pool(op, grads):
    g = grads[0]
    node = g.graph.add_op("MaxPoolGrad", [op.inputs[0], op.outputs[0], g],
                          dict(op.attrs))
    return [node.outputs[0]]


@register_compute("MaxPoolGrad")
def _compute_max_pool_grad(op, inputs, runtime):
    x, y, g = (_nhwc_to_nchw(v) for v in inputs)
    out = K.maxpool2d_backward(g, x, y, op.attrs["ksize"], op.attrs["strides"],
                               op.attrs["padding"])
    return (_nchw_to_nhwc(out),)


def avg_pool(x: GraphTensor, ksize=(2, 2), strides=None, padding=(0, 0),
             name: str = "AvgPool") -> GraphTensor:
    attrs = {"ksize": tuple(ksize), "strides": tuple(strides or ksize),
             "padding": tuple(padding)}
    return x.graph.add_op("AvgPool", [x], attrs, name=name).outputs[0]


@register_compute("AvgPool")
def _compute_avg_pool(op, inputs, runtime):
    out = K.avgpool2d_forward(_nhwc_to_nchw(inputs[0]), op.attrs["ksize"],
                              op.attrs["strides"], op.attrs["padding"])
    return (_nchw_to_nhwc(out),)


@register_grad("AvgPool")
def _grad_avg_pool(op, grads):
    g = grads[0]
    node = g.graph.add_op("AvgPoolGrad", [op.inputs[0], g], dict(op.attrs))
    return [node.outputs[0]]


@register_compute("AvgPoolGrad")
def _compute_avg_pool_grad(op, inputs, runtime):
    x, g = (_nhwc_to_nchw(v) for v in inputs)
    out = K.avgpool2d_backward(g, x.shape, op.attrs["ksize"],
                               op.attrs["strides"], op.attrs["padding"])
    return (_nchw_to_nhwc(out),)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def fused_batch_norm(x, gamma, beta, running_mean_name: str,
                     running_var_name: str, training: bool = True,
                     momentum: float = 0.1, eps: float = 1e-5,
                     name: str = "FusedBatchNorm") -> GraphTensor:
    """BatchNorm over the channel (last) axis of an NHWC tensor.

    Running statistics live in the variable store under the given names and
    are updated as a side effect in training mode (as TF's fused op does).
    """
    attrs = {"training": training, "momentum": momentum, "eps": eps,
             "running_mean": running_mean_name, "running_var": running_var_name}
    op = x.graph.add_op("FusedBatchNorm", [x, gamma, beta], attrs,
                        name=name, num_outputs=3)
    return op.outputs[0]


@register_compute("FusedBatchNorm")
def _compute_fused_batch_norm(op, inputs, runtime):
    x, gamma, beta = inputs
    rm = runtime.variables.read(op.attrs["running_mean"])
    rv = runtime.variables.read(op.attrs["running_var"])
    xc = _nhwc_to_nchw(x)
    out, cache, new_rm, new_rv = K.batch_norm_forward(
        xc, gamma, beta, rm, rv, op.attrs["training"],
        op.attrs["momentum"], op.attrs["eps"])
    if op.attrs["training"]:
        runtime.variables.write(op.attrs["running_mean"], new_rm)
        runtime.variables.write(op.attrs["running_var"], new_rv)
    xhat, inv_std, _ = cache
    return (_nchw_to_nhwc(out), _nchw_to_nhwc(xhat), inv_std)


@register_grad("FusedBatchNorm")
def _grad_fused_batch_norm(op, grads):
    g = grads[0]
    node = g.graph.add_op(
        "FusedBatchNormGrad",
        [g, op.outputs[1], op.outputs[2], op.inputs[1]],
        {"training": op.attrs["training"]},
        num_outputs=3,
    )
    return [node.outputs[0], node.outputs[1], node.outputs[2]]


@register_compute("FusedBatchNormGrad")
def _compute_fused_batch_norm_grad(op, inputs, runtime):
    g, xhat, inv_std, gamma = inputs
    cache = (_nhwc_to_nchw(xhat), inv_std, gamma)
    dx, dgamma, dbeta = K.batch_norm_backward(_nhwc_to_nchw(g), cache,
                                              op.attrs["training"])
    return (_nchw_to_nhwc(dx), dgamma, dbeta)


def layer_norm(x, gamma, beta, eps: float = 1e-5,
               name: str = "LayerNorm") -> GraphTensor:
    op = x.graph.add_op("LayerNorm", [x, gamma, beta], {"eps": eps},
                        name=name, num_outputs=3)
    return op.outputs[0]


@register_compute("LayerNorm")
def _compute_layer_norm(op, inputs, runtime):
    out, cache = K.layer_norm_forward(inputs[0], inputs[1], inputs[2],
                                      op.attrs["eps"])
    xhat, inv_std, _ = cache
    return (out, xhat, inv_std)


@register_grad("LayerNorm")
def _grad_layer_norm(op, grads):
    g = grads[0]
    node = g.graph.add_op(
        "LayerNormGrad", [g, op.outputs[1], op.outputs[2], op.inputs[1]],
        num_outputs=3)
    return [node.outputs[0], node.outputs[1], node.outputs[2]]


@register_compute("LayerNormGrad")
def _compute_layer_norm_grad(op, inputs, runtime):
    g, xhat, inv_std, gamma = inputs
    dx, dgamma, dbeta = K.layer_norm_backward(g, (xhat, inv_std, gamma))
    return (dx, dgamma, dbeta)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x: GraphTensor, shape, name: str = "Reshape") -> GraphTensor:
    return x.graph.add_op("Reshape", [x], {"shape": tuple(shape)},
                          name=name).outputs[0]


@register_compute("Reshape")
def _compute_reshape(op, inputs, runtime):
    return (launch("reshape", np.reshape, inputs[0], op.attrs["shape"]),)


@register_grad("Reshape")
def _grad_reshape(op, grads):
    g = grads[0]
    node = g.graph.add_op("ReshapeGrad", [g, op.inputs[0]])
    return [node.outputs[0]]


@register_compute("ReshapeGrad")
def _compute_reshape_grad(op, inputs, runtime):
    return (inputs[0].reshape(inputs[1].shape),)


def transpose(x: GraphTensor, perm, name: str = "Transpose") -> GraphTensor:
    return x.graph.add_op("Transpose", [x], {"perm": tuple(perm)},
                          name=name).outputs[0]


@register_compute("Transpose")
def _compute_transpose(op, inputs, runtime):
    return (launch("transpose", np.transpose, inputs[0], op.attrs["perm"]),)


@register_grad("Transpose")
def _grad_transpose(op, grads):
    perm = op.attrs["perm"]
    inverse = tuple(int(i) for i in np.argsort(perm))
    return [transpose(grads[0], inverse)]


def concat(tensors, axis: int = 0, name: str = "ConcatV2") -> GraphTensor:
    g = tensors[0].graph
    return g.add_op("ConcatV2", list(tensors), {"axis": axis},
                    name=name).outputs[0]


@register_compute("ConcatV2")
def _compute_concat(op, inputs, runtime):
    return (launch("concat", np.concatenate, inputs, axis=op.attrs["axis"]),)


@register_grad("ConcatV2")
def _grad_concat(op, grads):
    g = grads[0]
    node = g.graph.add_op("ConcatGrad", [g] + list(op.inputs),
                          {"axis": op.attrs["axis"]},
                          num_outputs=len(op.inputs))
    return list(node.outputs)


@register_compute("ConcatGrad")
def _compute_concat_grad(op, inputs, runtime):
    g, refs = inputs[0], inputs[1:]
    axis = op.attrs["axis"]
    sizes = [r.shape[axis] for r in refs]
    splits = np.cumsum(sizes)[:-1]
    return tuple(np.split(g, splits, axis=axis))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def reduce_mean(x: GraphTensor, axis=None, keepdims: bool = False,
                name: str = "Mean") -> GraphTensor:
    return x.graph.add_op("Mean", [x], {"axis": axis, "keepdims": keepdims},
                          name=name).outputs[0]


def reduce_sum(x: GraphTensor, axis=None, keepdims: bool = False,
               name: str = "Sum") -> GraphTensor:
    return x.graph.add_op("Sum", [x], {"axis": axis, "keepdims": keepdims},
                          name=name).outputs[0]


@register_compute("Mean")
def _compute_mean(op, inputs, runtime):
    return (launch("reduce_mean", np.mean, inputs[0], axis=op.attrs["axis"],
                   keepdims=op.attrs["keepdims"]),)


@register_compute("Sum")
def _compute_sum(op, inputs, runtime):
    return (launch("reduce_sum", np.sum, inputs[0], axis=op.attrs["axis"],
                   keepdims=op.attrs["keepdims"]),)


def _reduce_grad(op, grads, mean: bool):
    g = grads[0]
    node = g.graph.add_op("ReduceGrad", [g, op.inputs[0]],
                          {"axis": op.attrs["axis"],
                           "keepdims": op.attrs["keepdims"], "mean": mean})
    return [node.outputs[0]]


@register_grad("Mean")
def _grad_mean(op, grads):
    return _reduce_grad(op, grads, mean=True)


@register_grad("Sum")
def _grad_sum(op, grads):
    return _reduce_grad(op, grads, mean=False)


@register_compute("ReduceGrad")
def _compute_reduce_grad(op, inputs, runtime):
    g, ref = inputs
    axis, keepdims, mean = op.attrs["axis"], op.attrs["keepdims"], op.attrs["mean"]
    g = np.asarray(g)
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for a in sorted(a % ref.ndim for a in axes):
            g = np.expand_dims(g, a)
    out = np.broadcast_to(g, ref.shape).copy()
    if mean:
        if axis is None:
            count = ref.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([ref.shape[a] for a in axes]))
        out /= count
    return (out,)


# ---------------------------------------------------------------------------
# embedding / loss / dropout
# ---------------------------------------------------------------------------

def gather(params: GraphTensor, indices: GraphTensor,
           name: str = "GatherV2") -> GraphTensor:
    return params.graph.add_op("GatherV2", [params, indices],
                               name=name).outputs[0]


@register_compute("GatherV2")
def _compute_gather(op, inputs, runtime):
    params, indices = inputs
    return (K.embedding_forward(indices.astype(np.int64), params),)


@register_grad("GatherV2")
def _grad_gather(op, grads):
    g = grads[0]
    node = g.graph.add_op("GatherGrad", [g, op.inputs[0], op.inputs[1]])
    return [node.outputs[0], None]


@register_compute("GatherGrad")
def _compute_gather_grad(op, inputs, runtime):
    g, params, indices = inputs
    return (K.embedding_backward(g, indices.astype(np.int64), params.shape[0]),)


def sparse_softmax_cross_entropy(logits: GraphTensor, labels: GraphTensor,
                                 name: str = "SparseSoftmaxCrossEntropyWithLogits"
                                 ) -> GraphTensor:
    op = logits.graph.add_op("SparseSoftmaxCrossEntropyWithLogits",
                             [logits, labels], name=name, num_outputs=2)
    return op.outputs[0]


@register_compute("SparseSoftmaxCrossEntropyWithLogits")
def _compute_xent(op, inputs, runtime):
    logits, labels = inputs
    labels = labels.astype(np.int64)
    log_probs = K.log_softmax(logits, axis=-1)
    flat = log_probs.reshape(-1, log_probs.shape[-1])
    picked = flat[np.arange(flat.shape[0]), labels.reshape(-1)]
    loss = launch("nll_loss", lambda p: -p.mean(), picked)
    probs = np.exp(flat)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(flat.shape[0]), labels.reshape(-1)] = 1.0
    backprop = ((probs - one_hot) / flat.shape[0]).reshape(log_probs.shape)
    return (np.asarray(loss), backprop)


@register_grad("SparseSoftmaxCrossEntropyWithLogits")
def _grad_xent(op, grads):
    g = grads[0]
    node = g.graph.add_op("XentGrad", [g, op.outputs[1]])
    return [node.outputs[0], None]


@register_compute("XentGrad")
def _compute_xent_grad(op, inputs, runtime):
    g, backprop = inputs
    return (np.asarray(g) * backprop,)


def dropout(x: GraphTensor, rate: float = 0.5, training: bool = True,
            seed: int | None = None, name: str = "Dropout") -> GraphTensor:
    op = x.graph.add_op("Dropout", [x],
                        {"rate": rate, "training": training, "seed": seed},
                        name=name, num_outputs=2)
    return op.outputs[0]


@register_compute("Dropout")
def _compute_dropout(op, inputs, runtime):
    x = inputs[0]
    rate, training = op.attrs["rate"], op.attrs["training"]
    if not training or rate <= 0:
        return (x.copy(), np.ones_like(x))
    rng = np.random.default_rng(op.attrs["seed"])
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return (launch("dropout", np.multiply, x, mask), mask)


@register_grad("Dropout")
def _grad_dropout(op, grads):
    g = grads[0]
    return [g.graph.add_op("Mul", [g, op.outputs[1]]).outputs[0]]


# ---------------------------------------------------------------------------
# state mutation / control
# ---------------------------------------------------------------------------

def assign_sub(var: GraphTensor, delta: GraphTensor,
               name: str = "AssignSub") -> Operation:
    if var.op.type != "Variable":
        raise ValueError("assign_sub target must be a Variable output")
    return var.graph.add_op("AssignSub", [var, delta],
                            {"var_name": var.op.name}, name=name)


@register_compute("AssignSub")
def _compute_assign_sub(op, inputs, runtime):
    current, delta = inputs
    updated = current - delta
    runtime.variables.write(op.attrs["var_name"], updated)
    return (updated,)


def assign_add(var: GraphTensor, delta: GraphTensor,
               name: str = "AssignAdd") -> Operation:
    if var.op.type != "Variable":
        raise ValueError("assign_add target must be a Variable output")
    return var.graph.add_op("AssignAdd", [var, delta],
                            {"var_name": var.op.name}, name=name)


@register_compute("AssignVar")
def _compute_assign_var(op, inputs, runtime):
    _, value = inputs
    runtime.variables.write(op.attrs["var_name"], value)
    return (value,)


@register_compute("AssignAdd")
def _compute_assign_add(op, inputs, runtime):
    current, delta = inputs
    updated = current + delta
    runtime.variables.write(op.attrs["var_name"], updated)
    return (updated,)


def group(ops, name: str = "NoOp", graph: Graph | None = None) -> Operation:
    """A no-output op with control dependencies on ``ops`` (tf.group)."""
    # explicit length check (not truthiness) mirroring _graph's identity
    # check: only a genuinely empty dependency list falls back
    g = ops[0].graph if len(ops) > 0 else _graph(graph)
    deps = [o if isinstance(o, Operation) else o.op for o in ops]
    return g.add_op("NoOp", [], name=name, num_outputs=1, control_inputs=deps)


@register_compute("NoOp")
def _compute_noop(op, inputs, runtime):
    return (np.zeros(()),)


def py_call(func, inputs, num_outputs: int = 1, attrs: dict | None = None,
            name: str = "PyCall", graph: Graph | None = None) -> Operation:
    """A python-callback op — the vehicle instrumentation routines ride in.

    ``func(*arrays)`` must return an array (or a tuple of ``num_outputs``).
    An input-less callback targets ``graph`` when given — routed through
    ``_graph``'s identity check, so a fresh *empty* explicit graph is
    honored — and the default graph otherwise.
    """
    inputs = list(inputs)
    g = inputs[0].graph if len(inputs) > 0 else _graph(graph)
    merged = {"func": func}
    merged.update(attrs or {})
    return g.add_op("PyCall", inputs, merged, name=name,
                    num_outputs=num_outputs)


@register_compute("PyCall")
def _compute_py_call(op, inputs, runtime):
    result = op.attrs["func"](*inputs)
    if not isinstance(result, tuple):
        result = (result,)
    return tuple(np.asarray(r) for r in result)


# ---------------------------------------------------------------------------
# symbolic-capture builders (repro.capture)
# ---------------------------------------------------------------------------

def capture_op(op_type: str, inputs, attrs: dict | None = None,
               num_outputs: int = 1, name: str | None = None,
               graph: Graph | None = None,
               control_inputs=()) -> Operation:
    """Append one captured op (eager op-type namespace) to ``graph``.

    Unlike the TF-style builders above, captured ops keep the *eager*
    operator names (``matmul``, ``conv2d``...); their compute functions wrap
    the eager :class:`~repro.eager.dispatch.OpDef` forwards (registered by
    :mod:`repro.capture.ops`).  Tagged ``captured`` so analyses and tools can
    distinguish them from hand-built TF-style graphs.
    """
    g = _graph(graph)
    op = g.add_op(op_type, list(inputs), dict(attrs or {}),
                  name=name or op_type, num_outputs=num_outputs,
                  control_inputs=control_inputs)
    op.tags["captured"] = True
    return op


def capture_variable(array: np.ndarray, name: str = "CapturedVariable",
                     trainable: bool = True,
                     graph: Graph | None = None) -> GraphTensor:
    """A ``Variable`` node whose store entry *aliases* ``array`` (no copy).

    Symbolic capture lifts eager parameters/buffers this way so eager
    in-place updates stay visible to the captured graph (and vice versa).
    """
    g = _graph(graph)
    op = g.add_op("Variable", [], {"trainable": trainable}, name=name)
    op.tags["captured"] = True
    g.variables.adopt(op.name, array)
    return op.outputs[0]


def capture_constant(value, name: str = "Const",
                     graph: Graph | None = None) -> GraphTensor:
    """A ``Const`` preserving the exact dtype of ``value``.

    Captured eager constants are already concrete arrays in the dtype the
    eager kernels saw; coercing to float64 (as :func:`constant` does) would
    change integer index/label arrays and break bit-equivalence.
    """
    op = _graph(graph).add_op("Const", [], {"value": np.asarray(value)},
                              name=name)
    op.tags["captured"] = True
    return op.outputs[0]


# AddN: gradient accumulation when a tensor has several consumers.
@register_compute("AddN")
def _compute_add_n(op, inputs, runtime):
    total = inputs[0]
    for value in inputs[1:]:
        total = launch("ewise_add", np.add, total, value)
    return (total,)


@register_grad("AddN")
def _grad_add_n(op, grads):
    return [grads[0]] * len(op.inputs)
