"""Op schema registry: arity, attribute types, shape/dtype inference rules.

Every operator implemented by the graph backend (``graph/builder.py`` plus
``graph/gradients.py`` / ``graph/fusion.py``) and by the eager backend
(``eager/ops.py``) has a registered :class:`OpSchema`.  The schemas drive the
static verifier (:mod:`repro.analysis.verify`), say which ops touch state
beyond their inputs (``OpSchema.stateful``, which the rematerialization pass
reads, :func:`repro.analysis.remat.recomputable`) and double as
machine-checked documentation of each op's contract.

Shapes are *partial*: a dimension may be ``None`` (unknown, e.g. fed through
an un-annotated ``Placeholder``) and a whole shape may be ``None`` (fully
unknown, e.g. the output of a user ``PyCall``).  Inference rules propagate
what is known and raise :class:`InferenceError` only on a provable
inconsistency, so unknown shapes never produce false positives.

Completeness is enforced: :func:`missing_graph_schemas` /
:func:`missing_eager_schemas` diff the schema tables against the live op
registries, and a unit test (plus ``python -m repro.analysis``) fails when an
op implementation has no schema — new ops cannot land without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Shape", "OpSchema", "SchemaError", "InferenceError", "InferEnv",
    "GRAPH_SCHEMAS", "EAGER_SCHEMAS",
    "register_graph_schema", "register_eager_schema",
    "missing_graph_schemas", "missing_eager_schemas",
    "check_registry_complete", "check_op_against_schema",
    "broadcast_shapes", "validate_mask_shape", "validate_scale",
]

#: a partial shape: tuple of dims (``None`` = unknown dim) or ``None`` entirely
Shape = "tuple[int | None, ...] | None"


class SchemaError(RuntimeError):
    """An op registry / schema registry inconsistency (missing schema...)."""


class InferenceError(ValueError):
    """A provable shape/dtype inconsistency found during static inference."""


@dataclass(frozen=True)
class InferEnv:
    """Read-only lookup state handed to shape-inference rules."""

    #: the graph's VariableStore (graph backend) or None
    variables: Any = None
    #: placeholder/op name -> example shape, e.g. from a feed dict
    feed_shapes: Mapping[str, tuple] = field(default_factory=dict)


@dataclass(frozen=True)
class OpSchema:
    """Static contract of one operator type."""

    op_type: str
    min_inputs: int = 0
    #: None = variadic
    max_inputs: int | None = None
    #: None = dynamic (checked via ``num_outputs_fn`` when given)
    num_outputs: int | None = 1
    #: attr name -> tuple of accepted python types
    attrs: Mapping[str, tuple] = field(default_factory=dict)
    required_attrs: tuple[str, ...] = ()
    #: ``infer(op, in_shapes, env) -> [out_shape, ...]``; None = all unknown
    infer: Callable[[Any, list, InferEnv], list] | None = None
    #: ops whose attrs may carry keys beyond the declared set (PyCall)
    allow_extra_attrs: bool = False
    #: expected number of outputs as a function of the op (variadic outputs)
    num_outputs_fn: Callable[[Any], int] | None = None
    #: dtype kind constraints per input index ('i' = integer-valued)
    input_dtype_kinds: Mapping[int, str] = field(default_factory=dict)
    #: ``stateful(op) -> bool``: whether running ``op`` touches more than
    #: its inputs (reads or writes the variable store, draws fresh
    #: randomness), so the rematerialization pass must not re-execute it;
    #: None = a function of its inputs only
    stateful: Callable[[Any], bool] | None = None


GRAPH_SCHEMAS: dict[str, OpSchema] = {}
EAGER_SCHEMAS: dict[str, OpSchema] = {}


def register_graph_schema(schema: OpSchema) -> OpSchema:
    if schema.op_type in GRAPH_SCHEMAS:
        raise SchemaError(f"duplicate graph schema for {schema.op_type!r}")
    GRAPH_SCHEMAS[schema.op_type] = schema
    return schema


def register_eager_schema(schema: OpSchema) -> OpSchema:
    if schema.op_type in EAGER_SCHEMAS:
        raise SchemaError(f"duplicate eager schema for {schema.op_type!r}")
    EAGER_SCHEMAS[schema.op_type] = schema
    return schema


# ---------------------------------------------------------------------------
# partial-shape algebra
# ---------------------------------------------------------------------------

def is_known(shape) -> bool:
    return shape is not None and all(d is not None for d in shape)


def numel(shape) -> int | None:
    if not is_known(shape):
        return None
    return int(math.prod(shape))


def broadcast_shapes(a, b, what: str = "operands"):
    """Numpy-style broadcast of two partial shapes; None dims stay unknown."""
    if a is None or b is None:
        return None
    out = []
    # missing leading dims broadcast as implicit 1s (numpy semantics)
    for da, db in zip(((1,) * (len(b) - len(a))) + tuple(a),
                      ((1,) * (len(a) - len(b))) + tuple(b)):
        if da is None or db is None:
            # an unknown dim against a known dim d>1 still yields d: the
            # unknown must be either d or 1 for the program to be valid
            known = db if da is None else da
            out.append(known if known is not None and known != 1 else None)
        elif da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            raise InferenceError(
                f"cannot broadcast {what} of shapes {tuple(a)} and {tuple(b)}")
    return tuple(out)


def _same_dims(a, b) -> bool:
    """True unless the two partial shapes provably differ."""
    if a is None or b is None:
        return True
    if len(a) != len(b):
        return False
    return all(da is None or db is None or da == db for da, db in zip(a, b))


def require_same(a, b, what: str):
    if not _same_dims(a, b):
        raise InferenceError(f"{what}: shapes {a} and {b} are incompatible")
    if a is None:
        return b
    if b is None:
        return a
    return tuple(da if da is not None else db for da, db in zip(a, b))


def _dim(shape, index):
    if shape is None:
        return None
    return shape[index]


def _conv_hw(size, kernel, stride, pad):
    if size is None:
        return None
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise InferenceError(
            f"spatial size {size} too small for kernel {kernel} "
            f"(stride {stride}, padding {pad})")
    return out


# ---------------------------------------------------------------------------
# shared inference rules
# ---------------------------------------------------------------------------

def _infer_elementwise(op, in_shapes, env):
    return [in_shapes[0]]


def _infer_broadcast_binary(op, in_shapes, env):
    return [broadcast_shapes(in_shapes[0], in_shapes[1],
                             what=f"{op.type} inputs")]


def _infer_like(index):
    def rule(op, in_shapes, env):
        return [in_shapes[index]]
    return rule


def _infer_grad_pair(op, in_shapes, env):
    # (incoming grad, reference) -> gradient shaped like both
    return [require_same(in_shapes[0], in_shapes[1],
                         f"{op.type} gradient vs. reference")]


def _infer_matmul(op, in_shapes, env, transpose_a=False, transpose_b=False):
    a, b = in_shapes[0], in_shapes[1]
    if a is None or b is None:
        return [None]
    if len(a) < 2 or len(b) < 2:
        raise InferenceError(
            f"{op.type} needs rank>=2 operands, got {a} and {b}")
    am, ak = (a[-1], a[-2]) if transpose_a else (a[-2], a[-1])
    bk, bn = (b[-1], b[-2]) if transpose_b else (b[-2], b[-1])
    if ak is not None and bk is not None and ak != bk:
        raise InferenceError(
            f"{op.type} inner dimensions disagree: "
            f"{a} (k={ak}) x {b} (k={bk})")
    batch = broadcast_shapes(a[:-2], b[:-2], what=f"{op.type} batch dims")
    if batch is None:
        batch = (None,) * max(len(a), len(b) - 2)
    return [tuple(batch) + (am, bn)]


def _graph_matmul(op, in_shapes, env):
    return _infer_matmul(op, in_shapes, env,
                         op.attrs.get("transpose_a", False),
                         op.attrs.get("transpose_b", False))


def _infer_conv2d_nhwc(op, in_shapes, env):
    x, w = in_shapes[0], in_shapes[1]
    strides = tuple(op.attrs["strides"])
    padding = tuple(op.attrs["padding"])
    if w is not None and len(w) != 4:
        raise InferenceError(f"{op.type} weight must be HWIO rank-4, got {w}")
    if x is not None and len(x) != 4:
        raise InferenceError(f"{op.type} input must be NHWC rank-4, got {x}")
    ci_x, ci_w = _dim(x, 3), _dim(w, 2)
    if ci_x is not None and ci_w is not None and ci_x != ci_w:
        raise InferenceError(
            f"{op.type} input channels {ci_x} != weight in-channels {ci_w} "
            f"(x={x}, w={w})")
    oh = _conv_hw(_dim(x, 1), _dim(w, 0) or 0, strides[0], padding[0]) \
        if _dim(w, 0) is not None else None
    ow = _conv_hw(_dim(x, 2), _dim(w, 1) or 0, strides[1], padding[1]) \
        if _dim(w, 1) is not None else None
    return [(_dim(x, 0), oh, ow, _dim(w, 3))]


def _infer_pool_nhwc(op, in_shapes, env):
    x = in_shapes[0]
    if x is not None and len(x) != 4:
        raise InferenceError(f"{op.type} input must be NHWC rank-4, got {x}")
    kh, kw = op.attrs["ksize"]
    sh, sw = op.attrs["strides"]
    ph, pw = op.attrs["padding"]
    return [(_dim(x, 0), _conv_hw(_dim(x, 1), kh, sh, ph),
             _conv_hw(_dim(x, 2), kw, sw, pw), _dim(x, 3))]


def _infer_bias_add(op, in_shapes, env):
    x, b = in_shapes[0], in_shapes[1]
    if b is not None and len(b) != 1:
        raise InferenceError(f"BiasAdd bias must be rank-1, got {b}")
    cx, cb = (_dim(x, -1) if x else None), _dim(b, 0)
    if cx is not None and cb is not None and cx != cb:
        raise InferenceError(
            f"BiasAdd channel mismatch: input {x} has {cx} channels, "
            f"bias {b} has {cb}")
    return [x]


def _infer_reshape(op, in_shapes, env):
    target = tuple(op.attrs["shape"])
    total = numel(in_shapes[0])
    negatives = [i for i, d in enumerate(target) if d == -1]
    if len(negatives) > 1:
        raise InferenceError(f"Reshape target {target} has multiple -1 dims")
    if negatives:
        if total is None:
            return [tuple(None if d == -1 else d for d in target)]
        rest = math.prod(d for d in target if d != -1)
        if rest == 0 or total % rest:
            raise InferenceError(
                f"Reshape cannot fold {in_shapes[0]} ({total} elements) "
                f"into {target}")
        out = tuple(total // rest if d == -1 else d for d in target)
    else:
        out = target
        if total is not None and math.prod(out) != total:
            raise InferenceError(
                f"Reshape element count mismatch: {in_shapes[0]} has {total} "
                f"elements, target {target} has {math.prod(out)}")
    return [out]


def _infer_transpose(op, in_shapes, env):
    x = in_shapes[0]
    perm = tuple(op.attrs["perm"])
    if x is None:
        return [None]
    if sorted(perm) != list(range(len(x))):
        raise InferenceError(
            f"Transpose perm {perm} is not a permutation of rank {len(x)}")
    return [tuple(x[p] for p in perm)]


def _infer_concat(op, in_shapes, env):
    axis = op.attrs["axis"]
    if any(s is None for s in in_shapes):
        return [None]
    rank = len(in_shapes[0])
    if any(len(s) != rank for s in in_shapes):
        raise InferenceError(f"ConcatV2 rank mismatch across inputs: {in_shapes}")
    out = list(in_shapes[0])
    total = 0
    for s in in_shapes:
        for d in range(rank):
            if d == axis % rank:
                continue
            if s[d] is not None and out[d] is not None and s[d] != out[d]:
                raise InferenceError(
                    f"ConcatV2 non-axis dim {d} mismatch: {in_shapes}")
            out[d] = out[d] if out[d] is not None else s[d]
        total = None if (total is None or s[axis % rank] is None) \
            else total + s[axis % rank]
    out[axis % rank] = total
    return [tuple(out)]


def _infer_reduce(op, in_shapes, env):
    x = in_shapes[0]
    axis = op.attrs.get("axis")
    keepdims = op.attrs.get("keepdims", False)
    if x is None:
        return [None]
    if axis is None:
        return [tuple(1 for _ in x) if keepdims else ()]
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = {a % len(x) for a in axes}
    if keepdims:
        return [tuple(1 if i in axes else d for i, d in enumerate(x))]
    return [tuple(d for i, d in enumerate(x) if i not in axes)]


def _infer_gather(op, in_shapes, env):
    params, indices = in_shapes[0], in_shapes[1]
    if params is None or indices is None:
        return [None]
    return [tuple(indices) + tuple(params[1:])]


def _infer_batch_norm(op, in_shapes, env):
    x = in_shapes[0]
    channels = _dim(x, -1) if x else None
    gamma = in_shapes[1]
    if gamma is not None and channels is not None and len(gamma) == 1 \
            and gamma[0] != channels:
        raise InferenceError(
            f"FusedBatchNorm gamma {gamma} does not match input channels "
            f"{channels} (x={x})")
    return [x, x, (channels,)]


def _infer_layer_norm(op, in_shapes, env):
    x = in_shapes[0]
    inv_std = None if x is None else tuple(x[:-1]) + (1,)
    return [x, x, inv_std]


def _infer_pycall(op, in_shapes, env):
    # a pass-through wrapper (insert-before / insert-after) returns
    # replacements for exactly the tensors it received, so shapes carry over;
    # a replacement or user PyCall can return anything -> unknown.
    if op.tags.get("pycall_role") == "wrap" \
            and len(op.outputs) == len(op.inputs):
        return list(in_shapes)
    return [None] * len(op.outputs)


def _infer_variable(op, in_shapes, env):
    if env.variables is not None and op.name in env.variables:
        return [tuple(np.asarray(env.variables.read(op.name)).shape)]
    return [None]


def _infer_placeholder(op, in_shapes, env):
    fed = env.feed_shapes.get(op.name)
    if fed is not None:
        return [tuple(fed)]
    declared = op.attrs.get("shape")
    return [tuple(declared) if declared is not None else None]


def _infer_const(op, in_shapes, env):
    return [tuple(np.asarray(op.attrs["value"]).shape)]


def _infer_addn(op, in_shapes, env):
    out = in_shapes[0]
    for s in in_shapes[1:]:
        out = require_same(out, s, "AddN contributions")
    return [out]


def _infer_fused_conv(op, in_shapes, env):
    out = _infer_conv2d_nhwc(op, in_shapes, env)
    if op.attrs.get("has_bias") and len(in_shapes) >= 3:
        _infer_bias_add(op, [out[0], in_shapes[2]], env)
    return out


def _infer_fused_matmul(op, in_shapes, env):
    out = _graph_matmul(op, in_shapes, env)
    if op.attrs.get("has_bias") and len(in_shapes) >= 3:
        _infer_bias_add(op, [out[0], in_shapes[2]], env)
    return out


#: binary elementwise op types a FusedElementwise chain may contain
#: (mirrors ``repro.graph.fusion._EWISE_BINARY``)
_FUSED_EWISE_BINARY = frozenset({"Add", "Sub", "Mul", "RealDiv"})


def _infer_fused_elementwise(op, in_shapes, env):
    """Replay the absorbed chain's shape flow: head, then broadcast links."""
    chain = op.attrs["chain"]
    head_type, _ = chain[0]
    if head_type in _FUSED_EWISE_BINARY:
        shape = broadcast_shapes(in_shapes[0], in_shapes[1],
                                 what=f"{op.name} head {head_type} inputs")
        pos = 2
    else:
        shape = in_shapes[0]
        pos = 1
    for op_type, _side in chain[1:]:
        if op_type in _FUSED_EWISE_BINARY:
            if pos >= len(in_shapes):
                raise InferenceError(
                    f"{op.name}: chain expects more inputs than provided "
                    f"({len(in_shapes)})")
            shape = broadcast_shapes(shape, in_shapes[pos],
                                     what=f"{op.name} link {op_type}")
            pos += 1
    if pos != len(in_shapes):
        raise InferenceError(
            f"{op.name}: chain consumes {pos} inputs but the op has "
            f"{len(in_shapes)}")
    return [shape]


def _infer_xent(op, in_shapes, env):
    logits = in_shapes[0]
    return [(), logits]


# ---------------------------------------------------------------------------
# graph-backend schemas (TF-style op types, NHWC/HWIO layouts)
# ---------------------------------------------------------------------------

_TUPLEY = (tuple, list)
_AXISY = (int, tuple, list, type(None))


def _g(op_type, min_inputs=0, max_inputs=None, num_outputs=1, attrs=None,
       required=(), infer=None, **kw):
    if max_inputs is None and min_inputs is not None:
        max_inputs = min_inputs
    return register_graph_schema(OpSchema(
        op_type, min_inputs, max_inputs, num_outputs, attrs or {},
        tuple(required), infer, **kw))


def _always(op) -> bool:
    """``stateful`` rule of ops that always touch the variable store."""
    return True


def _unseeded_dropout(op) -> bool:
    # a fixed seed makes the mask a function of the attrs (a recompute
    # replays it); no seed in training draws fresh entropy on every run
    return bool(op.attrs.get("training") and op.attrs.get("rate", 0.0) > 0
                and op.attrs.get("seed") is None)


_g("Placeholder", 0, attrs={"shape": _TUPLEY + (type(None),)},
   infer=_infer_placeholder)
_g("Const", 0, attrs={"value": (np.ndarray, np.generic, float, int)},
   required=("value",), infer=_infer_const)
_g("Variable", 0, attrs={"trainable": (bool,)}, infer=_infer_variable,
   stateful=_always)
_g("Identity", 1, infer=_infer_elementwise)

for _name in ("Add", "Sub", "Mul", "RealDiv"):
    _g(_name, 2, infer=_infer_broadcast_binary)
for _name in ("Neg", "Square", "Sqrt", "Relu", "Gelu", "Sigmoid", "Tanh",
              "Softmax", "LogSoftmax", "OnesLike"):
    _g(_name, 1, infer=_infer_elementwise)
_g("BroadcastGradient", 2, infer=_infer_like(1))

_g("MatMul", 2, attrs={"transpose_a": (bool,), "transpose_b": (bool,)},
   infer=_graph_matmul)
_g("Conv2D", 2, attrs={"strides": _TUPLEY, "padding": _TUPLEY},
   required=("strides", "padding"), infer=_infer_conv2d_nhwc)
_g("Conv2DBackpropInput", 3, attrs={"strides": _TUPLEY, "padding": _TUPLEY},
   required=("strides", "padding"), infer=_infer_like(0))
_g("Conv2DBackpropFilter", 3, attrs={"strides": _TUPLEY, "padding": _TUPLEY},
   required=("strides", "padding"), infer=_infer_like(1))
_g("BiasAdd", 2, infer=_infer_bias_add)
_g("BiasAddGrad", 1,
   infer=lambda op, s, env: [(_dim(s[0], -1),) if s[0] else None])

for _name in ("ReluGrad", "GeluGrad"):
    _g(_name, 2, infer=_infer_grad_pair)
for _name in ("SigmoidGrad", "TanhGrad", "SoftmaxGrad", "LogSoftmaxGrad"):
    _g(_name, 2, infer=_infer_grad_pair)

_POOL_ATTRS = {"ksize": _TUPLEY, "strides": _TUPLEY, "padding": _TUPLEY}
_g("MaxPool", 1, attrs=_POOL_ATTRS, required=tuple(_POOL_ATTRS),
   infer=_infer_pool_nhwc)
_g("AvgPool", 1, attrs=_POOL_ATTRS, required=tuple(_POOL_ATTRS),
   infer=_infer_pool_nhwc)
_g("MaxPoolGrad", 3, attrs=_POOL_ATTRS, required=tuple(_POOL_ATTRS),
   infer=_infer_like(0))
_g("AvgPoolGrad", 2, attrs=_POOL_ATTRS, required=tuple(_POOL_ATTRS),
   infer=_infer_like(0))

_g("FusedBatchNorm", 3, num_outputs=3,
   attrs={"training": (bool,), "momentum": (float,), "eps": (float,),
          "running_mean": (str,), "running_var": (str,)},
   required=("running_mean", "running_var"), infer=_infer_batch_norm,
   stateful=_always)  # training writes the running stats, inference reads
_g("FusedBatchNormGrad", 4, num_outputs=3, attrs={"training": (bool,)},
   infer=lambda op, s, env: [s[0], s[3], s[3]])
_g("LayerNorm", 3, num_outputs=3, attrs={"eps": (float,)},
   infer=_infer_layer_norm)
_g("LayerNormGrad", 4, num_outputs=3,
   infer=lambda op, s, env: [s[0], s[3], s[3]])

_g("Reshape", 1, attrs={"shape": _TUPLEY}, required=("shape",),
   infer=_infer_reshape)
_g("ReshapeGrad", 2, infer=_infer_like(1))
_g("Transpose", 1, attrs={"perm": _TUPLEY}, required=("perm",),
   infer=_infer_transpose)
_g("ConcatV2", 1, max_inputs=2 ** 30, attrs={"axis": (int,)},
   required=("axis",), infer=_infer_concat)
_g("ConcatGrad", 2, max_inputs=2 ** 30, num_outputs=None,
   attrs={"axis": (int,)}, required=("axis",),
   num_outputs_fn=lambda op: len(op.inputs) - 1,
   infer=lambda op, s, env: list(s[1:]))

for _name in ("Mean", "Sum"):
    _g(_name, 1, attrs={"axis": _AXISY, "keepdims": (bool,)},
       infer=_infer_reduce)
_g("ReduceGrad", 2,
   attrs={"axis": _AXISY, "keepdims": (bool,), "mean": (bool,)},
   required=("mean",), infer=_infer_like(1))

_g("GatherV2", 2, infer=_infer_gather)
_g("GatherGrad", 3, infer=_infer_like(1))
_g("SparseSoftmaxCrossEntropyWithLogits", 2, num_outputs=2, infer=_infer_xent)
_g("XentGrad", 2, infer=_infer_like(1))
_g("Dropout", 1, num_outputs=2,
   attrs={"rate": (float,), "training": (bool,), "seed": (int, type(None))},
   infer=lambda op, s, env: [s[0], s[0]], stateful=_unseeded_dropout)

for _name in ("AssignSub", "AssignAdd", "AssignVar"):
    _g(_name, 2, attrs={"var_name": (str,)}, required=("var_name",),
       infer=_infer_like(0), stateful=_always)
_g("NoOp", 0, infer=lambda op, s, env: [()])
_g("PyCall", 0, max_inputs=2 ** 30, num_outputs=None,
   attrs={"func": (object,)}, required=("func",), allow_extra_attrs=True,
   num_outputs_fn=lambda op: len(op.outputs), infer=_infer_pycall)
_g("AddN", 1, max_inputs=2 ** 30, infer=_infer_addn)

_g("FusedConv2D", 2, max_inputs=3,
   attrs={"strides": _TUPLEY, "padding": _TUPLEY, "has_bias": (bool,),
          "has_relu": (bool,), "transpose_a": (bool,), "transpose_b": (bool,)},
   required=("strides", "padding"), infer=_infer_fused_conv)
_g("FusedMatMul", 2, max_inputs=3,
   attrs={"has_bias": (bool,), "has_relu": (bool,),
          "transpose_a": (bool,), "transpose_b": (bool,)},
   infer=_infer_fused_matmul)
_g("FusedElementwise", 1, max_inputs=64, attrs={"chain": (tuple,)},
   required=("chain",), infer=_infer_fused_elementwise)


# ---------------------------------------------------------------------------
# eager-backend schemas (canonical lowercase names, NCHW/OIHW layouts)
# ---------------------------------------------------------------------------

class _EagerOpView:
    """Adapts (name, attrs, n_outputs) to the op interface infer rules use."""

    __slots__ = ("type", "name", "attrs", "inputs", "outputs", "tags")

    def __init__(self, name: str, attrs: Mapping[str, Any],
                 num_inputs: int, num_outputs: int) -> None:
        self.type = name
        self.name = name
        self.attrs = dict(attrs)
        self.inputs = [None] * num_inputs
        self.outputs = [None] * num_outputs
        self.tags = {}


def infer_eager_shapes(name: str, in_shapes: Iterable, attrs=None,
                       env: InferEnv | None = None) -> list:
    """Run the eager op's schema inference over partial input shapes."""
    schema = EAGER_SCHEMAS.get(name)
    in_shapes = list(in_shapes)
    if schema is None:
        raise SchemaError(f"no eager schema registered for {name!r}")
    if schema.infer is None:
        return [None] * (schema.num_outputs or 1)
    view = _EagerOpView(name, attrs or {}, len(in_shapes),
                        schema.num_outputs or 1)
    return schema.infer(view, in_shapes, env or InferEnv())


def _infer_conv2d_nchw(op, in_shapes, env):
    x, w = in_shapes[0], in_shapes[1]
    stride = tuple(op.attrs.get("stride", (1, 1)))
    padding = tuple(op.attrs.get("padding", (0, 0)))
    if x is not None and len(x) != 4:
        raise InferenceError(f"conv2d input must be NCHW rank-4, got {x}")
    if w is not None and len(w) != 4:
        raise InferenceError(f"conv2d weight must be OIHW rank-4, got {w}")
    ci_x, ci_w = _dim(x, 1), _dim(w, 1)
    if ci_x is not None and ci_w is not None and ci_x != ci_w:
        raise InferenceError(
            f"conv2d input channels {ci_x} != weight in-channels {ci_w}")
    oh = _conv_hw(_dim(x, 2), _dim(w, 2) or 0, stride[0], padding[0]) \
        if _dim(w, 2) is not None else None
    ow = _conv_hw(_dim(x, 3), _dim(w, 3) or 0, stride[1], padding[1]) \
        if _dim(w, 3) is not None else None
    return [(_dim(x, 0), _dim(w, 0), oh, ow)]


def _infer_linear(op, in_shapes, env):
    x, w = in_shapes[0], in_shapes[1]
    if x is None or w is None:
        return [None]
    if _dim(x, -1) is not None and _dim(w, 1) is not None \
            and x[-1] != w[1]:
        raise InferenceError(
            f"linear input features {x[-1]} != weight in-features {w[1]}")
    return [tuple(x[:-1]) + (_dim(w, 0),)]


def _infer_eager_matmul(op, in_shapes, env):
    return _infer_matmul(op, in_shapes, env)


def _e(name, min_inputs, max_inputs=None, num_outputs=1, attrs=None,
       infer=None):
    if max_inputs is None:
        max_inputs = min_inputs
    return register_eager_schema(OpSchema(
        name, min_inputs, max_inputs, num_outputs, attrs or {}, (), infer))


for _name in ("add", "sub", "mul", "div"):
    _e(_name, 2, infer=_infer_broadcast_binary)
for _name in ("neg", "exp", "log", "sqrt", "abs", "relu", "sigmoid", "tanh",
              "gelu"):
    _e(_name, 1, infer=_infer_elementwise)
_e("pow", 1, attrs={"exponent": (float, int)}, infer=_infer_elementwise)
_e("clip", 1, attrs={"minimum": (float, int, type(None)),
                     "maximum": (float, int, type(None))},
   infer=_infer_elementwise)
_e("where", 3, infer=lambda op, s, env: [broadcast_shapes(
    broadcast_shapes(s[0], s[1], "where operands"), s[2], "where operands")])

_e("matmul", 2, infer=_infer_eager_matmul)
_e("linear", 2, max_inputs=3, infer=_infer_linear)
_e("conv2d", 2,
   attrs={"stride": _TUPLEY, "padding": _TUPLEY, "algorithm": (str,)},
   infer=_infer_conv2d_nchw)
_e("bias_add", 2, infer=lambda op, s, env: [s[0]])

_POOL_E = {"kernel": _TUPLEY, "stride": _TUPLEY + (type(None),),
           "padding": _TUPLEY}


def _infer_pool_nchw(op, in_shapes, env):
    x = in_shapes[0]
    if x is not None and len(x) != 4:
        raise InferenceError(f"{op.type} input must be NCHW rank-4, got {x}")
    kernel = tuple(op.attrs.get("kernel", (2, 2)))
    stride = tuple(op.attrs.get("stride") or kernel)
    padding = tuple(op.attrs.get("padding", (0, 0)))
    return [(_dim(x, 0), _dim(x, 1),
             _conv_hw(_dim(x, 2), kernel[0], stride[0], padding[0]),
             _conv_hw(_dim(x, 3), kernel[1], stride[1], padding[1]))]


_e("max_pool2d", 1, attrs=_POOL_E, infer=_infer_pool_nchw)
_e("avg_pool2d", 1, attrs=_POOL_E, infer=_infer_pool_nchw)

_e("batch_norm", 5,
   attrs={"training": (bool,), "momentum": (float,), "eps": (float,)},
   infer=lambda op, s, env: [s[0]])
_e("layer_norm", 3, attrs={"eps": (float,)}, infer=lambda op, s, env: [s[0]])

_e("softmax", 1, attrs={"axis": (int,)}, infer=_infer_elementwise)
_e("log_softmax", 1, attrs={"axis": (int,)}, infer=_infer_elementwise)
_e("dropout", 1, attrs={"p": (float,), "training": (bool,),
                        "seed": (int, type(None))},
   infer=_infer_elementwise)

_e("reshape", 1, attrs={"shape": _TUPLEY},
   infer=lambda op, s, env: _infer_reshape(
       _EagerOpView("Reshape", {"shape": op.attrs.get("shape", ())}, 1, 1)
       if op.attrs.get("shape") is not None else op, s, env)
   if op.attrs.get("shape") is not None else [None])
_e("transpose", 1, attrs={"axes": _TUPLEY + (type(None),)},
   infer=lambda op, s, env: [tuple(reversed(s[0]))]
   if s[0] is not None and op.attrs.get("axes") is None
   else _infer_transpose(
       _EagerOpView("Transpose", {"perm": op.attrs["axes"]}, 1, 1), s, env)
   if op.attrs.get("axes") is not None else [None])
_e("slice", 1, attrs={"index": (object,)})
_e("concat", 1, max_inputs=2 ** 30, attrs={"axis": (int,)},
   infer=lambda op, s, env: _infer_concat(
       _EagerOpView("ConcatV2", {"axis": op.attrs.get("axis", 0)},
                    len(s), 1), s, env))
_e("stack", 1, max_inputs=2 ** 30, attrs={"axis": (int,)})
_e("split", 1, num_outputs=2, attrs={"sections": (int,), "axis": (int,)})
_e("pad", 1, attrs={"pad_width": _TUPLEY})

for _name in ("sum", "mean"):
    _e(_name, 1, attrs={"axis": _AXISY, "keepdims": (bool,)},
       infer=lambda op, s, env: _infer_reduce(op, s, env))

# registered by eager/autograd.py, not eager/ops.py: (param, grad) -> grad
_e("accumulate_grad", 2, infer=lambda op, s, env: [
    require_same(s[0], s[1], "accumulate_grad param vs. grad")])

_e("embedding", 2, infer=lambda op, s, env: [
    (tuple(s[0]) + (s[1][-1],)) if s[0] is not None and s[1] is not None
    else None])
_e("cross_entropy", 2, infer=lambda op, s, env: [()])
_e("mse_loss", 2, infer=lambda op, s, env: [()])


# ---------------------------------------------------------------------------
# completeness + per-op validation
# ---------------------------------------------------------------------------

def _builtin(fn) -> bool:
    return getattr(fn, "__module__", "").startswith("repro.")


def missing_graph_schemas(builtin_only: bool = True) -> set[str]:
    """Graph op types with a COMPUTE implementation but no schema."""
    from ..graph import builder, fusion, gradients  # noqa: F401 (register)
    return {op_type for op_type, fn in builder.COMPUTE.items()
            if op_type not in GRAPH_SCHEMAS
            and (not builtin_only or _builtin(fn))}


def missing_eager_schemas(builtin_only: bool = True) -> set[str]:
    """Eager op names with a registered OpDef but no schema."""
    from ..eager.dispatch import registry
    return {opdef.name for opdef in registry.all_ops()
            if opdef.name not in EAGER_SCHEMAS
            and (not builtin_only or _builtin(opdef.forward))}


def stale_graph_schemas() -> set[str]:
    """Schemas whose op type has no COMPUTE implementation (dead schema)."""
    from ..graph import builder, fusion, gradients  # noqa: F401
    return set(GRAPH_SCHEMAS) - set(builder.COMPUTE)


def check_registry_complete() -> None:
    """Raise :class:`SchemaError` if any implemented op lacks a schema."""
    problems = []
    missing = missing_graph_schemas()
    if missing:
        problems.append(f"graph ops without a schema: {sorted(missing)}")
    missing = missing_eager_schemas()
    if missing:
        problems.append(f"eager ops without a schema: {sorted(missing)}")
    stale = stale_graph_schemas()
    if stale:
        problems.append(f"graph schemas without an implementation: "
                        f"{sorted(stale)}")
    if problems:
        raise SchemaError("; ".join(problems))


def check_op_against_schema(op, schema: OpSchema) -> list[str]:
    """Arity / output-count / attribute-type violations for one graph op."""
    errors = []
    n = len(op.inputs)
    if n < schema.min_inputs or \
            (schema.max_inputs is not None and n > schema.max_inputs):
        want = (str(schema.min_inputs) if schema.max_inputs == schema.min_inputs
                else f"{schema.min_inputs}..{schema.max_inputs}")
        errors.append(f"expects {want} inputs, has {n}")
    expected_out = (schema.num_outputs_fn(op) if schema.num_outputs_fn
                    else schema.num_outputs)
    if expected_out is not None and len(op.outputs) != expected_out:
        errors.append(f"expects {expected_out} outputs, has {len(op.outputs)}")
    for attr in schema.required_attrs:
        if attr not in op.attrs:
            errors.append(f"missing required attr {attr!r}")
    for key, value in op.attrs.items():
        spec = schema.attrs.get(key)
        if spec is None:
            if not schema.allow_extra_attrs:
                errors.append(f"undeclared attr {key!r}")
            continue
        if object in spec:
            continue
        if not isinstance(value, spec):
            names = "/".join(t.__name__ for t in spec)
            errors.append(
                f"attr {key!r} should be {names}, got "
                f"{type(value).__name__} ({value!r})")
    return errors


# ---------------------------------------------------------------------------
# tool-input validation helpers (used by pruning / quantization before rewrite)
# ---------------------------------------------------------------------------

def validate_mask_shape(mask, weight, op_type: str = "?") -> None:
    """Raise if a pruning mask cannot elementwise-multiply the weight."""
    mask = np.asarray(mask)
    weight_shape = tuple(np.asarray(weight).shape)
    if tuple(mask.shape) != weight_shape:
        raise InferenceError(
            f"pruning mask shape {tuple(mask.shape)} does not match "
            f"{op_type} weight shape {weight_shape}; applying it would "
            f"broadcast or fail at run time")
    if not np.all(np.isfinite(mask)):
        raise InferenceError(f"pruning mask for {op_type} contains "
                             "non-finite values")


def validate_scale(scale, op_type: str = "?") -> float:
    """Raise if a quantization scale is unusable; return it as float."""
    value = float(scale)
    if not math.isfinite(value) or value <= 0.0:
        raise InferenceError(
            f"quantization scale for {op_type} must be a positive finite "
            f"number, got {value!r}")
    return value
