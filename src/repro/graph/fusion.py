"""Compiler-style operator fusion for the graph backend (paper Sec. 7).

The paper discusses how DNN compilers that fuse operators *remove
instrumentation points*, and sketches the fix: "an intermediate level that
maintains the relationship between the remaining instrumentation points and
the original ones".  This module implements both halves:

* :func:`fuse_graph` — a TVM/Grappler-flavoured optimization pass that fuses
  ``Conv2D(+BiasAdd)(+Relu)`` and ``MatMul(+BiasAdd)(+Relu)`` chains into
  single ``FusedConv2D``/``FusedMatMul`` operators, and linear **elementwise
  chains** (``Add``/``Sub``/``Mul``/``RealDiv``/``Neg``/``Square``/``Sqrt``/
  ``Relu``/``Tanh`` — e.g. a residual block's ``Add -> Relu``) into a single
  ``FusedElementwise`` op that replays the chain in-place over one buffer
  (whenever the intermediate values have no other consumers and are not
  fetched);
* the **fusion provenance** record: every fused op carries
  ``tags["fused_from"]`` — the ordered list of original op types — which the
  standard mapping tool surfaces as ``context["fused_types"]`` so
  instrumentation tools can still find the points that fusion absorbed.
"""

from __future__ import annotations

import numpy as np

from ..kernels import nn as K
from ..kernels.runtime import launch
from .builder import register_compute
from .core import Graph, Operation
from .rewrite import copy_graph

__all__ = ["fuse_graph", "fusion_report"]


@register_compute("FusedConv2D")
def _compute_fused_conv(op, inputs, runtime):
    x, w = inputs[0], inputs[1]
    xc = np.ascontiguousarray(np.transpose(x, (0, 3, 1, 2)))
    wc = np.ascontiguousarray(np.transpose(w, (3, 2, 0, 1)))
    out = K.conv2d_forward(xc, wc, op.attrs["strides"], op.attrs["padding"])
    out = np.ascontiguousarray(np.transpose(out, (0, 2, 3, 1)))
    # the epilogue stages run in place on the (private) conv result: same
    # ufuncs in the same order, so the bits match the unfused chain
    if op.attrs.get("has_bias"):
        out = launch("bias_add", np.add, out, inputs[2], out=out)
    if op.attrs.get("has_relu"):
        out = K.relu(out, out=out)
    return (out,)


@register_compute("FusedMatMul")
def _compute_fused_matmul(op, inputs, runtime):
    out = K.matmul(inputs[0], inputs[1])
    if op.attrs.get("has_bias"):
        out = launch("bias_add", np.add, out, inputs[2], out=out)
    if op.attrs.get("has_relu"):
        out = K.relu(out, out=out)
    return (out,)


#: elementwise op types a FusedElementwise chain may absorb.  Each entry
#: replays the exact kernel launch of the unfused compute, so fused
#: execution produces bit-identical values *and* kernel event streams.
_EWISE_UNARY = ("Neg", "Square", "Sqrt", "Relu", "Tanh")
_EWISE_BINARY = ("Add", "Sub", "Mul", "RealDiv")
_EWISE_BINARY_KERNELS = {
    "Add": ("ewise_add", np.add),
    "Sub": ("ewise_sub", np.subtract),
    "Mul": ("ewise_mul", np.multiply),
    "RealDiv": ("ewise_div", np.divide),
}


def _apply_ewise(op_type, a, b=None, out=None):
    if op_type == "Relu":
        return launch("relu", np.maximum, a, 0.0, out=out)
    if op_type == "Square":
        return launch("ewise_mul", np.multiply, a, a, out=out)
    if op_type == "Neg":
        return launch("ewise_neg", np.negative, a, out=out)
    if op_type == "Sqrt":
        return launch("ewise_sqrt", np.sqrt, a, out=out)
    if op_type == "Tanh":
        return launch("tanh", np.tanh, a, out=out)
    name, fn = _EWISE_BINARY_KERNELS[op_type]
    return launch(name, fn, a, b, out=out)


def _reusable(value, shape) -> bool:
    """Whether the chain value can serve as the next stage's out-buffer."""
    return (isinstance(value, np.ndarray) and value.dtype == np.float64
            and value.shape == shape)


@register_compute("FusedElementwise")
def _compute_fused_elementwise(op, inputs, runtime):
    """Replay the absorbed chain over a single rolling buffer.

    ``attrs["chain"]`` is a tuple of ``(op_type, side)`` links: ``side`` is
    ``None`` for the head and for unary links, and for a binary link names
    which operand position the chain value feeds (the other operand is the
    next external input).  The head writes into a fresh buffer; every later
    link runs in place on it when shape/dtype allow, so an N-op chain costs
    one intermediate instead of N.
    """
    chain = op.attrs["chain"]
    head_type, _ = chain[0]
    if head_type in _EWISE_BINARY_KERNELS:
        operands = (inputs[0], inputs[1])
        pos = 2
    else:
        operands = (inputs[0],)
        pos = 1
    value = _apply_ewise(head_type, *operands)
    for op_type, side in chain[1:]:
        if op_type in _EWISE_BINARY_KERNELS:
            other = inputs[pos]
            pos += 1
            a, b = (value, other) if side == 0 else (other, value)
            shape = np.broadcast_shapes(np.shape(a), np.shape(b))
            ok = _reusable(value, shape) and (
                not isinstance(other, np.ndarray)
                or other.dtype == np.float64)
            value = _apply_ewise(op_type, a, b, out=value if ok else None)
        else:
            out = value if _reusable(value, np.shape(value)) else None
            value = _apply_ewise(op_type, value, out=out)
    return (value,)


_FUSABLE_HEADS = {"Conv2D": "FusedConv2D", "MatMul": "FusedMatMul"}


def _single_consumer(graph: Graph, op: Operation) -> Operation | None:
    """The unique consumer of op's single output, or None."""
    consumers = [candidate for candidate in graph.operations
                 for edge in candidate.inputs if edge.op is op]
    if len(consumers) == 1:
        return consumers[0]
    return None


def fuse_graph(graph: Graph,
               protected: set[str] | None = None) -> tuple[Graph, dict]:
    """Return an optimized copy of ``graph`` with fused operator chains.

    ``protected`` names ops that must survive (e.g. fetched tensors' ops).
    The returned report maps each fused op name to the original chain.
    """
    protected = protected or set()
    clone, mapping = copy_graph(graph)
    report: dict[str, list[str]] = {}
    consumed: set[str] = set()

    for op in list(clone.operations):
        fused_type = _FUSABLE_HEADS.get(op.type)
        if fused_type is None or op.name in consumed:
            continue
        chain = [op]
        cursor = op
        # try to absorb BiasAdd
        nxt = _single_consumer(clone, cursor)
        has_bias = False
        if (nxt is not None and nxt.type == "BiasAdd"
                and nxt.inputs[0].op is cursor and nxt.name not in protected
                and cursor.name not in protected):
            chain.append(nxt)
            cursor = nxt
            has_bias = True
        # try to absorb Relu
        nxt = _single_consumer(clone, cursor)
        has_relu = False
        if (nxt is not None and nxt.type == "Relu"
                and cursor.name not in protected
                and nxt.name not in protected):
            chain.append(nxt)
            cursor = nxt
            has_relu = True
        if len(chain) == 1:
            continue

        head = chain[0]
        attrs = {
            "strides": head.attrs.get("strides", (1, 1)),
            "padding": head.attrs.get("padding", (0, 0)),
            "transpose_a": head.attrs.get("transpose_a", False),
            "transpose_b": head.attrs.get("transpose_b", False),
            "has_bias": has_bias,
            "has_relu": has_relu,
        }
        inputs = list(head.inputs)
        if has_bias:
            inputs.append(chain[1].inputs[1])
        clone._internal_mutation = True
        try:
            fused = clone.add_op(fused_type, inputs, attrs,
                                 name=f"{head.name}_fused")
        finally:
            clone._internal_mutation = False
        fused.tags["fused_from"] = [link.type for link in chain]
        fused.tags["fused_names"] = [link.name for link in chain]
        report[fused.name] = [link.type for link in chain]

        # rewire consumers of the chain tail to the fused op
        tail_output = cursor.outputs[0]
        for candidate in clone.operations:
            if candidate is fused:
                continue
            for index, edge in enumerate(candidate.inputs):
                if edge is tail_output:
                    candidate.inputs[index] = fused.outputs[0]
        for link in chain:
            consumed.add(link.name)
        clone.version += 1

    # -- elementwise chains: Add/Sub/Mul/.../Relu runs of length >= 2 ---------
    # an op another op names as a control input must survive: absorbing it
    # would leave that dependency pointing at a dropped op
    control_targets = {dep.name for candidate in clone.operations
                       for dep in candidate.control_inputs}

    def _chainable(candidate: Operation) -> bool:
        return ((candidate.type in _EWISE_UNARY
                 or candidate.type in _EWISE_BINARY)
                and len(candidate.outputs) == 1
                and candidate.name not in consumed
                and candidate.name not in protected
                and candidate.name not in control_targets)

    def _is_extension(producer: Operation, candidate: Operation) -> bool:
        # candidate will be absorbed into producer's chain instead
        return (_chainable(producer)
                and _single_consumer(clone, producer) is candidate)

    for op in list(clone.operations):
        if not _chainable(op):
            continue
        if any(_is_extension(edge.op, op) for edge in op.inputs):
            continue  # mid-chain: the head's walk will absorb it
        chain = [op]
        spec: list[tuple[str, int | None]] = [(op.type, None)]
        external = list(op.inputs)
        cursor = op
        while True:
            nxt = _single_consumer(clone, cursor)
            if nxt is None or not _chainable(nxt):
                break
            if nxt.type in _EWISE_BINARY:
                feeds0 = nxt.inputs[0].op is cursor
                feeds1 = nxt.inputs[1].op is cursor
                if feeds0 and feeds1:
                    break  # both operands come from the chain value
                side = 0 if feeds0 else 1
                spec.append((nxt.type, side))
                external.append(nxt.inputs[1 - side])
            else:
                spec.append((nxt.type, None))
            chain.append(nxt)
            cursor = nxt
        if len(chain) < 2:
            continue
        clone._internal_mutation = True
        try:
            fused = clone.add_op("FusedElementwise", external,
                                 {"chain": tuple(spec)},
                                 name=f"{chain[0].name}_ewfused")
        finally:
            clone._internal_mutation = False
        fused.tags["fused_from"] = [link.type for link in chain]
        fused.tags["fused_names"] = [link.name for link in chain]
        report[fused.name] = [link.type for link in chain]
        tail_output = cursor.outputs[0]
        for candidate in clone.operations:
            if candidate is fused:
                continue
            for index, edge in enumerate(candidate.inputs):
                if edge is tail_output:
                    candidate.inputs[index] = fused.outputs[0]
        consumed.update(link.name for link in chain)
        clone.version += 1

    # drop the now-dead chain ops (no consumers, not protected)
    survivors = []
    for op in clone.operations:
        if op.name in consumed and op.name not in protected:
            still_used = any(edge.op is op for candidate in clone.operations
                             if candidate.name not in consumed
                             for edge in candidate.inputs)
            if not still_used:
                continue
        survivors.append(op)
    # restore topological order (fused ops were appended after their
    # consumers were rewired to them)
    ordered: list[Operation] = []
    visited: set[str] = set()

    def visit(op: Operation) -> None:
        if op.name in visited:
            return
        visited.add(op.name)
        for edge in op.inputs:
            visit(edge.op)
        for dep in op.control_inputs:
            visit(dep)
        ordered.append(op)

    for op in survivors:
        visit(op)
    clone.operations = [op for op in ordered
                        if op.name in {s.name for s in survivors}]
    clone._by_name = {op.name: op for op in clone.operations}
    clone.version += 1
    return clone, report


def fusion_report(report: dict) -> str:
    lines = [f"{name}: {' + '.join(chain)}" for name, chain in report.items()]
    return "\n".join(lines)
