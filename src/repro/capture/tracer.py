"""Concrete tracer: records eager dispatch into a graph, mirrors backward.

The tracer implements *concrete* (``jit.trace``-style) capture: the module
runs eagerly on real arrays while :func:`repro.eager.dispatch.vanilla_apply`
reports every executed operator.  Array provenance is tracked by object
identity — each concrete ``ndarray`` seen during the trace maps to the
symbolic :class:`~repro.graph.core.GraphTensor` that will reproduce it at
replay:

* call arguments become ``Placeholder`` nodes (fed fresh on every replay);
* module parameters and buffers are lifted lazily to ``Variable`` nodes whose
  store entries *alias* the live eager buffers (no copies, no sync step);
* any other array (a constant baked into the module's Python code) becomes a
  ``Const`` holding a defensive copy with its exact dtype.

Python control flow is baked in by construction.  Whenever the trace observes
something it cannot replay faithfully — a concrete value escaping into
Python (``Tensor.item()``), an operator without captured-compute support, a
gradient hook — it records a structured *escape reason* and the caller bails
out to plain eager dispatch for that guard bucket.
"""

from __future__ import annotations

import numpy as np

from ..eager import autograd, dispatch
from ..eager.tensor import Tensor
from ..graph import builder
from ..graph.core import Graph, GraphTensor, Operation

__all__ = ["CaptureBailout", "Tracer", "mirror_backward"]


class CaptureBailout(Exception):
    """Raised when a trace cannot be completed; carries the escape reason."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class Tracer:
    """Records one eager execution into ``graph``.

    ``param_names`` maps ``id(array) -> variable name`` for every parameter
    and buffer of the module being traced; those arrays lift to ``Variable``
    nodes, everything else unknown bakes to a ``Const``.
    """

    def __init__(self, graph: Graph, param_names: dict[int, str],
                 param_arrays: list[np.ndarray]) -> None:
        self.graph = graph
        self.param_names = dict(param_names)
        #: id -> symbolic tensor for every concrete array seen so far
        self.symbols: dict[int, GraphTensor] = {}
        #: strong refs to every keyed array — an id() must not be recycled
        #: by the allocator while the trace still maps it
        self.keepalive: list[np.ndarray] = list(param_arrays)
        #: (variable op name,) for each param/buffer actually lifted
        self.lifted: list[str] = []
        self.escape_reason: str | None = None
        self.num_ops = 0

    # -- provenance ---------------------------------------------------------
    def add_placeholder(self, array: np.ndarray, name: str) -> str:
        ph = builder.placeholder(shape=tuple(array.shape), name=name,
                                 graph=self.graph)
        ph.op.tags["captured"] = True
        self.symbols[id(array)] = ph
        self.keepalive.append(array)
        return ph.op.name

    def lookup(self, array: np.ndarray) -> GraphTensor | None:
        return self.symbols.get(id(array))

    def symbol_for(self, array: np.ndarray) -> GraphTensor:
        sym = self.symbols.get(id(array))
        if sym is not None:
            return sym
        pname = self.param_names.get(id(array))
        if pname is not None:
            sym = builder.capture_variable(array, name=pname,
                                           graph=self.graph)
            self.lifted.append(sym.op.name)
        else:
            # defensive copy: the eager program may mutate the source array
            # after the trace, but the baked constant must stay frozen
            sym = builder.capture_constant(np.array(array),
                                           name="traced_const",
                                           graph=self.graph)
        self.symbols[id(array)] = sym
        self.keepalive.append(array)
        return sym

    # -- dispatch callbacks (invoked by vanilla_apply / Tensor.item) --------
    def record_apply(self, opdef, inputs: tuple, attrs: dict,
                     outputs: tuple) -> None:
        if self.escape_reason is not None:
            return
        from .ops import CAPTURABLE
        if opdef.name not in CAPTURABLE:
            self.record_escape(
                f"operator {opdef.name!r} has no captured compute")
            return
        syms = []
        for value in inputs:
            if isinstance(value, Tensor):
                arr = value.data
            elif isinstance(value, np.ndarray):
                arr = value
            else:
                self.record_escape(
                    f"non-array input of type {type(value).__name__} "
                    f"to operator {opdef.name!r}")
                return
            syms.append(self.symbol_for(arr))
        op = builder.capture_op(opdef.name, syms, dict(attrs),
                                num_outputs=len(outputs), graph=self.graph)
        for index, out in enumerate(outputs):
            self.symbols[id(out.data)] = op.outputs[index]
            self.keepalive.append(out.data)
        self.num_ops += 1

    def record_escape(self, reason: str) -> None:
        if self.escape_reason is None:
            self.escape_reason = reason


# ---------------------------------------------------------------------------
# backward mirror
# ---------------------------------------------------------------------------

def _grad_add(graph: Graph, a: GraphTensor, b: GraphTensor,
              forward_op: Operation) -> GraphTensor:
    op = builder.capture_op("add", [a, b], name="grad_acc", graph=graph)
    op.forward_op = forward_op
    return op.outputs[0]


def mirror_backward(tracer: Tracer, loss: Tensor):
    """Replay ``autograd.backward(loss)`` symbolically into the traced graph.

    Walks the autograd tape in the engine's exact order, executing each
    backward def concretely (to feed downstream defs real gradient arrays)
    while emitting one captured backward op per def.  Gradient accumulation
    — repeated input indices, fan-in at a parent output slot, and leaf
    ``.grad`` accumulation — is mirrored as explicit ``add`` ops in the
    engine's association order, because float addition is not associative
    and the contract is bit-identity.

    Leaves with a pre-existing ``.grad`` get a ``grad_in`` placeholder that
    seeds their accumulation chain (``param.grad + v`` is anchored on the
    value at call time, which differs between replays).

    Returns ``(leaf_params, leaf_grad_syms, grad_feeds)`` where ``grad_feeds``
    is a list of ``(param, placeholder_name)`` pairs to feed each replay.
    """
    graph = tracer.graph
    node = loss.node
    if node is None:
        raise CaptureBailout("loss tensor is a leaf; nothing to differentiate")
    if loss.size != 1:
        raise CaptureBailout("captured backward requires a scalar loss")
    loss_sym = tracer.lookup(loss.data)
    if loss_sym is None:
        raise CaptureBailout("loss was not produced by a traced operator")

    seed = np.asarray(np.ones_like(loss.data), dtype=loss.data.dtype)
    seed_op = builder.capture_op("OnesLike", [loss_sym], name="grad_seed",
                                 graph=graph)
    seed_op.forward_op = loss_sym.op

    pending: dict[int, list] = {id(node): [None] * node.num_outputs}
    pending_sym: dict[int, list] = {id(node): [None] * node.num_outputs}
    out_index = node.output_index(loss)
    pending[id(node)][out_index] = seed
    pending_sym[id(node)][out_index] = seed_op.outputs[0]

    leaf_syms: dict[int, GraphTensor] = {}
    leaf_params: list[Tensor] = []
    grad_feeds: list[tuple[Tensor, str]] = []
    order = autograd._topological_order(node)

    with dispatch.no_grad():
        for n in reversed(order):
            slot = pending.pop(id(n), None)
            if slot is None:
                continue
            ssym = pending_sym.pop(id(n))
            # backward reached the node through a live output; another may
            # have died unused
            outputs = n.outputs
            fwd_sym = next((tracer.lookup(out.data) for out in outputs
                            if out is not None), None)
            if fwd_sym is None:
                raise CaptureBailout(
                    f"tape node {n.opdef.name!r} was not traced")
            fop = fwd_sym.op
            grad_outputs = []
            grad_syms = []
            for index, (out, gval, gsym) in enumerate(
                    zip(outputs, slot, ssym)):
                if out is not None and out._grad_hooks:
                    raise CaptureBailout(
                        "tensor gradient hooks are not capturable")
                if gval is None:
                    gval = n.zeros_like_output(index)
                    zop = builder.capture_op(
                        "zeros_like",
                        [fop.outputs[index] if out is None
                         else tracer.symbol_for(out.data)],
                        name="grad_zero", graph=graph)
                    zop.forward_op = fop
                    gsym = zop.outputs[0]
                grad_outputs.append(gval)
                grad_syms.append(gsym)
            grad_tuple = tuple(grad_outputs)
            input_grads: dict[int, np.ndarray] = {}
            input_syms: dict[int, GraphTensor] = {}
            for bdef in n.opdef.backward_defs:
                partial = dispatch.execute_backward_def(n, bdef, grad_tuple)
                indices = tuple(partial)
                # the control edge on the forward op orders the ctx stash
                # before this op's ctx fetch under any executor schedule
                bop = builder.capture_op(
                    bdef.name, grad_syms,
                    {"forward_name": fop.name, "grad_indices": indices},
                    num_outputs=len(indices), name=bdef.name, graph=graph,
                    control_inputs=(fop,))
                bop.forward_op = fop
                for position, index in enumerate(indices):
                    value = partial[index]
                    vsym = bop.outputs[position]
                    if index in input_grads:
                        input_grads[index] = input_grads[index] + value
                        input_syms[index] = _grad_add(
                            graph, input_syms[index], vsym, fop)
                    else:
                        input_grads[index] = value
                        input_syms[index] = vsym
            for index, value in input_grads.items():
                source = n.inputs[index]
                if not isinstance(source, Tensor):
                    continue
                if source._grad_hooks:
                    raise CaptureBailout(
                        "tensor gradient hooks are not capturable")
                value = np.asarray(value)
                vsym = input_syms[index]
                if source.node is not None:
                    slot2 = pending.setdefault(
                        id(source.node), [None] * source.node.num_outputs)
                    ssym2 = pending_sym.setdefault(
                        id(source.node), [None] * source.node.num_outputs)
                    position = source.node.output_index(source)
                    if slot2[position] is None:
                        slot2[position] = value
                        ssym2[position] = vsym
                    else:
                        slot2[position] = slot2[position] + value
                        parent = tracer.lookup(source.data)
                        ssym2[position] = _grad_add(
                            graph, ssym2[position], vsym,
                            parent.op if parent is not None else fop)
                elif source.requires_grad:
                    key = id(source)
                    if key not in leaf_syms:
                        if source.grad is not None:
                            # seed the chain with the caller's accumulated
                            # grad: (g0 + v1) + v2 is not (v1 + v2) + g0
                            ph = builder.placeholder(
                                shape=tuple(source.grad.shape),
                                name="grad_in", graph=graph)
                            ph.op.tags["captured"] = True
                            grad_feeds.append((source, ph.op.name))
                            leaf_syms[key] = _grad_add(graph, ph, vsym, fop)
                        else:
                            leaf_syms[key] = vsym
                        leaf_params.append(source)
                    else:
                        leaf_syms[key] = _grad_add(
                            graph, leaf_syms[key], vsym, fop)
    return (leaf_params,
            [leaf_syms[id(p)] for p in leaf_params],
            grad_feeds)
