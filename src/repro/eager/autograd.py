"""Reverse-mode automatic differentiation for the eager backend.

The engine mirrors the structure the Amanda paper relies on (Sec. 5.2/5.3):

* a forward operator *declares* one or more backward operators
  (:class:`~repro.eager.dispatch.BackwardDef`), which are only executed when
  ``backward()`` runs — and each backward execution flows through the
  instrumentable :func:`~repro.eager.dispatch.execute_backward_def`;
* leaf gradients are accumulated through an explicit ``accumulate_grad``
  operator — the gradient-accumulation ops that PyTorch module hooks miss
  entirely (Fig. 9) but Amanda exposes;
* the driver can subscribe to *backward completion*, which the framework uses
  as an iteration boundary for consistent operator IDs.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from . import dispatch
from .dispatch import BackwardDef, OpCall, OpCtx, OpDef, Tensor

__all__ = ["Node", "backward", "grad", "add_backward_completion_listener",
           "remove_backward_completion_listener", "ACCUMULATE_GRAD"]


class Node:
    """One autograd-graph node: a forward op execution awaiting backward.

    The outputs own their node (``Tensor.node``) and the node holds them
    weakly, so a step's graph is acyclic and each activation is freed by
    reference counting once nothing reads it.  Backward reaches a node only
    through a live output; only a multi-output node can then have another
    output that died unused, so such a node keeps each output's position
    and ``(shape, dtype)``.  ``op_id`` is the forward op's stable id under
    instrumentation, ``op_call`` its record when an instrumented path ran it.
    """

    __slots__ = ("opdef", "ctx", "inputs", "op_call", "op_id", "_outputs",
                 "_positions", "_specs")

    def __init__(self, opdef: OpDef, ctx: OpCtx, inputs: tuple,
                 outputs: tuple, op_call: OpCall | None = None,
                 op_id: int | None = None) -> None:
        self.opdef = opdef
        self.ctx = ctx
        self.inputs = inputs
        self.op_call = op_call
        self.op_id = op_id
        self._outputs = tuple(map(weakref.ref, outputs))
        self._positions: dict[int, int] | None = None
        self._specs: tuple = ()
        if len(outputs) > 1:
            self._positions = {id(out): i for i, out in enumerate(outputs)}
            self._specs = tuple((out.data.shape, out.data.dtype)
                                for out in outputs)

    @property
    def outputs(self) -> tuple:
        """One entry per forward output: the tensor, or ``None`` once dead."""
        return tuple(ref() for ref in self._outputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    def output_index(self, tensor: Tensor) -> int:
        """Position of ``tensor``, one of this node's live outputs."""
        return 0 if self._positions is None else self._positions[id(tensor)]

    def zeros_like_output(self, index: int) -> np.ndarray:
        """The zero gradient of output ``index``, live or dead."""
        out = self._outputs[index]()
        if out is not None:
            return np.zeros_like(out.data)
        shape, dtype = self._specs[index]
        return np.zeros(shape, dtype)

    def parent_nodes(self):
        for tensor in self.inputs:
            if isinstance(tensor, Tensor) and tensor.node is not None:
                yield tensor.node

    def __repr__(self) -> str:
        return f"Node({self.opdef.name})"


# The explicit gradient-accumulation operator.  Its "forward" is an identity
# on the incoming gradient; the engine performs the actual ``.grad`` update
# with whatever (possibly instrumented) value the op returns.
def _accumulate_grad_forward(ctx: OpCtx, param: np.ndarray, grad: np.ndarray):
    return grad


ACCUMULATE_GRAD = dispatch.registry.register(
    OpDef("accumulate_grad", _accumulate_grad_forward, differentiable=False)
)


_completion_listeners: list[Callable[[], None]] = []


def add_backward_completion_listener(listener: Callable[[], None]) -> None:
    _completion_listeners.append(listener)


def remove_backward_completion_listener(listener: Callable[[], None]) -> None:
    if listener in _completion_listeners:
        _completion_listeners.remove(listener)


def _topological_order(root: Node) -> list[Node]:
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parent_nodes():
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(tensor: Tensor, grad: np.ndarray | None = None) -> None:
    """Back-propagate from ``tensor`` through the recorded graph."""
    if tensor.node is None:
        if tensor.requires_grad:
            seed = np.ones_like(tensor.data) if grad is None else np.asarray(grad)
            _accumulate(tensor, seed)
        return
    if grad is None:
        if tensor.size != 1:
            raise RuntimeError(
                "backward() without an explicit gradient requires a scalar output"
            )
        grad = np.ones_like(tensor.data)
    grad = np.asarray(grad, dtype=tensor.data.dtype)

    root = tensor.node
    order = _topological_order(root)
    pending: dict[int, list[np.ndarray | None]] = {
        id(root): [None] * root.num_outputs}
    pending[id(root)][root.output_index(tensor)] = grad

    with dispatch.no_grad():
        for node in reversed(order):
            slot = pending.pop(id(node), None)
            if slot is None:
                continue
            grads = []
            for index, (g, out) in enumerate(zip(slot, node.outputs)):
                if g is None:
                    g = node.zeros_like_output(index)
                if out is not None:
                    # a non-leaf tensor's hooks see its total gradient once
                    g = out._run_grad_hooks(g)
                grads.append(g)
            grad_outputs = tuple(grads)
            input_grads: dict[int, np.ndarray] = {}
            for bdef in node.opdef.backward_defs:
                partial = dispatch.execute_backward_def(node, bdef, grad_outputs)
                for index, value in partial.items():
                    if index in input_grads:
                        input_grads[index] = input_grads[index] + value
                    else:
                        input_grads[index] = value
            for index, value in input_grads.items():
                source = node.inputs[index]
                if not isinstance(source, Tensor):
                    continue
                value = np.asarray(value)
                producer = source.node
                if producer is not None:
                    slot = pending.get(id(producer))
                    if slot is None:
                        slot = [None] * producer.num_outputs
                        pending[id(producer)] = slot
                    position = producer.output_index(source)
                    if slot[position] is None:
                        slot[position] = value
                    else:
                        slot[position] = slot[position] + value
                else:
                    value = source._run_grad_hooks(value)
                    if source.requires_grad:
                        _accumulate(source, value)

    for listener in list(_completion_listeners):
        listener()


def _accumulate(param: Tensor, grad: np.ndarray) -> None:
    """Route a leaf gradient through the instrumentable accumulate_grad op."""
    result = dispatch.apply_op("accumulate_grad", param, Tensor(grad))
    value = result.data if isinstance(result, Tensor) else np.asarray(result)
    if param.grad is None:
        param.grad = value.copy()
    else:
        param.grad = param.grad + value


def grad(output: Tensor, inputs: list[Tensor],
         grad_output: np.ndarray | None = None) -> list[np.ndarray]:
    """Convenience: compute gradients of ``output`` w.r.t. ``inputs``."""
    saved = [(t, t.grad) for t in inputs]
    for t in inputs:
        t.grad = None
    backward(output, grad_output)
    grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]
    for t, previous in saved:
        t.grad = previous
    return grads
