"""Operator registry and dispatch pipeline of the eager backend.

This module is the seam Amanda's eager driver instruments:

* every operator is an :class:`OpDef` registered in the global
  :class:`OpRegistry`; registration is observable (*snooping*, Sec. 5.3), so a
  driver can patch operators that are registered after it attaches;
* every forward execution flows through :func:`apply_op`, which consults a
  per-op ``call_override`` (the monkey-patch installed by the driver) before
  falling back to the vanilla pipeline;
* every backward execution flows through :func:`execute_backward_def`, with
  the same override mechanism keyed by the *forward* op, so backward ops are
  mapped to the forward op that declared them (Fig. 5).

An executed operator (forward or backward) is described by an :class:`OpCall`
record — the raw material the driver turns into an ``OpContext``.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..kernels.runtime import runtime as _kernel_runtime
from .tensor import Tensor

__all__ = [
    "OpCtx", "OpDef", "BackwardDef", "OpCall", "OpRegistry", "registry",
    "apply_op", "vanilla_apply", "execute_backward_def", "grad_enabled",
    "no_grad", "enable_grad", "unbroadcast", "current_module",
    "push_module", "pop_module", "set_capture_tracer", "get_capture_tracer",
]


# ---------------------------------------------------------------------------
# grad mode
# ---------------------------------------------------------------------------

class _GradState(threading.local):
    """Per-thread grad mode.  Instrumentation routines run under
    ``no_grad`` on whichever thread executes them (session workers,
    serving lanes); a process-global flag saved and restored by
    interleaved threads could be left off for everyone."""

    def __init__(self) -> None:
        self.enabled = True  # runs once in every thread that reads it


_grad_state = _GradState()


def grad_enabled() -> bool:
    return _grad_state.enabled


class _GradMode:
    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled
        self._previous = True

    def __enter__(self):
        self._previous = _grad_state.enabled
        _grad_state.enabled = self._enabled
        return self

    def __exit__(self, *exc):
        _grad_state.enabled = self._previous
        return False


def no_grad() -> _GradMode:
    """Disable autograd tracking inside the block."""
    return _GradMode(False)


def enable_grad() -> _GradMode:
    return _GradMode(True)


# ---------------------------------------------------------------------------
# module ownership stack (used by Module.__call__; lets OpCall know which
# module, if any, produced it — the information module hooks are limited to)
# ---------------------------------------------------------------------------

_module_stack: list[Any] = []

#: listeners fired when a *top-level* module call begins; Amanda's eager
#: driver uses this as an iteration boundary for stable op IDs
_top_level_entry_listeners: list[Callable[[], None]] = []


def add_top_level_entry_listener(listener: Callable[[], None]) -> None:
    _top_level_entry_listeners.append(listener)


def remove_top_level_entry_listener(listener: Callable[[], None]) -> None:
    if listener in _top_level_entry_listeners:
        _top_level_entry_listeners.remove(listener)


def push_module(module: Any) -> None:
    if not _module_stack:
        for listener in list(_top_level_entry_listeners):
            listener(module)
    _module_stack.append(module)


def pop_module() -> None:
    if _module_stack:
        _module_stack.pop()


def current_module() -> Any | None:
    return _module_stack[-1] if _module_stack else None


# ---------------------------------------------------------------------------
# op definitions
# ---------------------------------------------------------------------------

class OpCtx(dict):
    """Scratch space an op's forward uses to stash values for its backward."""

    def save(self, **values: Any) -> None:
        self.update(values)


@dataclass
class BackwardDef:
    """One backward operator declared by a forward operator.

    ``fn(ctx, grad_outputs)`` returns ``{input_index: grad_array}`` for the
    subset of the forward inputs this backward op differentiates.
    """

    name: str
    fn: Callable[[OpCtx, tuple[np.ndarray, ...]], dict[int, np.ndarray]]


class OpDef:
    """A registered operator: a forward function plus its backward ops."""

    def __init__(self, name: str,
                 forward: Callable[..., Any],
                 backward_defs: list[BackwardDef] | None = None,
                 differentiable: bool = True,
                 num_outputs: int = 1) -> None:
        self.name = name
        self.forward = forward
        self.backward_defs = backward_defs or []
        self.differentiable = differentiable and bool(self.backward_defs)
        self.num_outputs = num_outputs
        #: driver-installed replacement for the forward call pipeline
        self.call_override: Callable | None = None
        #: driver-installed replacement for the backward call pipeline
        self.backward_call_override: Callable | None = None


@dataclass
class OpCall:
    """Record of one operator execution (forward or backward)."""

    opdef: OpDef
    inputs: tuple
    attrs: dict
    seq: int
    is_backward: bool = False
    backward_name: str | None = None
    forward_call: "OpCall | None" = None
    module: Any = None
    metadata: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.backward_name if self.is_backward else self.opdef.name


class OpRegistry:
    """Global operator table with observable registration."""

    def __init__(self) -> None:
        self._ops: dict[str, OpDef] = {}
        self._listeners: list[Callable[[OpDef], None]] = []

    def register(self, opdef: OpDef) -> OpDef:
        if opdef.name in self._ops:
            raise ValueError(f"operator {opdef.name!r} already registered")
        self._ops[opdef.name] = opdef
        for listener in list(self._listeners):
            listener(opdef)
        return opdef

    def get(self, name: str) -> OpDef:
        try:
            return self._ops[name]
        except KeyError:
            raise KeyError(f"unknown operator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def names(self) -> list[str]:
        return sorted(self._ops)

    def all_ops(self) -> list[OpDef]:
        return list(self._ops.values())

    def add_registration_listener(self, listener: Callable[[OpDef], None],
                                  replay: bool = True) -> None:
        """Snoop op registration; with ``replay`` the listener also sees every
        already-registered op (so attaching a driver late still patches all)."""
        self._listeners.append(listener)
        if replay:
            for opdef in list(self._ops.values()):
                listener(opdef)

    def remove_registration_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)


registry = OpRegistry()

_seq_counter = itertools.count()


def next_seq() -> int:
    return next(_seq_counter)


# ---------------------------------------------------------------------------
# symbolic-capture tracer seam (repro.capture)
# ---------------------------------------------------------------------------

#: while non-None, every vanilla forward execution is reported to the tracer
#: *after* it ran eagerly (concrete tracing: real values flow, the tracer
#: only records the op stream and array provenance)
_capture_tracer: Any | None = None


def set_capture_tracer(tracer: Any | None) -> None:
    """Install (or clear, with ``None``) the active capture tracer."""
    global _capture_tracer
    _capture_tracer = tracer


def get_capture_tracer() -> Any | None:
    return _capture_tracer


# ---------------------------------------------------------------------------
# forward execution pipeline
# ---------------------------------------------------------------------------

def apply_op(name: str | OpDef, *inputs: Any, **attrs: Any):
    """Execute operator ``name`` on ``inputs`` — the backend's dispatch entry.

    Accepts either an operator name or an already-resolved :class:`OpDef`
    (layers/functional memoize the lookup at construction; overrides are
    patched onto the OpDef in place, so a memoized handle stays current).
    """
    opdef = name if isinstance(name, OpDef) else registry.get(name)
    if opdef.call_override is not None:
        return opdef.call_override(opdef, inputs, attrs)
    return vanilla_apply(opdef, inputs, attrs)


def vanilla_apply(opdef: OpDef, inputs: tuple, attrs: dict,
                  forward_override: Callable | None = None,
                  op_call: OpCall | None = None,
                  autograd_inputs: tuple | None = None,
                  op_id: int | None = None):
    """The un-instrumented execution pipeline.

    Drivers that override :attr:`OpDef.call_override` call back into this with
    possibly modified ``inputs`` and an optional ``forward_override`` (the
    ``replace_op`` semantics).  When a driver substitutes input *values*
    (``insert_before_op`` routines), it passes the original tensors as
    ``autograd_inputs`` so gradients still flow to the original producers —
    the AD-isolation behaviour of Sec. 5.2.  ``op_call`` and ``op_id`` are
    stored on the autograd node, which links the op's backward ops to it.
    """
    arrays = tuple(t.data if isinstance(t, Tensor) else t for t in inputs)
    # a forward_override never receives the ctx, so skip the allocation on
    # that path; the autograd node below creates one lazily if needed
    ctx = OpCtx() if forward_override is None else None
    forward = forward_override or opdef.forward
    tag_kernels = _kernel_runtime.has_subscribers
    if tag_kernels:
        _kernel_runtime.push_tag(f"{opdef.name}|{op_call.seq if op_call else ''}")
    try:
        if forward_override is not None:
            raw = forward(*arrays, **attrs)
        else:
            raw = forward(ctx, *arrays, **attrs)
    finally:
        if tag_kernels:
            _kernel_runtime.pop_tag()
    multi = isinstance(raw, tuple)
    raw_outputs = raw if multi else (raw,)
    outputs = tuple(Tensor(np.asarray(o)) for o in raw_outputs)

    grad_sources = autograd_inputs if autograd_inputs is not None else inputs
    needs_grad = (
        _grad_state.enabled
        and opdef.differentiable
        and any(isinstance(t, Tensor) and t.requires_grad for t in grad_sources)
    )
    if needs_grad:
        from . import autograd
        if ctx is None:
            ctx = OpCtx()
        node = autograd.Node(opdef, ctx, grad_sources, outputs,
                             op_call=op_call, op_id=op_id)
        for out in outputs:
            out.requires_grad = True
            out.node = node
    if _capture_tracer is not None and forward_override is None:
        _capture_tracer.record_apply(opdef, inputs, attrs, outputs)
    return outputs if multi else outputs[0]


# ---------------------------------------------------------------------------
# backward execution pipeline
# ---------------------------------------------------------------------------

def execute_backward_def(node, bdef: BackwardDef,
                         grad_outputs: tuple[np.ndarray, ...]) -> dict[int, np.ndarray]:
    """Run one backward op of ``node``, honouring any driver override."""
    opdef = node.opdef
    if opdef.backward_call_override is not None:
        return opdef.backward_call_override(node, bdef, grad_outputs)
    return bdef.fn(node.ctx, grad_outputs)


# ---------------------------------------------------------------------------
# helpers shared by op implementations
# ---------------------------------------------------------------------------

def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
