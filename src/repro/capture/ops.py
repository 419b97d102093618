"""Runtime support for captured graphs: computes and schemas.

Symbolic capture (see :mod:`repro.capture`) records *eager* operators into a
:class:`repro.graph.core.Graph`.  Captured ops keep the eager operator names
(``matmul``, ``conv2d``, ...) — lowercase, so they never collide with the
TF-style CamelCase types of the hand-built graph backend — and their runtime
compute functions wrap the eager :class:`~repro.eager.dispatch.OpDef`
forwards directly.  That makes replay bit-identical to eager dispatch by
construction: the same kernel functions run on the same arrays, and the
output coercion below replicates exactly what
:class:`~repro.eager.tensor.Tensor` does to every eager op result.

Registration is driven by the op registry's snooping hook, so eager
operators registered *after* ``repro.capture`` is imported (user extensions)
become capturable too.  For every capturable operator two tables are updated
together — ``builder.COMPUTE`` and ``GRAPH_SCHEMAS`` — which keeps
``check_registry_complete()`` consistent whether or not this module was ever
imported.  A captured op's graph schema is its eager schema; the two
operators that touch state beyond their inputs, ``batch_norm`` and
``dropout``, get a ``stateful`` rule here, so the rematerialization pass
never re-executes them (:func:`repro.analysis.remat.recomputable`).

Each captured forward op hands its ``OpCtx`` to its backward ops through the
run's stash table (``_Runtime.stash``).  The compiled plan decides the
stash's lifetime: a forward op stashes only when a backward op of the plan
reads it, and the plan's last such reader removes the entry, with or
without a memory budget.  The executor keeps the forward op's inputs and
outputs counted as live until then, since the ``OpCtx`` may hold them (see
:func:`repro.graph.core.lifetime_rule`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from ..analysis.schemas import (EAGER_SCHEMAS, GRAPH_SCHEMAS, OpSchema,
                                register_graph_schema)
from ..eager.dispatch import BackwardDef, OpCtx, OpDef, registry
from ..graph.builder import COMPUTE

__all__ = ["CAPTURABLE", "ensure_registered"]

#: eager operator names with full captured-graph support (compute + schema
#: registered); the tracer bails out on anything else
CAPTURABLE: set[str] = set()


def _coerce(value) -> np.ndarray:
    """Replicate ``Tensor.__init__``'s dtype policy on an op output.

    Eager dispatch wraps every raw forward result in a ``Tensor``, which
    upcasts non-float64 floating arrays and leaves integer arrays alone; the
    next eager op then consumes ``tensor.data``.  Captured replay must feed
    the identical bytes to the next compute.
    """
    arr = np.asarray(value)
    if arr.dtype != np.float64 and np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


def _forward_compute(opdef: OpDef) -> Callable:
    def compute(op, inputs, runtime):
        ctx = OpCtx()
        raw = opdef.forward(ctx, *inputs, **op.attrs)
        if op.name in runtime.stashers:
            runtime.stash[op.name] = ctx
        raw_outputs = raw if isinstance(raw, tuple) else (raw,)
        return tuple(_coerce(o) for o in raw_outputs)

    compute.__name__ = f"_captured_{opdef.name}"
    return compute


def _backward_compute(opdef: OpDef, bdef: BackwardDef) -> Callable:
    def compute(op, inputs, runtime):
        forward = op.attrs["forward_name"]
        ctx = runtime.stash.get(forward)
        if ctx is None:
            raise RuntimeError(
                f"captured backward op {op.name!r} ran before its forward "
                f"op {forward!r} stashed a context")
        if op.name in runtime.stash_drops:
            del runtime.stash[forward]  # the plan's last reader of the stash
        # the autograd engine hands backward defs raw ndarrays (grads are
        # never Tensor-wrapped), so no float coercion here
        partial = bdef.fn(ctx, tuple(np.asarray(g) for g in inputs))
        return tuple(np.asarray(partial[i]) for i in op.attrs["grad_indices"])

    compute.__name__ = f"_captured_{bdef.name}"
    return compute


def _permissive_schema(name: str) -> OpSchema:
    """Schema for captured backward op types.

    Backward defs have no eager schema (they are not operators of the
    registry); arity and output count are data-dependent (``grad_indices``
    is observed at trace time), so the schema checks structural sanity only.
    """
    return OpSchema(name, 0, None, None, {}, (), None,
                    allow_extra_attrs=True,
                    num_outputs_fn=lambda op: len(op.outputs))


def _batch_norm_stateful(op) -> bool:
    # the eager forward mutates the running-stat arrays *in place*
    # (np.copyto); at replay those are the adopted Variable buffers at inputs
    # 3 and 4.  Stats baked as constants touch nothing shared.
    return bool(op.attrs.get("training", True)) and any(
        edge.op.type == "Variable" for edge in op.inputs[3:5])


def _dropout_stateful(op) -> bool:
    return bool(op.attrs.get("training", True) and op.attrs.get("p", 0.5) > 0
                and op.attrs.get("seed") is None)


#: captured operators that touch more than their inputs -> ``stateful`` rule
_STATEFUL = {"batch_norm": _batch_norm_stateful,
             "dropout": _dropout_stateful}


def _register_opdef(opdef: OpDef) -> None:
    """Make one eager operator capturable (idempotent, all-or-nothing)."""
    if opdef.name in CAPTURABLE:
        return
    names = [opdef.name] + [b.name for b in opdef.backward_defs]
    for name in names:
        if name in COMPUTE or name in GRAPH_SCHEMAS:
            # a collision with an existing graph type (or a backward-def name
            # shared with another operator): leave the op un-capturable so
            # the tracer bails instead of replaying through the wrong compute
            return
    COMPUTE[opdef.name] = _forward_compute(opdef)
    schema = (EAGER_SCHEMAS.get(opdef.name)
              or _permissive_schema(opdef.name))
    if opdef.name in _STATEFUL:
        schema = dataclasses.replace(schema,
                                     stateful=_STATEFUL[opdef.name])
    register_graph_schema(schema)
    for bdef in opdef.backward_defs:
        COMPUTE[bdef.name] = _backward_compute(opdef, bdef)
        register_graph_schema(_permissive_schema(bdef.name))
    CAPTURABLE.add(opdef.name)


def _compute_zeros_like(op, inputs, runtime):
    return (np.zeros_like(np.asarray(inputs[0])),)


_registered = False


def ensure_registered() -> None:
    """Register capture support for every current and future eager operator."""
    global _registered
    if _registered:
        return
    _registered = True
    # the None-gradient filler emitted by the backward mirror (the engine
    # zero-fills unused output slots before running backward defs)
    COMPUTE["zeros_like"] = _compute_zeros_like
    register_graph_schema(OpSchema(
        "zeros_like", 1, 1, 1, {}, (),
        lambda op, in_shapes, env: [in_shapes[0]]))
    # snoop the registry: replay covers already-registered ops, the listener
    # covers extensions registered later
    registry.add_registration_listener(_register_opdef, replay=True)


ensure_registered()
