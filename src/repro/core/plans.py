"""Compiled per-op execution plans — the cached-path fast lane.

The action cache (Sec. 5.2/5.3, Fig. 12) makes steady-state instrumentation
cheap by replaying recorded actions instead of re-running analysis routines.
Replaying used to mean *re-interpreting* the action list on every call: each
driver filtered by :class:`~repro.core.actions.ActionType`, rebuilt replace
closures and re-resolved tensor selectors per execution.  This module compiles
a :class:`~repro.core.manager.CachedOpRecord` once, at cache-store time, into
an :class:`ExecutionPlan`:

* **pre-partitioned action lists** — before/replace/after, forward and
  backward, as tuples of :class:`ActionStep`;
* **pre-resolved selectors** — explicit ``tensor_indices`` are frozen into the
  step; ``None`` ("all tensors") resolves through a memoized range table;
* **a pre-bound replace closure** — ``kwargs`` are bound when the plan is
  compiled, not per call;
* **a classification** (:class:`PlanKind`) so drivers can skip an op the
  toolset leaves alone: ``VANILLA`` (no actions and no user context state)
  or ``INSTRUMENTED`` (everything else).

The manager owns plan compilation and invalidation (``tool_epoch`` bumps and
``cache_append`` both force a recompile); drivers own only a per-backend
:class:`TensorAdapter` that says how to unwrap/wrap/assign the backend's
tensor values.  Action evaluation itself — partitioning, selector resolution,
routine invocation, replacement write-back — lives here and nowhere else.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .actions import Action, ActionType

__all__ = [
    "PlanKind", "TensorAdapter", "NDARRAY_ADAPTER", "ActionStep",
    "ReplaceStep", "PlanSlice", "EMPTY_SLICE", "ExecutionPlan",
    "compile_forward_slice", "compile_backward_slice", "compile_plan",
    "compile_actions", "run_steps",
]


class PlanKind(enum.Enum):
    """Fast-path classification of a compiled plan."""

    #: no actions and no user context state: skip instrumentation entirely
    VANILLA = "vanilla"
    #: any action or user context state: the driver's instrumented path
    INSTRUMENTED = "instrumented"


# ---------------------------------------------------------------------------
# tensor adapters (the only backend-specific seam of plan evaluation)
# ---------------------------------------------------------------------------

class TensorAdapter:
    """How a backend's tensor-slot values cross the instrumentation boundary.

    ``unwrap`` turns a stored value into the ndarray a routine consumes,
    ``wrap`` turns a routine's return value into a storable value, and
    ``assign`` writes a replacement back into the value list (override it for
    in-place semantics, e.g. mutating an eager tensor's ``.data``).
    """

    def unwrap(self, value):
        return np.asarray(value)

    def wrap(self, value):
        return np.asarray(value)

    def read(self, values: Sequence, index: int):
        return self.unwrap(values[index])

    def assign(self, values: list, index: int, value) -> None:
        values[index] = self.wrap(value)


#: plain ndarray-in/ndarray-out adapter (gradients, ONNX node values)
NDARRAY_ADAPTER = TensorAdapter()


# memoized ``None``-selector resolution: arity -> (0, 1, ..., arity-1)
_RANGES: dict[int, tuple[int, ...]] = {}


def _range(n: int) -> tuple[int, ...]:
    indices = _RANGES.get(n)
    if indices is None:
        indices = _RANGES[n] = tuple(range(n))
    return indices


# ---------------------------------------------------------------------------
# compiled steps
# ---------------------------------------------------------------------------

class ActionStep:
    """One insert action, compiled: resolved selector + bound routine."""

    __slots__ = ("action", "func", "kwargs", "indices")

    def __init__(self, action: Action) -> None:
        self.action = action
        self.func = action.func
        self.kwargs = action.kwargs
        self.indices = action.tensor_indices

    def resolve(self, arity: int, clamp: bool = False) -> tuple[int, ...]:
        """The tensor indices this step touches for a slot list of ``arity``.

        With ``clamp`` (gradient / ONNX value lists whose arity may be
        smaller than the recorded selector), out-of-range indices are
        dropped; a selector that clamps to nothing returns ``()``.
        """
        if self.indices is None:
            return _range(arity)
        if clamp:
            return tuple(i for i in self.indices if i < arity)
        return self.indices

    def pycall(self, runner: Callable, passthrough_count: int,
               provenance=None) -> Callable:
        """Bind the step into a graph-mode ``PyCall`` body.

        Observation routines (returning ``None``) pass their inputs through
        unchanged, matching the runtime write-back semantics.
        """
        func, kwargs = self.func, self.kwargs

        def run(*arrays):
            result = runner(func, arrays, kwargs, provenance)
            if result is None:
                return arrays if passthrough_count > 1 else arrays[0]
            return result

        return run

    def __repr__(self) -> str:
        return f"ActionStep({self.action!r})"


class ReplaceStep:
    """A replace action, compiled: its routine, kwargs and operand selector."""

    __slots__ = ("action", "func", "kwargs", "indices")

    def __init__(self, action: Action) -> None:
        self.action = action
        self.func = action.func
        self.kwargs = action.kwargs
        self.indices = action.tensor_indices

    def select(self, values: Sequence) -> list:
        """The values the replacement routine consumes."""
        if self.indices is None:
            return list(values)
        return [values[i] for i in self.indices]

    def invoke(self, runner: Callable, arrays: tuple, provenance=None):
        return runner(self.func, arrays, self.kwargs, provenance)

    def pycall(self, runner: Callable, num_outputs: int,
               provenance=None) -> Callable:
        func, kwargs = self.func, self.kwargs

        def run(*arrays):
            return runner(func, arrays, kwargs, provenance)

        return run

    def guarded_override(self, runner: Callable, provenance=None) -> Callable:
        """The eager dispatcher's ``forward_override`` for this replacement.

        The routine runs through ``runner`` (``run_instrumentation``), so
        failures surface as :class:`~repro.core.faults.InstrumentationError`
        with provenance and the routine runs under AD/memory isolation,
        matching how replace routines execute in graph mode.  The recorded
        kwargs, when present, win over the op's attrs.
        """
        func, kwargs = self.func, self.kwargs
        if kwargs:
            def run(*arrays, **attrs):
                return runner(func, arrays, kwargs, provenance)
        else:
            def run(*arrays, **attrs):
                return runner(func, arrays, attrs, provenance)
        return run

    def __repr__(self) -> str:
        return f"ReplaceStep({self.action!r})"


class PlanSlice:
    """Pre-partitioned steps for one phase (forward, or one backward op)."""

    __slots__ = ("before", "after", "replace")

    def __init__(self, before: tuple[ActionStep, ...] = (),
                 after: tuple[ActionStep, ...] = (),
                 replace: ReplaceStep | None = None) -> None:
        self.before = before
        self.after = after
        self.replace = replace

    @property
    def empty(self) -> bool:
        return not self.before and not self.after and self.replace is None

    @staticmethod
    def concat(first: "PlanSlice", second: "PlanSlice") -> "PlanSlice":
        """Inherited-then-own composition; the later replace wins."""
        if first.empty:
            return second
        if second.empty:
            return first
        return PlanSlice(first.before + second.before,
                         first.after + second.after,
                         second.replace if second.replace is not None
                         else first.replace)

    def __repr__(self) -> str:
        return (f"PlanSlice(before={len(self.before)}, after={len(self.after)}, "
                f"replace={self.replace is not None})")


EMPTY_SLICE = PlanSlice()


def _partition(actions: Iterable[Action]) -> PlanSlice:
    before: list[ActionStep] = []
    after: list[ActionStep] = []
    replace: ReplaceStep | None = None
    for action in actions:
        action_type = action.type
        if action_type in (ActionType.INSERT_BEFORE_OP,
                           ActionType.INSERT_BEFORE_BACKWARD_OP):
            before.append(ActionStep(action))
        elif action_type in (ActionType.INSERT_AFTER_OP,
                             ActionType.INSERT_AFTER_BACKWARD_OP):
            after.append(ActionStep(action))
        else:
            # multiple replacements compose as "last recorded wins" (see the
            # replace-conflict lint); earlier ones are intentionally dropped
            replace = ReplaceStep(action)
    if not before and not after and replace is None:
        return EMPTY_SLICE
    return PlanSlice(tuple(before), tuple(after), replace)


def compile_forward_slice(actions: Iterable[Action]) -> PlanSlice:
    """Partition the forward-type actions of an action stream."""
    return _partition(a for a in actions if not a.type.is_backward)


def compile_backward_slice(actions: Iterable[Action],
                           backward_op=None) -> PlanSlice:
    """Partition the backward-type actions applicable to ``backward_op``.

    ``backward_op`` may be a single name or a tuple of acceptable names (a
    backward operator can be addressed by its raw backend type or by the
    normalized name a mapping tool wrote into the context).
    """
    if backward_op is None:
        names = None
    elif isinstance(backward_op, str):
        names = (backward_op,)
    else:
        names = tuple(backward_op)
    return _partition(
        a for a in actions
        if a.type.is_backward
        and (a.backward_op is None or names is None
             or a.backward_op in names))


# ---------------------------------------------------------------------------
# the shared step executor
# ---------------------------------------------------------------------------

def run_steps(steps: tuple[ActionStep, ...], values: list,
              adapter: TensorAdapter, runner: Callable,
              clamp: bool = False, provenance=None) -> bool:
    """Evaluate insert steps over a mutable list of tensor-slot values.

    ``runner`` is :meth:`InstrumentationManager.run_instrumentation` (AD and
    memory isolation).  Routines returning ``None`` are observations; a
    non-``None`` return replaces the selected values through the adapter.
    ``provenance`` (if given) is re-attributed to each step's recording tool
    so a failing routine surfaces with full provenance.  Returns whether any
    value was replaced.
    """
    mutated = False
    for step in steps:
        indices = step.resolve(len(values), clamp)
        if clamp and not indices and step.indices != ():
            continue  # selector clamped to nothing: routine not applicable
            # (an explicit empty selector is a pure trigger and still runs)
        arrays = tuple(adapter.read(values, i) for i in indices)
        result = runner(step.func, arrays, step.kwargs,
                        provenance.with_tool(step.action.tool)
                        if provenance is not None else None)
        if result is None:
            continue
        mutated = True
        replacements = result if isinstance(result, tuple) else (result,)
        for index, value in zip(indices, replacements):
            adapter.assign(values, index, value)
    return mutated


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

class ExecutionPlan:
    """Everything the cached path needs, compiled once per record."""

    __slots__ = ("op_id", "kind", "epoch", "forward", "backward_actions",
                 "context", "user_state", "_backward_slices")

    def __init__(self, *, op_id: int | None, kind: PlanKind, epoch: int | None,
                 forward: PlanSlice, backward_actions: tuple[Action, ...],
                 user_state: bool, context=None) -> None:
        self.op_id = op_id
        self.kind = kind
        self.epoch = epoch
        self.forward = forward
        self.backward_actions = backward_actions
        self.context = context
        self.user_state = user_state
        self._backward_slices: dict[str | None, PlanSlice] = {}

    @property
    def has_backward(self) -> bool:
        return bool(self.backward_actions)

    def backward_slice(self, backward_op=None) -> PlanSlice:
        """The (memoized) slice applicable to one backward operator.

        ``backward_op`` is a name or tuple of acceptable names (see
        :func:`compile_backward_slice`).
        """
        plan_slice = self._backward_slices.get(backward_op)
        if plan_slice is None:
            plan_slice = compile_backward_slice(self.backward_actions,
                                                backward_op)
            self._backward_slices[backward_op] = plan_slice
        return plan_slice

    def invalidate(self) -> None:
        """Force a recompile on the next lookup (``cache_append``)."""
        self.epoch = None

    def __repr__(self) -> str:
        return f"ExecutionPlan(op_id={self.op_id}, kind={self.kind.value})"


def _classify(forward: PlanSlice, backward_actions: tuple[Action, ...],
              user_state: bool) -> PlanKind:
    if forward.empty and not backward_actions and not user_state:
        return PlanKind.VANILLA
    return PlanKind.INSTRUMENTED


def compile_actions(forward_actions: Iterable[Action],
                    backward_actions: Iterable[Action] = (),
                    *, epoch: int | None = None, op_id: int | None = None,
                    user_state: bool = False, context=None,
                    exclude_tools=()) -> ExecutionPlan:
    """Compile an execution plan from raw action lists.

    Actions may arrive on either list regardless of direction (backward
    records historically store their actions on ``forward_actions``); the
    compiler re-partitions by :attr:`ActionType.is_backward`.

    ``exclude_tools`` drops actions recorded by the named tools — the
    quarantine mechanism: a quarantined tool's actions survive in the cached
    record but never reach a compiled plan, so replay is vanilla w.r.t. it.
    """
    pool = tuple(forward_actions) + tuple(backward_actions)
    if exclude_tools:
        pool = tuple(a for a in pool if a.tool not in exclude_tools)
    forward = compile_forward_slice(pool)
    backward = tuple(a for a in pool if a.type.is_backward)
    return ExecutionPlan(op_id=op_id, epoch=epoch,
                         kind=_classify(forward, backward, user_state),
                         forward=forward, backward_actions=backward,
                         user_state=user_state, context=context)


def compile_plan(record, *, epoch: int | None, op_id: int | None = None,
                 exclude_tools=()) -> ExecutionPlan:
    """Compile a :class:`~repro.core.manager.CachedOpRecord` into a plan."""
    return compile_actions(record.forward_actions, record.backward_actions,
                           epoch=epoch, op_id=op_id,
                           user_state=record.user_state,
                           context=record.context,
                           exclude_tools=exclude_tools)
