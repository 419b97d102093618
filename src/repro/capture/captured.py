"""Guarded capture of eager modules onto the compiled graph executor.

:func:`capture` wraps an eager :class:`~repro.eager.module.Module` so that
calls execute through a :class:`~repro.graph.session.Session` — inheriting
the compiled-executor stack (plan cache, static verifier, slot table,
release at last use) while staying bit-identical to plain eager dispatch.
:func:`capture_step` does the same for a whole training step: it also
mirrors the autograd tape into the graph (see
:func:`~repro.capture.tracer.mirror_backward`), so one ``Session.run``
computes the loss and every parameter gradient.

Both wrappers run one mechanism, concrete tracing with **guard buckets**:

* The first call with a given *guard key* (input shapes/dtypes, scalar
  argument values, train/eval mode and, for a step, which parameters hold
  a gradient) runs eagerly under the calling thread's tracer, which
  records the op stream into a fresh :class:`~repro.graph.core.Graph`.
  Mutable module state is snapshotted before and restored after the trace,
  then the recorded graph is replayed — so even the tracing call returns
  replay results and every captured call is executor-served.
* Subsequent calls that hit the same guard replay the cached session
  directly.  A different key re-traces into a new bucket.
* Anything untraceable — a concrete value escaping into Python control flow
  (``Tensor.item()``), an unsupported operator, gradient hooks, non-array
  inputs, a replay-time ``NotImplementedError`` — poisons the bucket with a
  structured reason and the call (and all future calls on that guard) falls
  back to plain eager dispatch.  The reason is surfaced as
  ``last_fallback_reason``.

The recorded graph runs as traced, with no pass rewriting it, so
instrumentation tools see the same operators on a captured call as on
eager dispatch.

Captured forward outputs are detached (``requires_grad=False``): capture of
a bare forward is an inference contract; differentiate through captured
execution with :func:`capture_step`.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.manager import disabled as _instrumentation_disabled
from ..eager import dispatch
from ..eager.module import Module
from ..eager.tensor import Tensor
from ..graph.core import Graph, GraphTensor
from ..graph.session import Session
from . import ops as _capture_ops
from .tracer import CaptureBailout, Tracer, mirror_backward

__all__ = ["CapturedModule", "CapturedStep", "capture", "capture_step"]

_capture_ops.ensure_registered()

#: one trace at a time: a trace holds the process-global
#: ``amanda.disabled()``, and two overlapping traces would interleave its
#: save and restore and leave instrumentation off after both
_TRACE_LOCK = threading.RLock()


# ---------------------------------------------------------------------------
# guard keys
# ---------------------------------------------------------------------------

def _arg_spec(value: Any) -> tuple:
    if isinstance(value, Tensor):
        return ("tensor", tuple(value.data.shape), value.data.dtype.str)
    if isinstance(value, np.ndarray):
        return ("array", tuple(value.shape), value.dtype.str)
    return ("value", type(value).__name__, repr(value))


def guard_key(module: Module, args: tuple, kwargs: dict,
              grads: tuple | None = None) -> tuple:
    """Shape/dtype/mode signature selecting a capture bucket.

    Scalar (non-array) arguments contribute their *values*: the trace bakes
    them into the graph, so a different value must select a different bucket.
    For training-step capture, ``grads`` carries the per-parameter
    grads-present pattern — pre-existing gradients seed accumulation chains,
    so their presence changes the captured graph.
    """
    spec: list[tuple] = [("training", bool(module.training))]
    spec += [("arg", i) + _arg_spec(a) for i, a in enumerate(args)]
    spec += [("kwarg", k) + _arg_spec(v) for k, v in sorted(kwargs.items())]
    if grads is not None:
        spec.append(("grads",) + grads)
    return tuple(spec)


def _untraceable_args(args: tuple, kwargs: dict) -> str | None:
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, np.ndarray) \
                and np.issubdtype(value.dtype, np.floating) \
                and value.dtype != np.float64:
            # eager dispatch passes raw ndarrays through unconverted, but a
            # session feed would normalize them to float64 — replay could
            # not be bit-identical, so this guard stays eager
            return (f"raw {value.dtype} ndarray argument cannot be fed "
                    "bit-identically through the graph executor")
    return None


# ---------------------------------------------------------------------------
# module-state snapshotting (traces run eagerly, then state rolls back and
# the recorded graph replays — state must not advance twice)
# ---------------------------------------------------------------------------

def _named_state(module: Module) -> list[tuple[str, Tensor, bool]]:
    """``(variable name, tensor, is_param)`` for every param and buffer."""
    state: list[tuple[str, Tensor, bool]] = [
        (f"param/{name}", param, True)
        for name, param in module.named_parameters()]
    for mod_name, sub in module.named_modules():
        for buf_name, buf in sub._buffers.items():
            qual = f"{mod_name}.{buf_name}" if mod_name else buf_name
            state.append((f"buffer/{qual}", buf, False))
    return state


def _snapshot_state(state: list) -> list:
    # a tensor listed twice (shared by two submodules) is snapshotted twice
    # and restored twice to the same bytes
    entries = []
    for _, tensor, is_param in state:
        grad = None
        if is_param and tensor.grad is not None:
            grad = np.array(tensor.grad)
        entries.append((tensor, tensor.data.copy(), grad, is_param))
    return entries


def _restore_state(entries: list) -> None:
    for tensor, data, grad, is_param in entries:
        # copy back in place: aliases (adopted store entries, optimizer
        # references) must keep pointing at the same buffers
        np.copyto(tensor.data, data)
        if is_param:
            tensor.grad = grad


# ---------------------------------------------------------------------------
# guard buckets
# ---------------------------------------------------------------------------

@dataclass
class _Bucket:
    """One captured graph + session, valid under one guard key."""

    key: tuple
    poisoned: str | None = None
    graph: Graph | None = None
    session: Session | None = None
    #: (kind, index-or-name, placeholder name) for every array argument
    feeds: list = field(default_factory=list)
    fetches: list = field(default_factory=list)
    single_output: bool = True
    #: (variable name, owning eager tensor) for every lifted param/buffer
    aliases: list = field(default_factory=list)
    # training-step extras
    leaf_params: list = field(default_factory=list)
    #: (parameter, grad_in placeholder name) for every pre-existing .grad
    grad_feeds: list = field(default_factory=list)

    def refresh_aliases(self) -> None:
        """Re-adopt any param/buffer whose data array was rebound.

        ``load_state_dict`` and optimizer updates mutate in place (aliases
        survive), but user code may assign ``param.data = ...``; the store
        must then track the new buffer.
        """
        store = self.graph.variables
        for var_name, holder in self.aliases:
            if store.read(var_name) is not holder.data:
                store.adopt(var_name, holder.data)

    def build_feed(self, args: tuple, kwargs: dict) -> dict:
        feed = {}
        for kind, key, ph_name in self.feeds:
            value = args[key] if kind == "arg" else kwargs[key]
            feed[ph_name] = value.data if isinstance(value, Tensor) else value
        for param, ph_name in self.grad_feeds:
            # the guard key pins the grads-present pattern, so .grad is set
            feed[ph_name] = param.grad
        return feed


class _Captured:
    """The guarded-bucket engine both captured wrappers run on.

    This class owns the buckets and counters, the trace, the replay and the
    fallback accounting.  A subclass says what a trace runs
    (:meth:`_traced_call`) and fetches (:meth:`_fetches`), what a replay
    returns (:meth:`_result`) and how a call runs eagerly (:meth:`_eager`).
    """

    def __init__(self, module: Module) -> None:
        self._module = module
        self._buckets: dict[tuple, _Bucket] = {}
        self.last_fallback_reason: str | None = None
        self.capture_count = 0
        self.replay_count = 0
        self.fallback_count = 0

    @property
    def module(self) -> Module:
        return self._module

    def __copy__(self):
        return self._rewrap(self._module)

    def __deepcopy__(self, memo: dict):
        return self._rewrap(copy.deepcopy(self._module, memo))

    def _rewrap(self, module: Module):
        # a bucket's graph aliases the wrapped module's buffers, so a copy
        # starts without buckets and traces again on its first call
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        _Captured.__init__(clone, module)
        return clone

    def __call__(self, *args, **kwargs):
        if dispatch.get_capture_tracer() is not None:
            # already inside an outer trace on this thread: nested captured
            # calls must contribute their ops to the outer graph
            return self._eager(args, kwargs)
        key = self._guard_key(args, kwargs)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = self._trace(key, args, kwargs)
        if bucket.poisoned is None:
            bucket.refresh_aliases()
            try:
                results = bucket.session.run(bucket.fetches,
                                             bucket.build_feed(args, kwargs))
            except NotImplementedError as exc:
                # a captured compute went missing (e.g. an op deregistered
                # after trace): poison the bucket and serve the call eagerly
                bucket.poisoned = f"replay failed: {exc}"
            else:
                self.replay_count += 1
                return self._result(bucket, results)
        self.last_fallback_reason = bucket.poisoned
        self.fallback_count += 1
        return self._eager(args, kwargs)

    def _guard_key(self, args: tuple, kwargs: dict) -> tuple:
        return guard_key(self._module, args, kwargs)

    def _trace(self, key: tuple, args: tuple, kwargs: dict) -> _Bucket:
        bucket = _Bucket(key=key, poisoned=_untraceable_args(args, kwargs))
        if bucket.poisoned is not None:
            return bucket
        state = _named_state(self._module)
        names: dict[int, str] = {}
        for name, tensor, _ in state:
            # an array shared under two names lifts to one variable
            names.setdefault(id(tensor.data), name)
        graph = Graph()
        graph.guard_token = key
        tracer = Tracer(graph, names, [tensor.data for _, tensor, _ in state])
        named = [("arg", i, value) for i, value in enumerate(args)]
        named += [("kwarg", k, kwargs[k]) for k in sorted(kwargs)]
        for kind, name, value in named:
            if isinstance(value, (Tensor, np.ndarray)):
                arr = value.data if isinstance(value, Tensor) else value
                bucket.feeds.append(
                    (kind, name, tracer.add_placeholder(arr, f"input_{name}")))
        snapshot = _snapshot_state(state)
        try:
            with _TRACE_LOCK, _instrumentation_disabled():
                dispatch.set_capture_tracer(tracer)
                try:
                    output = self._traced_call(args, kwargs)
                finally:
                    dispatch.set_capture_tracer(None)
                if tracer.escape_reason is not None:
                    raise CaptureBailout(tracer.escape_reason)
                bucket.fetches = self._fetches(bucket, tracer, output)
        except CaptureBailout as exc:
            bucket.poisoned = exc.reason
            return bucket
        finally:
            _restore_state(snapshot)
        if tracer.num_ops == 0:
            bucket.poisoned = "trace recorded no operators"
            return bucket
        bucket.graph = graph
        bucket.session = Session(graph)
        owners = {name: tensor for name, tensor, _ in state}
        bucket.aliases = [(name, owners[name]) for name in tracer.lifted]
        self.capture_count += 1
        return bucket

    # -- what the two wrappers do differently -------------------------------
    def _traced_call(self, args: tuple, kwargs: dict) -> Any:
        """Run the call eagerly while the tracer records it."""
        raise NotImplementedError

    def _fetches(self, bucket: _Bucket, tracer: Tracer,
                 output: Any) -> list[GraphTensor]:
        """The symbols a replay fetches; raise CaptureBailout if none fit."""
        raise NotImplementedError

    def _result(self, bucket: _Bucket, results: list) -> Any:
        """What a replay returns, given its fetched arrays."""
        raise NotImplementedError

    def _eager(self, args: tuple, kwargs: dict) -> Any:
        """Serve the call with plain eager dispatch."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# captured forward
# ---------------------------------------------------------------------------

class CapturedModule(_Captured):
    """An eager module whose calls run through the compiled graph executor."""

    def __getattr__(self, name: str):
        # copy and pickle probe a bare instance for dunders before
        # ``__init__`` has run: forwarding those would recurse on ``_module``
        if name.startswith("__") or "_module" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self._module, name)

    def _traced_call(self, args: tuple, kwargs: dict) -> Any:
        with dispatch.no_grad():
            return self._module(*args, **kwargs)

    def _fetches(self, bucket: _Bucket, tracer: Tracer,
                 output: Any) -> list[GraphTensor]:
        bucket.single_output = not isinstance(output, tuple)
        fetches = []
        for out in (output,) if bucket.single_output else output:
            if not isinstance(out, Tensor):
                raise CaptureBailout(
                    f"module returned a non-tensor ({type(out).__name__})")
            sym = tracer.lookup(out.data)
            if sym is None:
                raise CaptureBailout("module output was not produced by a "
                                     "traced operator")
            fetches.append(sym)
        return fetches

    def _result(self, bucket: _Bucket, results: list) -> Any:
        # fetching a Variable returns the stored buffer itself; hand the
        # caller a copy so result mutation cannot corrupt parameters
        store = bucket.graph.variables
        wrapped = [Tensor(np.array(r) if store.owns(r) else r)
                   for r in results]
        return wrapped[0] if bucket.single_output else tuple(wrapped)

    def _eager(self, args: tuple, kwargs: dict) -> Any:
        return self._module(*args, **kwargs)


# ---------------------------------------------------------------------------
# captured training step
# ---------------------------------------------------------------------------

class CapturedStep(_Captured):
    """A training step (loss forward + full backward) as one captured graph.

    ``loss_fn(module, *args, **kwargs)`` must return a scalar loss tensor.
    The eager-equivalent semantics of one call are::

        loss = loss_fn(module, *args, **kwargs)
        loss.backward()          # accumulates into param.grad
        return loss

    After a captured call, every parameter's ``.grad`` holds bit-identical
    bytes to the eager step, including accumulation on top of pre-existing
    gradients.  The returned loss is detached.  Run the optimizer eagerly
    afterwards — parameter updates mutate in place and stay visible to the
    captured graph through the aliased variable store.
    """

    def __init__(self, module: Module, loss_fn: Callable) -> None:
        if isinstance(module, CapturedModule):
            module = module.module
        super().__init__(module)
        self._loss_fn = loss_fn

    def _guard_key(self, args: tuple, kwargs: dict) -> tuple:
        grads = tuple(p.grad is not None
                      for _, p in self._module.named_parameters())
        return guard_key(self._module, args, kwargs, grads=grads)

    def _traced_call(self, args: tuple, kwargs: dict) -> Any:
        return self._loss_fn(self._module, *args, **kwargs)

    def _fetches(self, bucket: _Bucket, tracer: Tracer,
                 output: Any) -> list[GraphTensor]:
        if not isinstance(output, Tensor):
            raise CaptureBailout(
                f"loss_fn returned a non-tensor ({type(output).__name__})")
        loss_sym = tracer.lookup(output.data)
        if loss_sym is None:
            raise CaptureBailout("loss was not produced by a traced operator")
        bucket.leaf_params, leaf_fetches, bucket.grad_feeds = \
            mirror_backward(tracer, output)
        return [loss_sym] + leaf_fetches

    def _result(self, bucket: _Bucket, results: list) -> Tensor:
        for param, grad in zip(bucket.leaf_params, results[1:]):
            # fresh copy, exactly like the engine's value.copy() / g + v
            param.grad = np.array(grad)
        return Tensor(np.array(results[0]))

    def _eager(self, args: tuple, kwargs: dict) -> Tensor:
        loss = self._traced_call(args, kwargs)
        loss.backward()
        return loss


def capture(module: Module) -> CapturedModule:
    """Wrap ``module`` so calls run on the compiled graph executor."""
    return CapturedModule(module)


def capture_step(module: Module | CapturedModule,
                 loss_fn: Callable) -> CapturedStep:
    """Capture a full training step (loss + backward) as one graph."""
    return CapturedStep(module, loss_fn)
