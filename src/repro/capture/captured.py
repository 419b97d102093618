"""Guarded capture of eager modules onto the compiled graph executor.

:func:`capture` wraps an eager :class:`~repro.eager.module.Module` so that
calls execute through a :class:`~repro.graph.session.Session` — inheriting
the whole compiled-executor stack (plan cache, static verifier, fusion, slot
table, release at last use) while staying bit-identical to plain eager
dispatch.

The mechanism is concrete tracing with **guard buckets**:

* The first call with a given *guard key* (input shapes/dtypes, scalar
  argument values, train/eval mode) runs eagerly under the tracer, which
  records the op stream into a fresh :class:`~repro.graph.core.Graph`.
  Mutable module state is snapshotted before and restored after the trace,
  then the recorded graph is replayed — so even the tracing call returns
  replay results and every captured call is executor-served.
* Subsequent calls that hit the same guard replay the cached session
  directly.  A different shape/dtype/mode re-traces into a new bucket.
* Anything untraceable — a concrete value escaping into Python control flow
  (``Tensor.item()``), an unsupported operator, gradient hooks, non-array
  inputs — poisons the bucket with a structured reason and the call (and all
  future calls on that guard) falls back to plain eager dispatch.  The
  reason is surfaced as :attr:`CapturedModule.last_fallback_reason`.

Training steps are captured by :func:`capture_step`, which additionally
mirrors the autograd tape into the same graph (see
:func:`~repro.capture.tracer.mirror_backward`), so one ``Session.run``
computes the loss and every parameter gradient.

Captured forward outputs are detached (``requires_grad=False``): capture of
a bare forward is an inference contract; differentiate through captured
execution with :func:`capture_step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.manager import disabled as _instrumentation_disabled
from ..core.config import config
from ..eager import dispatch
from ..eager.module import Module
from ..eager.tensor import Tensor
from ..graph.core import Graph, GraphTensor
from ..graph.session import Session
from . import ops as _capture_ops
from .tracer import CaptureBailout, Tracer, mirror_backward

__all__ = ["CapturedModule", "CapturedStep", "capture", "capture_step"]

_capture_ops.ensure_registered()


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


def _fuse_captured(key: tuple, graph: Graph,
                   fetches: list[GraphTensor]) -> tuple[Graph, list, dict]:
    """Route a captured graph through operator fusion before compilation.

    Elementwise runs in the trace collapse into ``FusedElementwise`` ops, so
    plan compilation (and the rematerialization planner, which treats a fused
    chain as one keep-vs-recompute unit) sees the optimized graph.  Forward
    ops a captured backward reads are control targets and survive untouched
    (their OpCtx stash must keep happening); fetched ops are protected.
    Returns ``(graph, fetches, report)`` — the originals when nothing fused.
    """
    from ..graph.fusion import fuse_graph
    fused, report = fuse_graph(graph,
                               protected={t.op.name for t in fetches})
    if not report:
        graph.guard_token = key
        return graph, fetches, report
    fused.guard_token = key
    remapped = [fused.get_operation(t.op.name).outputs[t.index]
                for t in fetches]
    return fused, remapped, report


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

def _state_tensors(module: Module):
    seen: set[int] = set()
    for _, param in module.named_parameters():
        if id(param) not in seen:
            seen.add(id(param))
            yield param, True
    for _, sub in module.named_modules():
        for _, buf in sub._buffers.items():
            if id(buf) not in seen:
                seen.add(id(buf))
                yield buf, False


def _snapshot_state(module: Module) -> list:
    entries = []
    for tensor, is_param in _state_tensors(module):
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


def _param_name_map(module: Module):
    """``id(array) -> variable name`` plus ``name -> owning tensor``."""
    names: dict[int, str] = {}
    owners: dict[str, Tensor] = {}
    for name, param in module.named_parameters():
        key = f"param/{name}"
        names.setdefault(id(param.data), key)
        owners.setdefault(key, param)
    for mod_name, sub in module.named_modules():
        for buf_name, buf in sub._buffers.items():
            qual = f"{mod_name}.{buf_name}" if mod_name else buf_name
            key = f"buffer/{qual}"
            names.setdefault(id(buf.data), key)
            owners.setdefault(key, buf)
    return names, owners


class _install_tracer:
    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        dispatch.set_capture_tracer(self._tracer)
        return self._tracer

    def __exit__(self, *exc) -> bool:
        dispatch.set_capture_tracer(None)
        return False


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
    #: fused op name -> original op types (graph.fusion provenance)
    fusion_report: dict = field(default_factory=dict)
    # training-step extras
    leaf_params: list = field(default_factory=list)
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


def _wrap_result(bucket: _Bucket, array: np.ndarray) -> Tensor:
    if bucket.graph.variables.owns(array):
        # fetching a Variable returns the stored buffer itself; hand the
        # caller a copy so result mutation cannot corrupt parameters
        array = np.array(array)
    return Tensor(array)


def _build_feed(bucket: _Bucket, args: tuple, kwargs: dict) -> dict:
    feed = {}
    for kind, key, ph_name in bucket.feeds:
        value = args[key] if kind == "arg" else kwargs[key]
        feed[ph_name] = value.data if isinstance(value, Tensor) else value
    return feed


# ---------------------------------------------------------------------------
# captured forward
# ---------------------------------------------------------------------------

class CapturedModule:
    """An eager module whose calls run through the compiled graph executor."""

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

    def __getattr__(self, name: str):
        return getattr(self._module, name)

    def __call__(self, *args, **kwargs):
        if not config.capture or dispatch.get_capture_tracer() is not None:
            # knob off, or already inside an outer trace: nested captured
            # modules must contribute their ops to the outer graph
            return self._module(*args, **kwargs)
        key = guard_key(self._module, args, kwargs)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._trace(key, args, kwargs)
            self._buckets[key] = bucket
        if bucket.poisoned is not None:
            self.last_fallback_reason = bucket.poisoned
            self.fallback_count += 1
            return self._module(*args, **kwargs)
        return self._replay(bucket, args, kwargs)

    # -- trace --------------------------------------------------------------
    def _trace(self, key: tuple, args: tuple, kwargs: dict) -> _Bucket:
        bucket = _Bucket(key=key)
        reason = _untraceable_args(args, kwargs)
        if reason is not None:
            bucket.poisoned = reason
            return bucket
        module = self._module
        graph = Graph()
        names, owners = _param_name_map(module)
        tracer = Tracer(graph, names, [t.data for t, _ in _state_tensors(module)])
        for i, value in enumerate(args):
            if isinstance(value, (Tensor, np.ndarray)):
                arr = value.data if isinstance(value, Tensor) else value
                bucket.feeds.append(
                    ("arg", i, tracer.add_placeholder(arr, f"input_{i}")))
        for k in sorted(kwargs):
            value = kwargs[k]
            if isinstance(value, (Tensor, np.ndarray)):
                arr = value.data if isinstance(value, Tensor) else value
                bucket.feeds.append(
                    ("kwarg", k, tracer.add_placeholder(arr, f"input_{k}")))
        snapshot = _snapshot_state(module)
        try:
            with _instrumentation_disabled(), dispatch.no_grad(), \
                    _install_tracer(tracer):
                output = module(*args, **kwargs)
        finally:
            _restore_state(snapshot)
        if tracer.escape_reason is not None:
            bucket.poisoned = tracer.escape_reason
            return bucket
        bucket.single_output = not isinstance(output, tuple)
        outputs = (output,) if bucket.single_output else output
        for out in outputs:
            if not isinstance(out, Tensor):
                bucket.poisoned = (
                    f"module returned a non-tensor ({type(out).__name__})")
                return bucket
            sym = tracer.lookup(out.data)
            if sym is None:
                bucket.poisoned = ("module output was not produced by a "
                                   "traced operator")
                return bucket
            bucket.fetches.append(sym)
        if tracer.num_ops == 0:
            bucket.poisoned = "trace recorded no operators"
            return bucket
        graph, bucket.fetches, bucket.fusion_report = \
            _fuse_captured(key, graph, bucket.fetches)
        bucket.graph = graph
        bucket.session = Session(graph)
        bucket.aliases = [(name, owners[name]) for name in tracer.lifted]
        self.capture_count += 1
        return bucket

    # -- replay -------------------------------------------------------------
    def _replay(self, bucket: _Bucket, args: tuple, kwargs: dict):
        bucket.refresh_aliases()
        try:
            results = bucket.session.run(bucket.fetches,
                                         _build_feed(bucket, args, kwargs))
        except NotImplementedError as exc:
            # a captured compute went missing (e.g. an op deregistered after
            # trace): poison the bucket and serve the call eagerly
            bucket.poisoned = f"replay failed: {exc}"
            self.last_fallback_reason = bucket.poisoned
            self.fallback_count += 1
            return self._module(*args, **kwargs)
        self.replay_count += 1
        wrapped = [_wrap_result(bucket, r) for r in results]
        return wrapped[0] if bucket.single_output else tuple(wrapped)


# ---------------------------------------------------------------------------
# captured training step
# ---------------------------------------------------------------------------

class CapturedStep:
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
        self._module = module
        self._loss_fn = loss_fn
        self._buckets: dict[tuple, _Bucket] = {}
        self.last_fallback_reason: str | None = None
        self.capture_count = 0
        self.replay_count = 0
        self.fallback_count = 0

    @property
    def module(self) -> Module:
        return self._module

    def _eager_step(self, args: tuple, kwargs: dict) -> Tensor:
        loss = self._loss_fn(self._module, *args, **kwargs)
        loss.backward()
        return loss

    def __call__(self, *args, **kwargs) -> Tensor:
        if not config.capture or dispatch.get_capture_tracer() is not None:
            return self._eager_step(args, kwargs)
        grads = tuple(p.grad is not None
                      for _, p in self._module.named_parameters())
        key = guard_key(self._module, args, kwargs, grads=grads)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._trace(key, args, kwargs)
            self._buckets[key] = bucket
        if bucket.poisoned is not None:
            self.last_fallback_reason = bucket.poisoned
            self.fallback_count += 1
            return self._eager_step(args, kwargs)
        return self._replay(bucket, args, kwargs)

    # -- trace --------------------------------------------------------------
    def _trace(self, key: tuple, args: tuple, kwargs: dict) -> _Bucket:
        bucket = _Bucket(key=key)
        reason = _untraceable_args(args, kwargs)
        if reason is not None:
            bucket.poisoned = reason
            return bucket
        module = self._module
        graph = Graph()
        names, owners = _param_name_map(module)
        tracer = Tracer(graph, names, [t.data for t, _ in _state_tensors(module)])
        for i, value in enumerate(args):
            if isinstance(value, (Tensor, np.ndarray)):
                arr = value.data if isinstance(value, Tensor) else value
                bucket.feeds.append(
                    ("arg", i, tracer.add_placeholder(arr, f"input_{i}")))
        for k in sorted(kwargs):
            value = kwargs[k]
            if isinstance(value, (Tensor, np.ndarray)):
                arr = value.data if isinstance(value, Tensor) else value
                bucket.feeds.append(
                    ("kwarg", k, tracer.add_placeholder(arr, f"input_{k}")))
        snapshot = _snapshot_state(module)
        try:
            with _instrumentation_disabled():
                with _install_tracer(tracer):
                    loss = self._loss_fn(module, *args, **kwargs)
                if tracer.escape_reason is not None:
                    bucket.poisoned = tracer.escape_reason
                    return bucket
                if not isinstance(loss, Tensor):
                    bucket.poisoned = (
                        f"loss_fn returned a non-tensor "
                        f"({type(loss).__name__})")
                    return bucket
                loss_sym = tracer.lookup(loss.data)
                if loss_sym is None:
                    bucket.poisoned = ("loss was not produced by a traced "
                                       "operator")
                    return bucket
                leaf_params, leaf_fetches, grad_feeds = \
                    mirror_backward(tracer, loss)
        except CaptureBailout as exc:
            bucket.poisoned = exc.reason
            return bucket
        finally:
            _restore_state(snapshot)
        fetches = [loss_sym] + list(leaf_fetches)
        graph, fetches, bucket.fusion_report = \
            _fuse_captured(key, graph, fetches)
        bucket.graph = graph
        bucket.session = Session(graph)
        bucket.fetches = fetches
        bucket.aliases = [(name, owners[name]) for name in tracer.lifted]
        bucket.leaf_params = leaf_params
        bucket.grad_feeds = grad_feeds
        self.capture_count += 1
        return bucket

    # -- replay -------------------------------------------------------------
    def _replay(self, bucket: _Bucket, args: tuple, kwargs: dict) -> Tensor:
        bucket.refresh_aliases()
        feed = _build_feed(bucket, args, kwargs)
        for param, ph_name in bucket.grad_feeds:
            # guard key pins the grads-present pattern, so .grad is non-None
            feed[ph_name] = param.grad
        try:
            results = bucket.session.run(bucket.fetches, feed)
        except NotImplementedError as exc:
            bucket.poisoned = f"replay failed: {exc}"
            self.last_fallback_reason = bucket.poisoned
            self.fallback_count += 1
            return self._eager_step(args, kwargs)
        self.replay_count += 1
        for param, grad in zip(bucket.leaf_params, results[1:]):
            # fresh copy, exactly like the engine's value.copy() / g + v
            param.grad = np.array(grad)
        return Tensor(np.array(results[0]))


def capture(module: Module) -> CapturedModule:
    """Wrap ``module`` so calls run on the compiled graph executor."""
    return CapturedModule(module)


def capture_step(module: Module | CapturedModule,
                 loss_fn: Callable) -> CapturedStep:
    """Capture a full training step (loss + backward) as one graph."""
    return CapturedStep(module, loss_fn)
