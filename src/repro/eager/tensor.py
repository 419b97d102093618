"""The eager backend's tensor type.

A :class:`Tensor` wraps a ``numpy.ndarray`` together with autograd state
(``requires_grad``, accumulated ``grad``, and the producing autograd node).
All arithmetic dispatches through the operator registry in
:mod:`repro.eager.dispatch`, which is the surface Amanda's eager driver
instruments.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from . import alloc

__all__ = ["Tensor", "tensor", "zeros", "ones", "randn", "arange", "as_tensor"]


class Tensor:
    """An eagerly evaluated n-dimensional array with reverse-mode autograd."""

    __slots__ = ("data", "requires_grad", "grad", "node", "name",
                 "_grad_hooks", "_alloc_bytes", "_alloc_scope", "__weakref__")

    def __init__(self, data: Any, requires_grad: bool = False,
                 name: str | None = None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype == np.float64:
            pass  # default compute dtype of the reproduction
        elif np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node = None  # autograd.Node that produced this tensor
        self.name = name
        self._grad_hooks: list[Callable[[np.ndarray], np.ndarray | None]] = []
        self._alloc_bytes = arr.nbytes
        self._alloc_scope = alloc.tracker.allocate(arr.nbytes)

    def __del__(self, _release=alloc.tracker.release) -> None:
        # the bytes and scope of construction, whatever ``data`` holds now;
        # the bound default keeps the release reachable at interpreter exit
        try:
            _release(self._alloc_bytes, self._alloc_scope)
        except AttributeError:  # __init__ raised before the allocation
            pass

    def __setstate__(self, state) -> None:
        # copy and pickle rebuild a tensor without __init__: it takes its
        # own bytes, as construction does, so its __del__ returns only those
        for part in state:  # (instance dict or None, slot values)
            for key, value in (part or {}).items():
                setattr(self, key, value)
        self._alloc_bytes = self.data.nbytes
        self._alloc_scope = alloc.tracker.allocate(self.data.nbytes)

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self.node is None

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        from .dispatch import get_capture_tracer
        tracer = get_capture_tracer()
        if tracer is not None:
            # the concrete value escapes into Python control flow: the trace
            # being recorded cannot be replayed safely for other inputs
            tracer.record_escape("Tensor.item() read during trace")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy_(self, value) -> "Tensor":
        """In-place overwrite of the underlying buffer (optimizer updates)."""
        src = value.data if isinstance(value, Tensor) else np.asarray(value)
        np.copyto(self.data, src)
        return self

    def zero_grad(self) -> None:
        self.grad = None

    def register_hook(self, fn: Callable[[np.ndarray], np.ndarray | None]) -> Callable[[], None]:
        """Register a hook called with this tensor's gradient during backward.

        On a non-leaf tensor the hook runs once, on the total gradient, when
        backward reaches the tensor's producing node.  On a leaf it runs on
        each gradient routed to the tensor, before that gradient is
        accumulated into ``.grad``.  The hook may return a replacement
        gradient.  Returns a deregistration callable (mirroring
        ``torch.Tensor.register_hook``).
        """
        self._grad_hooks.append(fn)

        def remove() -> None:
            if fn in self._grad_hooks:
                self._grad_hooks.remove(fn)

        return remove

    def _run_grad_hooks(self, grad: np.ndarray) -> np.ndarray:
        for hook in list(self._grad_hooks):
            result = hook(grad)
            if result is not None:
                grad = result
        return grad

    # -- autograd entry point ------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        from . import autograd
        autograd.backward(self, grad)

    # -- operator sugar (dispatches through the instrumentable registry) -----
    def _apply(self, op: str, *others, **attrs) -> "Tensor":
        from .dispatch import apply_op
        return apply_op(op, self, *others, **attrs)

    def __add__(self, other):
        return self._apply("add", as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply("sub", as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other)._apply("sub", self)

    def __mul__(self, other):
        return self._apply("mul", as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply("div", as_tensor(other))

    def __rtruediv__(self, other):
        return as_tensor(other)._apply("div", self)

    def __neg__(self):
        return self._apply("neg")

    def __pow__(self, exponent):
        return self._apply("pow", exponent=float(exponent))

    def __matmul__(self, other):
        return self._apply("matmul", as_tensor(other))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._apply("reshape", shape=shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return self._apply("transpose", axes=axes or None)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return self._apply("sum", axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        return self._apply("mean", axis=axis, keepdims=keepdims)

    def __getitem__(self, index) -> "Tensor":
        return self._apply("slice", index=index)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)


def as_tensor(value: Any) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def tensor(data: Any, requires_grad: bool = False, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, name=name)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def randn(*shape, requires_grad: bool = False, rng: np.random.Generator | None = None,
          scale: float = 1.0) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=np.float64), requires_grad=requires_grad)
