"""The backend interface: what a driver must provide to Amanda core (Fig. 7).

A driver adapts one execution backend's raw callback mechanism to the common
contract:

* ``attach()`` installs the raw callbacks (monkey-patching the eager
  dispatcher, intercepting ``Session.run`` in graph mode);
* for every executed/compiled operator the driver builds an
  :class:`~repro.core.context.OpContext`, triggers analysis routines through
  the manager at the proper :class:`~repro.core.actions.IPoint`, and evaluates
  the recorded :class:`~repro.core.actions.Action` objects;
* ``detach()`` restores the backend to its vanilla state.

``SymbolicInput`` is the graph-mode stand-in for runtime tensors in analysis
contexts: statically known values (variables, constants) expose ``.data``;
everything else is symbolic (``data is None``).
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["BackendDriver", "SymbolicInput"]


class SymbolicInput:
    """A graph edge seen by an analysis routine, with optional static value."""

    __slots__ = ("tensor", "data")

    def __init__(self, tensor, data: np.ndarray | None = None) -> None:
        self.tensor = tensor
        self.data = data

    @property
    def is_static(self) -> bool:
        return self.data is not None

    def __repr__(self) -> str:
        kind = "static" if self.is_static else "symbolic"
        return f"SymbolicInput({self.tensor!r}, {kind})"


class BackendDriver(abc.ABC):
    """Base class for per-backend drivers."""

    #: namespace tag stamped into raw contexts, e.g. "eager" / "graph"
    namespace: str = "unknown"
    #: backend version and execution mode; together with the name these form
    #: the full namespace tag group, e.g. "eager/1.0/eager" — the paper's
    #: "tensorflow/1.13/graph" convention (Sec. 5.2)
    version: str = "1.0"
    mode: str = "unknown"

    @property
    def namespace_tags(self) -> str:
        return f"{self.namespace}/{self.version}/{self.mode}"

    def __init__(self, manager) -> None:
        self.manager = manager

    @abc.abstractmethod
    def attach(self) -> None:
        """Install raw callbacks into the backend."""

    @abc.abstractmethod
    def detach(self) -> None:
        """Restore the backend to its vanilla state."""

    def action_cache_cleared(self) -> None:
        """The manager dropped its eager action cache; release what the
        driver holds against the dropped records."""
