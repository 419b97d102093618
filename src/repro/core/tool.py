"""The user-facing Tool abstraction (Sec. 4).

A tool bundles *analysis routines* (callbacks inspecting an operator's context
and recording instrumentation actions) with the *instrumentation routines*
those actions reference.  Tools declare dependencies on other tools with
:meth:`Tool.depends_on`; the manager resolves the dependency graph, orders
context transformations, and rejects cycles (Sec. 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .context import OpContext

__all__ = ["Tool", "Registration"]


@dataclass(frozen=True)
class Registration:
    """One registered analysis routine and its instrumentation point."""

    callback: Callable[[OpContext], None]
    backward: bool = False
    require_outputs: bool = False

    @property
    def i_point(self) -> str:
        if self.backward:
            return "after_backward_op" if self.require_outputs else "before_backward_op"
        return "after_forward_op" if self.require_outputs else "before_forward_op"


class Tool:
    """Base class for Amanda instrumentation tools.

    Subclass it (stateful tools) or instantiate directly and call
    :meth:`add_inst_for_op` (one-off tools).
    """

    #: optional namespace tag a tool expects contexts in (see MappingTool)
    namespace: str | None = None

    #: context-transform tools (mapping, tracing) normalize/annotate contexts;
    #: their writes do not count as user state for fast-path decisions
    is_context_transform = False

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self._dependencies: list[Tool] = []
        self._registrations: list[Registration] = []
        self._iteration_callbacks: list[Callable[[int], None]] = []

    # -- registration APIs (Lst. 2) --------------------------------------------
    def add_inst_for_op(self, callback: Callable[[OpContext], None],
                        backward: bool = False,
                        require_outputs: bool = False) -> None:
        """Register ``callback`` as an analysis routine for all ops.

        ``backward``/``require_outputs`` select among the four instrumentation
        points: before/after x forward/backward.
        """
        self._registrations.append(
            Registration(callback, backward, require_outputs))

    def depends_on(self, *tools: "Tool") -> None:
        """Declare that this tool consumes the given tools' transformations."""
        self._dependencies.extend(tools)

    def add_inst_for_iteration(self, callback: Callable[[int], None]) -> None:
        """Register a callback fired at every iteration boundary.

        Higher-level instrumentation points such as the training iteration
        are derived from the operator-level points plus context (Sec. 3);
        the framework detects boundaries (backward completion / top-level
        module re-entry / explicit ``amanda.new_iteration``).
        """
        self._iteration_callbacks.append(callback)

    @property
    def iteration_callbacks(self) -> list:
        return list(self._iteration_callbacks)

    # -- lifecycle hooks (called by the manager on apply/remove) -----------------
    def on_apply(self) -> None:
        """Called when the tool becomes active inside ``amanda.apply``."""

    def on_remove(self) -> None:
        """Called when the enclosing ``amanda.apply`` scope exits."""

    # -- introspection used by the manager -------------------------------------
    @property
    def dependencies(self) -> list["Tool"]:
        return list(self._dependencies)

    @property
    def registrations(self) -> list[Registration]:
        return list(self._registrations)

    def registrations_at(self, backward: bool, require_outputs: bool):
        return [r for r in self._registrations
                if r.backward == backward and r.require_outputs == require_outputs]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
