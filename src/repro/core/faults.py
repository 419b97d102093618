"""Fault isolation for tool callbacks: structured errors and policies.

Amanda's transparency guarantee (Sec. 5.2/5.3) must also hold when a tool
*fails*: a raising analysis or instrumentation routine may not leak an open
timing span, leave the action cache half-populated, or crash deep inside a
backend with no tool provenance.  This module defines the currency of the
fault-isolation layer:

* :class:`Provenance` — where a routine was running when it failed (tool,
  op id/type, instrumentation point, backend);
* :class:`InstrumentationError` — the structured wrapper the manager raises
  in place of the routine's raw exception, carrying full provenance and the
  original exception as ``original`` (and ``__cause__``);
* :data:`ERROR_POLICIES` — the recovery policies the manager honours:

  - ``"raise"`` (default): propagate the wrapped error after the drivers
    have cleanly unwound their invariants (spans closed, busy flags reset,
    op-id assignment retracted when no cache entry was stored);
  - ``"quarantine"``: disable the offending tool's analysis routines, drop
    its recorded actions from recompiled plans (via the existing
    ``tool_epoch`` invalidation mechanism) and continue executing vanilla;
  - ``"record"``: count the failure in ``manager.snapshot()["faults"]``
    and continue — the tool stays active and may fail again on later
    executions;

* :data:`FALLBACK_REASONS` — what a driver substituted when it contained a
  failure under a policy other than ``"raise"``; the manager counts each
  in ``manager.snapshot()["fallbacks"]``.

See DESIGN.md, "Failure semantics", for the invariant table.
"""

from __future__ import annotations

__all__ = ["Provenance", "InstrumentationError", "ERROR_POLICIES",
           "FALLBACK_REASONS", "check_error_policy"]

#: valid values of ``manager.error_policy``
ERROR_POLICIES = ("raise", "quarantine", "record")

#: fallback reason codes, ``<backend>.<what ran instead>``:
#:
#: * ``vanilla_op`` / ``vanilla_node``: the op re-ran without its tools, on
#:   its original inputs;
#: * ``kept_outputs``: a routine failed after the op ran, and the outputs
#:   it had computed stand;
#: * ``vanilla_graph``: the run used the vanilla graph, because the rewrite
#:   or a routine inside the instrumented graph failed.
FALLBACK_REASONS = ("eager.vanilla_op", "eager.kept_outputs",
                    "onnx.vanilla_node", "onnx.kept_outputs",
                    "graph.vanilla_graph")


def check_error_policy(policy: str) -> str:
    """Return ``policy`` if it is one of :data:`ERROR_POLICIES`; raise
    ``ValueError`` otherwise."""
    if policy not in ERROR_POLICIES:
        raise ValueError(f"unknown error policy {policy!r} "
                         f"(choose from {', '.join(ERROR_POLICIES)})")
    return policy


class Provenance:
    """Where an instrumentation/analysis routine was running when it failed."""

    __slots__ = ("tool", "op_id", "op_type", "i_point", "backend")

    def __init__(self, tool: str | None = None, op_id: int | None = None,
                 op_type: str | None = None, i_point: str | None = None,
                 backend: str | None = None) -> None:
        self.tool = tool
        self.op_id = op_id
        self.op_type = op_type
        self.i_point = i_point
        self.backend = backend

    def with_tool(self, tool: str | None) -> "Provenance":
        """This provenance attributed to ``tool`` (no-op when unchanged)."""
        if tool is None or tool == self.tool:
            return self
        return Provenance(tool, self.op_id, self.op_type, self.i_point,
                          self.backend)

    def as_dict(self) -> dict:
        return {"tool": self.tool, "op_id": self.op_id,
                "op_type": self.op_type, "i_point": self.i_point,
                "backend": self.backend}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items()
                          if v is not None)
        return f"Provenance({parts})"


class InstrumentationError(RuntimeError):
    """A tool routine raised; wraps the original exception with provenance.

    Raised by :meth:`InstrumentationManager.run_instrumentation` /
    :meth:`~InstrumentationManager.run_analysis` under the ``"raise"``
    policy (and propagated to driver recovery points under the other
    policies).  ``original`` is the routine's exception; ``phase`` says
    whether it was an ``"analysis"`` routine, an ``"instrumentation"``
    routine, or backend ``"rewrite"`` machinery acting on recorded actions.
    """

    def __init__(self, original: BaseException,
                 provenance: Provenance | None = None,
                 phase: str = "instrumentation") -> None:
        self.original = original
        self.provenance = provenance or Provenance()
        self.phase = phase
        p = self.provenance
        where = f" in tool {p.tool!r}" if p.tool else ""
        point = p.i_point or "?"
        super().__init__(
            f"{phase} routine failed{where} at {point} "
            f"(op {p.op_id} {p.op_type!r}, backend {p.backend or '?'}): "
            f"{type(original).__name__}: {original}")

    @property
    def tool(self) -> str | None:
        return self.provenance.tool

    def summary(self) -> dict:
        """The dict ``manager.snapshot()["faults"]["recent"]`` holds for
        this failure."""
        entry = self.provenance.as_dict()
        entry["phase"] = self.phase
        entry["error"] = f"{type(self.original).__name__}: {self.original}"
        return entry
