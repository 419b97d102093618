"""Static liveness and peak-activation-memory estimation.

Replays the session's execution symbolically: ops execute in the same
depth-first topological order ``Session._plan`` would produce for the given
fetches (both share :func:`repro.graph.core.topo_plan`), every op's outputs
are allocated when it runs, and they are freed where the executor frees
them: :func:`repro.graph.core.lifetime_rule` gives the release steps, so the
estimate follows the same lifetime rule as an unbudgeted run (each
intermediate freed right after its last use, fetched tensors live until the
end).  Tensor sizes come from the planner's cost model
(:func:`repro.analysis.remat.op_costs`, schema shape inference), so the
whole estimate needs no kernel execution — checkmate-style static dataflow
analysis over the DNN graph.  The budgeted counterpart is
:func:`repro.analysis.remat.plan_remat_for_graph`.

The result is directly comparable to the *dynamic* activation-liveness peak
measured by :class:`repro.tools.memory.MemoryProfilingTool` (same
alloc-at-producer / free-after-last-consumer model); a unit test
cross-checks the two on the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..graph.core import ALIASING_TYPES, SKIP_TYPES, Graph, lifetime_rule
from . import remat

__all__ = ["LivenessReport", "estimate_liveness"]


@dataclass
class LivenessReport:
    """Static schedule, lifetimes, and the resulting memory peak."""

    #: op names in symbolic execution order
    schedule: list[str] = field(default_factory=list)
    #: op name -> total bytes of its outputs (0 when the shape is unknown)
    output_bytes: dict[str, int] = field(default_factory=dict)
    #: op name -> (birth step, free step): outputs live on [birth, free]
    lifetime: dict[str, tuple[int, int]] = field(default_factory=dict)
    peak_bytes: int = 0
    #: schedule step / op name at which the peak occurs
    peak_step: int = -1
    peak_op: str | None = None
    #: ops whose output shapes could not be inferred (counted as 0 bytes)
    unknown_ops: list[str] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(self.output_bytes.values())

    def __str__(self) -> str:
        return (f"LivenessReport({len(self.schedule)} ops, "
                f"peak={self.peak_bytes}B at step {self.peak_step} "
                f"({self.peak_op}), total={self.total_bytes}B, "
                f"{len(self.unknown_ops)} unknown)")


def estimate_liveness(graph: Graph, fetches=None,
                      feed_shapes: Mapping[str, tuple] | None = None,
                      exclude_types: Iterable[str] = ("Variable", "Const",
                                                      "Placeholder"),
                      ) -> LivenessReport:
    """Estimate the activation-liveness memory peak without executing.

    ``exclude_types`` removes parameter/input storage from the accounting so
    the number matches the *activation* peak the dynamic profiler reports;
    pass ``exclude_types=()`` to count everything.  Ops with uninferrable
    shapes contribute 0 bytes and are listed in ``unknown_ops``.
    """
    plan, fetched = remat.fetch_plan(graph, fetches)
    # wrappers carry nothing and an Identity output is its own input
    output_bytes, _, unknown = remat.op_costs(
        plan, graph, feed_shapes=feed_shapes,
        zero_byte_types=set(exclude_types) | SKIP_TYPES | ALIASING_TYPES)
    report = LivenessReport(schedule=[op.name for op in plan],
                            output_bytes=output_bytes, unknown_ops=unknown)
    releases = lifetime_rule(plan, fetched)().release_after_step
    report.peak_bytes, report.peak_step = remat.schedule_peak(
        range(len(plan)), releases, [output_bytes[op.name] for op in plan])
    if report.peak_step >= 0:
        report.peak_op = report.schedule[report.peak_step]

    # lifetime: (birth, last release); fetched values live to the end
    kept = set(fetched)
    ends = [len(plan) - 1 if op.name in kept else t
            for t, op in enumerate(plan)]
    for t, released in enumerate(releases):
        for u in released:
            ends[u] = max(ends[u], t)
    report.lifetime = {op.name: (t, ends[t]) for t, op in enumerate(plan)}
    return report
