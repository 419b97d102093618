"""Static liveness and peak-activation-memory estimation.

Replays the session's execution symbolically: ops execute in the same
depth-first topological order ``Session._plan`` would produce for the given
fetches (both share :func:`repro.graph.core.topo_plan`), every op's outputs
are allocated when it runs, and they are freed where the executor frees
them: :func:`repro.graph.core.lifetime_rule` gives the release steps, so the
estimate follows the same lifetime rule as a real run (fetched tensors live
until the end).  Tensor sizes come from the schema shape inference
(:mod:`repro.analysis.verify`), so the whole estimate needs no kernel
execution — checkmate-style static dataflow analysis over the DNN graph.

Two schedule modes:

* ``schedule_mode="serial"`` (default) is the planner's schedule with
  nothing evicted: each intermediate is freed right after its last use;
* ``schedule_mode="remat"`` runs the static rematerialization planner
  (:mod:`repro.analysis.remat`) against ``budget`` and reports the
  *budgeted* schedule: the instance order (recomputes repeated), its
  simulated peak, and the :class:`~repro.analysis.remat.RematSchedule`
  itself on ``report.remat``.  With ``budget=0`` it reports the planner's
  floor — the smallest peak maximal eviction can reach.

Both modes sweep the instance list with the executor's accounting
(:func:`repro.analysis.remat.schedule_peak`).  The result is directly
comparable to the *dynamic* activation-liveness peak measured by
:class:`repro.tools.memory.MemoryProfilingTool` (same
alloc-at-producer / free-after-last-consumer model); a unit test
cross-checks the two on the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..graph.core import (ALIASING_TYPES, SKIP_TYPES, Graph, GraphTensor,
                          Operation, lifetime_rule, topo_plan)
from . import remat
from .schemas import numel
from .verify import GraphVerifier

__all__ = ["LivenessReport", "estimate_liveness"]

#: every value in the reproduction is float64
_DTYPE_BYTES = 8


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
    #: remat mode only: the budget the planner targeted and the resulting
    #: :class:`repro.analysis.remat.RematSchedule` (None in other modes)
    budget: int = 0
    remat: object | None = None

    @property
    def total_bytes(self) -> int:
        return sum(self.output_bytes.values())

    def __str__(self) -> str:
        return (f"LivenessReport({len(self.schedule)} ops, "
                f"peak={self.peak_bytes}B at step {self.peak_step} "
                f"({self.peak_op}), total={self.total_bytes}B, "
                f"{len(self.unknown_ops)} unknown)")


def _schedule(graph: Graph, fetches) -> list[Operation]:
    """Depth-first topo order over fetch ancestors — Session._plan's order."""
    if fetches is None:
        roots = list(graph.operations)
    else:
        roots = []
        for fetch in fetches:
            if isinstance(fetch, GraphTensor):
                roots.append(fetch.op)
            elif isinstance(fetch, Operation):
                roots.append(fetch)
            else:
                roots.append(graph.get_operation(
                    str(fetch).partition(":")[0]))
    return topo_plan(roots)


def estimate_liveness(graph: Graph, fetches=None,
                      feed_shapes: Mapping[str, tuple] | None = None,
                      include_types: Iterable[str] | None = None,
                      exclude_types: Iterable[str] = ("Variable", "Const",
                                                      "Placeholder"),
                      dtype_bytes: int = _DTYPE_BYTES,
                      schedule_mode: str = "serial",
                      budget: int = 0) -> LivenessReport:
    """Estimate the activation-liveness memory peak without executing.

    ``exclude_types`` removes parameter/input storage from the accounting so
    the number matches the *activation* peak the dynamic profiler reports;
    pass ``exclude_types=()`` to count everything.  Ops with uninferrable
    shapes contribute 0 bytes and are listed in ``unknown_ops``.

    ``schedule_mode="remat"`` simulates the memory-budgeted executor: the
    rematerialization planner schedules evictions and recomputes against
    ``budget`` (bytes, using this report's own byte accounting), the
    instance order lands in ``report.schedule`` (recomputed ops repeat) and
    the schedule itself in ``report.remat``.
    """
    if schedule_mode not in ("serial", "remat"):
        raise ValueError(f"unknown schedule_mode {schedule_mode!r}; "
                         "expected 'serial' or 'remat'")
    verifier = GraphVerifier(graph, feed_shapes=feed_shapes)
    verifier.run()
    shapes = verifier.report.shapes

    plan = _schedule(graph, fetches)
    include = set(include_types) if include_types is not None else None
    # wrappers carry nothing and an Identity output is its own input
    exclude = set(exclude_types) | SKIP_TYPES | ALIASING_TYPES
    report = LivenessReport()

    # bytes per op (sum over outputs); None shape -> unknown, counted 0
    for op in plan:
        if (include is not None and op.type not in include) \
                or (include is None and op.type in exclude):
            report.output_bytes[op.name] = 0
            continue
        total = 0
        unknown = False
        for tensor in op.outputs:
            count = numel(shapes.get(tensor.name))
            if count is None:
                unknown = True
            else:
                total += count * dtype_bytes
        if unknown:
            report.unknown_ops.append(op.name)
        report.output_bytes[op.name] = total

    # the executor's releases: the planner's schedule in remat mode, the
    # plan itself with nothing evicted in serial mode
    fetched = set() if fetches is None else {
        (fetch.op.name if isinstance(fetch, GraphTensor)
         else fetch.name if isinstance(fetch, Operation)
         else str(fetch).partition(":")[0])
        for fetch in fetches}
    bytes_of = [report.output_bytes[op.name] for op in plan]
    if schedule_mode == "remat":
        schedule = remat.plan_remat(plan, sorted(fetched), budget,
                                    report.output_bytes)
        report.budget = budget
        report.remat = schedule
        instances = schedule.instances
        releases = schedule.release_after_step
    else:
        instances = list(range(len(plan)))
        releases = lifetime_rule(plan, fetched)().release_after_step
    report.schedule = [plan[j].name for j in instances]
    report.peak_bytes, report.peak_step = remat.schedule_peak(
        instances, releases, bytes_of)
    if report.peak_step >= 0:
        report.peak_op = report.schedule[report.peak_step]

    # lifetime: (first birth, last release) across an op's incarnations
    last = len(instances) - 1
    births: dict[str, int] = {}
    ends: dict[str, int] = {}
    for t, name in enumerate(report.schedule):
        births.setdefault(name, t)
        ends[name] = last if name in fetched else t
    for t, released in enumerate(releases):
        for u in released:
            name = report.schedule[u]
            ends[name] = max(ends[name], t)
    for op in plan:
        report.lifetime[op.name] = (births[op.name], ends[op.name])
    return report
