"""Static liveness and peak-activation-memory estimation.

Replays the session's scheduling model symbolically: ops execute in the same
depth-first topological order ``Session._plan`` would produce for the given
fetches (both share :func:`repro.graph.core.topo_plan`), every op's outputs
are allocated when it runs, and they are freed right after their last
consumer runs (fetched tensors live until the end).  Tensor sizes come from
the schema shape inference (:mod:`repro.analysis.verify`), so the whole
estimate needs no kernel execution — checkmate-style static dataflow analysis
over the DNN graph.

Two schedule modes:

* ``schedule_mode="serial"`` (default) frees each intermediate right after
  its last consuming op — the classic estimate;
* ``schedule_mode="remat"`` runs the static rematerialization planner
  (:mod:`repro.analysis.remat`) against ``budget`` and reports the
  *budgeted* schedule: the instance order (recomputes repeated), its
  simulated peak, and the :class:`~repro.analysis.remat.RematSchedule`
  itself on ``report.remat``.  With ``budget=0`` it reports the planner's
  floor — the smallest peak maximal eviction can reach.

The result is directly comparable to the *dynamic* activation-liveness peak
measured by :class:`repro.tools.memory.MemoryProfilingTool` (same
alloc-at-producer / free-after-last-consumer model); a unit test cross-checks
the two on the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..graph.core import SKIP_TYPES, Graph, GraphTensor, Operation, topo_plan
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
    exclude = set(exclude_types) | set(SKIP_TYPES)
    report = LivenessReport()
    position = {op.name: i for i, op in enumerate(plan)}
    report.schedule = [op.name for op in plan]

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

    # last consumer within the schedule; fetched ops live to the end
    fetched = set() if fetches is None else {
        (fetch.op.name if isinstance(fetch, GraphTensor)
         else fetch.name if isinstance(fetch, Operation)
         else str(fetch).partition(":")[0])
        for fetch in fetches}
    if schedule_mode == "remat":
        _sweep_remat(report, plan, fetched, budget)
        return report

    last: dict[str, int] = {}
    for op in plan:
        last[op.name] = len(plan) - 1 if op.name in fetched \
            else position[op.name]
    for op in plan:
        for edge in op.inputs:
            if edge.op.name in position:
                last[edge.op.name] = max(last[edge.op.name],
                                         position[op.name])
    for op in plan:
        report.lifetime[op.name] = (position[op.name], last[op.name])

    # sweep: alloc at producer, free after last consumer
    frees: dict[int, list[str]] = {}
    for name, (_, end) in report.lifetime.items():
        frees.setdefault(end, []).append(name)
    live = 0
    for step, op in enumerate(plan):
        live += report.output_bytes[op.name]
        if live > report.peak_bytes:
            report.peak_bytes = live
            report.peak_step = step
            report.peak_op = op.name
        for name in frees.get(step, ()):
            live -= report.output_bytes[name]
    return report


def _sweep_remat(report: LivenessReport, plan: list[Operation],
                 fetched: set[str], budget: int) -> None:
    """Budgeted sweep: replay the rematerialization planner's schedule.

    The planner consumes this report's own per-op byte accounting (so the
    include/exclude knobs apply).
    ``lifetime`` maps each op to (first birth, last release) across all of
    its incarnations.
    """
    from .remat import plan_remat  # local: liveness is imported by remat CLI
    schedule = plan_remat(plan, sorted(fetched), budget, report.output_bytes)
    report.budget = budget
    report.remat = schedule
    report.schedule = [plan[j].name for j in schedule.instances]
    live = 0
    for t, j in enumerate(schedule.instances):
        live += report.output_bytes[plan[j].name]
        if live > report.peak_bytes:
            report.peak_bytes = live
            report.peak_step = t
            report.peak_op = plan[j].name
        for u in schedule.release_after_step[t]:
            live -= report.output_bytes[plan[schedule.instances[u]].name]
    births: dict[str, int] = {}
    ends: dict[str, int] = {}
    for t, j in enumerate(schedule.instances):
        name = plan[j].name
        births.setdefault(name, t)
        ends[name] = t
    for t, released in enumerate(schedule.release_after_step):
        for u in released:
            name = plan[schedule.instances[u]].name
            ends[name] = max(ends[name], t)
    for name in report.schedule:
        if name in fetched:
            ends[name] = len(schedule.instances) - 1
    for op in plan:
        report.lifetime[op.name] = (births[op.name], ends[op.name])
