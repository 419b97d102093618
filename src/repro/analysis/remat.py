"""Static rematerialization schedules for the slot-table executor.

The paper's capability matrix (Tbl. 1, DTR row) treats rematerialization as
an instrumentation workload; this module turns the repo's static
infrastructure — per-op byte costs from the verifier's shape inference,
topo plans from :func:`repro.graph.core.topo_plan`, the op schemas'
``stateful`` rules (:mod:`repro.analysis.schemas`) — into something the
executor can *run*: a compile-time keep-vs-recompute schedule for a memory
budget (``amanda.config.memory_budget``, env ``AMANDA_MEMORY_BUDGET``).

The planner is checkmate-flavoured static scheduling seeded with Chen's
:math:`\\sqrt{n}` segment checkpointing:

1. **Candidates** are the :func:`recomputable` ops that are not fetched and
   produce known, non-zero bytes.  Stateful ops (variable reads and
   assigns, batch norm, unseeded dropout), op types without a schema,
   ``PyCall`` instrumentation points and the captured ops that touch the
   run's stash table are *pinned*: they execute exactly once and their
   outputs are only freed after their last (possibly recompute) reader.
   Seeded dropout is a candidate — its recompute replays the seeded mask.
2. **Seed**: evict every candidate, materialize the instance schedule with a
   read-locality window of :math:`\\lceil\\sqrt{n}\\rceil` base steps (reads
   closer than the window share one incarnation; a farther read triggers a
   recompute — exactly segment checkpointing when consumers are contiguous).
   A few window sizes around :math:`\\sqrt{n}` are tried and the best
   simulated peak wins.
3. **Greedy refinement**: while the simulated peak stays within budget,
   un-evict the candidates with the highest recompute cost (estimated FLOPs
   x times recomputed) — the survivors are the cheap evictions that actually
   buy the memory.

Materialization is *lazy*: the base plan is replayed in order and, before an
op runs, every dead input producer is re-emitted together with its dead
ancestor closure (ascending base order, which is valid because the base plan
is topological).  Releases are then derived **post hoc** from the finished
instance list by the executor's own lifetime rule
(:func:`repro.graph.core.lifetime_rule`): each incarnation is freed after
its last reader, a pass-through ``PyCall``/``Identity`` keeps the
incarnations it read counted while its output lives, and a captured forward
op's stash holds its incarnations until the stash's last reader.  Pinned
ancestors needed by a recompute therefore live long enough, and the
simulated peak (``serial_peak``, the planner's objective) is the peak the
executor tracks on vanilla, instrumented and captured graphs alike.

The resulting :class:`RematSchedule` is the instance list the executor runs:
``instances`` duplicates plan positions (a recompute is an extra slot-table
entry) and ``release_after_step`` holds the releases it will make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..graph.core import (SKIP_TYPES, Graph, GraphTensor, Lifetimes,
                          Operation, lifetime_rule, topo_plan)
from .schemas import GRAPH_SCHEMAS, numel
from .verify import GraphVerifier

__all__ = ["RematSchedule", "plan_remat", "plan_remat_for_graph",
           "op_costs", "recomputable", "schedule_peak", "fetch_plan"]

#: every value in the reproduction is float64
_DTYPE_BYTES = 8

#: op types whose outputs are never fresh bytes: a ``Variable`` read returns
#: the stored array, an ``Identity`` output is its input, and ``PyCall``/
#: ``NoOp`` wrappers pass their inputs through or carry nothing
_NO_FRESH_BYTES = SKIP_TYPES | {"Variable", "Identity"}

#: greedy-refinement trial bound: only the costliest evictions are
#: reconsidered, so pathological plans cannot make compilation quadratic
_MAX_REFINE_TRIALS = 256


def recomputable(op: Operation) -> bool:
    """Whether the rematerialization pass may re-execute ``op``.

    Only an op whose result is a function of its inputs qualifies: its
    schema must exist and not call it ``stateful`` (re-running a state
    reader could observe a later write, a writer or an unseeded dropout
    would apply its effect twice, and an op type without a schema is
    unknown).  ``PyCall`` is always pinned — its callback is an externally
    observable tool routine (a profiler counting invocations must not see
    instrumentation points fire twice) — and ``NoOp`` anchors carry no
    value worth evicting.
    """
    if op.type in SKIP_TYPES:
        return False
    schema = GRAPH_SCHEMAS.get(op.type)
    return schema is not None and (schema.stateful is None
                                   or not schema.stateful(op))


def fetch_plan(graph: Graph, fetches) -> tuple[list[Operation], list[str]]:
    """``Session._plan``'s order over ``fetches`` and the fetched op names.

    A fetch is a tensor, an operation or a ``"name[:index]"`` string;
    ``None`` plans every op of the graph and fetches none.
    """
    if fetches is None:
        return topo_plan(list(graph.operations)), []
    roots = []
    for fetch in fetches:
        if isinstance(fetch, GraphTensor):
            roots.append(fetch.op)
        elif isinstance(fetch, Operation):
            roots.append(fetch)
        else:
            roots.append(graph.get_operation(str(fetch).partition(":")[0]))
    return topo_plan(roots), [op.name for op in roots]


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def _shape_numel(shape) -> int | None:
    count = numel(shape)
    return None if count is None else int(count)


def _op_flops(op: Operation, shapes: Mapping[str, tuple]) -> int:
    """Rough recompute cost of one op in FLOPs (drives eviction ordering).

    Matrix multiplies and convolutions get their real arithmetic counts;
    everything else is approximated by its output element count (one fused
    elementwise pass).  Unknown shapes cost 0 — such ops also carry 0 bytes,
    so they are never eviction candidates anyway.
    """
    out = 0
    for tensor in op.outputs:
        count = _shape_numel(shapes.get(tensor.name))
        if count:
            out += count
    kind = op.type.lower()
    if "matmul" in kind and len(op.inputs) >= 2:
        a = shapes.get(op.inputs[0].name)
        if a is not None and len(a) >= 1 and out:
            return 2 * out * int(a[-1])
    if "conv2d" in kind and len(op.inputs) >= 2:
        w = shapes.get(op.inputs[1].name)
        if w is not None and len(w) == 4 and out:
            kh, kw, cin = int(w[0]), int(w[1]), int(w[2])
            return 2 * out * kh * kw * cin
    return out


def op_costs(plan: Sequence[Operation], graph: Graph,
             feed_shapes: Mapping[str, tuple] | None = None,
             zero_byte_types: Iterable[str] = _NO_FRESH_BYTES):
    """``(bytes_of, flops_of, unknown)`` per op name for a compiled plan.

    Byte accounting mirrors the executor's allocation tracker by default:
    ``Variable`` reads alias the store and an ``Identity`` output is its own
    input (never counted as fresh), ``PyCall``/``NoOp`` wrappers alias or
    carry nothing, and everything else — placeholders, constants,
    activations — counts its full output bytes.  ``zero_byte_types`` names
    the op types counted as 0 bytes.  Other ops with uninferrable shapes
    contribute 0 bytes and are listed in ``unknown``.
    """
    verifier = GraphVerifier(graph, feed_shapes=feed_shapes)
    verifier.run()
    shapes = verifier.report.shapes
    bytes_of: dict[str, int] = {}
    flops_of: dict[str, int] = {}
    unknown: list[str] = []
    zero_bytes = frozenset(zero_byte_types)
    for op in plan:
        flops_of[op.name] = _op_flops(op, shapes)
        if op.type in zero_bytes:
            bytes_of[op.name] = 0
            continue
        total = 0
        missing = False
        for tensor in op.outputs:
            count = _shape_numel(shapes.get(tensor.name))
            if count is None:
                missing = True
            else:
                total += count * _DTYPE_BYTES
        if missing:
            unknown.append(op.name)
        bytes_of[op.name] = total
    return bytes_of, flops_of, unknown


# ---------------------------------------------------------------------------
# schedule container
# ---------------------------------------------------------------------------

@dataclass
class RematSchedule:
    """A lowered keep-vs-recompute schedule for one compiled plan.

    ``instances[t]`` is the base-plan position executed at instance step
    ``t`` (positions of evicted ops repeat); all other per-instance arrays
    are parallel to it.  ``feasible`` reports whether the simulated peak fits
    the budget — the executor runs the schedule either way (best effort).
    """

    budget: int
    #: base-plan position per executed instance (recomputes repeat positions)
    instances: list[int] = field(default_factory=list)
    #: True for every instance that re-executes an already-run op
    is_recompute: list[bool] = field(default_factory=list)
    #: per instance step -> instance ids whose slots free after that step
    release_after_step: list[tuple[int, ...]] = field(default_factory=list)
    #: names of ops evicted (and re-executed) at least once
    evicted: tuple[str, ...] = ()
    recompute_flops: int = 0
    #: bytes a run would hold with *no* frees
    serial_unreleased_bytes: int = 0
    #: liveness bound of the unbudgeted plan (every value freed at last use)
    baseline_serial_peak: int = 0
    #: simulated peak of this schedule
    serial_peak: int = 0
    feasible: bool = True

    @property
    def num_recomputes(self) -> int:
        return sum(1 for flag in self.is_recompute if flag)

    def __str__(self) -> str:
        verdict = "fits" if self.feasible else "EXCEEDS"
        return (f"RematSchedule({len(self.instances)} instances, "
                f"{self.num_recomputes} recomputes over "
                f"{len(self.evicted)} evicted ops, "
                f"peak {self.serial_peak}B {verdict} budget {self.budget}B, "
                f"+{self.recompute_flops} FLOPs)")


# ---------------------------------------------------------------------------
# materialization: eviction set -> instance schedule
# ---------------------------------------------------------------------------

def _materialize(n: int, data_inputs: list[tuple[int, ...]],
                 evicted: set[int], window: int) -> list[int]:
    """Replay the base plan with ``evicted`` values dropped between reads.

    ``window`` is the read-locality window in base steps: an evicted value
    whose next read is farther than ``window`` past its last read dies and
    is recomputed (with its dead ancestor closure) right before that read.
    Returns the instance list (base positions, recomputes repeated).
    """
    instances: list[int] = []
    cur: list[int | None] = [None] * n          # live incarnation per op
    last_read = [0] * n                         # base step of the last read
    deaths: dict[int, list[int]] = {}           # base step -> ops to check

    def _register_death(op: int, step: int) -> None:
        if step < n:
            deaths.setdefault(step, []).append(op)
        # values still live at the end are freed post hoc at their last
        # reader; no construction-time death needed

    def _emit(op: int, step: int) -> None:
        instances.append(op)
        cur[op] = len(instances) - 1
        last_read[op] = step
        if op in evicted:
            _register_death(op, step + window)

    def _ensure(op: int, step: int) -> None:
        """Make op's value live at base step ``step`` (recompute closure)."""
        if cur[op] is not None:
            last_read[op] = step
            return
        need: list[int] = []
        stack = [op]
        seen: set[int] = set()
        while stack:
            j = stack.pop()
            if j in seen or cur[j] is not None:
                continue
            seen.add(j)
            need.append(j)
            for dep in data_inputs[j]:
                if cur[dep] is None:
                    stack.append(dep)
        # ascending base order is a valid topological order of the closure
        for j in sorted(need):
            for dep in data_inputs[j]:
                if cur[dep] is not None:
                    last_read[dep] = step
            _emit(j, step)

    for i in range(n):
        for dep in data_inputs[i]:
            _ensure(dep, i)
        _emit(i, i)
        for op in deaths.pop(i, ()):
            if cur[op] is None:
                continue
            due = last_read[op] + window
            if due <= i:
                cur[op] = None  # no nearby future read: drop the value
            else:
                _register_death(op, due)  # refreshed since: re-arm
    return instances


def schedule_peak(instances: Sequence[int],
                  release_after_step: Sequence[Sequence[int]],
                  bytes_of: Sequence[int]) -> tuple[int, int]:
    """Peak live bytes of a schedule and the first step reaching it.

    ``bytes_of`` is indexed by plan position; the step is -1 when no byte is
    ever live.  This is the executor's accounting: an instance allocates its
    op's bytes when it runs and returns them at its release step.
    """
    peak, peak_step, live = 0, -1, 0
    for t, j in enumerate(instances):
        live += bytes_of[j]
        if live > peak:
            peak, peak_step = live, t
        for u in release_after_step[t]:
            live -= bytes_of[instances[u]]
    return peak, peak_step


def _lower(plan: Sequence[Operation], lifetimes: Callable[..., Lifetimes],
           instances: list[int], bytes_of: list[int],
           budget: int) -> RematSchedule:
    """Take the executor's releases for ``instances`` and simulate its peak."""
    releases = lifetimes(instances).release_after_step
    seen: set[int] = set()
    is_recompute = []
    for j in instances:
        is_recompute.append(j in seen)
        seen.add(j)
    return RematSchedule(
        budget=budget,
        instances=instances,
        is_recompute=is_recompute,
        release_after_step=releases,
        evicted=tuple(sorted({plan[j].name
                              for t, j in enumerate(instances)
                              if is_recompute[t]})),
        serial_peak=schedule_peak(instances, releases, bytes_of)[0],
    )


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------

def plan_remat(plan: Sequence[Operation], fetch_ops: Sequence[str],
               budget: int, bytes_of: Mapping[str, int],
               flops_of: Mapping[str, int] | None = None) -> RematSchedule:
    """Compute a budgeted keep-vs-recompute schedule for ``plan``.

    ``bytes_of``/``flops_of`` map op names to output bytes and recompute
    FLOPs (see :func:`op_costs`).  Always returns a schedule: with a
    generous budget it degenerates to the base plan with last-use releases
    (zero recomputes).
    """
    ops = list(plan)
    n = len(ops)
    index = {op.name: i for i, op in enumerate(ops)}
    fetched = {index[name] for name in fetch_ops if name in index}
    b = [int(bytes_of.get(op.name, 0)) for op in ops]
    flops = [int((flops_of or {}).get(op.name, 0)) for op in ops]
    data_inputs: list[tuple[int, ...]] = []
    for op in ops:
        deps = []
        for edge in op.inputs:
            j = index.get(edge.op.name)
            if j is not None and j not in deps:
                deps.append(j)
        data_inputs.append(tuple(deps))

    lifetimes = lifetime_rule(ops, fetch_ops)

    def lower(instances: list[int]) -> RematSchedule:
        return _lower(ops, lifetimes, instances, b, budget)

    def finish(schedule: RematSchedule,
               baseline: RematSchedule) -> RematSchedule:
        schedule.serial_unreleased_bytes = sum(b)
        schedule.baseline_serial_peak = baseline.serial_peak
        schedule.recompute_flops = sum(
            flops[j] for t, j in enumerate(schedule.instances)
            if schedule.is_recompute[t])
        schedule.feasible = schedule.serial_peak <= budget
        return schedule

    baseline = lower(list(range(n)))
    if baseline.serial_peak <= budget:
        return finish(baseline, baseline)

    # ops that touch the stash table run exactly once: a stash keeps its
    # forward op's values live until its last reader anyway, and it is
    # dropped by the name of that reader, so no reader may run twice
    readers = [op for op in ops if "forward_name" in op.attrs]
    touch_stash = ({op.name for op in readers}
                   | {op.attrs["forward_name"] for op in readers})
    candidates = [i for i, op in enumerate(ops)
                  if i not in fetched and b[i] > 0
                  and op.name not in touch_stash and recomputable(op)]
    if not candidates:
        return finish(baseline, baseline)

    # Chen seed: evict everything, pick the best read-locality window near
    # sqrt(n) (window == n degenerates to the no-eviction baseline)
    root = max(1, math.isqrt(n))
    evicted = set(candidates)
    best: RematSchedule | None = None
    for window in sorted({max(1, root // 2), root, 2 * root}):
        schedule = lower(_materialize(n, data_inputs, evicted, window))
        if best is None or (schedule.serial_peak, len(schedule.instances)) \
                < (best.serial_peak, len(best.instances)):
            best, best_window = schedule, window
    assert best is not None

    # drop evictions that never materialized a recompute (free), then
    # greedily un-evict the costliest survivors while the budget still holds
    recompute_counts: dict[int, int] = {}
    for t, j in enumerate(best.instances):
        if best.is_recompute[t]:
            recompute_counts[j] = recompute_counts.get(j, 0) + 1
    evicted = set(recompute_counts)
    trials = sorted(evicted,
                    key=lambda j: flops[j] * recompute_counts[j],
                    reverse=True)[:_MAX_REFINE_TRIALS]
    current = best
    if current.serial_peak <= budget:
        for j in trials:
            attempt = lower(_materialize(n, data_inputs, evicted - {j},
                                         best_window))
            if attempt.serial_peak <= budget:
                evicted.discard(j)
                current = attempt
    if current.serial_peak >= baseline.serial_peak:
        # eviction bought nothing (or made it worse — recompute instances
        # extend pinned ancestors): fall back to plain last-use releases
        return finish(baseline, baseline)
    return finish(current, baseline)


def plan_remat_for_graph(graph: Graph, fetches, budget: int,
                         feed_shapes: Mapping[str, tuple] | None = None,
                         ) -> RematSchedule:
    """Convenience wrapper: plan + costs from a graph and fetches."""
    plan, fetched = fetch_plan(graph, fetches)
    bytes_of, flops_of, _ = op_costs(plan, graph, feed_shapes=feed_shapes)
    return plan_remat(plan, fetched, budget, bytes_of, flops_of)
