"""Memory profiling and DTR-style rematerialization analysis (Tbl. 1, DTR row).

Dynamic tensor rematerialization (Kirisame et al., cited as [50]) needs the
same instrumentation states the paper's Tbl. 1 lists for DTR: weights,
activations and the *graph structure* — which operator produced each live
tensor and who still consumes it.  This tool gathers those states through the
standard operator instrumentation points (it ``depends_on`` the built-in
graph tracer) and provides:

* :meth:`MemoryProfilingTool.peak_memory` — the activation-liveness peak of
  the recorded execution (alloc at producer, free after last consumer);
* :meth:`MemoryProfilingTool.rematerialization_plan` — a DTR-flavoured greedy
  plan: evict the activations with the best bytes-per-recompute-FLOP ratio
  until the peak fits a budget, and report the recompute overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.context import OpContext
from ..core.tool import Tool
from .mapping import standard_mapping_tool
from .profiling import flops_for
from .tracing import GraphTracingTool

__all__ = ["MemoryProfilingTool", "RematerializationPlan"]

#: mapped op types whose outputs cannot be rematerialized: sources have no
#: recomputable producer (weights would be *lost*, not respilled).  The
#: static scheduler likewise pins every ``Variable`` read, whose schema is
#: ``stateful`` (``repro.analysis.remat.recomputable``).
_NON_RECOMPUTABLE = frozenset({"variable", "placeholder", "constant"})

#: store-owned state: excluded from the activation byte model (the
#: executor's allocation tracker and ``repro.analysis.remat.op_costs`` both
#: give Variable reads zero bytes because the VariableStore owns that memory).
_PERSISTENT = frozenset({"variable"})


@dataclass
class RematerializationPlan:
    budget: int
    baseline_peak: int
    achieved_peak: int
    evicted: list[int] = field(default_factory=list)
    recompute_flops: int = 0

    @property
    def feasible(self) -> bool:
        return self.achieved_peak <= self.budget


class MemoryProfilingTool(Tool):
    """Records per-operator activation footprints and execution order."""

    def __init__(self) -> None:
        super().__init__()
        self.tracer = GraphTracingTool()
        self.depends_on(standard_mapping_tool(), self.tracer)
        self.add_inst_for_op(self.analysis)
        #: op_id -> output bytes
        self.output_bytes: dict[int, int] = {}
        #: op_id -> recompute cost (FLOPs of the producing op)
        self.recompute_cost: dict[int, int] = {}
        #: execution order of forward ops
        self.order: list[int] = []
        #: op_id -> mapped op type (e.g. ``"matmul"``, ``"variable"``)
        self.op_types: dict[int, str] = {}
        self._input_shapes: dict[int, list] = {}

    # -- recording ----------------------------------------------------------------
    def analysis(self, context: OpContext) -> None:
        op_id = context.get_op_id()
        op_type = context.get("type")
        context.insert_before_op(self._record_inputs, inputs=None,
                                 op_id=op_id)
        context.insert_after_op(self._record_outputs, outputs=None,
                                op_id=op_id, op_type=op_type)

    def _record_inputs(self, *arrays, op_id=None):
        self._input_shapes[op_id] = [np.asarray(a).shape for a in arrays]
        return None

    def _record_outputs(self, *arrays, op_id=None, op_type=None):
        if op_id not in self.output_bytes:
            self.order.append(op_id)
        self.output_bytes[op_id] = sum(np.asarray(a).nbytes for a in arrays)
        self.op_types[op_id] = op_type
        shapes = [np.asarray(a).shape for a in arrays]
        self.recompute_cost[op_id] = flops_for(
            op_type, self._input_shapes.get(op_id, []), shapes)
        return None

    # -- liveness analysis ------------------------------------------------------------
    def _last_consumer_index(self) -> dict[int, int]:
        """Execution index after which each op's output can be freed."""
        graph = self.tracer.graph
        position = {op_id: i for i, op_id in enumerate(self.order)}
        last: dict[int, int] = {}
        for op_id in self.order:
            consumers = [position[s] for s in graph.successors(op_id)
                         if s in position]
            last[op_id] = max(consumers) if consumers else position[op_id]
        return last

    def _bytes(self, op_id: int, activations_only: bool) -> int:
        if activations_only and self.op_types.get(op_id) in _PERSISTENT:
            return 0
        return self.output_bytes.get(op_id, 0)

    def peak_memory(self, evicted: set[int] | None = None, *,
                    activations_only: bool = False) -> int:
        """Peak live activation bytes; ``evicted`` tensors free immediately.

        With ``activations_only`` variable reads count zero bytes, matching
        the byte model of the static scheduler (``repro.analysis.remat``) and
        the executor's allocation tracker, where that memory is store-owned.
        """
        evicted = evicted or set()
        last = self._last_consumer_index()
        peak = live = 0
        for index, op_id in enumerate(self.order):
            if op_id not in evicted:
                live += self._bytes(op_id, activations_only)
            peak = max(peak, live)
            # free everything whose last consumer just executed
            live -= sum(self._bytes(other, activations_only)
                        for other in self.order
                        if other not in evicted and last[other] == index)
        return peak

    def rematerialization_plan(self, budget: int, *,
                               activations_only: bool = False,
                               ) -> RematerializationPlan:
        """Greedy DTR-style eviction: best bytes-per-recompute-FLOP first.

        Source ops (variables, placeholders, constants) are never eviction
        candidates — they have no recomputable producer, so dropping them
        would lose state rather than trade memory for FLOPs.  This mirrors
        the static scheduler's ``recomputable`` pinning, which lets the two
        planners be cross-checked on the same recorded execution.
        """
        baseline = self.peak_memory(activations_only=activations_only)
        plan = RematerializationPlan(budget=budget, baseline_peak=baseline,
                                     achieved_peak=baseline)
        if baseline <= budget:
            return plan
        candidates = sorted(
            (op_id for op_id in self.order
             if self._bytes(op_id, activations_only)
             and self.op_types.get(op_id) not in _NON_RECOMPUTABLE),
            key=lambda op_id: -(self.output_bytes[op_id]
                                / (1 + self.recompute_cost.get(op_id, 0))))
        evicted: set[int] = set()
        for op_id in candidates:
            evicted.add(op_id)
            plan.evicted.append(op_id)
            plan.recompute_flops += self.recompute_cost.get(op_id, 0)
            plan.achieved_peak = self.peak_memory(
                evicted, activations_only=activations_only)
            if plan.achieved_peak <= budget:
                break
        return plan

    def reset(self) -> None:
        self.output_bytes.clear()
        self.recompute_cost.clear()
        self.order.clear()
        self.op_types.clear()
        self._input_shapes.clear()
        self.tracer.reset()
