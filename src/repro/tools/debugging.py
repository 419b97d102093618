"""Training-debugging tools: numerical guards and gradient monitoring.

The paper motivates instrumentation with analysis tasks that "monitor the
execution process of an existing DNN model" (Sec. 1/2).  These two tools are
the everyday debugging instances of that category:

* :class:`NaNGuardTool` — watches every operator's outputs (and produced
  gradients) for NaN/Inf and reports the *first* offending operator with its
  stable id and type — the information a module-level hook cannot give for
  functional ops.
* :class:`GradientMonitorTool` — per-operator gradient-norm statistics across
  iterations: detects vanishing/exploding gradients at operator granularity.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..core.context import OpContext
from ..core.tool import Tool
from .mapping import standard_mapping_tool

__all__ = ["NaNGuardTool", "NumericalAnomaly", "GradientMonitorTool",
           "GradientClippingTool"]


@dataclass
class NumericalAnomaly:
    op_id: int | None
    op_type: str
    phase: str  # "forward" | "backward"
    kind: str   # "nan" | "inf"
    tensor_index: int


class NaNGuardError(FloatingPointError):
    """Raised by :class:`NaNGuardTool` in ``raise_on_anomaly`` mode."""

    def __init__(self, anomaly: NumericalAnomaly) -> None:
        super().__init__(
            f"{anomaly.kind} detected in {anomaly.phase} of operator "
            f"{anomaly.op_type!r} (id={anomaly.op_id}, "
            f"tensor {anomaly.tensor_index})")
        self.anomaly = anomaly


class NaNGuardTool(Tool):
    """Detects the first operator producing NaN/Inf values."""

    def __init__(self, raise_on_anomaly: bool = False,
                 check_gradients: bool = True) -> None:
        super().__init__()
        self.raise_on_anomaly = raise_on_anomaly
        self.anomalies: list[NumericalAnomaly] = []
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.forward_analysis)
        if check_gradients:
            self.add_inst_for_op(self.backward_analysis, backward=True)

    def forward_analysis(self, context: OpContext) -> None:
        context.insert_after_op(self._check, outputs=None,
                                op_id=context.get_op_id(),
                                op_type=context.get("type"), phase="forward")

    def backward_analysis(self, context: OpContext) -> None:
        context.insert_after_backward_op(
            self._check, grad_inputs=None,
            op_id=context.get_op_id(),
            op_type=context.get("backward_type", "?"), phase="backward")

    def _check(self, *arrays, op_id=None, op_type=None, phase=None):
        for index, array in enumerate(arrays):
            array = np.asarray(array)
            if np.isnan(array).any():
                self._report(op_id, op_type, phase, "nan", index)
            elif np.isinf(array).any():
                self._report(op_id, op_type, phase, "inf", index)
        return None

    def _report(self, op_id, op_type, phase, kind, index) -> None:
        anomaly = NumericalAnomaly(op_id, op_type, phase, kind, index)
        self.anomalies.append(anomaly)
        if self.raise_on_anomaly:
            raise NaNGuardError(anomaly)

    @property
    def clean(self) -> bool:
        return not self.anomalies

    def first_anomaly(self) -> NumericalAnomaly | None:
        return self.anomalies[0] if self.anomalies else None

    def reset(self) -> None:
        self.anomalies.clear()


class GradientMonitorTool(Tool):
    """Per-operator gradient-norm statistics across training iterations."""

    def __init__(self, vanish_threshold: float = 1e-8,
                 explode_threshold: float = 1e3) -> None:
        super().__init__()
        self.vanish_threshold = vanish_threshold
        self.explode_threshold = explode_threshold
        #: backward op id -> list of grad L2 norms, one per execution
        self.norms: dict[int, list[float]] = defaultdict(list)
        self.types: dict[int, str] = {}
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.backward_analysis, backward=True)

    def backward_analysis(self, context: OpContext) -> None:
        bwd_id = context.get_backward_op_id()
        self.types[bwd_id] = context.get("backward_type", "?")
        context.insert_after_backward_op(self._record, grad_inputs=None,
                                         bwd_id=bwd_id)

    def _record(self, *grads, bwd_id=None):
        total = float(np.sqrt(sum(float((np.asarray(g) ** 2).sum())
                                  for g in grads)))
        self.norms[bwd_id].append(total)
        return None

    # -- reporting --------------------------------------------------------------
    def vanishing(self) -> list[int]:
        """Backward ops whose latest gradient norm is ~zero."""
        return [bwd_id for bwd_id, norms in self.norms.items()
                if norms and norms[-1] < self.vanish_threshold]

    def exploding(self) -> list[int]:
        return [bwd_id for bwd_id, norms in self.norms.items()
                if norms and norms[-1] > self.explode_threshold]

    def summary(self) -> list[tuple[str, float, float]]:
        """(backward type, mean norm, max norm), largest mean first."""
        rows = [(self.types.get(bwd_id, "?"), float(np.mean(norms)),
                 float(np.max(norms)))
                for bwd_id, norms in self.norms.items() if norms]
        return sorted(rows, key=lambda r: -r[1])

    def reset(self) -> None:
        self.norms.clear()
        self.types.clear()


class GradientClippingTool(Tool):
    """Clips every parameter gradient as it is accumulated.

    Classic training stabilization implemented at the instrumentation level:
    the tool intercepts the explicit ``accumulate_grad`` operator (one per
    trainable leaf, Sec. 5.3 — invisible to module hooks) and clips either by
    value or to a maximum L2 norm per parameter.
    """

    def __init__(self, max_norm: float | None = None,
                 clip_value: float | None = None) -> None:
        if (max_norm is None) == (clip_value is None):
            raise ValueError("specify exactly one of max_norm / clip_value")
        super().__init__()
        self.max_norm = max_norm
        self.clip_value = clip_value
        self.clip_events = 0
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        if context.get("type") != "accumulate_grad":
            return
        context.insert_before_op(self._clip, inputs=[1])

    def _clip(self, grad):
        grad = np.asarray(grad)
        if self.clip_value is not None:
            clipped = np.clip(grad, -self.clip_value, self.clip_value)
            if not np.array_equal(clipped, grad):
                self.clip_events += 1
            return clipped
        norm = float(np.sqrt((grad ** 2).sum()))
        if norm <= self.max_norm or norm == 0.0:
            return grad
        self.clip_events += 1
        return grad * (self.max_norm / norm)
