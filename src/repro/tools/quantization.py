"""Quantization tools: static PTQ, dynamic PTQ, and QAT (Tbl. 1, Sec. 6.1).

The three methods need exactly the computation states Tbl. 1 lists:

* **static PTQ** quantizes weights only, with scales fixed at analysis time;
* **dynamic PTQ** additionally fake-quantizes activations with per-batch
  runtime scales;
* **QAT** fake-quantizes weights and activations during *training*.  Because
  the eager driver substitutes instrumented input values while keeping
  autograd wired to the original tensors (AD isolation), gradients flow
  straight through the quantizer — the straight-through estimator falls out
  of the instrumentation model, and weight gradients can additionally be
  clipped by a backward instrumentation routine.

All tools are portable across backends via the standard mapping tool.
"""

from __future__ import annotations

import numpy as np

from ..core.context import OpContext
from ..core.tool import Tool
from .mapping import standard_mapping_tool

__all__ = ["quantize_dequantize", "StaticPTQTool", "DynamicPTQTool", "QATTool",
           "ActivationCalibrationTool", "CalibratedPTQTool"]


def quantize_dequantize(array: np.ndarray, bits: int = 8,
                        scale: float | None = None) -> np.ndarray:
    """Symmetric uniform fake quantization: round(x/s) clipped to the signed
    ``bits``-bit range, then dequantized back to float."""
    qmax = 2 ** (bits - 1) - 1
    if scale is None:
        max_abs = float(np.max(np.abs(array))) if array.size else 0.0
        scale = max_abs / qmax if max_abs > 0 else 1.0
    q = np.clip(np.round(array / scale), -qmax - 1, qmax)
    return q * scale


class _QuantizationToolBase(Tool):
    QUANTIZED_TYPES = ("conv2d", "linear", "matmul")

    def __init__(self, bits: int = 8) -> None:
        super().__init__()
        self.bits = bits
        self.weight_scales: dict[int, float] = {}
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def _weight_scale(self, context: OpContext) -> float | None:
        inputs = context.get_inputs()
        if len(inputs) < 2:
            return None
        value = getattr(inputs[1], "data", None)
        if value is None:
            return None
        qmax = 2 ** (self.bits - 1) - 1
        max_abs = float(np.max(np.abs(value)))
        scale = max_abs / qmax if max_abs > 0 else 1.0
        # static check before any rewrite: NaN weights yield a NaN scale that
        # would silently poison every instrumented forward pass
        from ..analysis.schemas import validate_scale
        return validate_scale(scale, context.get("type"))

    @staticmethod
    def quantize_weight(weight, bits=8, scale=None):
        return quantize_dequantize(weight, bits=bits, scale=scale)

    @staticmethod
    def quantize_activation(activation, bits=8):
        # dynamic per-batch scale
        return quantize_dequantize(activation, bits=bits, scale=None)

    def analysis(self, context: OpContext) -> None:
        raise NotImplementedError


class StaticPTQTool(_QuantizationToolBase):
    """Post-training quantization of weights with analysis-time scales."""

    def analysis(self, context: OpContext) -> None:
        if context.get("type") not in self.QUANTIZED_TYPES:
            return
        scale = self._weight_scale(context)
        if scale is None:
            return
        self.weight_scales[context.get_op_id()] = scale
        context.insert_before_op(self.quantize_weight, inputs=[1],
                                 bits=self.bits, scale=scale)


class DynamicPTQTool(_QuantizationToolBase):
    """PTQ of weights plus runtime dynamic quantization of activations."""

    def analysis(self, context: OpContext) -> None:
        if context.get("type") not in self.QUANTIZED_TYPES:
            return
        scale = self._weight_scale(context)
        if scale is not None:
            self.weight_scales[context.get_op_id()] = scale
            context.insert_before_op(self.quantize_weight, inputs=[1],
                                     bits=self.bits, scale=scale)
        context.insert_before_op(self.quantize_activation, inputs=[0],
                                 bits=self.bits)


class QATTool(_QuantizationToolBase):
    """Quantization-aware training: fake-quant in forward, STE in backward.

    Weight scales are recomputed inside the instrumentation routine (the
    weights move during training), and weight gradients are clipped where the
    quantizer saturated, mirroring LSQ-style QAT recipes.
    """

    def __init__(self, bits: int = 8, clip_gradients: bool = True,
                 quantize_activations: bool = True) -> None:
        super().__init__(bits)
        self.clip_gradients = clip_gradients
        self.quantize_activations = quantize_activations
        self.add_inst_for_op(self.backward_analysis, backward=True)

    def analysis(self, context: OpContext) -> None:
        if context.get("type") not in self.QUANTIZED_TYPES:
            return
        inputs = context.get_inputs()
        if len(inputs) >= 2 and getattr(inputs[1], "data", None) is not None:
            context["qat_weight"] = True
            context.insert_before_op(self.quantize_weight, inputs=[1],
                                     bits=self.bits)  # dynamic scale: weights train
        if self.quantize_activations:
            context.insert_before_op(self.quantize_activation, inputs=[0],
                                     bits=self.bits)

    def backward_analysis(self, context: OpContext) -> None:
        if not self.clip_gradients or not context.get("qat_weight"):
            return
        if context.get("backward_type") not in (
                "conv2d_backward_weight", "linear_backward_weight"):
            return
        weight = context.get_inputs()[1]
        value = getattr(weight, "data", None)
        if value is None:
            return
        context.insert_after_backward_op(
            self.clip_saturated_gradient, grad_inputs=[0],
            bits=self.bits, weight_ref=weight)

    @staticmethod
    def clip_saturated_gradient(weight_grad, bits=8, weight_ref=None):
        """STE clipping: zero gradients where |w| exceeds the quantizer range."""
        if weight_ref is None:
            return weight_grad
        value = np.asarray(getattr(weight_ref, "data", weight_ref))
        if value.shape != weight_grad.shape:
            return weight_grad
        qmax = 2 ** (bits - 1) - 1
        max_abs = float(np.max(np.abs(value)))
        scale = max_abs / qmax if max_abs > 0 else 1.0
        inside = np.abs(value) <= (qmax + 0.5) * scale
        return weight_grad * inside


class ActivationCalibrationTool(Tool):
    """Collects per-operator activation ranges over calibration batches.

    Real PTQ pipelines run a calibration pass before quantizing activations
    (the |max| of one batch is an unreliable scale).  The tool records the
    ``percentile`` of |activation| per quantized operator, in encounter
    order, which :class:`CalibratedPTQTool` then consumes.
    """

    def __init__(self, percentile: float = 99.9,
                 op_types=("conv2d", "linear", "matmul")) -> None:
        super().__init__()
        self.percentile = percentile
        self.op_types = tuple(op_types)
        #: per encounter-order index: running list of observed percentiles
        self.observations: list[list[float]] = []
        self._encounter: dict[int, int] = {}
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        if context.get("type") not in self.op_types:
            return
        index = len(self._encounter)
        self._encounter[context.get_op_id()] = index
        self.observations.append([])
        context.insert_before_op(self._observe, inputs=[0], slot=index)

    def _observe(self, activation, slot=None):
        value = float(np.percentile(np.abs(activation), self.percentile))
        self.observations[slot].append(value)
        return None

    def scales(self, bits: int) -> list[float]:
        """One activation scale per quantized op, in encounter order."""
        qmax = 2 ** (bits - 1) - 1
        scales = []
        for values in self.observations:
            bound = float(np.median(values)) if values else 0.0
            scales.append(bound / qmax if bound > 0 else 1.0)
        return scales


class CalibratedPTQTool(_QuantizationToolBase):
    """Static PTQ of weights *and* activations with calibrated scales.

    Consumes the scales of a prior :class:`ActivationCalibrationTool` pass
    over the same (static) model: quantized operators are matched by
    encounter order.
    """

    def __init__(self, calibration: ActivationCalibrationTool,
                 bits: int = 8) -> None:
        super().__init__(bits)
        self._activation_scales = calibration.scales(bits)
        self._next_slot = 0

    def analysis(self, context: OpContext) -> None:
        if context.get("type") not in self.QUANTIZED_TYPES:
            return
        weight_scale = self._weight_scale(context)
        if weight_scale is not None:
            self.weight_scales[context.get_op_id()] = weight_scale
            context.insert_before_op(self.quantize_weight, inputs=[1],
                                     bits=self.bits, scale=weight_scale)
        if self._next_slot < len(self._activation_scales):
            scale = self._activation_scales[self._next_slot]
            self._next_slot += 1
            context.insert_before_op(quantize_dequantize, inputs=[0],
                                     bits=self.bits, scale=scale)
