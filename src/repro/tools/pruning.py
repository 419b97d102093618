"""Network pruning tools — the Tbl. 4 project family as Amanda tools.

Each class reproduces one community pruning project's semantics with the
operator instrumentation abstraction (compare the ad-hoc versions in
:mod:`repro.baselines`):

* :class:`MagnitudePruningTool` — classic static unstructured weight pruning
  (Han et al.), masking weights in forward and weight gradients in backward
  so fine-tuning keeps pruned weights at zero.
* :class:`TileWisePruningTool` — tile-wise structured sparsity (Guo et al.,
  the Tbl. 4 "Tile Wise Pruning" row): whole weight tiles are kept/dropped by
  tile L1 norm.
* :class:`VectorWisePruningTool` — APEX-style n:m fine-grained structured
  sparsity (2:4 by default) along the input dimension.
* :class:`ChannelPruningTool` — dynamic channel gating (FBS-style): input
  channels with the lowest runtime saliency are zeroed per batch.
* :class:`ActivationPruningTool` — dynamic activation pruning: only the
  top-k fraction of each activation tensor (by magnitude) survives.
* :class:`AttentionPruningTool` — Block-Skim-style attention pruning: low
  attention weights are dropped after the softmax inside attention blocks.

All tools consume canonical contexts (they depend on the standard mapping
tool) and therefore run unmodified on both backends.
"""

from __future__ import annotations

import numpy as np

from ..core.context import OpContext
from ..core.tool import Tool
from .mapping import standard_mapping_tool

__all__ = [
    "MagnitudePruningTool", "TileWisePruningTool", "VectorWisePruningTool",
    "ChannelPruningTool", "ActivationPruningTool", "AttentionPruningTool",
    "magnitude_mask", "tile_mask", "n_m_mask",
]


# ---------------------------------------------------------------------------
# mask construction (pure functions, unit-testable)
# ---------------------------------------------------------------------------

def magnitude_mask(weight: np.ndarray, sparsity: float) -> np.ndarray:
    """Keep the largest-|w| fraction ``1 - sparsity`` of elements."""
    if sparsity <= 0.0:
        return np.ones_like(weight)
    if sparsity >= 1.0:
        return np.zeros_like(weight)
    k = int(round(weight.size * sparsity))
    if k == 0:
        return np.ones_like(weight)
    flat = np.abs(weight).reshape(-1)
    threshold = np.partition(flat, k - 1)[k - 1]
    return (np.abs(weight) > threshold).astype(weight.dtype)


def tile_mask(weight: np.ndarray, tile_shape: tuple[int, int],
              sparsity: float) -> np.ndarray:
    """Keep/drop whole 2-D tiles of the (flattened-to-2D) weight by L1 norm."""
    mat = weight.reshape(weight.shape[0], -1)
    th, tw = tile_shape
    rows = -(-mat.shape[0] // th)
    cols = -(-mat.shape[1] // tw)
    padded = np.zeros((rows * th, cols * tw), dtype=mat.dtype)
    padded[:mat.shape[0], :mat.shape[1]] = np.abs(mat)
    tiles = padded.reshape(rows, th, cols, tw).sum(axis=(1, 3))
    k = int(round(tiles.size * sparsity))
    if k <= 0:
        keep = np.ones_like(tiles, dtype=bool)
    else:
        threshold = np.partition(tiles.reshape(-1), k - 1)[k - 1]
        keep = tiles > threshold
    expanded = np.repeat(np.repeat(keep, th, axis=0), tw, axis=1)
    return expanded[:mat.shape[0], :mat.shape[1]].astype(weight.dtype) \
        .reshape(weight.shape)


def n_m_mask(weight: np.ndarray, n: int = 2, m: int = 4) -> np.ndarray:
    """n:m structured sparsity: keep the n largest of every m consecutive
    elements along the last (input) dimension."""
    mat = weight.reshape(-1, weight.shape[-1])
    cols = mat.shape[1]
    groups = cols // m
    mask = np.ones_like(mat)
    if groups:
        usable = groups * m
        grouped = np.abs(mat[:, :usable]).reshape(mat.shape[0], groups, m)
        order = np.argsort(grouped, axis=2)
        drop = order[:, :, :m - n]
        group_mask = np.ones_like(grouped)
        np.put_along_axis(group_mask, drop, 0.0, axis=2)
        mask[:, :usable] = group_mask.reshape(mat.shape[0], usable)
    return mask.reshape(weight.shape)


# ---------------------------------------------------------------------------
# static weight pruning
# ---------------------------------------------------------------------------

class _StaticWeightPruningTool(Tool):
    """Shared machinery: mask weights forward, mask weight grads backward."""

    PRUNED_TYPES = ("conv2d", "linear", "matmul")
    PRUNED_BACKWARD = ("conv2d_backward_weight", "linear_backward_weight",
                       "matmul_backward")

    def __init__(self, op_types: tuple[str, ...] | None = None) -> None:
        super().__init__()
        if op_types:
            self.PRUNED_TYPES = tuple(op_types)
        self.masks: dict[int, np.ndarray] = {}
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.forward_analysis)
        self.add_inst_for_op(self.backward_analysis, backward=True)

    # subclasses implement the pruning pattern
    def compute_mask(self, weight: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_analysis(self, context: OpContext) -> None:
        if context.get("type") not in self.PRUNED_TYPES:
            return
        inputs = context.get_inputs()
        if len(inputs) < 2:
            return
        weight = inputs[1]
        value = getattr(weight, "data", None)
        if value is None:
            return  # symbolic (non-variable) weight: nothing to prune
        mask = self.compute_mask(np.asarray(value))
        # static check before any rewrite: a mis-shaped mask would silently
        # broadcast (or explode) inside the instrumented graph
        from ..analysis.schemas import validate_mask_shape
        validate_mask_shape(mask, value, context.get("type"))
        context["mask"] = mask
        self.masks[context.get_op_id()] = mask
        context.insert_before_op(self.mask_forward_weight, inputs=[1], mask=mask)

    def backward_analysis(self, context: OpContext) -> None:
        if context.get("backward_type") not in self.PRUNED_BACKWARD:
            return
        mask = context.get("mask")
        if mask is None:
            return
        context.insert_after_backward_op(self.mask_backward_gradient,
                                         grad_inputs=[0], mask=mask)

    # instrumentation routines
    @staticmethod
    def mask_forward_weight(weight, mask):
        return weight * mask

    @staticmethod
    def mask_backward_gradient(weight_grad, mask):
        if weight_grad.shape != mask.shape:
            return weight_grad  # e.g. matmul grad for the non-weight operand
        return weight_grad * mask

    def overall_sparsity(self) -> float:
        if not self.masks:
            return 0.0
        zeros = sum(int((m == 0).sum()) for m in self.masks.values())
        total = sum(m.size for m in self.masks.values())
        return zeros / total


class MagnitudePruningTool(_StaticWeightPruningTool):
    """Static unstructured magnitude pruning (Han et al. / Lst. 1)."""

    def __init__(self, sparsity: float = 0.5, op_types=None) -> None:
        self.sparsity = sparsity
        super().__init__(op_types)

    def compute_mask(self, weight: np.ndarray) -> np.ndarray:
        return magnitude_mask(weight, self.sparsity)


class TileWisePruningTool(_StaticWeightPruningTool):
    """Tile-wise structured pruning (Guo et al., SC'20)."""

    def __init__(self, tile_shape=(4, 4), sparsity: float = 0.5,
                 op_types=None) -> None:
        self.tile_shape = tuple(tile_shape)
        self.sparsity = sparsity
        super().__init__(op_types)

    def compute_mask(self, weight: np.ndarray) -> np.ndarray:
        return tile_mask(weight, self.tile_shape, self.sparsity)


class VectorWisePruningTool(_StaticWeightPruningTool):
    """APEX-style n:m (default 2:4) vector-wise structured sparsity."""

    def __init__(self, n: int = 2, m: int = 4, op_types=None) -> None:
        self.n, self.m = n, m
        super().__init__(op_types)

    def compute_mask(self, weight: np.ndarray) -> np.ndarray:
        return n_m_mask(weight, self.n, self.m)


# ---------------------------------------------------------------------------
# dynamic pruning
# ---------------------------------------------------------------------------

class ChannelPruningTool(Tool):
    """Dynamic channel gating (FBS-style): per batch, the conv input channels
    with the lowest mean |x| saliency are zeroed at runtime."""

    def __init__(self, keep_ratio: float = 0.75) -> None:
        super().__init__()
        self.keep_ratio = keep_ratio
        self.gate_counts: dict[int, int] = {}
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        if context.get("type") != "conv2d":
            return
        context.insert_before_op(
            self.gate_channels, inputs=[0],
            keep_ratio=self.keep_ratio,
            channel_axis=1 if context.get("data_layout", "NCHW") == "NCHW" else 3,
            op_id=context.get_op_id(), counts=self.gate_counts)

    @staticmethod
    def gate_channels(x, keep_ratio=0.75, channel_axis=1, op_id=None, counts=None):
        channels = x.shape[channel_axis]
        keep = max(1, int(round(channels * keep_ratio)))
        reduce_axes = tuple(a for a in range(x.ndim) if a != channel_axis)
        saliency = np.abs(x).mean(axis=reduce_axes)
        kept = np.argsort(saliency)[-keep:]
        mask_shape = [1] * x.ndim
        mask_shape[channel_axis] = channels
        mask = np.zeros(channels)
        mask[kept] = 1.0
        if counts is not None and op_id is not None:
            counts[op_id] = counts.get(op_id, 0) + int(channels - keep)
        return x * mask.reshape(mask_shape)


class ActivationPruningTool(Tool):
    """Dynamic activation pruning: keep the top-k fraction by magnitude."""

    def __init__(self, keep_ratio: float = 0.5,
                 op_types=("relu",)) -> None:
        super().__init__()
        self.keep_ratio = keep_ratio
        self.op_types = tuple(op_types)
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        if context.get("type") not in self.op_types:
            return
        context.insert_after_op(self.prune_activation, outputs=[0],
                                keep_ratio=self.keep_ratio)

    @staticmethod
    def prune_activation(activation, keep_ratio=0.5):
        k = int(round(activation.size * (1.0 - keep_ratio)))
        if k <= 0:
            return activation
        flat = np.abs(activation).reshape(-1)
        threshold = np.partition(flat, k - 1)[k - 1]
        return activation * (np.abs(activation) > threshold)


class AttentionPruningTool(Tool):
    """Block-Skim-style attention pruning: zero attention weights below a
    per-row relative threshold after softmax ops."""

    def __init__(self, threshold_ratio: float = 0.1) -> None:
        super().__init__()
        self.threshold_ratio = threshold_ratio
        self.pruned_fraction: list[float] = []
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        if context.get("type") != "softmax":
            return
        context.insert_after_op(self.prune_attention, outputs=[0],
                                ratio=self.threshold_ratio,
                                stats=self.pruned_fraction)

    @staticmethod
    def prune_attention(weights, ratio=0.1, stats=None):
        threshold = weights.max(axis=-1, keepdims=True) * ratio
        mask = weights >= threshold
        pruned = weights * mask
        denominator = pruned.sum(axis=-1, keepdims=True)
        denominator[denominator == 0] = 1.0
        if stats is not None:
            stats.append(float(1.0 - mask.mean()))
        return pruned / denominator
