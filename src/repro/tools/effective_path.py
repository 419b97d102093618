"""Effective-path extraction tool (Qiu et al., CVPR'19 / Tbl. 1, Tbl. 3).

The effective path of an inference is the sparse sub-network of neurons and
weights that actually determined the prediction.  Extracting it needs, per
operator, (a) the runtime activations, (b) the weights, and (c) the *global
graph structure* to walk backwards from the logits — which is why the paper
lists it as the task requiring the instrumentation-context graph (Tbl. 1) and
why this tool ``depends_on`` the built-in :class:`GraphTracingTool`.

The extraction criterion follows the original work: walking backward from the
predicted class, for every active output neuron keep the minimal set of
inputs whose contributions reach a ``theta`` fraction of the total
contribution.  Linear ops are resolved at neuron granularity, convolutions at
channel granularity; shape/elementwise ops propagate masks through.
"""

from __future__ import annotations

import numpy as np

from ..core.context import OpContext
from ..core.tool import Tool
from .mapping import standard_mapping_tool
from .tracing import GraphTracingTool

__all__ = ["EffectivePathTool"]

_PASSTHROUGH = ("relu", "gelu", "sigmoid", "tanh", "bias_add", "dropout",
                "batch_norm", "layer_norm", "identity", "softmax",
                "log_softmax")


class EffectivePathTool(Tool):
    """Records activations/weights during execution; extracts paths offline."""

    def __init__(self) -> None:
        super().__init__()
        self.tracer = GraphTracingTool()
        self.depends_on(standard_mapping_tool(), self.tracer)
        self.add_inst_for_op(self.analysis)
        #: op_id -> latest output activation
        self.activations: dict[int, np.ndarray] = {}
        #: op_id -> weight array (for linear/conv ops)
        self.weights: dict[int, np.ndarray] = {}
        #: op_id -> canonical type
        self.types: dict[int, str] = {}

    # -- analysis --------------------------------------------------------------
    def analysis(self, context: OpContext) -> None:
        op_id = context.get_op_id()
        op_type = context.get("type")
        self.types[op_id] = op_type
        if op_type in ("linear", "conv2d", "matmul"):
            inputs = context.get_inputs()
            if len(inputs) > 1:
                value = getattr(inputs[1], "data", None)
                if value is not None:
                    weight = np.asarray(value)
                    if op_type == "conv2d" and context.get("weight_layout") == "HWIO":
                        weight = weight.transpose(3, 2, 0, 1)
                    self.weights[op_id] = weight
        context.insert_after_op(self._record_activation, outputs=[0],
                                op_id=op_id)

    def _record_activation(self, activation, op_id=None):
        self.activations[op_id] = np.asarray(activation)
        return None

    # -- extraction --------------------------------------------------------------
    def extract(self, theta: float = 0.5) -> dict[int, np.ndarray]:
        """Return per-op boolean masks of effective neurons (sample 0)."""
        graph = self.tracer.graph
        forward = [n for n, d in graph.nodes(data=True) if not d["backward"]
                   and n in self.activations]
        subgraph = graph.subgraph(forward)
        order = self._topo_order(subgraph)
        active: dict[int, np.ndarray] = {}

        # seed: sinks (no forward successors) activate their argmax neuron
        for node in order:
            if subgraph.out_degree(node) == 0:
                out = self._sample(self.activations[node])
                mask = np.zeros_like(out, dtype=bool)
                mask.reshape(-1)[np.argmax(out.reshape(-1))] = True
                active[node] = mask

        for node in reversed(order):
            mask = active.get(node)
            if mask is None or not mask.any():
                continue
            preds = [p for p in subgraph.predecessors(node)]
            if not preds:
                continue
            for pred in preds:
                pred_mask = self._propagate(node, pred, mask)
                if pred_mask is None:
                    continue
                if pred in active:
                    active[pred] |= pred_mask
                else:
                    active[pred] = pred_mask
        return active

    def path_density(self, theta: float = 0.5) -> float:
        """Fraction of neurons on the effective path (lower = sparser path)."""
        active = self.extract(theta)
        self._last_theta = theta
        total = sum(self._sample(self.activations[n]).size for n in active)
        on_path = sum(int(m.sum()) for m in active.values())
        return on_path / total if total else 0.0

    # -- propagation rules --------------------------------------------------------
    def _propagate(self, node: int, pred: int, mask: np.ndarray,
                   theta: float = 0.5) -> np.ndarray | None:
        op_type = self.types.get(node)
        pred_act = self._sample(self.activations.get(pred))
        if pred_act is None:
            return None
        if op_type in ("linear", "matmul") and node in self.weights:
            return self._propagate_linear(node, pred_act, mask, theta)
        if op_type == "conv2d" and node in self.weights:
            return self._propagate_conv(node, pred_act, mask, theta)
        if op_type in _PASSTHROUGH or op_type in ("add", "sub", "mul", "mean",
                                                  "max_pool2d", "avg_pool2d",
                                                  "reshape", "transpose",
                                                  "concat", "sum", "flatten"):
            if pred_act.shape == mask.shape:
                return mask.copy()
            if op_type in ("max_pool2d", "avg_pool2d", "mean") and \
                    pred_act.ndim == mask.ndim == 3:
                # propagate channel-level activity through pooling (C,H,W)
                channel = mask.any(axis=(1, 2))
                out = np.zeros(pred_act.shape, dtype=bool)
                out[channel] = True
                return out
            if pred_act.size and mask.size:
                # shape-changing op: propagate by flattened prefix fill
                out = np.zeros(pred_act.size, dtype=bool)
                flat = mask.reshape(-1)
                out[:flat.size][flat[:out.size]] = True
                return out.reshape(pred_act.shape)
        # unknown op: conservative full propagation of any activity
        return np.ones(pred_act.shape, dtype=bool)

    def _propagate_linear(self, node, pred_act, mask, theta):
        weight = self.weights[node]  # (out, in)
        flat_in = pred_act.reshape(-1)
        active_out = np.nonzero(mask.reshape(-1))[0]
        in_mask = np.zeros(flat_in.shape, dtype=bool)
        for j in active_out:
            if j >= weight.shape[0]:
                continue
            contributions = np.abs(weight[j, :flat_in.size] * flat_in)
            total = contributions.sum()
            if total <= 0:
                continue
            order = np.argsort(contributions)[::-1]
            cumulative = np.cumsum(contributions[order])
            needed = int(np.searchsorted(cumulative, theta * total)) + 1
            in_mask[order[:needed]] = True
        return in_mask.reshape(pred_act.shape)

    def _propagate_conv(self, node, pred_act, mask, theta):
        weight = self.weights[node]  # (O, I, KH, KW)
        # channel-level: which input channels matter for the active output chans
        if mask.ndim == 3:
            active_channels = np.nonzero(mask.any(axis=(1, 2)))[0]
        else:
            active_channels = np.nonzero(mask.reshape(-1))[0]
        if pred_act.ndim != 3:
            return np.ones(pred_act.shape, dtype=bool)
        channel_strength = np.abs(pred_act).mean(axis=(1, 2))
        in_mask = np.zeros(pred_act.shape, dtype=bool)
        for o in active_channels:
            if o >= weight.shape[0]:
                continue
            contributions = np.abs(weight[o]).sum(axis=(1, 2))[:pred_act.shape[0]] \
                * channel_strength
            total = contributions.sum()
            if total <= 0:
                continue
            order = np.argsort(contributions)[::-1]
            cumulative = np.cumsum(contributions[order])
            needed = int(np.searchsorted(cumulative, theta * total)) + 1
            in_mask[order[:needed]] = True
        return in_mask

    # -- helpers --------------------------------------------------------------------
    @staticmethod
    def _sample(array: np.ndarray | None) -> np.ndarray | None:
        """First sample of a batched activation (N, ...) -> (...)."""
        if array is None:
            return None
        return array[0] if array.ndim > 1 else array

    @staticmethod
    def _topo_order(graph) -> list[int]:
        import networkx as nx
        return list(nx.topological_sort(graph))

    def reset(self) -> None:
        self.activations.clear()
        self.weights.clear()
        self.types.clear()
        self.tracer.reset()
