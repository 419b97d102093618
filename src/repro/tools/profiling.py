"""Profiling tools: FLOPs, sparsity, and kernel-level GPU profiling (Sec. 6.1/6.3).

All three are portable Amanda tools: they depend on the standard mapping tool
and consume canonical op types, so the same tool instance profiles models on
either backend.

* :class:`FlopsProfilingTool` — the classic FLOPs counter (torchprofile /
  ptflops analog).  Shapes are captured at runtime by lightweight
  instrumentation routines, FLOPs derived per canonical op type.
* :class:`SparsityProfilingTool` — weight/activation zero-fraction profiling
  (the workload of Guo et al. used as the Sec. 2 running example).
* :class:`KernelProfilingTool` — subscribes to the simulated CUPTI interface
  of :mod:`repro.kernels` and aggregates kernel events at operator
  granularity: the Fig. 8 operator/kernel time breakdown.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..core.context import OpContext
from ..core.tool import Tool
from ..kernels.runtime import KernelEvent, runtime as kernel_runtime
from .mapping import standard_mapping_tool

__all__ = ["FlopsProfilingTool", "SparsityProfilingTool", "KernelProfilingTool",
           "LatencyProfilingTool", "flops_for"]


def flops_for(op_type: str, input_shapes: list[tuple], output_shapes: list[tuple],
              attrs: dict | None = None) -> int:
    """FLOPs of one canonical operator execution (multiply-add = 2 FLOPs)."""
    attrs = attrs or {}
    if op_type == "conv2d":
        # output elements each cost Cin*KH*KW MACs; weight passed as OIHW
        out = output_shapes[0]
        w = input_shapes[1]
        cin_khkw = int(np.prod(w)) // _out_channels(w)
        return 2 * int(np.prod(out)) * cin_khkw
    if op_type in ("linear", "matmul"):
        out = output_shapes[0]
        a = input_shapes[0]
        inner = a[-1]
        return 2 * int(np.prod(out)) * int(inner)
    if op_type in ("batch_norm", "layer_norm"):
        return 4 * int(np.prod(output_shapes[0]))
    if op_type in ("relu", "gelu", "sigmoid", "tanh", "add", "sub", "mul",
                   "div", "bias_add", "softmax", "log_softmax", "dropout"):
        return int(np.prod(output_shapes[0]))
    if op_type in ("max_pool2d", "avg_pool2d"):
        ksize = tuple(attrs.get("kernel", attrs.get("ksize", (2, 2))))
        return int(np.prod(output_shapes[0])) * int(np.prod(ksize))
    return 0


def _out_channels(w_shape: tuple) -> int:
    if len(w_shape) != 4:
        return 1
    # OIHW has O first; HWIO has O last — take the larger-of guess resolved by
    # the layout key when available; callers pass attrs-normalized shapes.
    return w_shape[0]


@dataclass
class OpProfile:
    op_type: str
    input_shapes: list = field(default_factory=list)
    output_shapes: list = field(default_factory=list)
    calls: int = 0
    flops: int = 0
    attrs: dict = field(default_factory=dict)


class FlopsProfilingTool(Tool):
    """Counts per-operator FLOPs with runtime shape capture."""

    COUNTED = ("conv2d", "linear", "matmul", "batch_norm", "layer_norm",
               "relu", "gelu", "max_pool2d", "avg_pool2d", "bias_add",
               "softmax", "add")

    def __init__(self, op_types: tuple[str, ...] | None = None) -> None:
        super().__init__()
        self.op_types = op_types or self.COUNTED
        self.profiles: dict[int, OpProfile] = {}
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        op_type = context.get("type")
        if op_type not in self.op_types:
            return
        weight_layout = context.get("weight_layout", "OIHW")
        attrs = dict(context.get("_attrs", {}))
        context.insert_before_op(
            self._record_inputs, inputs=None,
            op_id=context.get_op_id(), op_type=op_type,
            weight_layout=weight_layout, attrs=attrs)
        context.insert_after_op(
            self._record_outputs, outputs=None, op_id=context.get_op_id())

    def _profile(self, op_id: int, op_type: str | None = None) -> OpProfile:
        profile = self.profiles.get(op_id)
        if profile is None:
            profile = OpProfile(op_type=op_type or "?")
            self.profiles[op_id] = profile
        return profile

    def _record_inputs(self, *arrays, op_id=None, op_type=None,
                       weight_layout="OIHW", attrs=None):
        profile = self._profile(op_id, op_type)
        shapes = [np.asarray(a).shape for a in arrays]
        if op_type == "conv2d" and len(shapes) > 1 and weight_layout == "HWIO":
            kh, kw, ci, co = shapes[1]
            shapes[1] = (co, ci, kh, kw)
        profile.input_shapes = shapes
        profile.calls += 1
        profile.op_type = op_type
        profile.attrs = attrs or {}
        return None

    def _record_outputs(self, *arrays, op_id=None):
        profile = self._profile(op_id)
        profile.output_shapes = [np.asarray(a).shape for a in arrays]
        profile.flops = flops_for(profile.op_type, profile.input_shapes,
                                   profile.output_shapes, profile.attrs)
        return None

    # -- reporting --------------------------------------------------------------
    def total_flops(self) -> int:
        return sum(p.flops for p in self.profiles.values())

    def by_op_type(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for profile in self.profiles.values():
            totals[profile.op_type] += profile.flops
        return dict(totals)

    def report(self) -> list[tuple[str, int, int]]:
        """Rows of (op type, ops counted, total FLOPs), largest first."""
        by_type: dict[str, list[OpProfile]] = defaultdict(list)
        for profile in self.profiles.values():
            by_type[profile.op_type].append(profile)
        rows = [(t, len(ps), sum(p.flops for p in ps))
                for t, ps in by_type.items()]
        return sorted(rows, key=lambda r: -r[2])

    def reset(self) -> None:
        self.profiles.clear()


class SparsityProfilingTool(Tool):
    """Profiles the zero fraction of weights and activations per operator."""

    def __init__(self, op_types=("conv2d", "linear", "matmul", "relu")) -> None:
        super().__init__()
        self.op_types = tuple(op_types)
        #: op_id -> {"weight": [fractions...], "activation": [fractions...]}
        self.records: dict[int, dict[str, list[float]]] = {}
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        op_type = context.get("type")
        if op_type not in self.op_types:
            return
        op_id = context.get_op_id()
        if op_type in ("conv2d", "linear", "matmul") and len(context.get_inputs()) > 1:
            context.insert_before_op(self._record, inputs=[1],
                                     op_id=op_id, kind="weight")
        context.insert_after_op(self._record, outputs=[0],
                                op_id=op_id, kind="activation")

    def _record(self, array, op_id=None, kind=None):
        entry = self.records.setdefault(op_id, {"weight": [], "activation": []})
        array = np.asarray(array)
        entry[kind].append(float(np.mean(array == 0.0)))
        return None

    def mean_sparsity(self, kind: str = "activation") -> float:
        values = [v for entry in self.records.values() for v in entry[kind]]
        return float(np.mean(values)) if values else 0.0

    def reset(self) -> None:
        self.records.clear()


class KernelProfilingTool(Tool):
    """Operator-level aggregation of kernel events (CUPTI synergy, Fig. 8).

    The tool subscribes to the simulated kernel runtime while applied; the
    backends stamp a correlation tag (op type + identity) around each
    operator's execution, so every kernel launch can be attributed to the
    operator that issued it.
    """

    def __init__(self) -> None:
        super().__init__()
        #: op tag -> kernel name -> [durations]
        self.kernel_times: dict[str, dict[str, list[float]]] = {}
        self.kernel_bytes: dict[str, int] = defaultdict(int)
        # serving workers launch kernels from several threads at once; the
        # byte totals are read-modify-write updates
        self._event_lock = threading.Lock()
        self.depends_on(standard_mapping_tool())
        # registering an (empty) analysis routine keeps the framework engaged
        # so correlation tags are pushed for every op
        self.add_inst_for_op(self._noop_analysis)

    def _noop_analysis(self, context: OpContext) -> None:
        return None

    def on_apply(self) -> None:
        kernel_runtime.subscribe(self._on_kernel_event)

    def on_remove(self) -> None:
        kernel_runtime.unsubscribe(self._on_kernel_event)

    def _on_kernel_event(self, event: KernelEvent) -> None:
        tag = event.correlation_tag or "(untagged)"
        op = tag.split("|")[0]
        with self._event_lock:
            by_kernel = self.kernel_times.setdefault(op, {})
            by_kernel.setdefault(event.name, []).append(event.duration)
            self.kernel_bytes[event.name] += event.bytes_accessed

    # -- reporting ------------------------------------------------------------
    def op_level_breakdown(self) -> dict[str, float]:
        """Total kernel seconds per operator type."""
        return {op: sum(sum(v) for v in kernels.values())
                for op, kernels in self.kernel_times.items()}

    def kernel_level_breakdown(self, op: str | None = None) -> dict[str, float]:
        """Total seconds per kernel, optionally restricted to one op type."""
        totals: dict[str, float] = defaultdict(float)
        for op_tag, kernels in self.kernel_times.items():
            if op is not None and op_tag != op:
                continue
            for kernel, durations in kernels.items():
                totals[kernel] += sum(durations)
        return dict(totals)

    def conv_algorithm_mix(self) -> dict[str, int]:
        """Launch counts of each convolution algorithm kernel."""
        mix: dict[str, int] = defaultdict(int)
        for kernels in self.kernel_times.values():
            for kernel, durations in kernels.items():
                if kernel.startswith("conv2d_") or kernel == "im2col":
                    mix[kernel] += len(durations)
        return dict(mix)

    def reset(self) -> None:
        self.kernel_times.clear()
        self.kernel_bytes.clear()


class LatencyProfilingTool(Tool):
    """Per-operator wall-clock latency, bracketing each execution.

    The torch-profiler-style workload of Tbl. 1: a before-op routine stamps
    the start time and an after-op routine accumulates the elapsed time per
    stable op id — including functional operators integrated profilers only
    report in aggregate.
    """

    def __init__(self) -> None:
        super().__init__()
        import time as _time
        self._clock = _time.perf_counter
        self._starts: dict[int, float] = {}
        #: op_id -> (op type, [latencies in seconds])
        self.latencies: dict[int, tuple[str, list[float]]] = {}
        self.depends_on(standard_mapping_tool())
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        op_id = context.get_op_id()
        op_type = context.get("type")
        self.latencies.setdefault(op_id, (op_type, []))
        context.insert_before_op(self._start, inputs=[], op_id=op_id)
        context.insert_after_op(self._stop, outputs=[], op_id=op_id)

    def _start(self, *arrays, op_id=None):
        self._starts[op_id] = self._clock()
        return None

    def _stop(self, *arrays, op_id=None):
        started = self._starts.pop(op_id, None)
        if started is not None:
            self.latencies[op_id][1].append(self._clock() - started)
        return None

    def by_op_type(self) -> dict[str, float]:
        """Total seconds per canonical op type."""
        totals: dict[str, float] = defaultdict(float)
        for op_type, samples in self.latencies.values():
            totals[op_type] += sum(samples)
        return dict(totals)

    def report(self, top: int = 10) -> list[tuple[str, float]]:
        rows = sorted(self.by_op_type().items(), key=lambda kv: -kv[1])
        return rows[:top]

    def reset(self) -> None:
        self._starts.clear()
        self.latencies.clear()
