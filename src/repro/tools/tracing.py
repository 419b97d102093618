"""Graph tracing tools (built-in, Sec. 5.2 / 6.1).

:class:`GraphTracingTool` reconstructs the computation graph *during eager
execution* (in graph mode it reads the static graph) and publishes it in the
instrumentation context under ``context["graph"]``, enabling tools that need a
global view or must look back from the current operator (effective path,
DTR-style analyses).

:class:`ExecutionTraceTool` records a per-execution operator timeline and can
dump it as a Chrome-trace JSON (viewable in TensorBoard/chrome://tracing).
"""

from __future__ import annotations

import json
import sys
import time

import networkx as nx

from ..eager import alloc

from ..core.context import OpContext
from ..core.tool import Tool

__all__ = ["GraphTracingTool", "ExecutionTraceTool"]


class GraphTracingTool(Tool):
    """Builds a networkx DiGraph of the instrumented model's operators.

    Nodes are stable op ids with ``type``/``name`` attributes (forward and
    backward ops; backward nodes link to their forward node).  Edges follow
    tensor data flow.
    """

    is_context_transform = True

    def __init__(self) -> None:
        super().__init__()
        self.graph = nx.DiGraph()
        #: tensor identity -> producing node id (eager mode)
        self._producers: dict[int, int] = {}
        # node + input edges are known *before* the op runs; output producers
        # are registered after — so dependent tools already see the graph up
        # to (and including) the current op at the before-forward point
        self.add_inst_for_op(self.trace_forward_pre)
        self.add_inst_for_op(self.trace_forward_post, require_outputs=True)
        self.add_inst_for_op(self.trace_backward, backward=True)

    # -- analysis routines -------------------------------------------------------
    def trace_forward_pre(self, context: OpContext) -> None:
        op_id = context.get_op_id()
        if op_id is None:
            return
        op_type = context.get("type", context.get("_raw_type"))
        self.graph.add_node(op_id, type=op_type, backward=False,
                            namespace=context.namespace)
        if context.namespace == "graph":
            self._trace_graph_edges(context, op_id)
        else:
            for tensor in context.get_inputs():
                producer = self._producers.get(id(tensor))
                if producer is not None:
                    self.graph.add_edge(producer, op_id, kind="data")
        context["graph"] = self.graph
        context["trace_node"] = op_id

    def trace_forward_post(self, context: OpContext) -> None:
        op_id = context.get_op_id()
        if op_id is None or context.namespace == "graph":
            return
        for tensor in context.get_outputs():
            self._producers[id(tensor)] = op_id
        context["graph"] = self.graph

    def trace_backward(self, context: OpContext) -> None:
        bwd_id = context.get_backward_op_id()
        if bwd_id is None:
            return
        self.graph.add_node(bwd_id,
                            type=context.get("backward_type",
                                             context.get("_backward_name")),
                            backward=True, namespace=context.namespace)
        forward_id = context.get_op_id()
        if forward_id is not None and forward_id in self.graph:
            self.graph.add_edge(forward_id, bwd_id, kind="forward_backward")
        context["graph"] = self.graph

    # -- edge reconstruction -------------------------------------------------------
    def _trace_graph_edges(self, context: OpContext, op_id: int) -> None:
        op = context.get_op()
        for edge in op.inputs:
            producer_id = edge.op.op_id
            if producer_id is not None and producer_id in self.graph:
                self.graph.add_edge(producer_id, op_id, kind="data")

    # -- queries -------------------------------------------------------------------
    def forward_nodes(self) -> list[int]:
        return [n for n, d in self.graph.nodes(data=True) if not d["backward"]]

    def backward_nodes(self) -> list[int]:
        return [n for n, d in self.graph.nodes(data=True) if d["backward"]]

    def op_types(self) -> dict[int, str]:
        return {n: d["type"] for n, d in self.graph.nodes(data=True)}

    def reset(self) -> None:
        self.graph = nx.DiGraph()
        self._producers.clear()


class ExecutionTraceTool(Tool):
    """Records one event per operator execution; dumps Chrome trace JSON."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[dict] = []
        self._origin = time.perf_counter()
        self.add_inst_for_op(self.analysis)
        self.add_inst_for_op(self.analysis_backward, backward=True)

    def analysis(self, context: OpContext) -> None:
        context.insert_before_op(
            self._record, inputs=[],
            op_type=context.get("type"), op_id=context.get_op_id(),
            phase="forward")

    def analysis_backward(self, context: OpContext) -> None:
        context.insert_before_backward_op(
            self._record, grad_outputs=[],
            op_type=context.get("backward_type"),
            op_id=context.get_backward_op_id(), phase="backward")

    def _record(self, *arrays, op_type=None, op_id=None, phase=None):
        event_bytes = 360  # dict + strings, approximated for accounting
        alloc.tracker.allocate(event_bytes, scope="tool")
        self.events.append({
            "name": str(op_type),
            "ph": "X",
            "ts": (time.perf_counter() - self._origin) * 1e6,
            "dur": 1,
            "pid": 0,
            "tid": 0 if phase == "forward" else 1,
            "args": {"op_id": op_id, "phase": phase},
        })
        return None  # observation only

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.events}, fh)

    def reset(self) -> None:
        self.events.clear()
