"""Graph tracing tools: structure reconstruction in eager mode, trace dumps."""

import json
import weakref

import numpy as np
import networkx as nx
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.models.eager as M
from repro.amanda.tools import ExecutionTraceTool, GraphTracingTool
from repro.eager import F


def test_eager_graph_structure_reconstructed(rng):
    tracer = GraphTracingTool()
    model = E.Sequential(E.Linear(4, 8, rng=rng), E.ReLU(),
                         E.Linear(8, 2, rng=rng))
    with amanda.apply(tracer):
        model(E.tensor(rng.standard_normal((2, 4))))
    types = list(tracer.op_types().values())
    assert types.count("linear") == 2
    assert types.count("relu") == 1
    # data edges follow execution order: linear -> relu -> linear
    graph = tracer.graph
    assert nx.is_directed_acyclic_graph(graph)
    linears = [n for n, d in graph.nodes(data=True) if d["type"] == "linear"]
    relus = [n for n, d in graph.nodes(data=True) if d["type"] == "relu"]
    assert graph.has_edge(linears[0], relus[0]) or \
        graph.has_edge(linears[1], relus[0])


def test_backward_nodes_linked_to_forward(rng):
    tracer = GraphTracingTool()
    lin = E.Linear(3, 2, rng=rng)
    x = E.tensor(rng.standard_normal((2, 3)), requires_grad=True)
    with amanda.apply(tracer):
        lin(x).sum().backward()
    backward = tracer.backward_nodes()
    assert backward
    # every backward node has an incoming forward_backward edge
    for node in backward:
        kinds = [d.get("kind") for _, _, d in
                 tracer.graph.in_edges(node, data=True)]
        if kinds:
            assert "forward_backward" in kinds


def test_recycled_tensor_id_gains_no_data_edge():
    """A producer entry dies with its tensor: a later tensor that takes the
    dead one's id and feeds an op traced afterwards links to nothing."""
    tracer = GraphTracingTool()
    shared = np.zeros(1)
    with amanda.apply(tracer):
        produced = F.relu(E.tensor(np.ones(3)))
        dead_id, dead = id(produced), weakref.ref(produced)
        del produced
        assert dead() is None   # the cached context keeps no outputs
        held = []               # keep the misses so the allocator moves on
        for _ in range(100_000):
            reused = E.Tensor(shared)
            if id(reused) == dead_id:
                break
            held.append(reused)
        else:
            pytest.fail("no tensor took the dead producer's id")
        F.sigmoid(reused)       # first traced now
    types = tracer.op_types()
    assert sorted(types.values()) == ["relu", "sigmoid"]
    assert tracer.graph.number_of_edges() == 0


def test_residual_add_appears_in_trace(rng):
    tracer = GraphTracingTool()
    model = M.resnet18()
    with amanda.apply(tracer):
        model(E.tensor(rng.standard_normal((1, 3, 16, 16))))
    types = list(tracer.op_types().values())
    assert "add" in types  # the functional skip connections


def test_context_exposes_graph(rng):
    tracer = GraphTracingTool()
    from repro.amanda import Tool
    graphs = []
    user = Tool("user")
    user.depends_on(tracer)
    user.add_inst_for_op(lambda ctx: graphs.append(ctx.get("graph")),
                         require_outputs=True)
    with amanda.apply(user):
        F.relu(E.tensor(np.ones(3)))
    assert graphs and graphs[0] is tracer.graph


def test_execution_trace_chrome_dump(tmp_path, rng):
    trace = ExecutionTraceTool()
    lin = E.Linear(3, 2, rng=rng)
    x = E.tensor(rng.standard_normal((2, 3)), requires_grad=True)
    with amanda.apply(trace):
        lin(x).sum().backward()
    assert any(e["args"]["phase"] == "forward" for e in trace.events)
    assert any(e["args"]["phase"] == "backward" for e in trace.events)
    path = tmp_path / "trace.json"
    trace.dump(str(path))
    payload = json.loads(path.read_text())
    assert payload["traceEvents"]


def test_execution_trace_records_every_iteration(rng):
    trace = ExecutionTraceTool()
    x = E.tensor(rng.standard_normal(4))
    with amanda.apply(trace):
        for _ in range(3):
            F.relu(x)
            amanda.new_iteration()
    forward_relus = [e for e in trace.events if e["name"] == "relu"]
    assert len(forward_relus) == 3


def test_tracer_reset(rng):
    tracer = GraphTracingTool()
    with amanda.apply(tracer):
        F.relu(E.tensor(np.ones(2)))
    assert len(tracer.graph) > 0
    tracer.reset()
    assert len(tracer.graph) == 0
