"""Fault isolation: the recovery matrix across drivers, points and policies.

One small network — ``y = relu(x @ W)`` — runs on all three backends with a
:class:`~repro.tools.faulty.FaultyTool` injecting a failure at a chosen
instrumentation point, in analysis mode (trace path) or instrumentation mode
(replay path), under each error policy:

* ``"quarantine"`` — the failing tool is disabled and every output stays
  bit-identical to the vanilla run (FaultyTool is observation-only);
* ``"record"`` — the tool keeps running and keeps failing; outputs stay
  vanilla and ``manager.snapshot()`` counts the failures, with their
  provenance, and the drivers' fallbacks;
* ``"raise"`` — a provenance-carrying :class:`InstrumentationError`
  propagates after a clean unwind: spans closed (``framework + tool <=
  wall``), interceptor patches intact, op ids stable across a
  failed-then-retried iteration.
"""

import time

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.eager.functional as F
import repro.graph as G
from repro.amanda import InstrumentationError, Tool, manager
from repro.graph import builder as gb
from repro.onnx import InferenceSession
from repro.onnx.model import OnnxBuilder
from repro.tools.faulty import FaultyTool, ToolFault

RNG = np.random.default_rng(11)
X = RNG.standard_normal((3, 6))
W = RNG.standard_normal((6, 4))

I_POINTS = ["before_forward_op", "after_forward_op",
            "before_backward_op", "after_backward_op"]
MODES = ["analysis", "instrumentation"]
#: what the eager driver substitutes when a routine at each point fails: a
#: failure before the op re-runs it vanilla, one after it keeps its outputs
EAGER_FALLBACK = {"before_forward_op": "eager.vanilla_op",
                  "after_forward_op": "eager.kept_outputs",
                  "before_backward_op": "eager.vanilla_op",
                  "after_backward_op": "eager.kept_outputs"}


def eager_step():
    """One forward+backward iteration; backward marks the iteration boundary
    so repeated steps replay the cached plans under stable op ids."""
    x = E.tensor(X.copy(), requires_grad=True)
    out = F.relu(F.matmul(x, E.tensor(W.copy())))
    out.sum().backward()
    return np.asarray(out.data), np.asarray(x.grad)


VANILLA_OUT, VANILLA_GRAD = eager_step()


class TestEagerFaultMatrix:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("i_point", I_POINTS)
    def test_quarantine_keeps_outputs_vanilla(self, i_point, mode):
        tool = FaultyTool(i_point=i_point, mode=mode, op_type="relu")
        with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
            out1, grad1 = eager_step()   # trace path: the fault fires here
            assert tool.faults == 1
            assert tool.name in mgr.quarantined
            out2, grad2 = eager_step()   # tool disabled: vanilla execution
            assert tool.faults == 1
        for out, grad in ((out1, grad1), (out2, grad2)):
            np.testing.assert_array_equal(out, VANILLA_OUT)
            np.testing.assert_array_equal(grad, VANILLA_GRAD)
        faults = mgr.snapshot()["faults"]
        assert faults["errors"] == 1
        assert faults["by_tool"] == {tool.name: 1}
        assert faults["by_i_point"] == {i_point: 1}
        (recent,) = faults["recent"]
        assert recent["tool"] == tool.name
        assert recent["i_point"] == i_point
        assert recent["backend"] == "eager"
        # backward instrumentation routines report the backward def's name
        assert recent["op_type"] in ("relu", "relu_backward")
        assert manager.quarantined == set()  # scope exit lifts quarantine

    @pytest.mark.parametrize("i_point", I_POINTS)
    def test_record_policy_keeps_failing_and_counting(self, i_point):
        tool = FaultyTool(i_point=i_point, mode="instrumentation",
                          op_type="relu", always=True)
        with amanda.error_policy("record"), amanda.apply(tool) as mgr:
            for _ in range(3):
                out, grad = eager_step()
                np.testing.assert_array_equal(out, VANILLA_OUT)
                np.testing.assert_array_equal(grad, VANILLA_GRAD)
            assert not mgr.quarantined  # record never disables the tool
        report = mgr.snapshot()
        assert report["fallbacks"][EAGER_FALLBACK[i_point]] == 3
        assert sum(report["fallbacks"].values()) == 3
        assert tool.faults == 3
        assert report["faults"]["errors"] == 3

    @pytest.mark.parametrize("occurrence", [1, 2], ids=["trace", "replay"])
    def test_fault_recovered_on_trace_and_replay_paths(self, occurrence):
        """occurrence=1 fails during the tracing execution, occurrence=2
        during the cached-plan replay of the next iteration."""
        tool = FaultyTool(i_point="before_forward_op", mode="instrumentation",
                          op_type="relu", occurrence=occurrence)
        with amanda.error_policy("quarantine"), amanda.apply(tool):
            out1, grad1 = eager_step()
            out2, grad2 = eager_step()
        assert tool.faults == 1
        assert tool.triggers == occurrence
        for out, grad in ((out1, grad1), (out2, grad2)):
            np.testing.assert_array_equal(out, VANILLA_OUT)
            np.testing.assert_array_equal(grad, VANILLA_GRAD)

    def test_clear_quarantine_reenables_recorded_actions(self):
        # occurrence=2: the trace execution passes (so the action is cached),
        # the first replay faults and quarantines the tool
        tool = FaultyTool(i_point="before_forward_op", mode="instrumentation",
                          op_type="relu", occurrence=2)
        with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
            eager_step()
            eager_step()
            assert tool.name in mgr.quarantined and tool.triggers == 2
            eager_step()                      # quarantined: routine excluded
            assert tool.triggers == 2
            mgr.clear_quarantine()
            out, grad = eager_step()          # plans recompile with the tool
            assert tool.triggers == 3 and tool.faults == 1
        np.testing.assert_array_equal(out, VANILLA_OUT)
        np.testing.assert_array_equal(grad, VANILLA_GRAD)


class TestEagerRaisePolicy:
    @pytest.mark.parametrize("mode", MODES)
    def test_propagates_with_provenance_then_unwinds(self, mode):
        tool = FaultyTool(i_point="before_forward_op", mode=mode,
                          op_type="relu")
        with amanda.apply(tool):  # default policy: raise
            with pytest.raises(InstrumentationError) as excinfo:
                eager_step()
            # patches and manager state survived: instrumented execution
            # works again within the same scope
            out, grad = eager_step()
        error = excinfo.value
        assert isinstance(error.original, ToolFault)
        assert error.tool == tool.name
        assert error.provenance.backend == "eager"
        assert error.provenance.op_type == "relu"
        assert error.provenance.i_point == "before_forward_op"
        assert error.phase == ("analysis" if mode == "analysis"
                               else "instrumentation")
        np.testing.assert_array_equal(out, VANILLA_OUT)
        np.testing.assert_array_equal(grad, VANILLA_GRAD)

    def test_op_ids_stable_across_failed_then_retried_iteration(self):
        """An aborted trace retracts the op-id assignment, so retrying the
        iteration derives the same id instead of drifting by one."""
        seen_ids = []
        recorder = Tool("recorder")
        recorder.add_inst_for_op(lambda ctx: seen_ids.append(ctx.get_op_id()))
        tool = FaultyTool(i_point="before_forward_op", mode="analysis",
                          op_type="relu")
        with amanda.apply(recorder, tool) as mgr:
            x = E.tensor(X.copy())
            with pytest.raises(InstrumentationError):
                F.relu(x)                       # first op of the iteration
            assert seen_ids[0] not in mgr.action_cache  # no half-stored trace
            out = F.relu(x)                     # retry, same iteration
            assert seen_ids == [seen_ids[0]] * 2  # identical id both times
            assert seen_ids[0] in mgr.action_cache
        np.testing.assert_array_equal(out.data, np.maximum(X, 0.0))

    def test_span_accounting_survives_failure(self):
        """satellite regression: framework + tool <= wall even after the
        error path, i.e. no span is left open and double-counted."""
        tool = FaultyTool(i_point="after_forward_op", mode="instrumentation",
                          op_type="relu", always=True)
        t0 = time.perf_counter()
        with amanda.apply(tool):
            with pytest.raises(InstrumentationError):
                eager_step()
            with amanda.error_policy("record"):
                eager_step()    # recovered mid-run: spans closed in finally
        wall = time.perf_counter() - t0
        timers = manager.timers
        assert timers["framework"] > 0.0
        assert timers["tool"] > 0.0
        assert timers["framework"] + timers["tool"] <= wall + 1e-9


class TestEagerAttachDetachRoundTrip:
    def test_pending_backward_state_does_not_leak_across_scopes(self):
        """Forward inside one apply scope, backward in the next: detach must
        drop the per-iteration backward-tracking metadata (the eager twin of
        the GraphDriver.detach fix)."""
        t1 = Tool("first")
        t1.add_inst_for_op(lambda ctx: None)
        t1.add_inst_for_op(lambda ctx: None, backward=True)
        x = E.tensor(X.copy(), requires_grad=True)
        with amanda.apply(t1):
            held = F.relu(F.matmul(x, E.tensor(W.copy())))
            # scope exits with backward never run: pending forward metadata
        assert not held.node.op_call.metadata.get("forward_plan")
        assert not held.node.op_call.metadata.get("context")

        seen = []
        t2 = Tool("second")
        t2.add_inst_for_op(
            lambda ctx: seen.append(ctx.get("backward_type")), backward=True)
        with amanda.apply(t2):
            out, grad = eager_step()
        assert "relu_backward" in seen
        np.testing.assert_array_equal(out, VANILLA_OUT)
        np.testing.assert_array_equal(grad, VANILLA_GRAD)

        held.sum().backward()  # the held graph still backprops, vanilla
        np.testing.assert_array_equal(x.grad, VANILLA_GRAD)


# ---------------------------------------------------------------------------
# graph backend
# ---------------------------------------------------------------------------

@pytest.fixture
def graph_net():
    with G.default_graph() as g:
        x = gb.placeholder(name="x")
        w = gb.variable(W.copy(), name="w")
        logits = gb.relu(gb.matmul(x, w))
        loss = gb.reduce_mean(gb.square(logits))
        (grad_w,) = G.gradients(loss, [w])
    sess = G.Session(g)
    vanilla_out = np.asarray(sess.run(logits, {x: X}))
    vanilla_grad = np.asarray(sess.run(grad_w, {x: X}))
    return sess, x, logits, grad_w, vanilla_out, vanilla_grad


class TestGraphFaults:
    def test_rewrite_time_analysis_fault_quarantines(self, graph_net):
        sess, x, logits, grad_w, vanilla_out, _ = graph_net
        tool = FaultyTool(i_point="before_forward_op", mode="analysis",
                          op_type="Relu")
        with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
            out1 = sess.run(logits, {x: X})    # fault during the rewrite
            assert tool.name in mgr.quarantined
            out2 = sess.run(logits, {x: X})
        np.testing.assert_array_equal(out1, vanilla_out)
        np.testing.assert_array_equal(out2, vanilla_out)
        faults = mgr.snapshot()["faults"]
        assert faults["by_i_point"] == {"before_forward_op": 1}
        assert faults["recent"][0]["backend"] == "graph"

    def test_runtime_callback_fault_falls_back_to_vanilla_graph(
            self, graph_net):
        sess, x, logits, grad_w, vanilla_out, _ = graph_net
        tool = FaultyTool(i_point="after_forward_op", mode="instrumentation",
                          op_type="Relu")
        with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
            out1 = sess.run(logits, {x: X})    # PyCall raises mid-run
            assert tool.name in mgr.quarantined
            out2 = sess.run(logits, {x: X})    # recompiled without the tool
        assert mgr.snapshot()["fallbacks"]["graph.vanilla_graph"] == 1
        np.testing.assert_array_equal(out1, vanilla_out)
        np.testing.assert_array_equal(out2, vanilla_out)

    def test_backward_callback_fault_keeps_gradients_vanilla(self, graph_net):
        sess, x, logits, grad_w, _, vanilla_grad = graph_net
        tool = FaultyTool(i_point="before_backward_op",
                          mode="instrumentation", op_type="Relu")
        with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
            gw1 = sess.run(grad_w, {x: X})
            assert tool.name in mgr.quarantined
            gw2 = sess.run(grad_w, {x: X})
        np.testing.assert_array_equal(gw1, vanilla_grad)
        np.testing.assert_array_equal(gw2, vanilla_grad)

    def test_record_policy_serves_vanilla_on_every_failing_run(
            self, graph_net):
        sess, x, logits, grad_w, vanilla_out, _ = graph_net
        tool = FaultyTool(i_point="after_forward_op", mode="instrumentation",
                          op_type="Relu", always=True)
        with amanda.error_policy("record"), amanda.apply(tool) as mgr:
            for _ in range(3):
                np.testing.assert_array_equal(sess.run(logits, {x: X}),
                                              vanilla_out)
            assert not mgr.quarantined
        assert mgr.snapshot()["fallbacks"]["graph.vanilla_graph"] == 3
        assert tool.faults == 3

    def test_raise_policy_propagates_from_session_run(self, graph_net):
        sess, x, logits, grad_w, vanilla_out, _ = graph_net
        tool = FaultyTool(i_point="before_forward_op", mode="analysis",
                          op_type="Relu")
        with amanda.apply(tool):
            with pytest.raises(InstrumentationError) as excinfo:
                sess.run(logits, {x: X})
        assert excinfo.value.provenance.backend == "graph"
        assert excinfo.value.provenance.op_type == "Relu"
        # clean unwind: the vanilla session works after the scope
        np.testing.assert_array_equal(sess.run(logits, {x: X}), vanilla_out)


# ---------------------------------------------------------------------------
# onnx backend
# ---------------------------------------------------------------------------

@pytest.fixture
def onnx_net():
    builder = OnnxBuilder()
    x = builder.input("input")
    builder.output(builder.relu(builder.gemm(x, W.T.copy())))
    sess = InferenceSession(builder.model)
    vanilla = np.asarray(sess.run(None, {"input": X})[0])
    return sess, vanilla


class TestOnnxFaults:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("i_point",
                             ["before_forward_op", "after_forward_op"])
    def test_quarantine_keeps_outputs_vanilla(self, onnx_net, i_point, mode):
        sess, vanilla = onnx_net
        tool = FaultyTool(i_point=i_point, mode=mode, op_type="Relu")
        with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
            out1 = sess.run(None, {"input": X})[0]
            assert tool.name in mgr.quarantined
            out2 = sess.run(None, {"input": X})[0]
        np.testing.assert_array_equal(out1, vanilla)
        np.testing.assert_array_equal(out2, vanilla)
        assert mgr.snapshot()["faults"]["recent"][0]["backend"] == "onnx"

    def test_raise_unwinds_and_retried_run_reuses_node_ids(self, onnx_net):
        sess, vanilla = onnx_net
        tool = FaultyTool(i_point="before_forward_op", mode="analysis",
                          op_type="Relu")
        with amanda.apply(tool) as mgr:
            with pytest.raises(InstrumentationError) as excinfo:
                sess.run(None, {"input": X})
            out = sess.run(None, {"input": X})[0]  # retry succeeds
            driver = next(d for d in mgr._drivers if d.namespace == "onnx")
            # the aborted node id was retracted and re-derived: one id per
            # node, every one of them traced into the cache
            assert len(driver._node_ids) == 2
            assert set(driver._node_ids.values()) <= set(mgr.action_cache)
        assert excinfo.value.provenance.op_type == "Relu"
        np.testing.assert_array_equal(out, vanilla)

    def test_record_policy_counts_per_node_failures(self, onnx_net):
        sess, vanilla = onnx_net
        tool = FaultyTool(i_point="after_forward_op", mode="instrumentation",
                          op_type="Relu", always=True)
        with amanda.error_policy("record"), amanda.apply(tool) as mgr:
            for _ in range(2):
                np.testing.assert_array_equal(
                    sess.run(None, {"input": X})[0], vanilla)
        assert mgr.snapshot()["fallbacks"]["onnx.kept_outputs"] == 2
        assert tool.faults == 2


# ---------------------------------------------------------------------------
# fallback counts across backends
# ---------------------------------------------------------------------------

def test_fallback_counts_outlive_the_scope_until_reset(graph_net, onnx_net):
    """The drivers detach when the scope closes; the fallbacks they counted
    stay in the manager's snapshot until ``reset_health()``."""
    graph_sess, x, logits, _, graph_vanilla, _ = graph_net
    onnx_sess, onnx_vanilla = onnx_net
    eager_tool = FaultyTool(i_point="before_forward_op",
                            mode="instrumentation", op_type="relu",
                            always=True)
    node_tool = FaultyTool(i_point="after_forward_op", mode="instrumentation",
                           op_type="Relu", always=True)
    with amanda.error_policy("record"):
        with amanda.apply(eager_tool):
            out, _ = eager_step()
        with amanda.apply(node_tool):
            graph_out = graph_sess.run(logits, {x: X})
            onnx_out = onnx_sess.run(None, {"input": X})[0]
    assert not manager.active
    np.testing.assert_array_equal(out, VANILLA_OUT)
    np.testing.assert_array_equal(graph_out, graph_vanilla)
    np.testing.assert_array_equal(onnx_out, onnx_vanilla)
    report = manager.snapshot()
    assert report["fallbacks"] == {
        "eager.vanilla_op": 1, "eager.kept_outputs": 0,
        "onnx.vanilla_node": 0, "onnx.kept_outputs": 1,
        "graph.vanilla_graph": 1}
    assert report["faults"]["errors"] == 3
    manager.reset_health()
    report = manager.snapshot()
    assert set(report["fallbacks"].values()) == {0}
    assert report["faults"]["errors"] == 0
