"""Cross-driver equivalence of the shared execution-plan layer.

One tiny network — ``y = relu(x @ W)`` with identical fixed weights — is
built on all three backends.  Because every driver now routes its cached
(replay) path through the same compiled :class:`ExecutionPlan` executor,
the same tool applied to the same network must produce the same result
regardless of backend:

* tracing (observe-only plans) must leave every backend's output equal to
  its un-instrumented reference;
* static pruning (mutating plans: ``insert_before_op`` on the weight) must
  yield numerically identical outputs across all three backends;
* static quantization must derive the same weight scales on every backend.

The ONNX builder stores Gemm weights as ``(out, in)`` with ``transB=1``,
so it receives ``W.T`` — magnitude masks and max-abs scales are layout
invariant, which is exactly why the cross-backend comparison is exact.
"""

import contextlib

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.eager.functional as F
import repro.graph as G
from repro.capture import capture
from repro.graph import builder as gb
from repro.onnx import InferenceSession
from repro.onnx.model import OnnxBuilder
from repro.tools.faulty import FaultyTool
from repro.tools.pruning import MagnitudePruningTool
from repro.tools.quantization import StaticPTQTool
from repro.tools.tracing import ExecutionTraceTool

RNG = np.random.default_rng(7)
X = RNG.standard_normal((3, 6))
W = RNG.standard_normal((6, 4))


def run_eager():
    out = F.relu(F.matmul(E.tensor(X), E.tensor(W)))
    return np.asarray(out.data)


def run_graph():
    with G.default_graph() as graph:
        x = gb.placeholder(shape=X.shape, name="x")
        w = gb.variable(W, name="w")
        y = gb.relu(gb.matmul(x, w))
    sess = G.Session(graph)
    return np.asarray(sess.run(y, {x: X}))


def run_onnx():
    builder = OnnxBuilder()
    x = builder.input("input")
    y = builder.relu(builder.gemm(x, W.T.copy()))
    builder.output(y)
    sess = InferenceSession(builder.model)
    return np.asarray(sess.run(None, {"input": X})[0])


BACKENDS = {"eager": run_eager, "graph": run_graph, "onnx": run_onnx}


class _CaptureNet(E.Module):
    """The same ``y = relu(x @ W)`` network as a module, for capture."""

    def __init__(self):
        super().__init__()
        self.w = E.Parameter(W.copy())

    def forward(self, x):
        return F.relu(F.matmul(x, self.w))


def _outputs(tool=None):
    """Run the network on every backend, optionally under a fresh tool."""
    results = {}
    tools = {}
    for name, run in BACKENDS.items():
        if tool is None:
            results[name] = run()
        else:
            instance = tool()
            with amanda.apply(instance):
                run()          # analysis pass populates the cache + plans
                results[name] = run()  # compiled-plan replay path
            tools[name] = instance
    return results, tools


class TestCrossDriverEquivalence:
    def test_vanilla_outputs_agree(self):
        results, _ = _outputs()
        reference = results["eager"]
        for name, value in results.items():
            np.testing.assert_allclose(value, reference, rtol=1e-9,
                                       err_msg=name)

    def test_tracing_preserves_outputs_on_every_backend(self):
        vanilla, _ = _outputs()
        traced, tools = _outputs(ExecutionTraceTool)
        for name in BACKENDS:
            np.testing.assert_allclose(traced[name], vanilla[name],
                                       rtol=1e-9, err_msg=name)
            assert tools[name].events, name  # the tool did observe ops

    def test_pruning_outputs_identical_across_backends(self):
        pruned, tools = _outputs(lambda: MagnitudePruningTool(sparsity=0.5))
        for name, tool in tools.items():
            assert tool.masks, name  # the weight op was found and masked
        reference = pruned["eager"]
        vanilla = run_eager()
        assert not np.allclose(reference, vanilla)  # pruning changed the net
        for name, value in pruned.items():
            np.testing.assert_allclose(value, reference, rtol=1e-9,
                                       err_msg=name)

    def test_captured_joins_the_equivalence_class(self):
        """The capture frontend produces the same bytes as eager dispatch."""
        model = _CaptureNet().eval()
        cm = capture(model)
        out = cm(E.tensor(X))
        np.testing.assert_array_equal(np.asarray(out.data), run_eager())

    def test_quantization_scales_agree_across_backends(self):
        quantized, tools = _outputs(lambda: StaticPTQTool(bits=8))
        # eager assigns fresh op ids per call, so dedupe by value: the
        # *set* of derived scales is the backend-independent quantity
        scales = {name: np.unique(list(tool.weight_scales.values()))
                  for name, tool in tools.items()}
        for name in BACKENDS:
            assert scales[name], name
            np.testing.assert_allclose(scales[name], scales["eager"],
                                       rtol=1e-12, err_msg=name)
        reference = quantized["eager"]
        for name, value in quantized.items():
            np.testing.assert_allclose(value, reference, rtol=1e-9,
                                       err_msg=name)


# ---------------------------------------------------------------------------
# capture matrix: {vanilla, observe-only, mutating, quarantined} tools —
# captured execution must stay bit-identical to eager
# ---------------------------------------------------------------------------

_MATRIX_TOOLS = {
    "vanilla": None,
    "observe": ExecutionTraceTool,
    "mutate": lambda: MagnitudePruningTool(sparsity=0.5),
    "quarantine": lambda: FaultyTool(i_point="before_forward_op", always=True),
}


def _matrix_run(run, kind):
    """Steady-state output of ``run`` under the matrix cell's tool."""
    factory = _MATRIX_TOOLS[kind]
    policy = (amanda.error_policy("quarantine") if kind == "quarantine"
              else contextlib.nullcontext())
    if factory is None:
        run()
        return run(), None, None
    instance = factory()
    with policy, amanda.apply(instance) as mgr:
        run()                  # analysis pass / trace + first replay
        out = run()            # steady-state replay
        quarantined = set(mgr.quarantined)  # scope exit lifts quarantine
    return out, instance, quarantined


class TestCapturedMatrixEquivalence:
    """Captured == eager, bitwise, across tools."""

    @pytest.mark.parametrize("kind", sorted(_MATRIX_TOOLS))
    def test_captured_matches_eager(self, kind):
        x = E.tensor(X)
        eager_model = _CaptureNet().eval()
        cm = capture(_CaptureNet().eval())

        eager_out, eager_tool, _ = _matrix_run(
            lambda: eager_model(x).data, kind)
        cap_out, cap_tool, cap_quarantined = _matrix_run(
            lambda: cm(x).data, kind)
        np.testing.assert_array_equal(np.asarray(cap_out),
                                      np.asarray(eager_out))
        assert cm.capture_count >= 1
        assert cm.fallback_count == 0

        if kind == "observe":
            assert cap_tool.events          # replay is visible to the tool
            vanilla = run_eager()
            np.testing.assert_array_equal(np.asarray(cap_out), vanilla)
        elif kind == "mutate":
            assert cap_tool.masks and eager_tool.masks
            assert not np.allclose(cap_out, run_eager())  # pruning took hold
        elif kind == "quarantine":
            assert cap_tool.name in cap_quarantined  # faulty tool ejected
            np.testing.assert_array_equal(np.asarray(cap_out), run_eager())
