"""New eager ops (clip/abs/where/stack/split/pad) and the tools built on
them (gradient clipping, latency profiling)."""

import weakref

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.models.eager as M
from repro.amanda.tools import GradientClippingTool, LatencyProfilingTool
from repro.eager import F
from tests.conftest import numeric_gradient


class TestNewOps:
    def test_clip_forward_and_grad(self, rng):
        x = rng.standard_normal((3, 4)) * 2
        t = E.tensor(x, requires_grad=True)
        out = F.clip(t, -0.5, 0.5)
        assert out.data.max() <= 0.5 and out.data.min() >= -0.5
        grad_out = rng.standard_normal(out.shape)
        out.backward(grad_out)
        inside = (x >= -0.5) & (x <= 0.5)
        np.testing.assert_allclose(t.grad, grad_out * inside)

    def test_clip_one_sided(self, rng):
        t = E.tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        out = F.clip(t, minimum=0.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_abs_grad(self, rng):
        t = E.tensor(np.array([-2.0, 3.0]), requires_grad=True)
        F.abs(t).sum().backward()
        np.testing.assert_array_equal(t.grad, [-1.0, 1.0])

    def test_where_routes_gradients(self, rng):
        condition = np.array([True, False, True])
        a = E.tensor(np.ones(3), requires_grad=True)
        b = E.tensor(np.zeros(3), requires_grad=True)
        F.where(condition, a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])

    def test_stack_grad_splits(self, rng):
        a = E.tensor(rng.standard_normal(3), requires_grad=True)
        b = E.tensor(rng.standard_normal(3), requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        grad_out = rng.standard_normal((2, 3))
        out.backward(grad_out)
        np.testing.assert_allclose(a.grad, grad_out[0])
        np.testing.assert_allclose(b.grad, grad_out[1])

    def test_split_grad_concatenates(self, rng):
        t = E.tensor(rng.standard_normal((4, 2)), requires_grad=True)
        top, bottom = F.split(t, 2, axis=0)
        (top.sum() + (bottom * 2.0).sum()).backward()
        np.testing.assert_allclose(t.grad[:2], 1.0)
        np.testing.assert_allclose(t.grad[2:], 2.0)

    def test_split_grad_with_an_output_that_died_unused(self, rng):
        t = E.tensor(rng.standard_normal((4, 2)), requires_grad=True)
        parts = F.split(t, 2, axis=0)
        top, bottom = parts[0], weakref.ref(parts[1])
        del parts
        assert bottom() is None     # the node holds its outputs weakly
        (top * 3.0).sum().backward()
        np.testing.assert_array_equal(t.grad[:2], 3.0)
        np.testing.assert_array_equal(t.grad[2:], 0.0)

    def test_pad_numeric_grad(self, rng):
        x = rng.standard_normal((2, 3))
        t = E.tensor(x, requires_grad=True)
        out = F.pad(t, [(1, 0), (2, 1)])
        assert out.shape == (3, 6)
        grad_out = rng.standard_normal(out.shape)
        out.backward(grad_out)
        want = numeric_gradient(
            lambda: np.pad(x, [(1, 0), (2, 1)]), x, grad_out)
        np.testing.assert_allclose(t.grad, want, atol=1e-6)

    def test_split_ops_are_instrumentable(self, rng):
        """New ops flow through the same dispatch: tools see them."""
        from repro.amanda.tools import GraphTracingTool
        tracer = GraphTracingTool()
        with amanda.apply(tracer):
            a, b = F.split(E.tensor(rng.standard_normal((4, 2))))
            F.stack([a, b])
        types = set(tracer.op_types().values())
        assert {"split", "stack"} <= types


class TestGradientClippingTool:
    def test_norm_clipping(self, rng):
        tool = GradientClippingTool(max_norm=0.5)
        lin = E.Linear(4, 4, rng=rng)
        with amanda.apply(tool):
            (lin(E.tensor(rng.standard_normal((8, 4)))) * 50.0).sum().backward()
        for param in lin.parameters():
            assert np.sqrt((param.grad ** 2).sum()) <= 0.5 + 1e-9
        assert tool.clip_events > 0

    def test_value_clipping(self, rng):
        tool = GradientClippingTool(clip_value=0.01)
        lin = E.Linear(4, 4, rng=rng)
        with amanda.apply(tool):
            lin(E.tensor(rng.standard_normal((8, 4)))).sum().backward()
        for param in lin.parameters():
            assert np.abs(param.grad).max() <= 0.01 + 1e-12

    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError):
            GradientClippingTool()
        with pytest.raises(ValueError):
            GradientClippingTool(max_norm=1.0, clip_value=1.0)

    def test_small_gradients_untouched(self, rng):
        tool = GradientClippingTool(max_norm=1e9)
        lin = E.Linear(4, 4, rng=rng)
        x = E.tensor(rng.standard_normal((2, 4)))
        lin(x).sum().backward()
        reference = {id(p): p.grad.copy() for p in lin.parameters()}
        lin.zero_grad()
        with amanda.apply(tool):
            lin(x).sum().backward()
        for param in lin.parameters():
            np.testing.assert_allclose(param.grad, reference[id(param)])
        assert tool.clip_events == 0


class TestLatencyProfilingTool:
    def test_latencies_recorded_per_op(self, rng):
        tool = LatencyProfilingTool()
        with amanda.apply(tool):
            for _ in range(3):
                M.LeNet()(E.tensor(rng.standard_normal((1, 3, 16, 16))))
        by_type = tool.by_op_type()
        assert by_type.get("conv2d", 0) > 0
        assert all(v >= 0 for v in by_type.values())

    def test_conv_dominates_lenet(self, rng):
        tool = LatencyProfilingTool()
        model = M.LeNet()
        x = E.tensor(rng.standard_normal((4, 3, 16, 16)))
        with amanda.apply(tool):
            for _ in range(3):
                model(x)
                amanda.new_iteration()
        assert tool.report(1)[0][0] == "conv2d"

    def test_portable_to_graph_backend(self, rng):
        import repro.models.graph as GM
        tool = LatencyProfilingTool()
        gm = GM.build_mlp()
        with amanda.apply(tool):
            gm.session().run(gm.logits,
                             {gm.inputs: rng.standard_normal((4, 16))})
        assert tool.by_op_type().get("matmul", 0) > 0

    def test_reset(self, rng):
        tool = LatencyProfilingTool()
        with amanda.apply(tool):
            F.relu(E.tensor(rng.standard_normal(4)))
        tool.reset()
        assert tool.by_op_type() == {}
