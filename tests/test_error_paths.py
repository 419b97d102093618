"""Error handling and edge cases across the stack."""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.graph as G
from repro.amanda import InstrumentationError, Tool
from repro.eager import F
from repro.eager.dispatch import OpDef, apply_op, registry
from repro.graph import builder as gb


class TestEagerErrors:
    def test_unknown_operator(self):
        with pytest.raises(KeyError, match="unknown operator"):
            apply_op("frobnicate", E.tensor([1.0]))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register(OpDef("relu", lambda ctx, x: x))

    def test_slice_negative_indices(self, rng):
        t = E.tensor(rng.standard_normal(5), requires_grad=True)
        out = t[-2:]
        out.sum().backward()
        np.testing.assert_array_equal(t.grad, [0, 0, 0, 1, 1])

    def test_dropout_p_zero_identity(self, rng):
        x = E.tensor(rng.standard_normal((3, 3)))
        np.testing.assert_array_equal(F.dropout(x, p=0.0).data, x.data)

    def test_pow_zero_exponent(self):
        t = E.tensor([2.0], requires_grad=True)
        (t ** 0.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0])

    def test_empty_slice_grad(self):
        t = E.tensor([1.0, 2.0], requires_grad=True)
        out = t[0:0]
        assert out.shape == (0,)

    def test_mean_no_axis_scalar(self, rng):
        t = E.tensor(rng.standard_normal((2, 3)))
        assert t.mean().shape == ()

    def test_replace_backward_requires_dict(self, rng):
        tool = Tool("t")

        def backward_analysis(context):
            if context.get("backward_type") == "relu_backward":
                context.replace_backward_op(lambda g: g)  # wrong: not a dict

        tool.add_inst_for_op(backward_analysis, backward=True)
        x = E.tensor(np.ones(3), requires_grad=True)
        with amanda.apply(tool):
            out = F.relu(x)
            with pytest.raises(InstrumentationError, match="dict") as excinfo:
                out.sum().backward()
        assert isinstance(excinfo.value.original, TypeError)
        assert excinfo.value.provenance.i_point == "replace_backward_op"


class TestGraphErrors:
    def test_fetch_unknown_tensor_name(self):
        with G.default_graph() as g:
            gb.constant(1.0, name="c")
        with pytest.raises(KeyError):
            g.get_tensor("nope:0")

    def test_assign_sub_requires_variable(self):
        with G.default_graph() as g:
            c = gb.constant(np.zeros(2))
            with pytest.raises(ValueError, match="Variable"):
                gb.assign_sub(c, c)

    def test_unknown_compute_type(self):
        with G.default_graph() as g:
            op = g.add_op("Bogus", [])
        with pytest.raises(NotImplementedError, match="Bogus"):
            G.Session(g).run(op.outputs[0])

    def test_gradient_of_nondifferentiable_chain_is_none(self, rng):
        with G.default_graph() as g:
            v = gb.variable(rng.standard_normal(3), name="v")
            detached = gb.constant(np.zeros(3))
            loss = gb.reduce_sum(detached)
            grads = G.gradients(loss, [v])
        assert grads == [None]


class TestToolRobustness:
    def test_analysis_exception_propagates(self, rng):
        tool = Tool("t")

        def broken(context):
            if context["type"] == "relu":
                raise RuntimeError("tool bug")

        tool.add_inst_for_op(broken)
        with amanda.apply(tool):
            with pytest.raises(RuntimeError, match="tool bug"):
                F.relu(E.tensor(np.ones(2)))

    def test_backend_restored_after_tool_exception(self, rng):
        tool = Tool("t")
        tool.add_inst_for_op(lambda ctx: (_ for _ in ()).throw(
            RuntimeError("boom")) if ctx["type"] == "relu" else None)
        try:
            with amanda.apply(tool):
                F.relu(E.tensor(np.ones(2)))
        except RuntimeError:
            pass
        # the apply scope unwound: vanilla execution works again
        out = F.relu(E.tensor(np.array([-1.0, 1.0])))
        np.testing.assert_array_equal(out.data, [0.0, 1.0])
        assert not amanda.manager.active

    def test_instrumentation_routine_exception_propagates(self, rng):
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "relu":
                context.insert_before_op(
                    lambda x: (_ for _ in ()).throw(ValueError("routine bug")))

        tool.add_inst_for_op(analysis)
        with amanda.apply(tool):
            with pytest.raises(InstrumentationError, match="routine bug") as ei:
                F.relu(E.tensor(np.ones(2)))
        assert isinstance(ei.value.original, ValueError)
        assert ei.value.tool == "t"

    def test_out_of_range_indices_ignored_for_grads(self, rng):
        """Backward actions with indices beyond the produced grads no-op."""
        tool = Tool("t")

        def backward_analysis(context):
            if context.get("backward_type") == "relu_backward":
                context.insert_after_backward_op(lambda g: g * 0.0,
                                                 grad_inputs=[7])

        tool.add_inst_for_op(backward_analysis, backward=True)
        x = E.tensor(np.ones(3), requires_grad=True)
        with amanda.apply(tool):
            F.relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_nested_apply_inner_tool_removed_at_outer_exit(self, rng):
        inner_calls = []
        outer = Tool("outer")
        inner = Tool("inner")
        inner.add_inst_for_op(lambda ctx: inner_calls.append(1))
        with amanda.apply(outer):
            with amanda.apply(inner):
                F.relu(E.tensor(np.ones(1)))
            count_after_inner = len(inner_calls)
            # inner left with its own scope
            F.relu(E.tensor(np.ones(1)))
        assert len(inner_calls) == count_after_inner
        F.relu(E.tensor(np.ones(1)))
        final = len(inner_calls)
        F.relu(E.tensor(np.ones(1)))
        assert len(inner_calls) == final  # fully detached now
