"""Eager driver: the six instrumentation actions, caching, AD isolation."""

import gc
import weakref

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
from repro.amanda import Tool, manager
from repro.core.plans import PlanKind
from repro.eager import F, alloc


def run_linear(rng, tool, iterations=1, requires_grad=False):
    lin = E.Linear(3, 2, rng=rng)
    x = E.tensor(rng.standard_normal((4, 3)), requires_grad=requires_grad)
    outputs = []
    with amanda.apply(tool):
        for _ in range(iterations):
            outputs.append(lin(x))
    return lin, x, outputs


class TestForwardActions:
    def test_insert_before_op_modifies_input(self, rng):
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "linear":
                context.insert_before_op(lambda x: x * 0.0, inputs=[0])

        tool.add_inst_for_op(analysis)
        lin, x, outputs = run_linear(rng, tool)
        np.testing.assert_allclose(outputs[0].data,
                                   np.broadcast_to(lin.bias.data, (4, 2)))

    def test_insert_after_op_modifies_output(self, rng):
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "linear":
                context.insert_after_op(lambda y: y + 100.0, outputs=[0])

        tool.add_inst_for_op(analysis)
        lin, x, outputs = run_linear(rng, tool)
        reference = x.data @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(outputs[0].data, reference + 100.0)

    def test_observation_routine_returning_none(self, rng):
        tool = Tool("t")
        seen = []

        def analysis(context):
            if context["type"] == "linear":
                context.insert_before_op(
                    lambda x: seen.append(x.shape), inputs=[0])

        tool.add_inst_for_op(analysis)
        lin, x, outputs = run_linear(rng, tool, iterations=2)
        assert seen == [(4, 3), (4, 3)]
        reference = x.data @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(outputs[0].data, reference)

    def test_replace_op(self, rng):
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "relu":
                context.replace_op(lambda x: np.abs(x))  # relu -> abs

        tool.add_inst_for_op(analysis)
        x = E.tensor(np.array([-2.0, 3.0]))
        with amanda.apply(tool):
            out = F.relu(x)
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_replace_with_identity_removes_op(self, rng):
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "relu":
                context.replace_op(lambda x: x)

        tool.add_inst_for_op(analysis)
        x = E.tensor(np.array([-2.0, 3.0]))
        with amanda.apply(tool):
            out = F.relu(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_kwargs_injection(self, rng):
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "linear":
                context.insert_after_op(lambda y, offset: y + offset,
                                        outputs=[0], offset=7.0)

        tool.add_inst_for_op(analysis)
        lin, x, outputs = run_linear(rng, tool)
        reference = x.data @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(outputs[0].data, reference + 7.0)

    def test_after_forward_analysis_sees_outputs(self, rng):
        tool = Tool("t")
        shapes = []

        def analysis(context):
            if context["type"] == "linear":
                shapes.append(tuple(t.shape for t in context.get_outputs()))

        tool.add_inst_for_op(analysis, require_outputs=True)
        run_linear(rng, tool)
        assert shapes == [((4, 2),)]


class TestBackwardActions:
    def test_before_backward_modifies_incoming_grad(self, rng):
        tool = Tool("t")

        def backward_analysis(context):
            if context.get("backward_type") == "linear_backward_input":
                context.insert_before_backward_op(lambda g: g * 0.0)

        tool.add_inst_for_op(backward_analysis, backward=True)
        lin, x, outputs = run_linear(rng, tool, requires_grad=True)
        with amanda.apply(tool):
            out = lin(x)
            out.sum().backward()
        np.testing.assert_allclose(x.grad, 0.0)
        # weight gradient untouched (separate backward op)
        assert np.abs(lin.weight.grad).sum() > 0

    def test_after_backward_modifies_produced_grad(self, rng):
        tool = Tool("t")

        def backward_analysis(context):
            if context.get("backward_type") == "linear_backward_weight":
                context.insert_after_backward_op(lambda g: g * 0.0,
                                                 grad_inputs=[0])

        tool.add_inst_for_op(backward_analysis, backward=True)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with amanda.apply(tool):
            lin(x).sum().backward()
        np.testing.assert_allclose(lin.weight.grad, 0.0)
        assert np.abs(x.grad).sum() > 0

    def test_backward_action_registered_from_forward_context(self, rng):
        tool = Tool("t")

        def forward_analysis(context):
            if context["type"] == "linear":
                context.insert_after_backward_op(lambda g: g * 0.0)

        tool.add_inst_for_op(forward_analysis)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with amanda.apply(tool):
            lin(x).sum().backward()
        # applies to every backward op of the linear: all grads zeroed
        np.testing.assert_allclose(lin.weight.grad, 0.0)
        np.testing.assert_allclose(x.grad, 0.0)

    def test_forward_context_state_visible_in_backward(self, rng):
        tool = Tool("t")
        seen = []

        def forward_analysis(context):
            if context["type"] == "linear":
                context["token"] = "hello"

        def backward_analysis(context):
            if context.get("backward_type", "").startswith("linear"):
                seen.append(context.get("token"))

        tool.add_inst_for_op(forward_analysis)
        tool.add_inst_for_op(backward_analysis, backward=True)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with amanda.apply(tool):
            lin(x).sum().backward()
        assert seen and all(token == "hello" for token in seen)

    def test_accumulate_grad_is_instrumentable(self, rng):
        tool = Tool("t")
        accumulations = []

        def analysis(context):
            if context["type"] == "accumulate_grad":
                context.insert_before_op(
                    lambda param, grad: accumulations.append(grad.shape),
                    inputs=None)

        tool.add_inst_for_op(analysis)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)))
        with amanda.apply(tool):
            lin(x).sum().backward()
        # weight and bias leaves each get an accumulate_grad op
        assert len(accumulations) == 2

    def test_replace_backward_op(self, rng):
        tool = Tool("t")

        def backward_analysis(context):
            if context.get("backward_type") == "relu_backward":
                context.replace_backward_op(lambda g: {0: g * 2.0})

        tool.add_inst_for_op(backward_analysis, backward=True)
        x = E.tensor(np.array([1.0, 2.0]), requires_grad=True)
        with amanda.apply(tool):
            F.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_ad_isolation_grads_flow_to_original_weight(self, rng):
        """Masking a weight input must not cut the weight's gradient path."""
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "linear":
                context.insert_before_op(lambda w: w * 0.5, inputs=[1])

        tool.add_inst_for_op(analysis)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)))
        with amanda.apply(tool):
            lin(x).sum().backward()
        assert lin.weight.grad is not None
        assert np.abs(lin.weight.grad).sum() > 0


class TestCaching:
    def test_analysis_runs_once_per_op_with_cache(self, rng):
        tool = Tool("t")
        calls = []
        tool.add_inst_for_op(lambda ctx: calls.append(ctx["type"]))
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)))
        with amanda.apply(tool):
            for _ in range(5):
                lin(x)
        assert calls.count("linear") == 1

    def test_analysis_reruns_without_cache(self, rng):
        tool = Tool("t")
        calls = []
        tool.add_inst_for_op(lambda ctx: calls.append(ctx["type"]))
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)))
        with amanda.apply(tool), amanda.cache_disabled():
            for _ in range(5):
                lin(x)
        assert calls.count("linear") == 5

    def test_cached_instrumentation_still_applied(self, rng):
        tool = Tool("t")
        applied = []

        def analysis(context):
            if context["type"] == "linear":
                context.insert_after_op(
                    lambda y: applied.append(1) or y + 1.0, outputs=[0])

        tool.add_inst_for_op(analysis)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)))
        with amanda.apply(tool):
            for _ in range(4):
                lin(x)
        assert len(applied) == 4  # instrumentation every run, analysis once

    def test_instrumentation_removed_after_apply_exits(self, rng):
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "linear":
                context.insert_after_op(lambda y: y * 0.0, outputs=[0])

        tool.add_inst_for_op(analysis)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)))
        with amanda.apply(tool):
            inside = lin(x)
        outside = lin(x)
        np.testing.assert_allclose(inside.data, 0.0)
        assert np.abs(outside.data).sum() > 0

    def test_vanilla_fast_path_populated(self, rng):
        tool = Tool("t")
        tool.add_inst_for_op(lambda ctx: None)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)))
        with amanda.apply(tool):
            lin(x)
            # every op analyzed and cached empty
            assert all(record.empty
                       for record in manager.action_cache.values())
            assert len(manager.action_cache) > 0

    def test_context_charges_released_with_the_cache(self, rng):
        tool = Tool("t")
        tool.add_inst_for_op(lambda ctx: None)
        tool.add_inst_for_op(lambda ctx: None, backward=True)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)), requires_grad=True)
        live = alloc.tracker.live["amanda"]
        total = alloc.tracker.total_allocated["amanda"]
        with amanda.apply(tool):
            lin(x).sum().backward()
            charged = alloc.tracker.live["amanda"] - live
            assert charged > 0
            # a nested scope changes the toolset and clears the cache
            with amanda.apply(Tool("nested")):
                assert alloc.tracker.live["amanda"] == live
                lin(x).sum().backward()
                assert alloc.tracker.live["amanda"] == live + charged
        assert alloc.tracker.live["amanda"] == live
        # releasing leaves the allocation total (Fig. 13's input) alone
        assert alloc.tracker.total_allocated["amanda"] == total + 2 * charged


class TestReplayedOps:
    """A replayed op runs the same path as its first execution: it links
    its backward ops and leaves nothing of its own behind in the cache."""

    def test_backward_ops_first_analyzed_after_replay_see_forward_op(
            self, rng):
        tool = Tool("t")
        seen = []
        tool.add_inst_for_op(
            lambda ctx: ctx.insert_after_op(lambda *outputs: None))
        tool.add_inst_for_op(
            lambda ctx: seen.append((ctx["backward_type"], ctx.get_op_id(),
                                     ctx.get_op())),
            backward=True)
        model = E.Sequential(E.Linear(3, 2, rng=rng), E.ReLU())
        x = E.tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with amanda.apply(tool):
            model(x)                      # forward only: traces the ops
            model(x).sum().backward()     # replays them; backward traced
        names = {name for name, _, _ in seen}
        assert {"relu_backward", "linear_backward_input",
                "linear_backward_weight", "linear_backward_bias"} <= names
        for name, op_id, op in seen:
            assert op_id is not None, name
            assert op is not None and op.metadata["op_id"] == op_id, name

    def test_replayed_outputs_are_not_kept_alive(self, rng):
        tool = Tool("t")
        op_ids = []

        def analysis(context):
            op_ids.append(context.get_op_id())
            context["mask"] = 1.0  # user state
            context.insert_before_op(lambda *inputs: None)

        tool.add_inst_for_op(analysis)
        lin = E.Linear(3, 2, rng=rng)
        x = E.tensor(rng.standard_normal((4, 3)))
        with amanda.apply(tool) as mgr:
            lin(x).sum().backward()       # trace
            out = lin(x)                  # replay
            out.sum().backward()
            assert all(mgr.action_cache[op_id].plan.kind
                       is not PlanKind.VANILLA for op_id in op_ids)
            dead = weakref.ref(out)
            del out
            gc.collect()
            assert dead() is None


class TestIterationBoundaries:
    def test_module_entry_resets_occurrences(self, rng):
        """Two successive model calls must see identical op ids."""
        tool = Tool("t")
        ids = []

        def analysis(context):
            if context["type"] == "linear":
                ids.append(context.get_op_id())

        tool.add_inst_for_op(analysis)
        model = E.Sequential(E.Linear(3, 3, rng=rng), E.ReLU(),
                             E.Linear(3, 2, rng=rng))
        x = E.tensor(rng.standard_normal((2, 3)))
        with amanda.apply(tool), amanda.cache_disabled():
            model(x)
            first = list(ids)
            ids.clear()
            model(x)
        assert ids == first

    def test_explicit_new_iteration(self, rng):
        tool = Tool("t")
        ids = []
        tool.add_inst_for_op(lambda ctx: ids.append(ctx.get_op_id()))
        x = E.tensor(rng.standard_normal(4))
        with amanda.apply(tool), amanda.cache_disabled():
            F.relu(x)
            amanda.new_iteration()
            F.relu(x)
        assert ids[0] == ids[1]
