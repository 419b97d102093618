"""Execution plans: compile-once/replay-forever for cached actions.

Unit coverage for ``repro.core.plans`` plus the manager's plan ownership:
compilation at cache-store time, epoch/append invalidation, the plan totals
in ``snapshot()["plans"]``, and the Fig. 11 timer accounting the plan
layer's spans are built on.
"""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.models.eager as M
from repro.amanda import Tool
from repro.core.actions import Action, ActionType
from repro.core.manager import CachedOpRecord, InstrumentationManager
from repro.core.plans import (EMPTY_SLICE, NDARRAY_ADAPTER, PlanKind,
                              PlanSlice, compile_actions,
                              compile_backward_slice, compile_forward_slice,
                              compile_plan, run_steps)


def _noop(*arrays, **kwargs):
    return None


def _action(action_type, func=_noop, indices=None, kwargs=None,
            backward_op=None):
    return Action(type=action_type, func=func, tensor_indices=indices,
                  kwargs=kwargs or {}, backward_op=backward_op)


def _runner(func, args, kwargs, provenance=None):
    return func(*args, **kwargs)


class TestPartitioning:
    def test_forward_slice_partitions_by_phase(self):
        actions = [
            _action(ActionType.INSERT_BEFORE_OP),
            _action(ActionType.INSERT_AFTER_OP),
            _action(ActionType.INSERT_BEFORE_OP),
            _action(ActionType.INSERT_AFTER_BACKWARD_OP),  # not forward
        ]
        plan_slice = compile_forward_slice(actions)
        assert len(plan_slice.before) == 2
        assert len(plan_slice.after) == 1
        assert plan_slice.replace is None

    def test_last_replace_wins(self):
        first = _action(ActionType.REPLACE_OP, func=lambda a: a * 2)
        second = _action(ActionType.REPLACE_OP, func=lambda a: a * 3)
        plan_slice = compile_forward_slice([first, second])
        assert plan_slice.replace.action is second

    def test_empty_input_is_the_shared_empty_slice(self):
        assert compile_forward_slice([]) is EMPTY_SLICE
        assert EMPTY_SLICE.empty

    def test_backward_slice_filters_by_backward_op(self):
        keep = _action(ActionType.INSERT_BEFORE_BACKWARD_OP,
                       backward_op="matmul_grad")
        drop = _action(ActionType.INSERT_BEFORE_BACKWARD_OP,
                       backward_op="relu_grad")
        universal = _action(ActionType.INSERT_AFTER_BACKWARD_OP)
        plan_slice = compile_backward_slice([keep, drop, universal],
                                            "matmul_grad")
        assert [s.action for s in plan_slice.before] == [keep]
        assert [s.action for s in plan_slice.after] == [universal]

    def test_backward_slice_accepts_name_tuple(self):
        raw = _action(ActionType.INSERT_BEFORE_BACKWARD_OP,
                      backward_op="MatMulGrad")
        mapped = _action(ActionType.INSERT_BEFORE_BACKWARD_OP,
                         backward_op="matmul_grad")
        plan_slice = compile_backward_slice([raw, mapped],
                                            ("matmul_grad", "MatMulGrad"))
        assert len(plan_slice.before) == 2

    def test_concat_composes_and_later_replace_wins(self):
        a = compile_forward_slice([
            _action(ActionType.INSERT_BEFORE_OP),
            _action(ActionType.REPLACE_OP, func=lambda x: x)])
        b = compile_forward_slice([
            _action(ActionType.INSERT_AFTER_OP),
            _action(ActionType.REPLACE_OP, func=lambda x: -x)])
        combined = PlanSlice.concat(a, b)
        assert len(combined.before) == 1 and len(combined.after) == 1
        assert combined.replace is b.replace
        # concat with an empty side returns the other side unchanged
        assert PlanSlice.concat(EMPTY_SLICE, b) is b
        assert PlanSlice.concat(a, EMPTY_SLICE) is a


class TestRunSteps:
    def test_observation_returns_none_and_leaves_values(self):
        seen = []
        step_actions = [_action(ActionType.INSERT_BEFORE_OP,
                                func=lambda *a: seen.append(a))]
        values = [np.ones(2), np.zeros(2)]
        originals = list(values)
        mutated = run_steps(compile_forward_slice(step_actions).before,
                            values, NDARRAY_ADAPTER, _runner)
        assert not mutated
        assert values[0] is originals[0] and values[1] is originals[1]
        assert len(seen[0]) == 2  # None selector resolves to all values

    def test_replacement_written_back_through_adapter(self):
        step_actions = [_action(ActionType.INSERT_BEFORE_OP,
                                func=lambda a: a + 1, indices=(1,))]
        values = [np.zeros(2), np.zeros(2)]
        mutated = run_steps(compile_forward_slice(step_actions).before,
                            values, NDARRAY_ADAPTER, _runner)
        assert mutated
        np.testing.assert_array_equal(values[0], np.zeros(2))
        np.testing.assert_array_equal(values[1], np.ones(2))

    def test_kwargs_are_bound(self):
        step_actions = [_action(ActionType.INSERT_BEFORE_OP,
                                func=lambda a, scale: a * scale,
                                indices=(0,), kwargs={"scale": 3.0})]
        values = [np.ones(2)]
        run_steps(compile_forward_slice(step_actions).before, values,
                  NDARRAY_ADAPTER, _runner)
        np.testing.assert_array_equal(values[0], 3.0 * np.ones(2))

    def test_clamp_drops_out_of_range_and_skips_empty(self):
        calls = []
        step_actions = [_action(ActionType.INSERT_BEFORE_BACKWARD_OP,
                                func=lambda *a: calls.append(len(a)),
                                indices=(0, 5))]
        run_steps(compile_backward_slice(step_actions).before,
                  [np.ones(1)], NDARRAY_ADAPTER, _runner, clamp=True)
        assert calls == [1]  # index 5 clamped away
        # a selector that clamps to nothing skips the routine entirely
        step_actions = [_action(ActionType.INSERT_BEFORE_BACKWARD_OP,
                                func=lambda *a: calls.append(len(a)),
                                indices=(7,))]
        run_steps(compile_backward_slice(step_actions).before,
                  [np.ones(1)], NDARRAY_ADAPTER, _runner, clamp=True)
        assert calls == [1]

    def test_explicit_empty_selector_is_pure_trigger(self):
        fired = []
        step_actions = [_action(ActionType.INSERT_BEFORE_BACKWARD_OP,
                                func=lambda: fired.append(True),
                                indices=())]
        run_steps(compile_backward_slice(step_actions).before,
                  [np.ones(1)], NDARRAY_ADAPTER, _runner, clamp=True)
        assert fired == [True]


class TestClassification:
    def test_vanilla(self):
        plan = compile_actions([], epoch=0)
        assert plan.kind is PlanKind.VANILLA

    def test_observe_only(self):
        plan = compile_actions([_action(ActionType.INSERT_AFTER_OP)], epoch=0)
        assert plan.kind is PlanKind.INSTRUMENTED

    def test_replace_is_mutating(self):
        plan = compile_actions([_action(ActionType.REPLACE_OP)], epoch=0)
        assert plan.kind is PlanKind.INSTRUMENTED

    def test_backward_actions_are_mutating(self):
        plan = compile_actions(
            [_action(ActionType.INSERT_AFTER_BACKWARD_OP)], epoch=0)
        assert plan.kind is PlanKind.INSTRUMENTED

    def test_user_state_is_mutating(self):
        plan = compile_actions([], epoch=0, user_state=True)
        assert plan.kind is PlanKind.INSTRUMENTED

    def test_backward_actions_recorded_on_forward_list(self):
        # backward records historically store their actions in
        # forward_actions; the compiler re-partitions by ActionType
        record = CachedOpRecord()
        record.forward_actions = [
            _action(ActionType.INSERT_BEFORE_BACKWARD_OP, backward_op="g")]
        plan = compile_plan(record, epoch=0)
        assert plan.has_backward
        assert plan.forward.empty
        assert len(plan.backward_slice("g").before) == 1

    def test_backward_slice_is_memoized(self):
        plan = compile_actions(
            [_action(ActionType.INSERT_BEFORE_BACKWARD_OP)], epoch=0)
        assert plan.backward_slice("g") is plan.backward_slice("g")


class TestManagerPlanOwnership:
    def _record(self, *actions):
        record = CachedOpRecord()
        record.forward_actions = list(actions)
        return record

    def test_cache_store_compiles_plan(self):
        mgr = InstrumentationManager()
        record = self._record(_action(ActionType.INSERT_AFTER_OP))
        mgr.cache_store(7, record)
        assert record.plan is not None
        assert record.plan.kind is PlanKind.INSTRUMENTED
        assert record.plan.epoch == mgr.tool_epoch

    def test_cache_store_compiles_even_when_cache_disabled(self):
        mgr = InstrumentationManager()
        mgr.cache_enabled = False
        record = self._record()
        mgr.cache_store(7, record)
        assert record.plan is not None
        assert 7 not in mgr.action_cache

    def test_plan_for_recompiles_on_epoch_change(self):
        mgr = InstrumentationManager()
        record = self._record()
        mgr.cache_store(7, record)
        first = record.plan
        mgr.tool_epoch += 1
        plan = mgr.plan_for(record)
        assert plan is not first
        assert plan.epoch == mgr.tool_epoch
        assert plan.op_id == 7
        plans = mgr.snapshot()["plans"]
        assert (plans["compiled"], plans["recompiled"]) == (2, 1)

    def test_cache_append_invalidates_stale_fast_path(self):
        # a record promoted to the vanilla fast path must lose that
        # classification when a late action is appended (subgraph tools)
        mgr = InstrumentationManager()
        record = self._record()
        mgr.cache_store(7, record)
        assert record.plan.kind is PlanKind.VANILLA
        assert mgr.cache_append(7, _action(ActionType.INSERT_BEFORE_OP))
        plan = mgr.plan_for(record)
        assert plan.kind is PlanKind.INSTRUMENTED
        assert mgr.snapshot()["plans"]["recompiled"] == 1

    def test_cache_append_to_missing_record_still_false(self):
        mgr = InstrumentationManager()
        assert not mgr.cache_append(99, _action(ActionType.INSERT_BEFORE_OP))

    def test_plan_stats_shape(self):
        mgr = InstrumentationManager()
        mgr.cache_store(1, self._record())
        mgr.cache_store(2, self._record(_action(ActionType.INSERT_AFTER_OP)))
        stats = mgr.plan_stats()
        assert stats == mgr.snapshot()["plans"]
        assert stats["by_kind"] == {"vanilla": 1, "instrumented": 1}
        # storing compiles a plan; only a cached-path lookup replays one
        assert (stats["compiled"], stats["recompiled"], stats["replays"]) \
            == (2, 0, 0)


class TestPlanReplayEndToEnd:
    def test_eager_replay_counters_and_kinds(self, rng):
        model = M.LeNet()
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        tool = Tool("observer")
        tool.add_inst_for_op(
            lambda context: context.insert_after_op(lambda a: None and a))
        with amanda.apply(tool) as mgr:
            model(x)  # trace
            traced = mgr.snapshot()["plans"]
            model(x)  # replay
            model(x)  # replay
            replayed = mgr.snapshot()["plans"]
        ops = traced["by_kind"]["instrumented"]
        assert ops > 0 and sum(traced["by_kind"].values()) == ops
        # every op replays its plan on each later call, compiling nothing
        assert replayed["replays"] - traced["replays"] == 2 * ops
        assert replayed["compiled"] == traced["compiled"]

    def test_mutating_plan_replays_identically(self, rng):
        model = M.LeNet()
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        tool = Tool("halver")
        tool.add_inst_for_op(
            lambda context: context.replace_op(lambda *a: a[0] * 0.5)
            if context["type"] == "relu" else None)
        with amanda.apply(tool):
            traced = model(x).data.copy()
            replayed = model(x).data.copy()
        np.testing.assert_allclose(replayed, traced)

    def test_fig11_framework_plus_tool_bounded_by_wall(self, rng):
        """Timer regression (Fig. 11): the framework/tool breakdown of a
        profiled run can never exceed the measured wall time."""
        import time
        model = M.LeNet()
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        from repro.amanda.tools import FlopsProfilingTool
        with amanda.apply(FlopsProfilingTool()) as mgr:
            mgr.reset_timers()
            start = time.perf_counter()
            for _ in range(3):
                model(x)
            wall = time.perf_counter() - start
            timers = dict(mgr.timers)
        assert timers["tool"] > 0.0
        assert timers["framework"] > 0.0
        assert timers["framework"] + timers["tool"] <= wall


class TestNestedApplyScopes:
    """Satellite: nested ``apply()`` must invalidate cached fast paths so
    inner-scope tools get analyzed on ops already cached by the outer scope."""

    def test_epoch_bumped_and_cache_cleared_on_nested_apply(self, rng):
        model = M.LeNet()
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        outer = Tool("outer")
        outer.add_inst_for_op(lambda context: None)
        with amanda.apply(outer) as mgr:
            model(x)
            assert mgr.action_cache
            epoch_before = mgr.tool_epoch
            inner = Tool("inner")
            inner.add_inst_for_op(lambda context: None)
            with amanda.apply(inner):
                assert mgr.tool_epoch > epoch_before
                assert mgr.action_cache == {}
            # leaving the inner scope invalidates again
            assert mgr.tool_epoch > epoch_before + 1

    def test_inner_tool_analyzed_on_outer_cached_ops(self, rng):
        model = M.LeNet()
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        outer = Tool("outer")
        outer.add_inst_for_op(lambda context: None)
        inner_ops = []
        inner = Tool("inner")
        inner.add_inst_for_op(
            lambda context: inner_ops.append(context["type"]))
        with amanda.apply(outer):
            model(x)  # every op now cached (vanilla plans) by the outer scope
            model(x)
            with amanda.apply(inner):
                model(x)
        assert inner_ops, "inner-scope tool never saw the cached ops"

    def test_outer_scope_reanalyzes_after_inner_exits(self, rng):
        model = M.LeNet()
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        outer_calls = []
        outer = Tool("outer")
        outer.add_inst_for_op(lambda context: outer_calls.append(1))
        inner = Tool("inner")
        inner.add_inst_for_op(lambda context: None)
        with amanda.apply(outer):
            model(x)
            first = len(outer_calls)
            with amanda.apply(inner):
                model(x)
            after_inner = len(outer_calls)
            model(x)  # cache was cleared on inner exit: analysis reruns
            assert len(outer_calls) > after_inner > first
