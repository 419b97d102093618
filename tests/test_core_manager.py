"""Tool management: dependency resolution, cycles, control APIs, interceptor."""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.eager.functional as F
from repro.amanda import Interceptor, Tool, manager
from repro.core.faults import FALLBACK_REASONS
from repro.core.manager import CachedOpRecord, InstrumentationManager


def make_tool(name: str) -> Tool:
    return Tool(name=name)


class TestDependencyResolution:
    def test_dependencies_run_first(self):
        base = make_tool("base")
        dependent = make_tool("dependent")
        dependent.depends_on(base)
        order = manager.resolve_tools((dependent,))
        assert order == [base, dependent]

    def test_diamond_dependency_deduplicated(self):
        shared = make_tool("shared")
        left, right = make_tool("left"), make_tool("right")
        left.depends_on(shared)
        right.depends_on(shared)
        top = make_tool("top")
        top.depends_on(left, right)
        order = manager.resolve_tools((top,))
        assert order.count(shared) == 1
        assert order.index(shared) < order.index(left)

    def test_cycle_detected(self):
        a, b = make_tool("a"), make_tool("b")
        a.depends_on(b)
        b.depends_on(a)
        with pytest.raises(ValueError, match="cycle"):
            manager.resolve_tools((a,))

    def test_self_cycle_detected(self):
        a = make_tool("a")
        a.depends_on(a)
        with pytest.raises(ValueError, match="cycle"):
            manager.resolve_tools((a,))

    def test_multiple_roots_all_included(self):
        a, b = make_tool("a"), make_tool("b")
        order = manager.resolve_tools((a, b))
        assert order == [a, b]


class TestApplyLifecycle:
    def test_apply_activates_and_restores(self):
        tool = make_tool("t")
        assert not manager.active
        with amanda.apply(tool):
            assert manager.active
            assert tool in manager.tools
        assert not manager.active

    def test_nested_apply_unions_tools(self):
        a, b = make_tool("a"), make_tool("b")
        with amanda.apply(a):
            with amanda.apply(b):
                assert a in manager.tools and b in manager.tools
            # inner exit keeps the outer scope alive, without the inner tool
            assert manager.active
            assert manager.tools == [a]
        assert not manager.active

    def test_inner_scope_tools_stop_at_its_exit(self):
        calls = {"a": 0, "b": 0}
        removed = []

        class Counting(Tool):
            def on_remove(self):
                removed.append(self.name)

        a, b = Counting("a"), Counting("b")
        for tool in (a, b):
            tool.add_inst_for_op(
                lambda context, name=tool.name: calls.__setitem__(
                    name, calls[name] + 1))
        with amanda.apply(a):
            with amanda.apply(b):
                F.relu(E.tensor(np.ones(1)))
            assert removed == ["b"]
            F.relu(E.tensor(np.ones(1)))
        assert calls == {"a": 2, "b": 1}
        assert removed == ["b", "a"]

    def test_failed_on_apply_closes_the_scope(self):
        events = []

        class Recording(Tool):
            def on_apply(self):
                events.append(("apply", self.name))

            def on_remove(self):
                events.append(("remove", self.name))

        class Failing(Tool):
            def on_apply(self):
                raise RuntimeError("on_apply failed")

        outer = Recording("outer")
        ok, bad, late = Recording("ok"), Failing("bad"), Recording("late")
        with amanda.apply(outer):
            with pytest.raises(RuntimeError, match="on_apply failed"):
                with amanda.apply(ok, bad, late):
                    pytest.fail("the block ran although on_apply raised")
            # the enclosing scope is back as it was
            assert manager.tools == [outer]
        with pytest.raises(RuntimeError, match="on_apply failed"):
            with amanda.apply(bad):
                pytest.fail("the block ran although on_apply raised")
        assert not manager.active and manager.tools == []
        assert not manager._drivers
        # only tools whose on_apply ran get on_remove
        assert events == [("apply", "outer"), ("apply", "ok"),
                          ("remove", "ok"), ("remove", "outer")]
        manager.deactivate()  # no scope open: a no-op
        assert not manager.active

    def test_failed_replace_keeps_only_applied_tools(self):
        events = []

        class Recording(Tool):
            def on_apply(self):
                events.append(("apply", self.name))

            def on_remove(self):
                events.append(("remove", self.name))

        class Failing(Tool):
            def on_apply(self):
                raise RuntimeError("on_apply failed")

        old, ok, late = Recording("old"), Recording("ok"), Recording("late")
        with amanda.apply(old):
            with pytest.raises(RuntimeError, match="on_apply failed"):
                manager.replace_tools((ok, Failing("bad"), late))
            assert manager.tools == [ok]
        assert not manager.active
        assert events == [("apply", "old"), ("remove", "old"),
                          ("apply", "ok"), ("remove", "ok")]

    def test_on_apply_on_remove_called(self):
        events = []

        class LifecycleTool(Tool):
            def on_apply(self):
                events.append("apply")

            def on_remove(self):
                events.append("remove")

        with amanda.apply(LifecycleTool()):
            pass
        assert events == ["apply", "remove"]

    def test_epoch_bumped_on_toolset_change(self):
        before = manager.tool_epoch
        with amanda.apply(make_tool("t")):
            during = manager.tool_epoch
        assert during > before
        assert manager.tool_epoch > during


class TestSnapshot:
    def test_fresh_manager_reports_every_key_at_zero(self):
        report = InstrumentationManager().snapshot()
        assert set(report) == {"faults", "fallbacks", "plans", "kernels"}
        assert report["faults"] == {
            "policy": "raise", "errors": 0, "by_tool": {}, "by_i_point": {},
            "by_op": {}, "quarantined": [], "recent": []}
        assert report["fallbacks"] == dict.fromkeys(FALLBACK_REASONS, 0)
        assert report["plans"] == {
            "compiled": 0, "recompiled": 0, "replays": 0,
            "by_kind": {"vanilla": 0, "instrumented": 0}}
        assert set(report["kernels"]) == {"launches", "subscribers"}

    def test_unknown_fallback_reason_is_rejected(self):
        with pytest.raises(KeyError):
            InstrumentationManager().count_fallback("eager.recovered")


class TestControlAPIs:
    def test_disabled_suppresses_activity(self):
        with amanda.apply(make_tool("t")):
            assert manager.active
            with amanda.disabled():
                assert not manager.active
            assert manager.active

    def test_enabled_reenables_inside_disabled(self):
        with amanda.apply(make_tool("t")):
            with amanda.disabled():
                with amanda.enabled():
                    assert manager.active

    def test_cache_disabled_clears_and_restores(self):
        manager.action_cache[123] = CachedOpRecord()
        with amanda.cache_disabled():
            assert not manager.cache_enabled
            assert 123 not in manager.action_cache
            assert manager.cache_lookup(123) is None
        assert manager.cache_enabled
        manager.action_cache.clear()

    def test_cache_store_respects_flag(self):
        with amanda.cache_disabled():
            manager.cache_store(1, CachedOpRecord())
            assert 1 not in manager.action_cache

    def test_allow_instrumented_ad(self):
        assert not manager.instrumented_ad
        with amanda.allow_instrumented_ad():
            assert manager.instrumented_ad
        assert not manager.instrumented_ad

    def test_cache_append_to_missing_record(self):
        from repro.amanda import Action, ActionType
        action = Action(ActionType.INSERT_BEFORE_OP, lambda *a: None)
        assert not manager.cache_append(999_999, action)


class TestInterceptor:
    class Target:
        def __init__(self):
            self.value = "original"

    def test_patch_and_restore(self):
        target = self.Target()
        interceptor = Interceptor()
        interceptor.patch(target, "value", "patched")
        assert target.value == "patched"
        interceptor.restore_all()
        assert target.value == "original"

    def test_lifo_restore_order(self):
        target = self.Target()
        interceptor = Interceptor()
        interceptor.patch(target, "value", "first")
        interceptor.patch(target, "value", "second")
        interceptor.restore_all()
        assert target.value == "original"

    def test_missing_attribute_deleted_on_restore(self):
        target = self.Target()
        interceptor = Interceptor()
        interceptor.patch(target, "added", 42)
        assert target.added == 42
        interceptor.restore_all()
        assert not hasattr(target, "added")

    def test_context_manager(self):
        target = self.Target()
        with Interceptor() as interceptor:
            interceptor.patch(target, "value", "inside")
            assert target.value == "inside"
        assert target.value == "original"

    def test_active_patch_count(self):
        interceptor = Interceptor()
        target = self.Target()
        interceptor.patch(target, "value", 1)
        assert interceptor.active_patch_count == 1
        interceptor.restore_all()
        assert interceptor.active_patch_count == 0
