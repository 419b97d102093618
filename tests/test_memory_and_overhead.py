"""Memory attribution (Fig. 13 machinery) and overhead sanity (Fig. 10)."""

import statistics
import time

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.graph as G
import repro.models.eager as M
import repro.models.graph as GM
from repro.amanda import Tool
from repro.amanda.tools import ExecutionTraceTool, GraphTracingTool
from repro.eager import alloc


class TestMemoryAttribution:
    def test_dnn_allocations_dominant_without_tools(self, rng):
        alloc.tracker.reset()
        M.LeNet()(E.tensor(rng.standard_normal((2, 3, 16, 16))))
        snapshot = alloc.tracker.snapshot()
        assert snapshot["total"]["dnn"] > 0
        assert snapshot["total"]["tool"] == 0

    def test_tool_allocations_attributed(self, rng):
        class CopyTool(Tool):
            def __init__(self):
                super().__init__()
                self.add_inst_for_op(self.analysis)

            def analysis(self, context):
                if context["type"] == "conv2d":
                    context.insert_after_op(
                        lambda y: E.Tensor(y.copy()) and None, outputs=[0])

        alloc.tracker.reset()
        with amanda.apply(CopyTool()):
            M.LeNet()(E.tensor(rng.standard_normal((2, 3, 16, 16))))
        snapshot = alloc.tracker.snapshot()
        assert snapshot["total"]["tool"] > 0
        assert snapshot["total"]["dnn"] > snapshot["total"]["tool"]

    def test_graph_mode_attribution(self, rng):
        gm = GM.build_mlp()
        tool = Tool("t")
        tool.add_inst_for_op(
            lambda ctx: ctx.insert_after_op(lambda y: y + 0.0, outputs=[0])
            if ctx["type"] == "Relu" else None)
        alloc.tracker.reset()
        sess = gm.session()
        with amanda.apply(tool):
            sess.run(gm.logits, {gm.inputs: rng.standard_normal((4, 16))})
        snapshot = alloc.tracker.snapshot()
        assert snapshot["total"]["tool"] > 0

    def test_memory_overhead_small_fraction(self, rng):
        """Fig. 13 shape: Amanda+tool memory is a minor share of the total."""
        tracer = GraphTracingTool()
        alloc.tracker.reset()
        with amanda.apply(tracer):
            M.resnet18()(E.tensor(rng.standard_normal((4, 3, 16, 16))))
        totals = alloc.tracker.snapshot()["total"]
        overhead = totals["tool"] + totals["amanda"]
        assert overhead <= 0.25 * totals["dnn"]


class TestOverhead:
    @staticmethod
    def _elapsed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    @staticmethod
    def _medians(*sides, rounds=9):
        """Each side's median time over ``rounds``.

        A side is a callable that returns the time of one timed call.  The
        sides take turns round by round, so a host stall lands on one
        round's samples rather than on all of one side's.
        """
        samples = [[] for _ in sides]
        for _ in range(rounds):
            for side, times in zip(sides, samples):
                times.append(side())
        return [statistics.median(times) for times in samples]

    def _vanilla_and_instrumented(self, model, x, tool):
        def instrumented():
            with amanda.apply(tool):
                model(x)  # untimed: each scope starts with an empty cache
                return self._elapsed(lambda: model(x))

        return self._medians(lambda: self._elapsed(lambda: model(x)),
                             instrumented)

    def test_eager_tracing_overhead_moderate(self, rng):
        model = M.resnet18()
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        vanilla, instrumented = self._vanilla_and_instrumented(
            model, x, GraphTracingTool())
        # the paper reports <1% on GPUs; our numpy ops are far cheaper than
        # CUDA kernels so allow a loose bound — the point is same order
        assert instrumented < vanilla * 2.0

    def test_empty_toolset_near_zero_overhead(self, rng):
        model = M.LeNet()
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        noop = Tool("noop")
        noop.add_inst_for_op(lambda ctx: None)
        vanilla, instrumented = self._vanilla_and_instrumented(model, x, noop)
        assert instrumented < vanilla * 2.0

    def test_cache_reduces_repeated_cost(self, rng):
        """Fig. 12 shape: disabling the cache costs extra time per run."""
        model = M.resnet18()
        x = E.tensor(rng.standard_normal((1, 3, 16, 16)))
        from repro.amanda.tools import MagnitudePruningTool

        def cached():
            model(x)  # untimed: refill the cache cache_disabled() cleared
            return self._elapsed(lambda: model(x))

        def uncached():
            with amanda.cache_disabled():
                return self._elapsed(lambda: model(x))

        with amanda.apply(MagnitudePruningTool(sparsity=0.5)):
            cached_s, uncached_s = self._medians(cached, uncached)
        # medians + a small tolerance keep this robust under machine load
        assert uncached_s > cached_s * 0.9

    def test_timer_breakdown_accumulates(self, rng):
        amanda.manager.reset_timers()
        tracer = ExecutionTraceTool()
        with amanda.apply(tracer):
            M.LeNet()(E.tensor(rng.standard_normal((1, 3, 16, 16))))
            timers = dict(amanda.manager.timers)
        assert timers["tool"] > 0
        assert timers["framework"] > 0
