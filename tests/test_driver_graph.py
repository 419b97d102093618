"""Graph driver: rewrite-time analysis, graph switching, graph-level cache."""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.graph as G
from repro.amanda import Tool, manager
from repro.eager import alloc
from repro.graph import builder as gb
from repro.tools.pruning import MagnitudePruningTool, magnitude_mask


@pytest.fixture
def small_graph(rng):
    with G.default_graph() as g:
        x = gb.placeholder(name="x")
        w = gb.variable(np.abs(rng.standard_normal((4, 3))) + 0.1, name="w")
        logits = gb.relu(gb.matmul(x, w))
        loss = gb.reduce_mean(gb.square(logits))
        (grad_w,) = G.gradients(loss, [w])
    return g, x, w, logits, loss, grad_w


class TestForwardInstrumentation:
    def test_insert_before_op(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "MatMul":
                context.insert_before_op(lambda wv: wv * 0.0, inputs=[1])

        tool.add_inst_for_op(analysis)
        sess = G.Session(g)
        with amanda.apply(tool):
            out = sess.run(logits, {x: np.abs(rng.standard_normal((2, 4)))})
        np.testing.assert_allclose(out, 0.0)

    def test_insert_after_op(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "Relu":
                context.insert_after_op(lambda y: y + 5.0, outputs=[0])

        tool.add_inst_for_op(analysis)
        xv = np.abs(rng.standard_normal((2, 4)))
        sess = G.Session(g)
        vanilla = sess.run(logits, {x: xv})
        with amanda.apply(tool):
            instrumented = sess.run(logits, {x: xv})
        np.testing.assert_allclose(instrumented, vanilla + 5.0)

    def test_replace_op_redirects_fetch(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = Tool("t")

        def analysis(context):
            if context["type"] == "Relu":
                context.replace_op(lambda a: np.full_like(a, 9.0))

        tool.add_inst_for_op(analysis)
        sess = G.Session(g)
        with amanda.apply(tool):
            out = sess.run(logits, {x: np.abs(rng.standard_normal((2, 4)))})
        np.testing.assert_allclose(out, 9.0)

    def test_static_variable_values_visible_in_analysis(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = Tool("t")
        captured = []

        def analysis(context):
            if context["type"] == "MatMul":
                captured.append(context.get_inputs()[1].data)

        tool.add_inst_for_op(analysis)
        with amanda.apply(tool):
            G.Session(g).run(logits, {x: np.abs(rng.standard_normal((2, 4)))})
        np.testing.assert_array_equal(captured[0], g.variables.read("w"))

    def test_placeholder_inputs_are_symbolic(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = Tool("t")
        captured = []

        def analysis(context):
            if context["type"] == "MatMul":
                captured.append(context.get_inputs()[0].data)

        tool.add_inst_for_op(analysis)
        with amanda.apply(tool):
            G.Session(g).run(logits, {x: np.abs(rng.standard_normal((2, 4)))})
        assert captured[0] is None


class TestBackwardInstrumentation:
    def test_after_backward_masks_gradient(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = Tool("t")

        def backward_analysis(context):
            if context.get("_backward_name") == "MatMul" and \
                    not context.is_forward():
                context.insert_after_backward_op(lambda gv: gv * 0.0)

        tool.add_inst_for_op(backward_analysis, backward=True)
        sess = G.Session(g)
        with amanda.apply(tool):
            gw = sess.run(grad_w, {x: np.abs(rng.standard_normal((2, 4)))})
        np.testing.assert_allclose(gw, 0.0)

    def test_backward_context_links_forward(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = Tool("t")
        pairs = []

        def backward_analysis(context):
            pairs.append((context["_raw_type"], context.get("_backward_name")))

        tool.add_inst_for_op(backward_analysis, backward=True)
        with amanda.apply(tool):
            G.Session(g).run(grad_w, {x: np.abs(rng.standard_normal((2, 4)))})
        assert ("Relu", "ReluGrad") in pairs


class TestGraphSwitching:
    def test_vanilla_graph_not_mutated(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        ops_before = len(g.operations)
        tool = Tool("t")
        tool.add_inst_for_op(lambda ctx: ctx.insert_after_op(
            lambda y: y, outputs=[0]) if ctx["type"] == "Relu" else None)
        with amanda.apply(tool):
            G.Session(g).run(logits, {x: np.abs(rng.standard_normal((2, 4)))})
        assert len(g.operations) == ops_before
        assert not any(op.type == "PyCall" for op in g.operations)

    def test_results_restored_after_apply(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        xv = np.abs(rng.standard_normal((2, 4)))
        sess = G.Session(g)
        vanilla = sess.run(loss, {x: xv})
        tool = Tool("t")
        tool.add_inst_for_op(lambda ctx: ctx.insert_before_op(
            lambda wv: wv * 0.0, inputs=[1]) if ctx["type"] == "MatMul" else None)
        with amanda.apply(tool):
            instrumented = sess.run(loss, {x: xv})
        restored = sess.run(loss, {x: xv})
        assert instrumented != vanilla
        assert restored == vanilla


class TestGraphLevelCache:
    def _counting_tool(self):
        tool = Tool("t")
        tool.calls = 0

        def analysis(context):
            if context["type"] == "MatMul":
                tool.calls += 1

        tool.add_inst_for_op(analysis)
        return tool

    def test_rewrite_happens_once_with_cache(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = self._counting_tool()
        sess = G.Session(g)
        with amanda.apply(tool):
            for _ in range(5):
                sess.run(logits, {x: np.abs(rng.standard_normal((2, 4)))})
        assert tool.calls == 1

    def test_rewrite_every_run_without_cache(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        tool = self._counting_tool()
        sess = G.Session(g)
        with amanda.apply(tool), amanda.cache_disabled():
            for _ in range(5):
                sess.run(logits, {x: np.abs(rng.standard_normal((2, 4)))})
        assert tool.calls == 5

    def test_replaced_toolset_finds_its_graph_again(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        first, second = self._counting_tool(), self._counting_tool()
        sess = G.Session(g)
        xv = np.abs(rng.standard_normal((2, 4)))
        with amanda.apply(first) as mgr:
            driver = next(d for d in mgr._drivers if d.namespace == "graph")
            sess.run(logits, {x: xv})
            for _ in range(3):
                mgr.replace_tools((second,))
                sess.run(logits, {x: xv})
                mgr.replace_tools((first,))
                sess.run(logits, {x: xv})
            assert driver.rewrite_count == 2
            assert driver.cache_misses == 2 and driver.cache_hits == 5
        assert first.calls == 1 and second.calls == 1

    def test_variable_state_shared_with_instrumented_graph(self, rng):
        with G.default_graph() as g:
            v = gb.variable(np.array([1.0]), name="v")
            update = gb.assign_add(v, gb.constant(np.array([1.0])))
        tool = Tool("t")
        tool.add_inst_for_op(lambda ctx: None)
        sess = G.Session(g)
        with amanda.apply(tool):
            sess.run(update.outputs[0])
        # the instrumented run mutated the shared store
        np.testing.assert_array_equal(g.variables.read("v"), [2.0])


class TestDetachResetsState:
    """attach -> detach -> attach must not leak state across tool epochs."""

    def test_detach_clears_graph_cache_and_stats(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        sess = G.Session(g)
        xv = np.abs(rng.standard_normal((2, 4)))

        tool = Tool("t")
        tool.add_inst_for_op(
            lambda context: context.insert_after_op(lambda a: a * 2.0)
            if context["type"] == "Relu" else None)
        with amanda.apply(tool) as mgr:
            driver = next(d for d in mgr._drivers if d.namespace == "graph")
            sess.run(logits, {x: xv})
            sess.run(logits, {x: xv})
            assert driver._graph_cache
            assert driver.rewrite_count == 1
            assert driver.cache_misses == 1 and driver.cache_hits == 1
        # deactivation detaches the driver: everything epoch-scoped is gone
        assert driver._graph_cache == {}
        assert driver.rewrite_count == 0
        assert driver.cache_hits == 0 and driver.cache_misses == 0
        assert driver.last_contexts == [] and driver.last_report is None

    def test_reattach_does_not_reuse_stale_entry(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        sess = G.Session(g)
        xv = np.abs(rng.standard_normal((2, 4)))
        vanilla = sess.run(logits, {x: xv})

        doubler = Tool("doubler")
        doubler.add_inst_for_op(
            lambda context: context.insert_after_op(lambda a: a * 2.0)
            if context["type"] == "Relu" else None)
        with amanda.apply(doubler):
            first = sess.run(logits, {x: xv})
        np.testing.assert_allclose(first, vanilla * 2.0)

        # a second epoch with a different tool must re-instrument from the
        # vanilla graph, not serve the doubler's cached rewrite
        tripler = Tool("tripler")
        tripler.add_inst_for_op(
            lambda context: context.insert_after_op(lambda a: a * 3.0)
            if context["type"] == "Relu" else None)
        with amanda.apply(tripler) as mgr:
            driver = next(d for d in mgr._drivers if d.namespace == "graph")
            second = sess.run(logits, {x: xv})
            assert driver.cache_misses == 1 and driver.cache_hits == 0
        np.testing.assert_allclose(second, vanilla * 3.0)


class TestApplyScopeReanalyses:
    """The instrumented-graph cache lives for one attachment: a tool applied
    again in a later scope analyses the graph against current values."""

    def test_second_scope_masks_with_the_new_weights(self, rng):
        old = rng.standard_normal((4, 3))
        new = rng.standard_normal((4, 3))
        assert not np.array_equal(magnitude_mask(old, 0.5),
                                  magnitude_mask(new, 0.5))
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            out = gb.matmul(x, gb.variable(old, name="w"))
        sess = G.Session(g)
        xv = rng.standard_normal((2, 4))
        tool = MagnitudePruningTool(sparsity=0.5)

        with amanda.apply(tool):
            first = sess.run(out, {x: xv})
        g.variables.write("w", new)
        with amanda.apply(tool):
            second = sess.run(out, {x: xv})

        (mask,) = tool.masks.values()
        np.testing.assert_array_equal(mask, magnitude_mask(new, 0.5))
        np.testing.assert_allclose(first, xv @ (old * magnitude_mask(old, 0.5)))
        np.testing.assert_allclose(second,
                                   xv @ (new * magnitude_mask(new, 0.5)))


class TestRewriteCharge:
    """A rewrite charges its graph to the ``amanda`` allocation scope for
    as long as the graph is kept, and no longer."""

    @staticmethod
    def _doubler():
        tool = Tool("doubler")
        tool.add_inst_for_op(
            lambda context: context.insert_after_op(lambda a: a * 2.0)
            if context["type"] == "Relu" else None)
        return tool

    def test_scope_exit_releases_the_cached_graph(self, rng, small_graph):
        g, x, w, logits, loss, grad_w = small_graph
        sess = G.Session(g)
        live, total = alloc.tracker.live["amanda"], \
            alloc.tracker.total_allocated["amanda"]
        charge = 512 * len(g.operations)
        with amanda.apply(self._doubler()):
            for _ in range(3):
                sess.run(logits, {x: np.abs(rng.standard_normal((2, 4)))})
            assert alloc.tracker.live["amanda"] == live + charge
        assert alloc.tracker.live["amanda"] == live
        assert alloc.tracker.total_allocated["amanda"] == total + charge

    def test_eviction_and_uncached_runs_release(self, rng):
        graphs = []
        for _ in range(2):
            with G.default_graph() as g:
                x = gb.placeholder(name="x")
                w = gb.variable(np.ones((4, 3)), name="w")
                graphs.append((g, x, gb.relu(gb.matmul(x, w))))
        xv = np.abs(rng.standard_normal((2, 4)))
        live = alloc.tracker.live["amanda"]
        charge = 512 * len(graphs[0][0].operations)
        with amanda.apply(self._doubler()), amanda.plan_cache_size(1):
            for g, x, out in graphs:
                G.Session(g).run(out, {x: xv})
            # the second graph evicted the first
            assert alloc.tracker.live["amanda"] == live + charge
            with amanda.cache_disabled():
                g, x, out = graphs[0]
                G.Session(g).run(out, {x: xv})
                assert alloc.tracker.live["amanda"] == live + charge
        assert alloc.tracker.live["amanda"] == live
