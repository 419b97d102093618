"""Slot-table execution: equivalence across modes, steady state, lifecycle.

The slot-table executor must be invisible except for speed and memory: with
or without a memory budget, instrumented or quarantined, on a first run or
a warm repeat, the results are bit-identical.  Repeat runs of one plan reach
a steady state — no recompile, no growth of the tracked peak — and every
byte a run charges to the allocation tracker comes back out by the time the
run returns.  (The module name dates from the pooled buffer arena the
executor once recycled its outputs through.)
"""

import gc

import numpy as np
import pytest

import repro.amanda as amanda
import repro.graph as G
import repro.models.graph as GM
from repro.amanda.tools import ExecutionTraceTool
from repro.analysis.remat import plan_remat_for_graph
from repro.eager import alloc
from repro.graph import builder as gb
from repro.tools.faulty import FaultyTool

ZOO = [
    (GM.build_mlp, (8, 16)),
    (GM.build_vgg, (2, 16, 16, 3)),
    (GM.build_resnet, (2, 16, 16, 3)),
    (GM.build_mobilenet_v2, (2, 16, 16, 3)),
    (GM.build_inception_v3, (2, 16, 16, 3)),
]


@pytest.fixture(autouse=True)
def _quiet_tracker():
    """Start each test from a tracker no earlier test can still move.

    Eager tensors release their tracker bytes when collected; earlier tests
    leave some in reference cycles, and a collection during a run here
    would lower the live bytes these tests compare exactly.
    """
    gc.collect()
    alloc.tracker.reset()
    yield
    gc.collect()


def _zoo_feed(gm, rng, input_shape):
    return {gm.inputs: rng.standard_normal(input_shape),
            gm.labels: rng.integers(0, 4, input_shape[0])}


def _assert_same(expected, actual):
    for want, got in zip(expected, actual):
        np.testing.assert_array_equal(np.asarray(want), np.asarray(got))


def _budget_below_peak(gm, fetches, feed, fraction=0.6):
    """A memory budget under the plan's unbudgeted last-use peak."""
    shapes = {tensor.op.name: np.shape(value) for tensor, value in feed.items()}
    static = plan_remat_for_graph(gm.graph, fetches, budget=1 << 60,
                                  feed_shapes=shapes)
    return int(static.baseline_serial_peak * fraction)


def _runs_across_modes(sess, fetches, feed, budget):
    """Yield (first, repeat, compiled) without and with a memory budget."""
    for budget_bytes in (0, budget):
        with amanda.memory_budget(budget_bytes):
            got = sess.run(fetches, feed)
            # steady state: run the cached plan again
            again = sess.run(fetches, feed)
            yield got, again, sess.last_compiled


class TestBitEquivalence:
    """unbudgeted == budgeted (remat), first run == warm repeat."""

    @pytest.mark.parametrize("builder,input_shape", ZOO)
    def test_zoo_bitwise_equal_across_modes(self, rng, builder, input_shape):
        gm = builder()
        feed = _zoo_feed(gm, rng, input_shape)
        fetches = [gm.logits, gm.loss]
        budget = _budget_below_peak(gm, fetches, feed)
        with gm.session() as sess:
            baseline = sess.run(fetches, feed)
            modes = list(_runs_across_modes(sess, fetches, feed, budget))
        for got, again, _ in modes:
            _assert_same(baseline, got)
            _assert_same(baseline, again)
        (_, _, plain), (_, _, budgeted) = modes
        assert plain.remat is None
        assert budgeted.remat is not None and budgeted.remat_error is None
        assert budgeted.remat.num_recomputes > 0

    def test_bert_bitwise_equal_across_modes(self, rng):
        gm = GM.build_bert()
        feed = {gm.inputs: rng.integers(0, 32, (2, 16)),
                gm.labels: np.zeros((2, 16), dtype=int)}
        fetches = [gm.logits, gm.loss]
        budget = _budget_below_peak(gm, fetches, feed)
        with gm.session() as sess:
            baseline = sess.run(fetches, feed)
            modes = list(_runs_across_modes(sess, fetches, feed, budget))
        for got, again, _ in modes:
            _assert_same(baseline, got)
            _assert_same(baseline, again)
        assert modes[1][2].remat.num_recomputes > 0

    def test_instrumented_run_bitwise_equal(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        fetches = [gm.logits, gm.loss]
        budget = _budget_below_peak(gm, fetches, feed)
        with gm.session() as sess:
            baseline = sess.run(fetches, feed)
            with amanda.apply(ExecutionTraceTool()):
                for got, again, _ in _runs_across_modes(sess, fetches, feed,
                                                        budget):
                    _assert_same(baseline, got)
                    _assert_same(baseline, again)

    def test_quarantined_run_bitwise_equal(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess:
            baseline = sess.run([gm.logits, gm.loss], feed)
            tool = FaultyTool(always=True)
            with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
                got = sess.run([gm.logits, gm.loss], feed)
                assert tool.name in mgr.quarantined
            _assert_same(baseline, got)


class TestArenaSteadyState:
    """Repeat runs settle: the plan is reused and the tracked peak stops
    growing after the first run."""

    @pytest.mark.parametrize("builder,input_shape", [
        (GM.build_mlp, (8, 16)),
        (GM.build_resnet, (2, 16, 16, 3)),
    ])
    def test_zero_fresh_growths_on_second_run(self, rng, builder,
                                              input_shape):
        gm = builder()
        feed = _zoo_feed(gm, rng, input_shape)
        with gm.session() as sess:
            sess.run([gm.logits, gm.loss], feed)
            compiled = sess.last_compiled
            peak = alloc.tracker.peak["dnn"]
            assert peak > 0
            assert alloc.tracker.live["dnn"] == 0
            sess.run([gm.logits, gm.loss], feed)
            assert sess.last_compiled is compiled
            assert alloc.tracker.peak["dnn"] == peak, \
                "steady-state run grew the tracked peak"
            assert alloc.tracker.live["dnn"] == 0

    def test_fetched_values_survive_pool_recycling(self, rng):
        # the run frees its intermediates and a later run reuses the plan's
        # slot table: neither may touch a value the caller already holds
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess:
            first = sess.run(gm.logits, feed)
            snapshot = np.array(first)
            sess.run(gm.logits,
                     _zoo_feed(gm, np.random.default_rng(7), (8, 16)))
            again = sess.run(gm.logits, feed)
            np.testing.assert_array_equal(first, snapshot)
            np.testing.assert_array_equal(first, np.asarray(again))
            assert not np.shares_memory(first, again)


class TestSessionLifecycle:
    """A run hands back every tracked byte; close() drops the plans."""

    def test_context_manager_closes(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess:
            sess.run([gm.logits, gm.loss], feed)
        assert alloc.tracker.live.get("dnn", 0) == 0
        assert len(sess._plan_cache) == 0

    def test_variable_aliased_outputs_not_double_counted(self, rng):
        # an Identity of a Variable returns the variable's own array: the
        # executor must not charge it to the run's allocation accounting
        with G.default_graph() as g:
            v = gb.variable(rng.standard_normal((64,)), name="v")
            out = gb.identity(v)
        before = alloc.tracker.live.get("dnn", 0)
        sess = G.Session(g)
        value = sess.run(out)
        assert alloc.tracker.live.get("dnn", 0) == before
        np.testing.assert_array_equal(value, g.variables.read("v"))
        sess.close()


class TestPlanCacheLRU:
    """The plan cache is bounded: cycling fetch sets cannot grow it."""

    def test_cache_evicts_beyond_bound(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        fetch_sets = [[gm.logits], [gm.loss], [gm.logits, gm.loss],
                      [gm.loss, gm.logits]]
        with gm.session() as sess, amanda.plan_cache_size(2):
            for _ in range(3):  # cycle to exercise eviction + re-admission
                for fetches in fetch_sets:
                    sess.run(fetches, feed)
                    assert len(sess._plan_cache) <= 2

    def test_lru_keeps_hot_entry(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess, amanda.plan_cache_size(2):
            sess.run(gm.logits, feed)
            hot = next(iter(sess._plan_cache))
            sess.run(gm.loss, feed)
            sess.run(gm.logits, feed)  # refresh the hot entry
            sess.run([gm.logits, gm.loss], feed)  # evicts the cold one
            assert hot in sess._plan_cache

    def test_results_identical_after_eviction(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess:
            want = sess.run(gm.logits, feed)
            with amanda.plan_cache_size(1):
                sess.run(gm.loss, feed)  # evicts the logits plan
                got = sess.run(gm.logits, feed)  # recompiles
            np.testing.assert_array_equal(np.asarray(want), np.asarray(got))

    def test_env_knob_parsed(self, monkeypatch):
        monkeypatch.setenv("AMANDA_PLAN_CACHE_SIZE", "7")
        cfg = amanda.Config()
        assert cfg.plan_cache_size == 7
        monkeypatch.setenv("AMANDA_PLAN_CACHE_SIZE", "0")
        cfg.refresh_from_env()
        assert cfg.plan_cache_size == 1  # clamped to a sane floor
