"""Memory-budgeted execution: static rematerialization schedules.

The planner (``repro.analysis.remat``) turns a compiled plan plus per-op
byte costs into a keep-vs-recompute schedule whenever the liveness bound
exceeds ``amanda.config.memory_budget``; the slot-table executor then runs
recomputes as extra slot entries.  These tests cover the planner in
isolation (chain/ladder graphs with hand-computable byte counts) and the
full lowering: bit-identical outputs on 1 and 4 concurrent threads,
instrumented and quarantined runs, training steps with in-place optimizer
updates, seeded dropout recompute determinism, and the tracked peak
equalling the schedule's simulated peak over 1 and 4 InceptionV3 training
steps.  The schedules of the analysis CLI's model zoo are pinned exactly, and
the CLI rejects a malformed ``--budget``.
"""

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager.alloc as alloc
import repro.graph as G
import repro.models.graph.builders as GM
from repro.analysis.__main__ import _build_examples, main
from repro.analysis.remat import plan_remat_for_graph
from repro.graph import builder as gb
from repro.tools.faulty import FaultyTool

FEEDS = {"x": (32, 64)}
ACT = 32 * 64 * 8  # bytes of one (32, 64) float64 activation


def ladder_graph(depth=12, seed=None):
    """Activations read both early and late: eviction genuinely helps.

    Every rung feeds the next relu *and* a final sum, so without remat all
    ``depth`` activations are live at the reduction.  With ``seed`` the
    first rung is a seeded dropout (an eviction candidate whose recompute
    must replay the stashed seed).
    """
    with G.default_graph() as g:
        x = gb.placeholder(name="x")
        h = gb.dropout(x, rate=0.5, seed=seed, name="Drop") \
            if seed is not None else x
        acts = [h] if seed is not None else []
        for _ in range(depth):
            h = gb.relu(h)
            acts.append(h)
        total = acts[0]
        for a in acts[1:]:
            total = total + a
        out = gb.reduce_mean(total)
    return g, x, out


class TestPlanner:
    def test_generous_budget_keeps_base_plan(self):
        g, x, out = ladder_graph()
        sched = plan_remat_for_graph(g, [out], budget=1 << 60,
                                     feed_shapes=FEEDS)
        assert sched.feasible
        assert sched.num_recomputes == 0
        assert sched.evicted == ()
        assert sched.serial_peak == sched.baseline_serial_peak
        # with nothing evicted the instance list is exactly the base plan
        assert sched.instances == sorted(sched.instances)

    def test_ladder_eviction_fits_budget(self):
        g, x, out = ladder_graph()
        base = plan_remat_for_graph(g, [out], budget=1 << 60,
                                    feed_shapes=FEEDS)
        assert base.baseline_serial_peak == 13 * ACT  # 12 rungs + accumulator
        budget = 8 * ACT
        sched = plan_remat_for_graph(g, [out], budget=budget,
                                     feed_shapes=FEEDS)
        assert sched.num_recomputes > 0
        assert sched.serial_peak <= budget
        assert sched.feasible
        assert sched.recompute_flops > 0

    def test_chain_fallback_never_worse_than_baseline(self):
        """A pure chain's peak (producer + consumer) is irreducible; below
        that floor the planner must return the plain last-use-release plan
        rather than an eviction schedule that recomputes for nothing."""
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            h = x
            for _ in range(8):
                h = gb.relu(h)
            out = gb.reduce_mean(h)
        sched = plan_remat_for_graph(g, [out], budget=ACT,
                                     feed_shapes=FEEDS)
        assert not sched.feasible
        assert sched.num_recomputes == 0
        assert sched.serial_peak == sched.baseline_serial_peak == 2 * ACT

    def test_unseeded_dropout_is_pinned(self):
        """RNG consumers must execute exactly once; only the seeded variant
        may be evicted (its recompute replays the stashed seed)."""
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            du = gb.dropout(x, rate=0.5, seed=None, name="DropU")
            ds = gb.dropout(x, rate=0.5, seed=7, name="DropS")
            h = du + ds
            for _ in range(6):
                h = gb.relu(h)
            out = gb.reduce_mean(h + du + ds)
        sched = plan_remat_for_graph(g, [out], budget=2 * ACT,
                                     feed_shapes=FEEDS)
        assert "DropU" not in sched.evicted

    def test_schedule_str_reports_verdict(self):
        g, x, out = ladder_graph()
        sched = plan_remat_for_graph(g, [out], budget=8 * ACT,
                                     feed_shapes=FEEDS)
        text = str(sched)
        assert "recomputes" in text and "fits" in text


def _on_threads(fn, workers):
    """Call ``fn()`` on ``workers`` threads released together; results in
    thread order."""
    barrier = threading.Barrier(workers, timeout=60)

    def call(_):
        barrier.wait()
        return fn()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, range(workers)))


class TestLadderExecution:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_bit_identical_under_budget(self, rng, workers):
        """The budgeted plan stays bit-identical when ``workers`` threads
        run it at once on one session (the serving runtime's case)."""
        g, x, out = ladder_graph()
        xv = rng.standard_normal((32, 64))
        with G.Session(g) as sess:
            vanilla = sess.run(out, {x: xv})
            with amanda.memory_budget(8 * ACT):
                budgeted = _on_threads(lambda: sess.run(out, {x: xv}),
                                       workers)
                compiled = sess.last_compiled
        assert compiled.remat is not None
        assert compiled.remat_error is None
        assert compiled.remat.num_recomputes > 0
        for got in budgeted:
            np.testing.assert_array_equal(vanilla, got)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_seeded_dropout_recompute_determinism(self, rng, workers):
        """Recomputing a seeded dropout replays the stashed seed: repeated
        budgeted runs, on any number of threads at once, and the unbudgeted
        run all agree bit-for-bit."""
        g, x, out = ladder_graph(depth=10, seed=7)
        xv = rng.standard_normal((32, 64))
        with G.Session(g) as sess:
            vanilla = sess.run(out, {x: xv})
            with amanda.memory_budget(8 * ACT):
                first = sess.run(out, {x: xv})
                repeats = _on_threads(lambda: sess.run(out, {x: xv}),
                                      workers)
                compiled = sess.last_compiled
        assert compiled.remat is not None and compiled.remat_error is None
        np.testing.assert_array_equal(vanilla, first)
        for second in repeats:
            np.testing.assert_array_equal(first, second)

    def test_instrumented_run_stays_bit_identical(self, rng):
        """PyCall instrumentation points are pinned (never recomputed), so a
        tool observes each op exactly once and outputs stay vanilla."""
        from repro.tools.memory import MemoryProfilingTool

        g, x, out = ladder_graph()
        xv = rng.standard_normal((32, 64))
        with G.Session(g) as sess:
            vanilla = sess.run(out, {x: xv})
            tool = MemoryProfilingTool()
            with amanda.memory_budget(8 * ACT), amanda.apply(tool):
                instrumented = sess.run(out, {x: xv})
        np.testing.assert_array_equal(vanilla, instrumented)
        assert len(tool.order) > 0  # the tool really saw the ops

    def test_quarantined_run_stays_bit_identical(self, rng):
        g, x, out = ladder_graph()
        xv = rng.standard_normal((32, 64))
        with G.Session(g) as sess:
            vanilla = sess.run(out, {x: xv})
            tool = FaultyTool(i_point="after_forward_op",
                              mode="instrumentation", op_type="Relu")
            with amanda.memory_budget(8 * ACT), \
                    amanda.error_policy("quarantine"), \
                    amanda.apply(tool) as mgr:
                out1 = sess.run(out, {x: xv})
                assert tool.name in mgr.quarantined
                out2 = sess.run(out, {x: xv})
        np.testing.assert_array_equal(out1, vanilla)
        np.testing.assert_array_equal(out2, vanilla)


class TestInceptionTraining:
    BUDGET = 3_000_000

    def _train(self, xv, yv, budget=None, steps=2):
        gm = GM.build_inception_v3(learning_rate=0.1)
        scope = amanda.memory_budget(budget) if budget \
            else contextlib.nullcontext()
        losses = []
        with gm.session() as sess, scope:
            alloc.tracker.reset()
            for _ in range(steps):
                loss, _ = sess.run([gm.loss, gm.train_op],
                                   {gm.inputs: xv, gm.labels: yv})
                losses.append(np.asarray(loss))
            measured = sum(alloc.tracker.peak.values())
            compiled = sess.last_compiled
        return losses, measured, compiled

    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(7)
        return (rng.standard_normal((4, 32, 32, 3)),
                rng.integers(0, 4, 4))

    @pytest.fixture(scope="class")
    def vanilla(self, batch):
        return self._train(*batch, steps=4)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_training_bit_identical_and_within_budget(self, batch, vanilla,
                                                      steps):
        """Budgeted training steps (in-place AssignSub weight updates, which
        compound from step to step) match the unbudgeted run bit-for-bit,
        and the tracked peaks equal the static bounds: the schedule's peak
        under the budget, the plain last-use bound without one."""
        van_losses, van_measured, _ = vanilla
        losses, measured, compiled = self._train(*batch, budget=self.BUDGET,
                                                 steps=steps)
        assert len(losses) == steps
        for expected, got in zip(van_losses, losses):
            np.testing.assert_array_equal(expected, got)
        remat = compiled.remat
        assert remat is not None
        assert compiled.remat_error is None
        assert remat.feasible
        assert remat.num_recomputes > 0
        assert measured <= self.BUDGET
        assert measured == remat.serial_peak
        assert van_measured == remat.baseline_serial_peak
        # the budget bought a real reduction below the last-use bound
        assert measured < van_measured


class TestPlanCache:
    def test_budget_variants_get_distinct_cache_keys(self, rng):
        g, x, out = ladder_graph()
        xv = rng.standard_normal((32, 64))
        with G.Session(g) as sess:
            sess.run(out, {x: xv})
            assert len(sess._plan_cache) == 1
            with amanda.memory_budget(8 * ACT):
                sess.run(out, {x: xv})
            assert len(sess._plan_cache) == 2
            with amanda.memory_budget(8 * ACT):  # same budget: cache hit
                sess.run(out, {x: xv})
            assert len(sess._plan_cache) == 2
            with amanda.memory_budget(6 * ACT):  # new budget: new plan
                sess.run(out, {x: xv})
            assert len(sess._plan_cache) == 3

    def test_untenanted_churn_falls_back_to_global_lru(self, rng):
        g, x, out = ladder_graph()
        xv = rng.standard_normal((32, 64))
        with G.Session(g) as sess, amanda.plan_cache_size(4):
            sess.run(out, {x: xv})
            first_key = next(iter(sess._plan_cache))
            for budget in (4, 5, 6, 7, 8):
                with amanda.memory_budget(budget * ACT):
                    sess.run(out, {x: xv})
            assert len(sess._plan_cache) == 4
            assert first_key not in sess._plan_cache  # plain LRU evicted it


#: ``python -m repro.analysis remat``'s training graphs at
#: ``int(0.6 * unbudgeted peak)``: (unbudgeted peak, schedule peak,
#: recomputes, evicted ops, recompute FLOPs)
ZOO_SCHEDULES = {
    "bert": (205_216, 137_240, 247, 114, 1_332_360),
    "inception": (582_768, 369_776, 41, 33, 40_987),
    "mlp": (21_776, 18_704, 25, 9, 68_747),
    "mobilenet": (2_892_784, 2_628_848, 46, 45, 33_059),
    "resnet": (931_632, 611_632, 138, 74, 104_035),
    "vgg": (305_232, 182_864, 45, 26, 1_020_352),
}


class TestZooSchedules:
    @pytest.mark.parametrize("model", sorted(ZOO_SCHEDULES))
    def test_schedule_pinned_at_60_percent_of_peak(self, model):
        """Any change to the cost model or to what may be recomputed that
        moves a zoo schedule shows up here."""
        build, feeds = _build_examples()[model]
        gm = build()
        fetches = [gm.loss, gm.train_op]
        peak, *want = ZOO_SCHEDULES[model]
        unbudgeted = plan_remat_for_graph(gm.graph, fetches, budget=1 << 62,
                                          feed_shapes=feeds)
        assert unbudgeted.serial_peak == peak
        sched = plan_remat_for_graph(gm.graph, fetches, budget=int(0.6 * peak),
                                     feed_shapes=feeds)
        assert [sched.serial_peak, sched.num_recomputes, len(sched.evicted),
                sched.recompute_flops] == want


class TestRematCLI:
    @staticmethod
    def _main(budget):
        with np.errstate():  # the CLI silences numpy warnings process-wide
            return main(["remat", "mlp", "--budget", budget])

    @pytest.mark.parametrize("budget", ["12x", "-5", "inf"])
    def test_malformed_budget_is_a_usage_error(self, budget, capsys):
        with pytest.raises(SystemExit) as exc:
            self._main(budget)
        assert exc.value.code == 2
        assert "invalid byte count" in capsys.readouterr().err

    @pytest.mark.parametrize("budget,kib", [("3M", "3072.0"), ("0", "0.0")])
    def test_budget_with_suffix_or_zero(self, budget, kib, capsys):
        assert self._main(budget) == 0
        out = capsys.readouterr().out
        assert f"mlp: budget {kib} KiB" in out
        assert out.endswith("PASS\n")
