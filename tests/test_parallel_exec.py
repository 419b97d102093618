"""Wavefront-parallel graph execution: equivalence, fallbacks, memory.

The parallel executor must be invisible except for speed and memory: results,
profiler attribution and fault semantics are bit-identical to the serial
executor for every worker count, and anything not provably order-independent
silently falls back to serial.
"""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.graph as G
import repro.models.eager as M
import repro.models.graph as GM
from repro.amanda.tools import ExecutionTraceTool, KernelProfilingTool
from repro.analysis.liveness import estimate_liveness
from repro.eager import alloc
from repro.graph import builder as gb
from repro.graph.core import plan_levels, topo_plan
from repro.graph.session import CompiledPlan
from repro.kernels.runtime import runtime as kernel_runtime

WORKER_COUNTS = (1, 2, 4)


def _run(sess, fetches, feed, workers):
    with amanda.num_workers(workers):
        return sess.run(fetches, feed)


class TestBitEquivalence:
    """Serial and parallel runs produce bitwise-identical results."""

    @pytest.mark.parametrize("builder,input_shape", [
        (GM.build_mlp, (8, 16)),
        (GM.build_vgg, (2, 16, 16, 3)),
        (GM.build_resnet, (2, 16, 16, 3)),
        (GM.build_mobilenet_v2, (2, 16, 16, 3)),
        (GM.build_inception_v3, (2, 16, 16, 3)),
    ])
    def test_models_bitwise_equal_across_worker_counts(self, rng, builder,
                                                       input_shape):
        gm = builder()
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal(input_shape),
                gm.labels: rng.integers(0, 4, input_shape[0])}
        baseline = _run(sess, [gm.logits, gm.loss], feed, workers=1)
        assert not sess.last_run_parallel
        for workers in WORKER_COUNTS[1:]:
            got = _run(sess, [gm.logits, gm.loss], feed, workers)
            assert sess.last_run_parallel, sess.last_fallback_reason
            for expected, actual in zip(baseline, got):
                np.testing.assert_array_equal(np.asarray(expected),
                                              np.asarray(actual))

    def test_bert_bitwise_equal(self, rng):
        gm = GM.build_bert()
        sess = gm.session()
        feed = {gm.inputs: rng.integers(0, 32, (2, 16)),
                gm.labels: np.zeros((2, 16), dtype=int)}
        baseline = _run(sess, gm.loss, feed, workers=1)
        for workers in WORKER_COUNTS[1:]:
            got = _run(sess, gm.loss, feed, workers)
            assert sess.last_run_parallel, sess.last_fallback_reason
            np.testing.assert_array_equal(np.asarray(baseline),
                                          np.asarray(got))

    def test_eager_models_unaffected_by_knob(self, rng):
        """num_workers only touches the graph Session; eager stays eager."""
        model = M.LeNet(rng=rng)
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        baseline = model(x).data
        with amanda.num_workers(4):
            np.testing.assert_array_equal(model(x).data, baseline)


class TestFallbackRules:
    def test_training_fetches_run_wavefront_parallel(self, rng):
        """Every optimizer writer data-depends on its Variable read, so the
        race analysis finds zero conflicting pairs and training — the
        headline case the old executor bailed out of — runs wavefronted."""
        gm = GM.build_mlp(learning_rate=0.3)
        sess = gm.session()
        x = rng.standard_normal((16, 16))
        y = rng.integers(0, 4, 16)
        with amanda.num_workers(4):
            loss, _ = sess.run([gm.loss, gm.train_op],
                               {gm.inputs: x, gm.labels: y})
        assert sess.last_run_parallel
        report = sess.last_serialization_report
        assert report.parallel and report.conflicts == ()
        assert report.serialized_ops == {}
        assert np.isfinite(loss)

    def test_legacy_knob_restores_all_or_nothing_fallback(self, rng):
        """AMANDA_EFFECT_ANALYSIS=0 brings back the old whole-plan bailout."""
        gm = GM.build_mlp(learning_rate=0.3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((16, 16)),
                gm.labels: rng.integers(0, 4, 16)}
        with amanda.num_workers(4), amanda.effect_analysis(False):
            loss, _ = sess.run([gm.loss, gm.train_op], feed)
        assert not sess.last_run_parallel
        assert "variable-store writer" in sess.last_fallback_reason
        assert np.isfinite(loss)

    def test_training_trajectory_identical_under_knob(self, rng):
        """The knob never changes training numerics (race-directed order)."""
        x = rng.standard_normal((16, 16))
        y = rng.integers(0, 4, 16)

        def losses(workers):
            gm = GM.build_mlp(learning_rate=0.3, seed=7)
            sess = gm.session()
            with amanda.num_workers(workers):
                return [np.asarray(sess.run(
                    [gm.loss, gm.train_op],
                    {gm.inputs: x, gm.labels: y})[0]) for _ in range(5)]

        np.testing.assert_array_equal(losses(1), losses(4))

    def test_ordered_kernel_subscriber_forces_serial(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}
        seen = []
        kernel_runtime.subscribe(seen.append, ordered=True)
        try:
            with amanda.num_workers(4):
                sess.run(gm.logits, feed)
            assert not sess.last_run_parallel
            assert "in-order" in sess.last_fallback_reason
            assert seen  # events were still delivered inline
        finally:
            kernel_runtime.unsubscribe(seen.append)

    def test_untagged_pycall_forces_serial(self, rng):
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            y = gb.py_call(lambda v: v * 2, [x]).outputs[0]
        sess = G.Session(g)
        with amanda.num_workers(4):
            out = sess.run(y, {x: np.ones(3)})
        assert not sess.last_run_parallel
        assert "PyCall" in sess.last_fallback_reason
        np.testing.assert_array_equal(np.asarray(out), 2 * np.ones(3))

    def test_serial_when_workers_not_requested(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        # pin the default: the suite also runs with AMANDA_NUM_WORKERS set
        with amanda.num_workers(1):
            sess.run(gm.logits, {gm.inputs: rng.standard_normal((4, 16))})
        assert not sess.last_run_parallel
        assert sess.last_fallback_reason is None


class TestRaceDirectedParallel:
    """Plans with genuine conflicts still run wavefronted: only the
    conflicting pair is serialized, bit-identical to serial execution."""

    @staticmethod
    def _write_write_graph():
        """Two independent writers of one variable — one write-write pair."""
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            v = gb.variable(np.zeros(4), name="v")
            a = gb.assign_add(v, gb.relu(x), name="writer_a")
            b = gb.assign_add(v, gb.tanh(x), name="writer_b")
            step = gb.group([a, b], name="step").outputs[0]
            out = gb.identity(gb.relu(x), name="out")
        return g, x, step, out

    def test_single_write_write_pair_bit_identical(self, rng):
        x_val = rng.standard_normal(4)

        def run(workers):
            g, x, step, out = self._write_write_graph()
            sess = G.Session(g)
            fetched = _run(sess, [out, step], {x: x_val}, workers)[0]
            return sess, np.asarray(fetched), g.variables.read("v")

        sess, base_out, base_store = run(1)
        assert not sess.last_run_parallel
        for workers in WORKER_COUNTS[1:]:
            sess, got_out, got_store = run(workers)
            report = sess.last_serialization_report
            assert sess.last_run_parallel, sess.last_fallback_reason
            # exactly the one conflicting pair is serialized, nothing else
            assert len(report.conflicts) == 1
            conflict = report.conflicts[0]
            assert conflict.kind == "write-write"
            assert conflict.keys == ("v",)
            assert set(report.serialized_ops) == {"writer_a", "writer_b"}
            np.testing.assert_array_equal(got_out, base_out)
            np.testing.assert_array_equal(got_store, base_store)

    @staticmethod
    def _shared_bn_graph():
        """Two training BatchNorms updating the same running statistics."""
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            gamma = gb.constant(np.ones(3), name="gamma")
            beta = gb.constant(np.zeros(3), name="beta")
            g.variables.create("shared_mean", np.zeros(3))
            g.variables.create("shared_var", np.ones(3))
            y1 = gb.fused_batch_norm(x, gamma, beta, "shared_mean",
                                     "shared_var", training=True, name="bn1")
            y2 = gb.fused_batch_norm(x, gamma, beta, "shared_mean",
                                     "shared_var", training=True, name="bn2")
            out = gb.identity(y1 + y2, name="out")
        return g, x, out

    def test_training_batchnorm_pair_bit_identical(self, rng):
        x_val = rng.standard_normal((8, 4, 4, 3))

        def run(workers):
            g, x, out = self._shared_bn_graph()
            sess = G.Session(g)
            fetched = _run(sess, out, {x: x_val}, workers)
            return sess, np.asarray(fetched), \
                g.variables.read("shared_mean"), \
                g.variables.read("shared_var")

        _, base_out, base_mean, base_var = run(1)
        for workers in WORKER_COUNTS[1:]:
            sess, got_out, got_mean, got_var = run(workers)
            report = sess.last_serialization_report
            assert sess.last_run_parallel, sess.last_fallback_reason
            assert len(report.conflicts) == 1
            assert report.conflicts[0].kind == "write-write"
            assert set(report.conflicts[0].keys) == {"shared_mean",
                                                     "shared_var"}
            np.testing.assert_array_equal(got_out, base_out)
            np.testing.assert_array_equal(got_mean, base_mean)
            np.testing.assert_array_equal(got_var, base_var)

    def test_mutating_tool_graph_still_parallelizes(self, rng):
        """A rewriting tool that declares pure effects (pruning computes the
        replacement statically) no longer forces the serial executor."""
        from repro.amanda.tools import MagnitudePruningTool
        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}

        def run(workers):
            tool = MagnitudePruningTool(sparsity=0.5)
            with amanda.num_workers(workers), amanda.apply(tool):
                return np.asarray(sess.run(gm.logits, feed))

        baseline = run(1)
        got = run(4)
        assert sess.last_run_parallel, sess.last_fallback_reason
        np.testing.assert_array_equal(got, baseline)


class TestCompiledPlan:
    def test_levels_partition_plan_and_respect_deps(self):
        gm = GM.build_inception_v3()
        plan = topo_plan([gm.logits.op])
        levels = plan_levels(plan)
        assert sum(len(level) for level in levels) == len(plan)
        # inception's parallel branches make levels genuinely wide
        assert max(len(level) for level in levels) >= 4
        level_of = {op.name: i for i, level in enumerate(levels)
                    for op in level}
        for op in plan:
            for edge in op.inputs:
                assert level_of[edge.op.name] < level_of[op.name]

    def test_release_excludes_fetched_ops(self):
        gm = GM.build_mlp(learning_rate=None)
        plan = topo_plan([gm.logits.op])
        compiled = CompiledPlan(plan, (gm.logits.op.name,))
        released = [name for level in compiled.release_after_level
                    for name in level]
        assert gm.logits.op.name not in released
        assert compiled.parallel_safe

    def test_plan_cache_prunes_stale_versions(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}
        sess.run(gm.logits, feed)
        assert len(sess._plan_cache) == 1
        # a driver-style internal rewrite bumps the version; the next plan
        # compile must evict the now-unreachable entry instead of growing
        for _ in range(3):
            gm.graph._internal_mutation = True
            try:
                gm.graph.add_op("NoOp", name="epoch_marker")
            finally:
                gm.graph._internal_mutation = False
            sess.run(gm.logits, feed)
            assert len(sess._plan_cache) == 1

    def test_distinct_fetch_sets_share_the_cache(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16)),
                gm.labels: rng.integers(0, 4, 4)}
        sess.run(gm.logits, feed)
        sess.run(gm.loss, feed)
        sess.run(gm.logits, feed)
        assert len(sess._plan_cache) == 2


class TestFingerprint:
    def test_fingerprint_memoized_until_version_moves(self):
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            gb.relu(x)
        first = g.fingerprint()
        assert g.fingerprint() is first  # memo hit: same tuple object
        g.add_op("NoOp")
        second = g.fingerprint()
        assert second != first
        assert second[1] == g.version

    def test_structurally_equal_graphs_share_digest_not_identity(self):
        def build():
            with G.default_graph() as g:
                x = gb.placeholder(name="x")
                gb.relu(x)
            return g

        a, b = build(), build()
        assert a.fingerprint()[2] == b.fingerprint()[2]
        assert a.fingerprint() != b.fingerprint()


class TestMemoryRelease:
    def test_parallel_peak_within_wavefront_estimate(self, rng):
        gm = GM.build_mlp(learning_rate=None, depth=6, hidden=64)
        sess = gm.session()
        x = rng.standard_normal((32, 16))
        feed = {gm.inputs: x}

        alloc.tracker.reset()
        baseline = _run(sess, gm.logits, feed, workers=1)
        serial_peak = alloc.tracker.peak["dnn"]

        alloc.tracker.reset()
        got = _run(sess, gm.logits, feed, workers=4)
        parallel_peak = alloc.tracker.peak["dnn"]
        assert sess.last_run_parallel

        np.testing.assert_array_equal(np.asarray(baseline), np.asarray(got))
        report = estimate_liveness(gm.graph, fetches=[gm.logits],
                                   feed_shapes={"input": x.shape},
                                   exclude_types=(),
                                   schedule_mode="wavefront")
        # early release keeps the runtime peak under the static wavefront
        # bound, and strictly under the keep-everything serial peak
        assert parallel_peak <= report.peak_bytes
        assert parallel_peak < serial_peak

    def test_wavefront_estimate_bounds_serial_estimate(self, rng):
        gm = GM.build_inception_v3()
        feeds = {"input": (2, 16, 16, 3), "labels": (2,)}
        serial = estimate_liveness(gm.graph, fetches=[gm.loss],
                                   feed_shapes=feeds, exclude_types=())
        wavefront = estimate_liveness(gm.graph, fetches=[gm.loss],
                                      feed_shapes=feeds, exclude_types=(),
                                      schedule_mode="wavefront")
        # level barriers can only delay frees relative to the serial sweep
        assert wavefront.peak_bytes >= serial.peak_bytes
        assert wavefront.schedule == serial.schedule

    def test_unknown_schedule_mode_rejected(self):
        gm = GM.build_mlp(learning_rate=None)
        with pytest.raises(ValueError, match="schedule_mode"):
            estimate_liveness(gm.graph, fetches=[gm.logits],
                              schedule_mode="diagonal")

    def test_no_leaked_accounting_after_parallel_run(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        alloc.tracker.reset()
        _run(sess, gm.logits, {gm.inputs: rng.standard_normal((4, 16))}, 4)
        assert alloc.tracker.live["dnn"] == 0


class TestInstrumentedParallel:
    def test_observe_only_tool_still_parallelizes(self, rng):
        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}
        baseline = _run(sess, gm.logits, feed, workers=1)

        tool = ExecutionTraceTool()
        with amanda.num_workers(4), amanda.apply(tool):
            got = sess.run(gm.logits, feed)
        # the driver tags observe-only PyCalls parallel_safe, so the
        # instrumented graph runs wavefronted
        assert sess.last_run_parallel, sess.last_fallback_reason
        np.testing.assert_array_equal(np.asarray(baseline), np.asarray(got))
        assert tool.events  # every recorder fired

    def test_profiler_attribution_bit_identical(self, rng):
        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}

        def profile(workers):
            tool = KernelProfilingTool()
            with amanda.num_workers(workers), amanda.apply(tool):
                sess.run(gm.logits, feed)
            assert sess.last_run_parallel == (workers > 1)
            # durations are wall-clock; compare the deterministic parts:
            # aggregation structure, per-kernel event counts (in delivery
            # order) and byte totals
            shape = [(op, kernel, len(durations))
                     for op, kernels in tool.kernel_times.items()
                     for kernel, durations in kernels.items()]
            return shape, dict(tool.kernel_bytes)

        serial_shape, serial_bytes = profile(1)
        for workers in WORKER_COUNTS[1:]:
            shape, kernel_bytes = profile(workers)
            assert shape == serial_shape
            assert kernel_bytes == serial_bytes

    def test_quarantined_tool_falls_back_to_vanilla_in_parallel(self, rng):
        class BoomTool(amanda.Tool):
            def __init__(self):
                super().__init__()
                self.add_inst_for_op(self.analysis)

            def analysis(self, context):
                if context.get("type") == "Relu":
                    context.insert_before_op(self._boom, inputs=[])

            @staticmethod
            def _boom(*arrays):
                raise RuntimeError("boom from a worker thread")

        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}
        baseline = _run(sess, gm.logits, feed, workers=1)

        tool = BoomTool()
        with amanda.num_workers(4), amanda.error_policy("quarantine"), \
                amanda.apply(tool) as mgr:
            out1 = sess.run(gm.logits, feed)  # raises mid-run, on a worker
            assert tool.name in mgr.quarantined
            out2 = sess.run(gm.logits, feed)  # recompiled without the tool
        np.testing.assert_array_equal(np.asarray(out1), np.asarray(baseline))
        np.testing.assert_array_equal(np.asarray(out2), np.asarray(baseline))
        assert alloc.tracker.live["dnn"] == 0  # failed run fully unwound


class TestConfig:
    def test_env_parsing(self, monkeypatch):
        from repro.core.config import Config
        monkeypatch.setenv("AMANDA_NUM_WORKERS", "8")
        assert Config().num_workers == 8
        monkeypatch.setenv("AMANDA_NUM_WORKERS", "not-a-number")
        assert Config().num_workers == 1
        monkeypatch.setenv("AMANDA_NUM_WORKERS", "-3")
        assert Config().num_workers == 1
        monkeypatch.setenv("AMANDA_NUM_WORKERS", "auto")
        assert Config().num_workers >= 1
        monkeypatch.delenv("AMANDA_NUM_WORKERS")
        assert Config().num_workers == 1

    def test_scoped_override_restores(self):
        before = amanda.config.num_workers
        with amanda.num_workers(6):
            assert amanda.config.num_workers == 6
        assert amanda.config.num_workers == before
