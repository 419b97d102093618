"""Concurrent runs of the serial executor: equivalence, attribution, memory.

A graph session has one executor, which walks the plan in order on the
calling thread.  Parallelism lives one level up: serving workers run many
sessions, or one shared session, on concurrent threads.  Every run must be
invisible to the others — results, profiler attribution and fault semantics
are bit-identical to a lone run for every worker count, and each run hands
back every byte it charged.
"""

import gc
import threading

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.graph as G
import repro.models.eager as M
import repro.models.graph as GM
from repro.amanda.tools import ExecutionTraceTool, KernelProfilingTool
from repro.analysis.remat import plan_remat_for_graph
from repro.eager import alloc
from repro.graph import builder as gb
from repro.graph.core import topo_plan
from repro.graph.session import CompiledPlan
from repro.kernels.runtime import runtime as kernel_runtime

WORKER_COUNTS = (1, 2, 4)


def _concurrently(fn, workers):
    """Call ``fn(i)`` on ``workers`` threads released together; results in
    thread order.  The first exception raised on any thread is re-raised."""
    barrier = threading.Barrier(workers, timeout=60)
    results = [None] * workers
    errors = []

    def body(i):
        try:
            barrier.wait()
            results[i] = fn(i)
        except BaseException as exc:  # surfaced on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,))
               for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "worker hung"
    if errors:
        raise errors[0]
    return results


def _build_each(build, workers):
    """One graph per worker, built on the calling thread: the default-graph
    scope that graph construction reads is process-global."""
    return [build() for _ in range(workers)]


def _assert_same(expected, actual):
    for want, got in zip(expected, actual):
        np.testing.assert_array_equal(np.asarray(want), np.asarray(got))


class TestBitEquivalence:
    """Runs on concurrent worker threads match a lone run bit for bit."""

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
        baseline = sess.run([gm.logits, gm.loss], feed)
        for workers in WORKER_COUNTS:
            outs = _concurrently(
                lambda _: sess.run([gm.logits, gm.loss], feed), workers)
            for got in outs:
                _assert_same(baseline, got)
        # one compiled plan served every thread
        assert len(sess._plan_cache) == 1

    def test_bert_bitwise_equal(self, rng):
        gm = GM.build_bert()
        sess = gm.session()
        feed = {gm.inputs: rng.integers(0, 32, (2, 16)),
                gm.labels: np.zeros((2, 16), dtype=int)}
        baseline = sess.run(gm.loss, feed)
        for workers in WORKER_COUNTS[1:]:
            for got in _concurrently(lambda _: sess.run(gm.loss, feed),
                                     workers):
                np.testing.assert_array_equal(np.asarray(baseline),
                                              np.asarray(got))

    def test_eager_models_unaffected_by_knob(self, rng):
        """memory_budget only touches the graph Session; eager stays eager."""
        model = M.LeNet(rng=rng)
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        baseline = model(x).data
        with amanda.memory_budget(1):
            np.testing.assert_array_equal(model(x).data, baseline)


def _budget_below_peak(gm, fetches, feed_shapes, fraction=0.6):
    """A memory budget under the plan's unbudgeted last-use peak."""
    static = plan_remat_for_graph(gm.graph, fetches, budget=1 << 60,
                                  feed_shapes=feed_shapes)
    return int(static.baseline_serial_peak * fraction)


class TestFallbackRules:
    """One executor path: no fallback, no thread pool, no knob changes what
    a run computes."""

    def test_serial_when_workers_not_requested(self, rng):
        """A run executes on the calling thread: every kernel event arrives
        inline there, and the session starts no threads of its own."""
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        threads = []

        def record(event):
            threads.append(threading.get_ident())

        before = threading.active_count()
        kernel_runtime.subscribe(record)
        try:
            sess.run(gm.logits, {gm.inputs: rng.standard_normal((4, 16))})
        finally:
            kernel_runtime.unsubscribe(record)
        assert threads
        assert set(threads) == {threading.get_ident()}
        assert threading.active_count() == before

    def test_training_trajectory_identical_under_knob(self, rng):
        """memory_budget never changes training numerics: recomputes replay
        recomputable ops only, never the in-place optimizer writes."""
        x = rng.standard_normal((16, 16))
        y = rng.integers(0, 4, 16)
        shapes = {"input": x.shape, "labels": y.shape}

        def losses(tight):
            gm = GM.build_mlp(learning_rate=0.3, seed=7)
            fetches = [gm.loss, gm.train_op]
            budget = _budget_below_peak(gm, fetches, shapes) if tight else 0
            sess = gm.session()
            with amanda.memory_budget(budget):
                trajectory = [np.asarray(sess.run(
                    fetches, {gm.inputs: x, gm.labels: y})[0])
                    for _ in range(5)]
            return trajectory, sess.last_compiled

        unbudgeted, plain = losses(tight=False)
        budgeted, compiled = losses(tight=True)
        assert plain.remat is None
        assert compiled.remat is not None and compiled.remat_error is None
        assert compiled.remat.num_recomputes > 0
        np.testing.assert_array_equal(unbudgeted, budgeted)


class TestRaceDirectedParallel:
    """Plans whose state writers only the plan order ties together run in
    that order on every thread, bit-identical to a lone run."""

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

        def run(built):
            # every run gets its own graph: the writers mutate its store
            g, x, step, out = built
            sess = G.Session(g)
            fetched = sess.run([out, step], {x: x_val})[0]
            return sess, np.asarray(fetched), g.variables.read("v")

        _, base_out, base_store = run(self._write_write_graph())
        for workers in WORKER_COUNTS[1:]:
            built = _build_each(self._write_write_graph, workers)
            for _, got_out, got_store in _concurrently(
                    lambda i: run(built[i]), workers):
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

        def run(built):
            g, x, out = built
            sess = G.Session(g)
            fetched = sess.run(out, {x: x_val})
            return sess, np.asarray(fetched), \
                g.variables.read("shared_mean"), \
                g.variables.read("shared_var")

        _, base_out, base_mean, base_var = run(self._shared_bn_graph())
        for workers in WORKER_COUNTS[1:]:
            built = _build_each(self._shared_bn_graph, workers)
            for _, got_out, got_mean, got_var in _concurrently(
                    lambda i: run(built[i]), workers):
                np.testing.assert_array_equal(got_out, base_out)
                np.testing.assert_array_equal(got_mean, base_mean)
                np.testing.assert_array_equal(got_var, base_var)

    def test_mutating_tool_graph_still_parallelizes(self, rng):
        """A rewriting tool (pruning computes the replacement statically)
        serves concurrent runs of its instrumented graph."""
        from repro.amanda.tools import MagnitudePruningTool
        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}

        def run(workers):
            tool = MagnitudePruningTool(sparsity=0.5)
            with amanda.apply(tool):
                return _concurrently(
                    lambda _: np.asarray(sess.run(gm.logits, feed)), workers)

        baseline = run(1)[0]
        for got in run(4):
            np.testing.assert_array_equal(got, baseline)


class TestCompiledPlan:
    def test_release_excludes_fetched_ops(self):
        gm = GM.build_mlp(learning_rate=None)
        plan = topo_plan([gm.logits.op])
        compiled = CompiledPlan(plan, (gm.logits.op.name,))
        released = [plan[index].name
                    for step in compiled.release_after_step
                    for index in step]
        assert gm.logits.op.name not in released
        # every other op is freed exactly once
        assert sorted(released) == sorted(op.name for op in plan
                                          if op is not gm.logits.op)

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
    def test_no_leaked_accounting_after_parallel_run(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}
        # eager tensors of earlier tests release their bytes when collected;
        # collect them now so none lands inside the window measured here
        gc.collect()
        alloc.tracker.reset()
        _concurrently(lambda _: sess.run(gm.logits, feed), 4)
        assert alloc.tracker.peak["dnn"] > 0
        assert alloc.tracker.live["dnn"] == 0


class TestInstrumentedParallel:
    def test_observe_only_tool_still_parallelizes(self, rng):
        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}
        baseline = np.asarray(sess.run(gm.logits, feed))

        tool = ExecutionTraceTool()
        with amanda.apply(tool):
            sess.run(gm.logits, feed)  # instrument and compile once
            per_run = len(tool.events)
            outs = _concurrently(
                lambda _: np.asarray(sess.run(gm.logits, feed)), 4)
        for got in outs:
            np.testing.assert_array_equal(got, baseline)
        assert per_run > 0
        # every recorder fired once per run, on every thread
        assert len(tool.events) == 5 * per_run

    def test_profiler_attribution_bit_identical(self, rng):
        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}

        def profile(workers):
            tool = KernelProfilingTool()
            with amanda.apply(tool):
                _concurrently(lambda _: sess.run(gm.logits, feed), workers)
            # durations are wall-clock; compare the deterministic parts:
            # per-op kernel event counts and byte totals, per run
            shape = {(op, kernel): len(durations) / workers
                     for op, kernels in tool.kernel_times.items()
                     for kernel, durations in kernels.items()}
            per_run_bytes = {kernel: total / workers
                             for kernel, total in tool.kernel_bytes.items()}
            return shape, per_run_bytes

        serial_shape, serial_bytes = profile(1)
        assert serial_shape and "(untagged)" not in \
            {op for op, _ in serial_shape}
        for workers in WORKER_COUNTS[1:]:
            shape, kernel_bytes = profile(workers)
            # per-thread correlation tags: no event lost or misattributed
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
        baseline = np.asarray(sess.run(gm.logits, feed))

        tool = BoomTool()
        gc.collect()
        alloc.tracker.reset()
        with amanda.error_policy("quarantine"), \
                amanda.apply(tool) as mgr:
            # every worker's run raises mid-run, then falls back to vanilla
            outs = _concurrently(lambda _: sess.run(gm.logits, feed), 4)
            assert tool.name in mgr.quarantined
            after = sess.run(gm.logits, feed)  # recompiled without the tool
        for got in outs + [after]:
            np.testing.assert_array_equal(np.asarray(got), baseline)
        assert alloc.tracker.live["dnn"] == 0  # failed runs fully unwound


#: every env knob: (field, variable, default, [(raw value, parsed)],
#: scoped override, override value, overridden field value)
KNOB_CASES = [
    ("plan_cache_size", "AMANDA_PLAN_CACHE_SIZE", 64,
     [("7", 7), ("0", 1), ("-3", 1), ("junk", 64)],
     amanda.plan_cache_size, 3, 3),
    ("memory_budget", "AMANDA_MEMORY_BUDGET", 0,
     [("3M", 3 << 20), ("512", 512), ("1.5k", 1536), ("-5", 0),
      ("junk", 0), ("inf", 0)],
     amanda.memory_budget, "2K", 2048),
]


class TestConfig:
    def test_env_parsing(self, monkeypatch):
        """Every knob parses its variable, clamps it, and keeps its default
        when the variable is missing or junk."""
        from repro.core.config import Config
        for field, env, default, cases, *_ in KNOB_CASES:
            monkeypatch.delenv(env, raising=False)
            assert getattr(Config(), field) == default, field
            for raw, parsed in cases:
                monkeypatch.setenv(env, raw)
                assert getattr(Config(), field) == parsed, (field, raw)
            monkeypatch.delenv(env)
        # the provenance line prints vars(config): exactly the two knobs
        assert list(vars(Config())) == [case[0] for case in KNOB_CASES]

    def test_scoped_override_restores(self):
        for field, _, _, _, scope, value, parsed in KNOB_CASES:
            before = getattr(amanda.config, field)
            with scope(value):
                assert getattr(amanda.config, field) == parsed, field
            assert getattr(amanda.config, field) == before, field
