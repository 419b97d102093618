"""The serial slot-table executor: release at last use.

The executor frees every intermediate right after the step that reads it
last, so one run's tracked peak equals the static last-use bound the remat
planner computes, on vanilla and instrumented plans alike.  The lifetime
rule keeps values counted while the run can still reach them: through a
pass-through ``PyCall``/``Identity`` output, or through a captured forward
op's ``OpCtx`` stash.  One function computes the releases of every plan, so
the rule holds unchanged under a memory budget.
"""

import gc

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.eager.functional as F
import repro.graph as G
import repro.graph.session as session_module
import repro.models.eager as M
import repro.models.graph as GM
from repro.analysis.remat import op_costs, plan_remat, plan_remat_for_graph
from repro.capture import capture, capture_step
from repro.eager import alloc
from repro.eager.optim import SGD
from repro.graph import builder as gb
from repro.tools.memory import MemoryProfilingTool
from repro.tools.profiling import FlopsProfilingTool
from repro.tools.pruning import MagnitudePruningTool

ZOO = {
    "mlp": (GM.build_mlp, (8, 16)),
    "bert": (GM.build_bert, (2, 16)),
    "inception": (GM.build_inception_v3, (2, 16, 16, 3)),
    "resnet": (GM.build_resnet, (2, 16, 16, 3)),
    "mobilenet": (GM.build_mobilenet_v2, (2, 16, 16, 3)),
    "vgg": (GM.build_vgg, (2, 16, 16, 3)),
}


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


TOOLS = {
    "memory": MemoryProfilingTool,
    "flops": FlopsProfilingTool,
    "pruning": lambda: MagnitudePruningTool(sparsity=0.5),
}


def _zoo_feed(gm, rng, name):
    """A feed for zoo model ``name`` and the labels' shape."""
    shape = ZOO[name][1]
    if name == "bert":
        return {gm.inputs: rng.integers(0, 32, shape),
                gm.labels: rng.integers(0, 2, shape)}, shape
    return {gm.inputs: rng.standard_normal(shape),
            gm.labels: rng.integers(0, 4, shape[0])}, shape[:1]


@pytest.fixture
def compiled(monkeypatch):
    """Every ``CompiledPlan`` built while the fixture is active, with the
    fetch ops it was compiled for."""
    built = []
    base = session_module.CompiledPlan

    class Recording(base):
        __slots__ = ()

        def __init__(self, ops, fetch_ops, *args, **kwargs):
            super().__init__(ops, fetch_ops, *args, **kwargs)
            built.append((self, fetch_ops))

    monkeypatch.setattr(session_module, "CompiledPlan", Recording)
    return built


class TestPeakEqualsStaticBound:
    @pytest.mark.parametrize("training", [False, True],
                             ids=["inference", "training"])
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_peak_equals_static_bound(self, rng, name, training):
        """One unbudgeted run's tracked peak is exactly the planner's
        last-use bound for the same plan and feed shapes."""
        build, shape = ZOO[name]
        gm = build(learning_rate=0.1 if training else None)
        feed, labels_shape = _zoo_feed(gm, rng, name)
        fetches = [gm.loss, gm.train_op] if training else [gm.loss]
        with gm.session() as sess:
            sess.run(fetches, feed)
        static = plan_remat_for_graph(
            gm.graph, fetches, budget=1 << 60,
            feed_shapes={"input": shape, "labels": labels_shape})
        assert alloc.tracker.peak["dnn"] == static.baseline_serial_peak
        assert alloc.tracker.live["dnn"] == 0

    def test_identity_counted_once(self):
        """An ``Identity`` output is its own input: the executor counts no
        fresh bytes for it and keeps its input counted while it lives, and
        the planner's bound counts it the same way (not twice)."""
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            w = gb.variable(np.ones((8, 64)), name="w")
            a = gb.matmul(x, w)
            out = gb.reduce_mean(gb.identity(a)) + gb.reduce_mean(a)
        xv = np.ones((4, 8))
        with G.Session(g) as sess:
            sess.run(out, {x: xv})
        static = plan_remat_for_graph(g, [out], budget=1 << 60,
                                      feed_shapes={"x": xv.shape})
        # x and the matmul output are live together, nothing more
        assert alloc.tracker.peak["dnn"] == xv.nbytes + 4 * 64 * 8
        assert static.baseline_serial_peak == alloc.tracker.peak["dnn"]
        assert alloc.tracker.live["dnn"] == 0

    @pytest.mark.parametrize("tool", sorted(TOOLS))
    @pytest.mark.parametrize("name", ["bert", "inception", "mlp"])
    def test_instrumented_peak_equals_static_bound(self, rng, compiled, name,
                                                   tool):
        """Under a tool, one unbudgeted training run's tracked peak is
        exactly the planner's bound over the instrumented plan the run
        executed, with the run's own (possibly redirected) fetch ops: the
        planner follows every tool PyCall's pass-through lifetime."""
        gm = ZOO[name][0](learning_rate=0.1)
        feed, labels_shape = _zoo_feed(gm, rng, name)
        with gm.session() as sess, amanda.apply(TOOLS[tool]()):
            sess.run([gm.loss, gm.train_op], feed)
            ops = sess.last_compiled.ops
        fetch_ops = next(fetch_ops for plan, fetch_ops in compiled
                         if plan is sess.last_compiled)
        assert any(op.type == "PyCall" for op in ops)
        bytes_of, flops_of, _ = op_costs(
            ops, ops[0].graph,
            feed_shapes={"input": ZOO[name][1], "labels": labels_shape})
        static = plan_remat(ops, fetch_ops, 1 << 60, bytes_of, flops_of)
        assert alloc.tracker.peak["dnn"] == static.baseline_serial_peak
        assert alloc.tracker.live["dnn"] == 0


class _RecordingStash(dict):
    """A stash table that counts every entry ever stored in it."""

    def __init__(self):
        super().__init__()
        self.stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


@pytest.fixture
def runtimes(monkeypatch):
    """Every per-run ``_Runtime`` created while the fixture is active."""
    created = []
    base = session_module._Runtime

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.stash = _RecordingStash()
            created.append(self)

    monkeypatch.setattr(session_module, "_Runtime", Recording)
    return created


def _probe(seen):
    """A pass-through callback recording the live ``dnn`` bytes."""
    def probe(value):
        seen.append(alloc.tracker.live["dnn"])
        return value
    return probe


class TestLifetimeRule:
    """Probes of the lifetime rule on unbudgeted runs.  The subclasses
    below rerun every probe under a memory budget, where each must read
    exactly what it reads here."""

    #: ``amanda.memory_budget`` for every run of the class (0: off)
    BUDGET = 0

    def _run(self, sess, fetches, feed):
        with amanda.memory_budget(self.BUDGET):
            result = sess.run(fetches, feed)
        compiled = sess.last_compiled
        assert compiled.remat_error is None
        assert (compiled.remat is not None) == (self.BUDGET > 0)
        return result, [op.name for op in compiled.ops]

    def test_pass_through_pycall_keeps_input_counted(self):
        """``a``'s only direct reader is a pass-through PyCall whose output
        (``a`` itself) is read later: ``a`` stays counted until then."""
        seen = []
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            a = gb.relu(x)
            p = gb.py_call(lambda v: v, [a], name="passthrough").outputs[0]
            c = gb.square(p)
            q = gb.py_call(_probe(seen), [c], name="probe").outputs[0]
            out = gb.reduce_mean(p + q)
        xv = np.ones((16, 8))
        with G.Session(g) as sess:
            _, plan = self._run(sess, out, {x: xv})
        assert plan.index("passthrough") < plan.index("probe")
        # x died after relu; a (held through p) and c are live at the probe
        assert seen == [2 * xv.nbytes]
        assert alloc.tracker.live["dnn"] == 0

    def test_identity_keeps_input_counted(self):
        """An ``Identity`` output is its input, so it adds no bytes and its
        input stays counted while the Identity is read."""
        seen = []
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            a = gb.relu(x)
            i = gb.identity(a, name="alias")
            c = gb.square(i)
            q = gb.py_call(_probe(seen), [c], name="probe").outputs[0]
            out = gb.reduce_mean(i + q)
        xv = np.ones((16, 8))
        with G.Session(g) as sess:
            _, plan = self._run(sess, out, {x: xv})
        assert plan.index("alias") < plan.index("probe")
        # x died after relu; a (held through the Identity) and c are live
        assert seen == [2 * xv.nbytes]
        assert alloc.tracker.live["dnn"] == 0

    def test_captured_forward_inputs_counted_until_backward(self, runtimes):
        """The relu forward stashes its input for relu_backward: the input
        stays counted after its last data reader, until the backward op."""
        seen = []
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            r = gb.capture_op("relu", [x], name="fwd").outputs[0]
            probe = gb.py_call(_probe(seen), [r], name="probe")
            grad = gb.constant(np.ones((16, 8)), name="grad")
            gx = gb.capture_op(
                "relu_backward", [grad],
                {"forward_name": "fwd", "grad_indices": (0,)},
                name="bwd", control_inputs=(r.op, probe)).outputs[0]
        xv = np.linspace(-1.0, 1.0, 128).reshape(16, 8)
        with G.Session(g) as sess:
            got, plan = self._run(sess, gx, {x: xv})
        assert plan.index("probe") < plan.index("grad") < plan.index("bwd")
        # x (stashed) and the relu output are live at the probe
        assert seen == [2 * xv.nbytes]
        np.testing.assert_array_equal(got, (xv > 0).astype(np.float64))
        assert runtimes[-1].stash.stores == 1
        assert runtimes[-1].stash == {}
        assert alloc.tracker.live["dnn"] == 0

    def test_stash_table_empty_after_captured_step(self, runtimes):
        model = M.MLP()
        step = capture_step(model, lambda m, x, y: F.cross_entropy(m(x), y))
        x = E.tensor(np.random.default_rng(3).standard_normal((2, 16)))
        y = np.array([2, 0])
        with amanda.memory_budget(self.BUDGET):
            for _ in range(2):
                step(x, y)
                model.zero_grad()
        assert step.fallback_count == 0
        replay = runtimes[-1]
        assert replay.stash.stores == 6  # one per captured forward op
        assert replay.stash == {}

    def test_forward_only_capture_stashes_nothing(self, runtimes):
        cm = capture(M.MLP().eval())
        x = E.tensor(np.random.default_rng(4).standard_normal((2, 16)))
        with amanda.memory_budget(self.BUDGET):
            for _ in range(2):
                cm(x)
        assert cm.fallback_count == 0
        assert runtimes
        assert all(rt.stash.stores == 0 for rt in runtimes)


class TestLifetimeRuleGenerousBudget(TestLifetimeRule):
    """Every probe under a 1 GB budget, which schedules no recompute."""

    BUDGET = 1 << 30


class TestLifetimeRuleTightBudget(TestLifetimeRule):
    """Every probe under a budget below every plan's static bound: the
    planner tries to evict, and whatever it schedules the probes still read
    the unbudgeted bytes."""

    BUDGET = 1


BERT_SHAPE = (2, 16)


def _token_loss(model, tokens, labels):
    logits = model(tokens)
    return F.cross_entropy(F.reshape(logits, (-1, 2)), labels)


class TestCapturedStepUnderBudget:
    """Captured graphs under a memory budget keep the unbudgeted lifetimes:
    a warm ``capture_step`` BERT-mini replay tracks the same peak, stashes
    are dropped by their last reader, and no op that touches the stash
    table is recomputed."""

    STEPS = 3

    def _train(self, budget, runtimes):
        model = M.bert_mini(layers=2)
        opt = SGD(model.parameters(), lr=0.01)
        step = capture_step(model, _token_loss)
        rng = np.random.default_rng(5)
        losses, peaks = [], []
        with amanda.memory_budget(budget):
            for _ in range(self.STEPS):
                tokens = rng.integers(0, 32, BERT_SHAPE)
                labels = rng.integers(0, 2, BERT_SHAPE[0] * BERT_SHAPE[1])
                opt.zero_grad()
                gc.collect()
                before = alloc.tracker.peak["dnn"] = alloc.tracker.live["dnn"]
                loss = step(tokens, labels)
                peaks.append(alloc.tracker.peak["dnn"] - before)
                assert runtimes[-1].stash == {}
                opt.step()
                losses.append(np.array(loss.data))
        assert step.fallback_count == 0
        return losses, peaks

    @staticmethod
    def _stash_ops(ops):
        readers = [op for op in ops if "forward_name" in op.attrs]
        return ({op.name for op in readers}
                | {op.attrs["forward_name"] for op in readers})

    def test_generous_budget_tracks_unbudgeted_peak(self, runtimes,
                                                     compiled):
        losses, peaks = self._train(0, runtimes)
        got_losses, got_peaks = self._train(1 << 30, runtimes)
        plan = compiled[-1][0]
        assert plan.remat is not None and plan.remat.num_recomputes == 0
        assert self._stash_ops(plan.ops)
        assert got_peaks[-1] == peaks[-1]  # the warm replay
        for want, got in zip(losses, got_losses):
            np.testing.assert_array_equal(want, got)

    def test_stash_op_runs_once_under_budget(self, runtimes):
        """Recomputing ``fwd`` for its late data reader would fit this
        budget, but the recompute would stash its ``OpCtx`` again after the
        stash's last reader dropped it: the planner pins it instead."""
        unit = 32 * 64 * 8
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            y = gb.placeholder(name="y")
            r = gb.capture_op("relu", [x], name="fwd").outputs[0]
            grad = gb.constant(np.ones((32, 64)), name="grad")
            gx = gb.capture_op(
                "relu_backward", [grad],
                {"forward_name": "fwd", "grad_indices": (0,)},
                name="bwd", control_inputs=(r.op,)).outputs[0]
            # a ladder after the backward op, three values live at a time,
            # while the late reader below keeps r live through it
            h = g.add_op("Square", [y], name="h0",
                         control_inputs=[gx.op]).outputs[0]
            for _ in range(6):
                h = h + gb.relu(h)
            out = gb.reduce_mean(r) + gb.reduce_mean(h)
        feed = {x: np.linspace(-1.0, 1.0, 2048).reshape(32, 64),
                y: np.ones((32, 64))}
        with G.Session(g) as sess:
            want = sess.run(out, feed)
            with amanda.memory_budget(int(3.5 * unit)):
                got = sess.run(out, feed)
            compiled = sess.last_compiled
        assert compiled.remat.baseline_serial_peak == 4 * unit
        assert [op.name for op in compiled.ops].count("fwd") == 1
        assert runtimes[-1].stash == {}
        np.testing.assert_array_equal(want, got)

    def test_tight_budget_evicts_no_stash_op(self, runtimes, compiled):
        losses, _ = self._train(0, runtimes)
        got_losses, _ = self._train(1, runtimes)
        plan = compiled[-1][0]
        assert plan.remat is not None and plan.remat_error is None
        assert not set(plan.remat.evicted) & self._stash_ops(plan.ops)
        for want, got in zip(losses, got_losses):
            np.testing.assert_array_equal(want, got)
