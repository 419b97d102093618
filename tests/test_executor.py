"""The serial slot-table executor: release at last use.

The executor frees every intermediate right after the step that reads it
last, so one run's tracked peak equals the static last-use bound the remat
planner computes.  The lifetime rule keeps values counted while the run can
still reach them: through a pass-through ``PyCall``/``Identity`` output, or
through a captured forward op's ``OpCtx`` stash.
"""

import gc

import numpy as np
import pytest

import repro.eager as E
import repro.eager.functional as F
import repro.graph as G
import repro.graph.session as session_module
import repro.models.eager as M
import repro.models.graph as GM
from repro.analysis.remat import plan_remat_for_graph
from repro.capture import capture, capture_step
from repro.eager import alloc
from repro.graph import builder as gb

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


def _zoo_feed(gm, rng, input_shape):
    return {gm.inputs: rng.standard_normal(input_shape),
            gm.labels: rng.integers(0, 4, input_shape[0])}


class TestPeakEqualsStaticBound:
    @pytest.mark.parametrize("training", [False, True],
                             ids=["inference", "training"])
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_peak_equals_static_bound(self, rng, name, training):
        """One unbudgeted run's tracked peak is exactly the planner's
        last-use bound for the same plan and feed shapes."""
        build, shape = ZOO[name]
        gm = build(learning_rate=0.1 if training else None)
        if name == "bert":
            feed = {gm.inputs: rng.integers(0, 32, shape),
                    gm.labels: rng.integers(0, 2, shape)}
            labels_shape = shape
        else:
            feed = _zoo_feed(gm, rng, shape)
            labels_shape = shape[:1]
        fetches = [gm.loss, gm.train_op] if training else [gm.loss]
        with gm.session() as sess:
            sess.run(fetches, feed)
        static = plan_remat_for_graph(
            gm.graph, fetches, budget=1 << 60,
            feed_shapes={"input": shape, "labels": labels_shape})
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
            sess.run(out, {x: xv})
            plan = [op.name for op in sess.last_compiled.ops]
        assert plan.index("passthrough") < plan.index("probe")
        # x died after relu; a (held through p) and c are live at the probe
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
            got = sess.run(gx, {x: xv})
            plan = [op.name for op in sess.last_compiled.ops]
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
        for _ in range(2):
            step(x, y)
            model.zero_grad()
        assert step.fallback_count == 0
        replay = runtimes[-1]
        assert replay.stash.stores > 0
        assert replay.stash == {}

    def test_forward_only_capture_stashes_nothing(self, runtimes):
        cm = capture(M.MLP().eval())
        x = E.tensor(np.random.default_rng(4).standard_normal((2, 16)))
        for _ in range(2):
            cm(x)
        assert cm.fallback_count == 0
        assert runtimes
        assert all(rt.stash.stores == 0 for rt in runtimes)
