"""Symbolic capture (repro.capture): bit-identity and guard semantics.

The capture contract is exact: a captured call must return byte-for-byte
the arrays plain eager dispatch would — forward, training step, gradient
accumulation, and batch-norm running-stat updates — because replay runs
the same eager kernels in the same order on the same parameter buffers.
Guard mismatches re-trace into new buckets; untraceable calls fall back
to eager with a structured reason.
"""

import copy
import threading

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.eager.functional as F
import repro.models.eager as M
from repro.capture import CapturedModule, capture, capture_step
from repro.eager.optim import SGD

RNG = np.random.default_rng(11)


def _mlp_pair():
    """Two MLPs with identical weights (MLP defaults to a seeded rng)."""
    return M.MLP(), M.MLP()


def _x(batch=2):
    return E.tensor(RNG.standard_normal((batch, 16)))


def _loss_fn(model, x, y):
    return F.cross_entropy(model(x), y)


class _Outer(E.Module):
    """A module holding a captured wrapper of its own submodule."""

    def __init__(self):
        super().__init__()
        self.body = E.Linear(6, 6, rng=np.random.default_rng(5))
        self.captured_body = capture(self.body)

    def forward(self, x):
        return F.relu(self.captured_body(x))


class TestCapturedForward:
    def test_forward_bit_identical(self):
        eager_model, model = _mlp_pair()
        eager_model.eval(), model.eval()
        cm = capture(model)
        x = _x()
        want = eager_model(x).data
        for _ in range(3):
            np.testing.assert_array_equal(cm(x).data, want)
        assert cm.capture_count == 1
        assert cm.replay_count == 3
        assert cm.fallback_count == 0

    def test_shape_change_recaptures_into_new_bucket(self):
        eager_model, model = _mlp_pair()
        eager_model.eval(), model.eval()
        cm = capture(model)
        a, b = _x(batch=2), _x(batch=5)
        np.testing.assert_array_equal(cm(a).data, eager_model(a).data)
        np.testing.assert_array_equal(cm(b).data, eager_model(b).data)
        np.testing.assert_array_equal(cm(a).data, eager_model(a).data)
        assert cm.capture_count == 2       # one bucket per shape
        assert cm.fallback_count == 0

    def test_train_eval_mode_selects_distinct_buckets(self):
        model = M.MLP()
        cm = capture(model)
        x = _x()
        model.eval()
        cm(x)
        model.train()
        cm(x)
        assert cm.capture_count == 2

    def test_float32_ndarray_arg_falls_back_with_reason(self):
        eager_model, model = _mlp_pair()
        eager_model.eval(), model.eval()
        cm = capture(model)
        raw = RNG.standard_normal((2, 16)).astype(np.float32)
        out = cm(raw)
        np.testing.assert_array_equal(out.data, eager_model(raw).data)
        assert cm.fallback_count == 1
        assert cm.capture_count == 0
        assert "float32" in cm.last_fallback_reason

    def test_item_escape_falls_back_with_reason(self):
        class Escaping(E.Module):
            def __init__(self):
                super().__init__()
                self.fc = E.Linear(4, 4, rng=np.random.default_rng(3))

            def forward(self, x):
                y = self.fc(x)
                if y.sum().item() > -1e9:   # concrete read during trace
                    y = F.relu(y)
                return y

        model = Escaping().eval()
        cm = capture(model)
        x = E.tensor(RNG.standard_normal((2, 4)))
        out = cm(x)
        np.testing.assert_array_equal(out.data, model(x).data)
        assert cm.fallback_count == 1
        assert "item()" in cm.last_fallback_reason

    def test_nested_captured_module_contributes_to_outer_trace(self):
        model = _Outer().eval()
        cm = capture(model)
        x = E.tensor(RNG.standard_normal((2, 6)))
        want = F.relu(model.body(x)).data
        np.testing.assert_array_equal(cm(x).data, want)
        # the inner wrapper never traced on its own: inside the outer trace
        # it must pass straight through so its ops land in the outer graph
        assert model.captured_body.capture_count == 0
        assert cm.capture_count == 1

    def test_batchnorm_running_stats_advance_identically(self):
        def net():
            rng = np.random.default_rng(9)
            return E.Sequential(E.Conv2d(3, 4, 3, padding=1, rng=rng),
                                E.BatchNorm2d(4), E.ReLU())

        eager_model, model = net(), net()
        eager_model.train(), model.train()
        cm = capture(model)
        x = E.tensor(RNG.standard_normal((2, 3, 8, 8)))
        for _ in range(3):
            want = eager_model(x)
            got = cm(x)
            np.testing.assert_array_equal(got.data, want.data)
        bn_e, bn_c = eager_model._modules["1"], model._modules["1"]
        np.testing.assert_array_equal(bn_c.running_mean.data,
                                      bn_e.running_mean.data)
        np.testing.assert_array_equal(bn_c.running_var.data,
                                      bn_e.running_var.data)
        assert cm.capture_count == 1


class TestCapturedStep:
    def test_training_loop_bit_identical(self):
        eager_model, model = _mlp_pair()
        step = capture_step(model, _loss_fn)
        opt_e = SGD(eager_model.parameters(), lr=0.05)
        opt_c = SGD(model.parameters(), lr=0.05)
        y = np.array([0, 3])
        for i in range(4):
            x = _x()
            opt_e.zero_grad(), opt_c.zero_grad()
            loss_e = _loss_fn(eager_model, x, y)
            loss_e.backward()
            opt_e.step()
            loss_c = step(x, y)
            opt_c.step()
            np.testing.assert_array_equal(loss_c.data, loss_e.data, err_msg=str(i))
        for (name, pe), (_, pc) in zip(eager_model.named_parameters(),
                                       model.named_parameters()):
            np.testing.assert_array_equal(pc.data, pe.data, err_msg=name)
        # grads-absent first call, grads-present never hit (zero_grad resets)
        assert step.capture_count == 1
        assert step.replay_count == 4

    def test_grad_accumulation_without_zero_grad(self):
        eager_model, model = _mlp_pair()
        step = capture_step(model, _loss_fn)
        y = np.array([1, 2])
        for i in range(3):
            x = _x()
            loss_e = _loss_fn(eager_model, x, y)
            loss_e.backward()
            loss_c = step(x, y)
            np.testing.assert_array_equal(loss_c.data, loss_e.data, err_msg=str(i))
        for (name, pe), (_, pc) in zip(eager_model.named_parameters(),
                                       model.named_parameters()):
            np.testing.assert_array_equal(pc.grad, pe.grad, err_msg=name)
        # bucket 1: no grads present; bucket 2: accumulation chains seeded
        # from grad_in placeholders
        assert step.capture_count == 2

    def test_split_output_that_died_unused_gets_a_zero_gradient(self):
        class Head(E.Module):
            def __init__(self):
                super().__init__()
                self.lin = E.Linear(4, 4, rng=np.random.default_rng(0))

            def forward(self, x):
                # the second half dies unused: backward zero-fills its
                # gradient from the shape the split node kept
                return F.split(self.lin(x), 2, axis=1)[0]

        def loss_fn(model, x):
            return (model(x) * 3.0).sum()

        eager_model, model = Head(), Head()
        step = capture_step(model, loss_fn)
        for i in range(3):
            x = E.tensor(RNG.standard_normal((2, 4)))
            for param in eager_model.parameters():
                param.grad = None
            for param in model.parameters():
                param.grad = None
            loss_e = loss_fn(eager_model, x)
            loss_e.backward()
            loss_c = step(x)
            np.testing.assert_array_equal(loss_c.data, loss_e.data,
                                          err_msg=str(i))
            for (name, pe), (_, pc) in zip(eager_model.named_parameters(),
                                           model.named_parameters()):
                np.testing.assert_array_equal(pc.grad, pe.grad, err_msg=name)
        assert step.capture_count == 1
        assert step.replay_count == 3

    def test_step_under_instrumentation_matches_eager(self):
        eager_model, model = _mlp_pair()
        step = capture_step(model, _loss_fn)
        x, y = _x(), np.array([2, 0])
        tool_e = amanda.tools.ExecutionTraceTool()
        tool_c = amanda.tools.ExecutionTraceTool()
        with amanda.apply(tool_e):
            loss_e = _loss_fn(eager_model, x, y)
            loss_e.backward()
        with amanda.apply(tool_c):
            loss_c = step(x, y)
        np.testing.assert_array_equal(loss_c.data, loss_e.data)
        for (name, pe), (_, pc) in zip(eager_model.named_parameters(),
                                       model.named_parameters()):
            np.testing.assert_array_equal(pc.grad, pe.grad, err_msg=name)
        assert tool_c.events          # replay is visible to the tool

    def test_non_scalar_loss_falls_back(self):
        _, model = _mlp_pair()

        def bad_loss(mod, x):
            return mod(x)             # (2, 4): not a scalar

        step = capture_step(model, bad_loss)
        with pytest.raises(RuntimeError):
            # eager fallback raises exactly like plain eager would
            step(_x())
        assert step.fallback_count == 1
        assert step.last_fallback_reason is not None


class _ResidualNet(E.Module):
    """``matmul(relu(x @ W1 + x), W2)``: an ``add -> relu`` pair, as in a
    residual block."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(4)
        self.w1 = E.Parameter(rng.standard_normal((8, 8)))
        self.w2 = E.Parameter(rng.standard_normal((8, 3)))

    def forward(self, x):
        return F.matmul(F.relu(F.matmul(x, self.w1) + x), self.w2)


#: (net factory, input shape) for nets whose graphs hold ``add -> relu``
TOOL_NETS = {
    "residual": (_ResidualNet, (2, 8)),
    "resnet18": (M.resnet18, (2, 3, 16, 16)),
}

#: graph-only data sources, which eager dispatch has no operator for
GRAPH_SOURCES = ("Placeholder", "Const", "Variable")


def _op_types_tool():
    tool = amanda.Tool("op_types")
    tool.types = []
    tool.add_inst_for_op(
        lambda context: tool.types.append(context["type"])
        if context["type"] not in GRAPH_SOURCES else None)
    return tool


def _halve_relus_tool():
    tool = amanda.Tool("halve_relus")
    tool.add_inst_for_op(
        lambda context: context.insert_after_op(lambda a: a * 0.5)
        if context["type"] == "relu" else None)
    return tool


class TestCapturedFusion:
    """Captured graphs run as traced: no pass fuses their operators, so
    replay launches what eager dispatch launches and tools see the eager
    operators."""

    class _EwiseNet(E.Module):
        def __init__(self):
            super().__init__()
            from repro.eager.layers import Linear
            self.head = Linear(16, 16)
            self.tail = Linear(16, 4)

        def forward(self, x):
            h = F.relu(self.head(x))
            h = h * 2.0
            h = h + 1.0
            h = F.tanh(h)
            return self.tail(h)

    def _record_events(self, fn):
        from repro.kernels.runtime import runtime
        events = []

        def on_event(event):
            events.append((event.name, event.bytes_accessed))

        runtime.subscribe(on_event)
        try:
            result = fn()
        finally:
            runtime.unsubscribe(on_event)
        return result, events

    def test_kernel_events_match_eager_exactly(self):
        """Replay launches the same kernels with the same byte counts as
        plain eager dispatch — a profiler subscribed to the kernel runtime
        cannot tell replay apart from eager."""
        net = self._EwiseNet()
        net.eval()
        x = E.tensor(RNG.standard_normal((2, 16)))
        eager_out, eager_events = self._record_events(lambda: net(x))
        cm = capture(net)
        cm(x)                                    # trace outside recording
        replay_out, replay_events = self._record_events(lambda: cm(x))
        np.testing.assert_array_equal(replay_out.data, eager_out.data)
        assert replay_events == eager_events

    def test_training_step_protects_backward_stashes(self):
        """Every backward op reads its forward op's stash — grads stay
        bit-identical."""
        eager_model, model = _mlp_pair()
        step = capture_step(model, _loss_fn)
        x, y = _x(), np.array([2, 0])
        loss_e = _loss_fn(eager_model, x, y)
        loss_e.backward()
        loss_c = step(x, y)
        np.testing.assert_array_equal(loss_c.data, loss_e.data)
        for (name, pe), (_, pc) in zip(eager_model.named_parameters(),
                                       model.named_parameters()):
            np.testing.assert_array_equal(pc.grad, pe.grad, err_msg=name)

    @pytest.mark.parametrize("net", sorted(TOOL_NETS))
    def test_tool_sees_the_eager_op_types(self, net):
        factory, shape = TOOL_NETS[net]
        model = factory().eval()
        x = E.tensor(RNG.standard_normal(shape))
        eager_tool, captured_tool = _op_types_tool(), _op_types_tool()
        with amanda.apply(eager_tool):
            model(x)
        cm = capture(model)
        with amanda.apply(captured_tool):
            cm(x)
        assert cm.replay_count == 1
        assert "add" in eager_tool.types and "relu" in eager_tool.types
        assert captured_tool.types == eager_tool.types

    @pytest.mark.parametrize("net", sorted(TOOL_NETS))
    def test_relu_mutating_tool_matches_eager(self, net):
        factory, shape = TOOL_NETS[net]
        model = factory().eval()
        x = E.tensor(RNG.standard_normal(shape))
        vanilla = model(x).data
        cm = capture(model)
        with amanda.apply(_halve_relus_tool()):
            model(x)
            want = model(x).data         # cached actions
        with amanda.apply(_halve_relus_tool()):
            cm(x)
            got = cm(x).data             # instrumented replay, plan reused
        assert not np.array_equal(want, vanilla)  # the tool took hold
        np.testing.assert_array_equal(got, want)
        assert cm.fallback_count == 0


class TestCaptureThreads:
    def test_other_threads_ops_stay_out_of_a_trace(self):
        """A trace records only the ops of the thread that runs it."""
        paused, resume = threading.Event(), threading.Event()

        class Pausing(E.Module):
            def forward(self, x):
                y = F.relu(x)
                paused.set()             # another thread runs an op here
                assert resume.wait(10)
                return F.tanh(y)

        cm = capture(Pausing().eval())
        x = E.tensor(RNG.standard_normal((2, 4)))
        result = {}
        tracing = threading.Thread(
            target=lambda: result.setdefault("out", cm(x)), daemon=True)
        tracing.start()
        try:
            assert paused.wait(10)
            F.sigmoid(E.tensor(RNG.standard_normal((3,))))
        finally:
            resume.set()
            tracing.join(10)
        assert not tracing.is_alive()
        (bucket,) = cm._buckets.values()
        assert bucket.poisoned is None
        assert [op.type for op in bucket.graph.operations] == \
            ["Placeholder", "relu", "tanh"]
        np.testing.assert_array_equal(result["out"].data,
                                      F.tanh(F.relu(x)).data)

    def test_overlapping_traces_leave_instrumentation_on(self):
        """A trace holds the process-global ``amanda.disabled()``; a second
        thread's trace waits for the first, so the flag's save and restore
        never interleave."""
        a_paused, release_a, b_in, a_done = (threading.Event()
                                             for _ in range(4))

        class First(E.Module):
            def forward(self, x):
                a_paused.set()
                assert release_a.wait(10)
                return F.relu(x)

        class Second(E.Module):
            def forward(self, x):
                b_in.set()               # enters after the first trace
                assert a_done.wait(10)   # exits after the first trace
                return F.tanh(x)

        first, second = capture(First().eval()), capture(Second().eval())
        x = E.tensor(RNG.standard_normal((2, 4)))
        threads = [threading.Thread(target=lambda: (first(x), a_done.set()),
                                    daemon=True),
                   threading.Thread(target=lambda: second(x), daemon=True)]
        threads[0].start()
        try:
            assert a_paused.wait(10)
            threads[1].start()
            b_in.wait(0.5)               # unserialized, the second enters now
        finally:
            release_a.set()
            for thread in threads:
                thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        enabled = amanda.manager.enabled
        amanda.manager.enabled = True    # no later test inherits the flag
        assert enabled
        assert first.capture_count == 1 and second.capture_count == 1


class TestCapturedCopies:
    """A copy wraps the (copied) module with no buckets: a bucket's graph
    aliases the original module's buffers, so the copy traces again."""

    def test_a_bare_instance_forwards_nothing(self):
        """copy and pickle probe an instance before ``__init__`` ran."""
        bare = object.__new__(CapturedModule)
        assert not hasattr(bare, "training")

    def test_copy_wraps_the_same_module(self):
        model = M.MLP().eval()
        cm = capture(model)
        x = _x()
        want = cm(x).data
        clone = copy.copy(cm)
        assert clone.module is model and not clone._buckets
        np.testing.assert_array_equal(clone(x).data, want)
        assert clone.capture_count == 1 and cm.capture_count == 1

    def test_deepcopy_wraps_a_copied_module(self):
        model = M.MLP().eval()
        cm = capture(model)
        x = _x()
        want = cm(x).data
        clone = copy.deepcopy(cm)
        assert clone.module is not model and not clone._buckets
        np.testing.assert_array_equal(clone(x).data, want)
        for param in clone.module.parameters():
            param.data *= 0.0            # the original's buffers stay
        np.testing.assert_array_equal(cm(x).data, want)

    def test_deepcopy_of_a_module_holding_a_captured_submodule(self):
        model = _Outer().eval()
        x = E.tensor(RNG.standard_normal((2, 6)))
        want = model(x).data
        clone = copy.deepcopy(model)
        assert clone.captured_body.module is clone.body
        np.testing.assert_array_equal(clone(x).data, want)

    def test_deepcopy_of_a_captured_step_trains_its_own_module(self):
        eager_model, model = _mlp_pair()
        step = capture_step(model, _loss_fn)
        x, y = _x(), np.array([1, 3])
        step(x, y)
        clone = copy.deepcopy(step)
        for param in clone.module.parameters():
            param.grad = None
        loss = clone(x, y)
        loss_e = _loss_fn(eager_model, x, y)
        loss_e.backward()
        np.testing.assert_array_equal(loss.data, loss_e.data)
        for (name, pe), (_, pc) in zip(eager_model.named_parameters(),
                                       clone.module.named_parameters()):
            np.testing.assert_array_equal(pc.grad, pe.grad, err_msg=name)
        assert clone.capture_count == 1 and clone.fallback_count == 0


class _Probe(E.Module):
    """Linear + relu; ``escape`` reads a concrete value mid-forward."""

    def __init__(self, escape=False):
        super().__init__()
        self.fc = E.Linear(4, 4, rng=np.random.default_rng(3))
        self.escape = escape

    def forward(self, x):
        y = self.fc(x)
        if self.escape and y.sum().item() > -1e9:
            y = y * 1.0
        return F.relu(y)


def _probe_loss(model, x):
    return (model(x) * 3.0).sum()


def _eager_probe_step(model, x):
    loss = _probe_loss(model, x)
    loss.backward()
    return loss


#: wrapper -> (wrap a module, the same call on plain eager dispatch)
WRAPPERS = {
    "capture": (capture, lambda model, x: model(x)),
    "capture_step": (lambda model: capture_step(model, _probe_loss),
                     _eager_probe_step),
}


class TestBailOutContract:
    """Both wrappers share one bail-out path: an untraceable call poisons
    its bucket, is counted with its reason, and runs on eager dispatch."""

    def _call_both(self, kind, wrapped, model, x):
        """Call ``wrapped`` and its eager twin from a clean grad state; the
        results and every parameter gradient must match bit for bit."""
        _, eager_call = WRAPPERS[kind]
        for param in list(wrapped.module.parameters()) + \
                list(model.parameters()):
            param.grad = None
        got, want = wrapped(x), eager_call(model, x)
        np.testing.assert_array_equal(got.data, want.data)
        for (name, pe), (_, pc) in zip(model.named_parameters(),
                                       wrapped.module.named_parameters()):
            assert (pc.grad is None) == (pe.grad is None), name
            if pe.grad is not None:
                np.testing.assert_array_equal(pc.grad, pe.grad,
                                              err_msg=name)

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_raw_float32_argument_stays_eager(self, kind):
        wrapped = WRAPPERS[kind][0](_Probe())
        x = RNG.standard_normal((2, 4)).astype(np.float32)
        for _ in range(2):
            self._call_both(kind, wrapped, _Probe(), x)
        assert wrapped.capture_count == 0 and wrapped.replay_count == 0
        assert wrapped.fallback_count == 2
        assert "float32" in wrapped.last_fallback_reason

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_item_read_during_trace_stays_eager(self, kind):
        wrapped = WRAPPERS[kind][0](_Probe(escape=True))
        x = E.tensor(RNG.standard_normal((2, 4)))
        for _ in range(2):
            self._call_both(kind, wrapped, _Probe(escape=True), x)
        assert wrapped.capture_count == 0 and wrapped.replay_count == 0
        assert wrapped.fallback_count == 2
        assert "item()" in wrapped.last_fallback_reason

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_replay_not_implemented_poisons_the_bucket(self, kind,
                                                       monkeypatch):
        wrapped = WRAPPERS[kind][0](_Probe())
        model = _Probe()
        x = E.tensor(RNG.standard_normal((2, 4)))
        self._call_both(kind, wrapped, model, x)
        assert wrapped.capture_count == 1 and wrapped.replay_count == 1
        (bucket,) = wrapped._buckets.values()
        runs = []

        def missing_compute(*args, **kwargs):
            runs.append(args)
            raise NotImplementedError("no compute for 'relu'")

        monkeypatch.setattr(bucket.session, "run", missing_compute)
        for _ in range(2):
            self._call_both(kind, wrapped, model, x)
        assert bucket.poisoned == "replay failed: no compute for 'relu'"
        assert wrapped.last_fallback_reason == bucket.poisoned
        assert len(runs) == 1            # later calls go straight to eager
        assert wrapped.fallback_count == 2
        assert wrapped.capture_count == 1 and wrapped.replay_count == 1
