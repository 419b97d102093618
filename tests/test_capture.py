"""Symbolic capture (repro.capture): bit-identity and guard semantics.

The capture contract is exact: a captured call must return byte-for-byte
the arrays plain eager dispatch would — forward, training step, gradient
accumulation, and batch-norm running-stat updates — because replay runs
the same eager kernels in the same order on the same parameter buffers.
Guard mismatches re-trace into new buckets; untraceable calls fall back
to eager with a structured reason.
"""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.eager.functional as F
import repro.models.eager as M
from repro.capture import capture, capture_step
from repro.eager.optim import SGD

RNG = np.random.default_rng(11)


def _mlp_pair():
    """Two MLPs with identical weights (MLP defaults to a seeded rng)."""
    return M.MLP(), M.MLP()


def _x(batch=2):
    return E.tensor(RNG.standard_normal((batch, 16)))


def _loss_fn(model, x, y):
    return F.cross_entropy(model(x), y)


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

    def test_capture_knob_off_passes_through(self):
        eager_model, model = _mlp_pair()
        eager_model.eval(), model.eval()
        cm = capture(model)
        x = _x()
        with amanda.capture_enabled(False):
            out = cm(x)
        np.testing.assert_array_equal(out.data, eager_model(x).data)
        assert cm.capture_count == 0
        assert cm.replay_count == 0

    def test_nested_captured_module_contributes_to_outer_trace(self):
        class Outer(E.Module):
            def __init__(self):
                super().__init__()
                self.body = E.Linear(6, 6, rng=np.random.default_rng(5))
                self.captured_body = capture(self.body)

            def forward(self, x):
                return F.relu(self.captured_body(x))

        model = Outer().eval()
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


class TestCapturedFusion:
    """Captured graphs route through ``graph.fusion`` before compilation."""

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

    def test_elementwise_chain_fuses_and_stays_bit_identical(self):
        net = self._EwiseNet()
        net.eval()
        x = E.tensor(RNG.standard_normal((2, 16)))
        want = net(x).data                       # plain eager reference
        cm = capture(net)
        np.testing.assert_array_equal(cm(x).data, want)  # trace call
        np.testing.assert_array_equal(cm(x).data, want)  # fused replay
        (bucket,) = cm._buckets.values()
        assert list(bucket.fusion_report.values()) == \
            [["relu", "mul", "add", "tanh"]]

    def test_kernel_events_match_eager_exactly(self):
        """The fused executor launches the same kernels with the same byte
        counts as plain eager dispatch — a profiler subscribed to the
        kernel runtime cannot tell replay apart from eager."""
        net = self._EwiseNet()
        net.eval()
        x = E.tensor(RNG.standard_normal((2, 16)))
        eager_out, eager_events = self._record_events(lambda: net(x))
        cm = capture(net)
        cm(x)                                    # trace outside recording
        replay_out, replay_events = self._record_events(lambda: cm(x))
        np.testing.assert_array_equal(replay_out.data, eager_out.data)
        assert any(bucket.fusion_report for bucket in cm._buckets.values())
        assert replay_events == eager_events

    def test_training_step_protects_backward_stashes(self):
        """Ops whose outputs feed backward stashes are control targets and
        must never fuse away — grads stay bit-identical."""
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
