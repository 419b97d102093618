"""Tensor basics: construction, arithmetic dispatch, hooks, allocation."""

import gc
import threading
import weakref

import numpy as np
import pytest

import repro.eager as E
from repro.eager import alloc


class TestConstruction:
    def test_float_upcast_to_float64(self):
        t = E.tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float64

    def test_int_arrays_keep_dtype(self):
        t = E.tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.integer)

    def test_from_tensor_shares_nothing_weird(self):
        a = E.tensor([1.0, 2.0])
        b = E.Tensor(a)
        assert b.shape == (2,)

    def test_factories(self):
        assert E.zeros(2, 3).shape == (2, 3)
        assert E.ones(4).data.sum() == 4
        assert E.arange(5).shape == (5,)
        assert E.randn(2, 2, rng=np.random.default_rng(0)).shape == (2, 2)

    def test_detach_drops_grad_tracking(self):
        t = E.tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad and d.node is None


class TestArithmetic:
    def test_add_scalar_broadcast(self):
        t = E.tensor([1.0, 2.0]) + 1.0
        np.testing.assert_array_equal(t.data, [2.0, 3.0])

    def test_radd_rsub_rmul_rdiv(self):
        t = E.tensor([2.0])
        assert (1.0 + t).item() == 3.0
        assert (5.0 - t).item() == 3.0
        assert (3.0 * t).item() == 6.0
        assert (8.0 / t).item() == 4.0

    def test_neg_pow_matmul(self):
        t = E.tensor([[1.0, 2.0]])
        assert (-t).data[0, 0] == -1.0
        assert (t ** 2).data[0, 1] == 4.0
        m = t @ E.tensor([[1.0], [1.0]])
        assert m.item() == 3.0

    def test_reshape_transpose_slice(self):
        t = E.tensor(np.arange(6, dtype=float))
        r = t.reshape(2, 3)
        assert r.shape == (2, 3)
        assert r.transpose().shape == (3, 2)
        assert t[2:4].shape == (2,)

    def test_sum_mean_axes(self):
        t = E.tensor(np.ones((2, 3)))
        assert t.sum().item() == 6.0
        assert t.mean(axis=0).shape == (3,)
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_copy_inplace(self):
        t = E.tensor([0.0, 0.0])
        t.copy_([1.0, 2.0])
        np.testing.assert_array_equal(t.data, [1.0, 2.0])


class TestGradHooks:
    def test_hook_observes_gradient(self):
        t = E.tensor([1.0, 2.0], requires_grad=True)
        seen = []
        t.register_hook(lambda g: seen.append(g.copy()))
        (t * 3.0).sum().backward()
        np.testing.assert_allclose(seen[0], [3.0, 3.0])

    def test_hook_can_replace_gradient(self):
        t = E.tensor([1.0, 2.0], requires_grad=True)
        t.register_hook(lambda g: g * 0.0)
        (t * 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0])

    def test_hook_removal(self):
        t = E.tensor([1.0], requires_grad=True)
        calls = []
        remove = t.register_hook(lambda g: calls.append(1))
        remove()
        (t * 1.0).sum().backward()
        assert calls == []


class TestAllocation:
    def test_tensor_allocation_tracked(self):
        alloc.tracker.reset()
        t = E.tensor(np.zeros((100, 100)))
        assert alloc.tracker.live["dnn"] >= t.data.nbytes

    def test_scope_attribution(self):
        alloc.tracker.reset()
        with alloc.scope("tool"):
            t = E.tensor(np.zeros(1000))
        assert alloc.tracker.live["tool"] >= t.data.nbytes
        assert alloc.tracker.peak["tool"] >= t.data.nbytes

    def test_release_on_gc(self):
        import gc
        alloc.tracker.reset()
        t = E.tensor(np.zeros(1000))
        before = alloc.tracker.live["dnn"]
        del t
        gc.collect()
        assert alloc.tracker.live["dnn"] < before

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            alloc.tracker.push_scope("gpu7")

    def test_collection_inside_a_locked_section_does_not_deadlock(self):
        """A collection can start inside a locked section that allocates
        (``reset`` builds dicts) and run a finalizer that releases bytes on
        the thread holding the lock, as a collected tensor's does."""
        tracker = alloc.AllocationTracker()

        class Cycle:
            pass

        def reset_with_garbage_pending():
            threshold = gc.get_threshold()
            try:
                for due_in in range(1, 16):
                    cycle = Cycle()
                    cycle.self = cycle
                    weakref.finalize(cycle, tracker.release, 8, "dnn")
                    del cycle
                    # the next collection starts `due_in` allocations from
                    # here, so one of these resets runs it under the lock
                    gc.set_threshold(gc.get_count()[0] + due_in)
                    tracker.reset()
            finally:
                gc.set_threshold(*threshold)

        # on a thread, so a deadlock fails the test instead of hanging it
        worker = threading.Thread(target=reset_with_garbage_pending,
                                  daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "a finalizer deadlocked in reset()"
