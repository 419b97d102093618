"""Unit tests for the ``repro.serve`` serving runtime components.

Covers the work-conserving queue's ordering and batch sizes, future
resolution, deterministic per-tenant sampling, end-to-end submit/result,
drain-on-stop, the sticky lease's idle close, the runtime snapshot, the
sessions tenants of one graph share, which threads write the Fig. 11
timers, and a lease that fails to open —
plus regression tests for the falsy-empty-graph fallbacks fixed in the same
change (an empty ``Graph`` has ``len() == 0`` and is falsy, so truthiness
checks silently redirected ops to the default graph).
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.amanda as amanda
from repro import serve
from repro.amanda import manager
from repro.graph import builder as gb
from repro.graph import session as session_module
from repro.graph.core import Graph, default_graph
from repro.models.graph.builders import build_mlp
from repro.serve.batcher import MicroBatcher
from repro.serve.queue import ServeFuture, ServeRequest
from repro.tools.faulty import FaultyTool
from repro.tools.pruning import ActivationPruningTool


class _FakeTenant:
    def __init__(self, name):
        self.name = name


def _request(tenant_name="t", sampled=False):
    return ServeRequest(_FakeTenant(tenant_name), {}, sampled=sampled)


class TestMicroBatcher:
    def test_flush_on_size(self):
        b = MicroBatcher(max_batch=3)
        for _ in range(3):
            b.put(_request())
        batch = b.take(timeout=0.0)
        assert batch is not None and len(batch) == 3
        assert b.stats()["deadline_flushes"] == 0

    def test_lone_request_is_taken_at_once(self):
        b = MicroBatcher(max_batch=64)
        request = _request()
        b.put(request)
        # a free worker never waits for a batch to fill
        assert b.take(timeout=0.0) == [request]

    def test_oldest_head_first_with_same_key_grouping(self):
        b = MicroBatcher(max_batch=8)
        a1, b1, a2 = _request("a"), _request("b"), _request("a")
        for request in (a1, b1, a2):
            b.put(request)
        assert b.take(timeout=0.0) == [a1, a2]
        assert b.take(timeout=0.0) == [b1]
        assert b.take(timeout=0.0) is None

    def test_batches_capped_at_max_batch(self):
        b = MicroBatcher(max_batch=4)
        for _ in range(10):
            b.put(_request())
        sizes = [len(b.take(timeout=0.0)) for _ in range(3)]
        assert sizes == [4, 4, 2]
        assert b.stats()["batches"] == 3 and b.pending == 0

    def test_concurrent_producers_and_consumers(self):
        """Every request is handed out exactly once, in same-key batches of
        at most ``max_batch`` that keep each producer's order."""
        b = MicroBatcher(max_batch=3)
        taken, drained = [], []

        def produce(i):
            for k in range(200):
                b.put(ServeRequest(_FakeTenant(f"t{i % 2}"), {"n": (i, k)},
                                   sampled=k % 3 == 0))

        def consume():
            # take() without a timeout returns None only once stopped and
            # drained
            while (batch := b.take()) is not None:
                taken.append(batch)
            drained.append(True)

        producers = [threading.Thread(target=produce, args=(i,), daemon=True)
                     for i in range(4)]
        consumers = [threading.Thread(target=consume, daemon=True)
                     for _ in range(3)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in consumers + producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=30.0)
            b.stop()
            for thread in consumers:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in producers + consumers)
        assert len(drained) == len(consumers)
        for batch in taken:
            assert 1 <= len(batch) <= 3
            assert len({r.key for r in batch}) == 1
            for i in range(4):
                ks = [r.feed["n"][1] for r in batch if r.feed["n"][0] == i]
                assert ks == sorted(ks)
        delivered = [r.feed["n"] for batch in taken for r in batch]
        assert sorted(delivered) == [(i, k) for i in range(4)
                                     for k in range(200)]
        assert b.stats()["enqueued"] == 800 and b.pending == 0

    def test_batches_partition_by_tenant_and_lane(self):
        b = MicroBatcher(max_batch=64)
        b.put(_request("a", sampled=False))
        b.put(_request("a", sampled=True))
        b.put(_request("b", sampled=False))
        keys = set()
        for _ in range(3):
            batch = b.take(timeout=1.0)
            assert batch is not None and len(batch) == 1
            keys.add(batch[0].key)
        assert keys == {("a", False), ("a", True), ("b", False)}

    def test_take_returns_none_on_timeout_and_stop_drains(self):
        b = MicroBatcher(max_batch=4)
        assert b.take(timeout=0.01) is None
        b.put(_request())
        b.put(_request())
        b.stop()  # queued requests are still handed out
        assert len(b.take(timeout=0.0)) == 2
        assert b.take(timeout=0.0) is None  # stopped and drained
        with pytest.raises(RuntimeError):
            b.put(_request())
        assert b.pending == 0


class TestServeFuture:
    def test_result_timeout(self):
        with pytest.raises(TimeoutError):
            ServeFuture().result(timeout=0.01)

    def test_exception_propagates(self):
        f = ServeFuture()
        f.set_exception(ValueError("boom"))
        assert f.done()
        with pytest.raises(ValueError, match="boom"):
            f.result(timeout=0)
        assert isinstance(f.exception(timeout=0), ValueError)


class TestSampling:
    def test_deterministic_one_in_n(self):
        model = build_mlp(seed=0)
        tenant = serve.Tenant("t", model.graph, model.logits,
                              tools=(ActivationPruningTool(keep_ratio=0.5),),
                              sample_rate=3)
        draws = [tenant.draw() for _ in range(9)]
        assert draws == [True, False, False] * 3

    def test_rate_zero_never_samples(self):
        model = build_mlp(seed=0)
        tenant = serve.Tenant("t", model.graph, model.logits,
                              tools=(ActivationPruningTool(keep_ratio=0.5),),
                              sample_rate=0)
        assert not any(tenant.draw() for _ in range(10))

    def test_toolless_tenant_never_samples(self):
        model = build_mlp(seed=0)
        tenant = serve.Tenant("t", model.graph, model.logits, sample_rate=1)
        assert not any(tenant.draw() for _ in range(10))


class TestServeRuntime:
    def test_vanilla_results_match_direct_session(self, rng):
        model = build_mlp(seed=5)
        feeds = [{model.inputs: rng.standard_normal((4, 16))}
                 for _ in range(8)]
        session = model.session()
        references = [session.run(model.logits, f) for f in feeds]
        rt = serve.ServeRuntime("vanilla-match", workers=2, batch_size=4)
        tenant = rt.register("mlp", model.graph, model.logits)
        with rt:
            outs = [rt.request(tenant, f, timeout=30.0) for f in feeds]
        for out, ref in zip(outs, references):
            np.testing.assert_array_equal(out, ref)
        session.close()

    def test_stop_drains_submitted_requests(self, rng):
        model = build_mlp(seed=6)
        rt = serve.ServeRuntime("drain", workers=1, batch_size=64,
                                deadline_ms=10_000.0)
        tenant = rt.register("mlp", model.graph, model.logits)
        rt.start()
        futures = [rt.submit(tenant,
                             {model.inputs: rng.standard_normal((2, 16))})
                   for _ in range(6)]
        # requests may still be queued when stop() is called; it must
        # serve everything already submitted
        rt.stop()
        for f in futures:
            assert f.result(timeout=0).shape == (2, 4)
        assert rt.snapshot()["completed"] == 6
        with pytest.raises(RuntimeError):
            rt.submit(tenant, {})
        # the refused request is not counted
        assert rt.snapshot()["tenants"]["mlp"]["submitted"] == 6

    def test_lone_request_does_not_wait_for_a_batch(self, rng):
        model = build_mlp(seed=6)
        # a batch size no traffic fills and a deadline far past the
        # timeout: the request must still be served at once
        rt = serve.ServeRuntime("lone", workers=1, batch_size=64,
                                deadline_ms=10_000.0)
        tenant = rt.register("mlp", model.graph, model.logits)
        with rt:
            out = rt.request(tenant,
                             {model.inputs: rng.standard_normal((2, 16))},
                             timeout=5.0)
        assert out.shape == (2, 4)

    def test_raise_policy_propagates_to_future(self, rng):
        model = build_mlp(seed=7)
        rt = serve.ServeRuntime("raise", workers=1, batch_size=1)
        tenant = rt.register(
            "faulty", model.graph, model.logits,
            tools=(FaultyTool(mode="instrumentation", always=True),),
            sample_rate=1, error_policy="raise")
        with rt:
            future = rt.submit(
                tenant, {model.inputs: rng.standard_normal((2, 16))})
            with pytest.raises(Exception):
                future.result(timeout=30.0)
        assert rt.snapshot()["tenants"]["faulty"]["errors"] == 1

    def test_lease_closes_when_idle(self, rng):
        model = build_mlp(seed=8)
        rt = serve.ServeRuntime("idle", workers=1, batch_size=1)
        tenant = rt.register(
            "mlp", model.graph, model.logits,
            tools=(ActivationPruningTool(keep_ratio=0.5),), sample_rate=1)
        with rt:
            rt.request(tenant, {model.inputs: rng.standard_normal((2, 16))},
                       timeout=30.0)
            deadline = time.monotonic() + 5.0
            while manager.active and time.monotonic() < deadline:
                time.sleep(0.01)
            # sticky lease must close on idle so an idle serving process
            # does not keep intercepting unrelated code
            assert not manager.active
        assert not manager.active

    def test_metrics_endpoint_shape(self, rng):
        model = build_mlp(seed=9)
        rt = serve.ServeRuntime("metrics-shape", workers=1, batch_size=2)
        tenant = rt.register("mlp", model.graph, model.logits)
        with rt:
            rt.request(tenant, {model.inputs: rng.standard_normal((2, 16))},
                       timeout=30.0)
            snap = rt.snapshot()
        assert set(snap) == {"workers", "started", "stopping", "completed",
                             "batches_run", "lease", "tenants", "queue"}
        assert snap["completed"] == 1
        assert snap["queue"]["enqueued"] == snap["queue"]["batches"] == 1
        lat = snap["tenants"]["mlp"]["latency"]["vanilla"]
        assert lat["count"] == 1
        assert lat["p99_ms"] >= lat["p50_ms"] >= 0.0

    def test_tenants_of_one_graph_share_its_sessions(self, rng,
                                                     monkeypatch):
        """Two tenants of one graph at four workers, all traffic vanilla:
        one vanilla plan serves both, bit-identical to a direct run, and
        the shared session counts every run."""
        model = build_mlp(seed=12)
        feeds = [{model.inputs: rng.standard_normal((4, 16))}
                 for _ in range(48)]
        session = model.session()
        references = [session.run(model.logits, f) for f in feeds]
        session.close()
        compiled = []

        class CountingPlan(session_module.CompiledPlan):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                compiled.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(session_module, "CompiledPlan", CountingPlan)
        rt = serve.ServeRuntime("shared", workers=4, batch_size=2)
        first = rt.register("first", model.graph, model.logits)
        second = rt.register("second", model.graph, model.logits)
        assert first.vanilla is second.vanilla
        assert first.instrumented is second.instrumented
        assert first.vanilla.instrumentation_exempt
        assert not first.instrumented.instrumentation_exempt
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with rt:
                futures = [rt.submit(second if k % 2 else first, feed)
                           for k, feed in enumerate(feeds)]
                outs = [future.result(timeout=30.0) for future in futures]
        finally:
            sys.setswitchinterval(old)
        for out, ref in zip(outs, references):
            np.testing.assert_array_equal(out, ref)
        assert len(compiled) == 1, "the shared vanilla plan was rebuilt"
        assert first.vanilla.run_count == len(feeds)
        assert first.instrumented.run_count == 0
        tenants = rt.snapshot()["tenants"]
        assert tenants["first"]["vanilla"] == tenants["second"]["vanilla"] \
            == len(feeds) // 2

    def test_duplicate_tenant_rejected(self):
        model = build_mlp(seed=0)
        rt = serve.ServeRuntime("dup")
        rt.register("mlp", model.graph, model.logits)
        with pytest.raises(ValueError):
            rt.register("mlp", model.graph, model.logits)
        rt.stop()


class _OwnedLock:
    """A re-entrant lock that knows which thread holds it."""

    def __init__(self):
        self._lock = threading.RLock()
        self._depth = 0
        self.owner = None

    def acquire(self):
        self._lock.acquire()
        self.owner = threading.get_ident()
        self._depth += 1
        return True

    __enter__ = acquire

    def release(self):
        self._depth -= 1
        if self._depth == 0:
            self.owner = None
        self._lock.release()

    def __exit__(self, *exc):
        self.release()


class TestFig11Accounting:
    def test_only_the_lease_holder_writes_the_timers(self, rng):
        """Fig. 11's framework/tool timers are one process-wide dict, safe
        only while a single thread writes them.  At four workers, with two
        sampled tenants swapping the lease and vanilla traffic running
        beside them, every timer write comes from the thread holding the
        lease; the vanilla lane never writes."""
        models = {"a": build_mlp(seed=13), "b": build_mlp(seed=14)}
        rt = serve.ServeRuntime("fig11", workers=4, batch_size=2)
        tenants = {name: rt.register(
            name, model.graph, model.logits,
            tools=(ActivationPruningTool(keep_ratio=0.5),), sample_rate=2)
            for name, model in models.items()}
        lease_lock = rt._lease._lock = _OwnedLock()
        held = []

        class WriterLog(dict):
            def __setitem__(self, key, value):
                held.append(lease_lock.owner == threading.get_ident())
                super().__setitem__(key, value)

        saved = manager.timers
        manager.timers = WriterLog(saved)
        try:
            with rt:
                futures = [
                    rt.submit(tenants[name], {
                        models[name].inputs: rng.standard_normal((2, 16))})
                    for _ in range(24) for name in ("a", "b")]
                for future in futures:
                    future.result(timeout=30.0)
        finally:
            manager.timers = saved
        snap = rt.snapshot()
        assert snap["lease"]["swaps"] >= 2
        for name in tenants:
            assert snap["tenants"][name]["sampled"] == 12
            assert snap["tenants"][name]["vanilla"] == 12
        assert held, "no sampled run wrote the timers"
        assert held.count(False) == 0, \
            f"{held.count(False)} of {len(held)} timer writes came from " \
            "a thread without the lease"


class _ApplyFails(ActivationPruningTool):
    """A tool that cannot become active."""

    def on_apply(self):
        raise RuntimeError("on_apply failed")


def _stops(rt, timeout=10.0) -> bool:
    """Stop ``rt`` on a daemon thread; False when ``stop()`` hangs."""
    thread = threading.Thread(target=rt.stop, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive()


class TestLeaseFailure:
    """A lease that fails to open must not wedge the runtime."""

    def test_unknown_error_policy_rejected_at_register(self):
        model = build_mlp(seed=0)
        rt = serve.ServeRuntime("bogus-policy")
        with pytest.raises(ValueError, match="error policy"):
            rt.register("mlp", model.graph, model.logits,
                        tools=(ActivationPruningTool(keep_ratio=0.5),),
                        error_policy="bogus")
        assert rt.snapshot()["tenants"] == {}
        assert _stops(rt)

    def test_failed_activation_closes_the_lease(self, rng):
        """The first failure opens the closed lease, the second most likely
        swaps it from the healthy tenant; both must leave nothing open."""
        model = build_mlp(seed=10)
        feed = {model.inputs: rng.standard_normal((2, 16))}
        session = model.session()
        with amanda.apply(ActivationPruningTool(keep_ratio=0.25)):
            reference = session.run(model.logits, feed)
        session.close()
        policy = manager.error_policy
        rt = serve.ServeRuntime("apply-fails", workers=2, batch_size=1)
        bad = rt.register("bad", model.graph, model.logits,
                          tools=(_ApplyFails(),))
        good = rt.register("good", model.graph, model.logits,
                           tools=(ActivationPruningTool(keep_ratio=0.25),))
        rt.start()
        outs = []
        try:
            for _ in range(2):
                with pytest.raises(RuntimeError, match="on_apply failed"):
                    rt.request(bad, feed, timeout=10.0)
                assert not manager.active
                assert manager.error_policy == policy
                outs.append(rt.request(good, feed, timeout=10.0))
        finally:
            stopped = _stops(rt)
        assert stopped, "stop() hung after a lease failed to open"
        assert not manager.active
        assert manager.error_policy == policy
        for out in outs:
            np.testing.assert_array_equal(out, reference)
        assert rt.snapshot()["tenants"]["good"]["sampled"] == 2


class TestEmptyGraphFallbacks:
    """A fresh explicit ``Graph()`` is falsy; fallbacks must check identity."""

    def test_default_graph_honors_fresh_empty_graph(self):
        g = Graph()
        assert len(g) == 0 and not g  # the hazard: empty graphs are falsy
        with default_graph(g) as active:
            assert active is g
            gb.placeholder(name="x")
        assert len(g) == 1

    def test_group_with_no_ops_targets_explicit_graph(self):
        g = Graph()
        op = gb.group([], graph=g)
        assert op.graph is g

    def test_py_call_with_no_inputs_targets_explicit_graph(self):
        g = Graph()
        op = gb.py_call(lambda: np.zeros(2), [], graph=g)
        assert op.graph is g
