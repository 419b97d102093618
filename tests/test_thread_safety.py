"""Hammer tests for the shared hot path the serving runtime leans on.

These are the regression tests for the concurrency bugs fixed alongside
``repro.serve``: the session plan cache was an unlocked OrderedDict (LRU
reorder + eviction raced), the manager's health counters were unsynchronized
(lost updates under concurrent failures), and the allocation tracker shared
one scope stack across threads.  Each test drives the structure from many
threads with a tiny switch interval to force interleavings, then asserts
*exact* counts — a lost update shows up as an off-by-N, not a flake.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.amanda as amanda
from repro.amanda import manager
from repro.core.faults import InstrumentationError, Provenance
from repro.eager import alloc, dispatch
from repro.models.graph.builders import build_mlp

THREADS = 8


@pytest.fixture(autouse=True)
def _aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


def _run_threads(worker, n=THREADS):
    errors: list[BaseException] = []

    def wrapped(i):
        try:
            worker(i)
        except BaseException as e:  # noqa: BLE001 - surfaced via assert
            errors.append(e)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, f"worker raised: {errors[0]!r}"


class TestPlanCacheHammer:
    def test_shared_session_concurrent_fetch_sets(self, rng):
        """8 threads cycle >cache-size fetch sets on one session.

        Unlocked, the OrderedDict's move_to_end/insert/popitem interleave and
        either KeyError, over-evict, or grow past the bound; locked, every
        result is bit-identical to its serial reference and run_count is
        exact (no lost update on the counter either).
        """
        model = build_mlp(seed=3)
        session = model.session()
        feed = {model.inputs: rng.standard_normal((4, 16))}
        # >= 5 distinct fetch tuples, all pure-forward (only the input
        # placeholder is fed), so references are deterministic
        forward = [op for op in model.graph.operations
                   if op.type in ("MatMul", "Relu", "BiasAdd")]
        fetches = [op.outputs[0] for op in forward[:5]] + [model.logits]
        assert len(fetches) >= 5
        iterations = 30
        with amanda.plan_cache_size(3):
            references = [session.run(t, feed) for t in fetches]

            def worker(i):
                for k in range(iterations):
                    j = (i + k) % len(fetches)
                    out = session.run(fetches[j], feed)
                    np.testing.assert_array_equal(out, references[j])

            _run_threads(worker)
            assert len(session._plan_cache) <= 3
        assert session.run_count == len(fetches) + THREADS * iterations
        session.close()

    def test_single_plan_compiled_once_per_fetch_set(self, rng):
        """Concurrent first-touch of one fetch set compiles exactly one plan."""
        model = build_mlp(seed=4)
        session = model.session()
        feed = {model.inputs: rng.standard_normal((2, 16))}
        barrier = threading.Barrier(THREADS)
        plans = []

        def worker(i):
            barrier.wait()
            session.run(model.logits, feed)
            plans.append(next(iter(session._plan_cache.values())))

        _run_threads(worker)
        assert len(session._plan_cache) == 1
        assert len({id(p) for p in plans}) == 1, \
            "racing threads compiled duplicate plans for one fetch set"
        session.close()


class TestHealthHammer:
    FAILURES_PER_THREAD = 200

    def _failure(self, thread: int, k: int) -> InstrumentationError:
        return InstrumentationError(
            ValueError(f"boom-{thread}-{k}"),
            Provenance(tool=f"tool{thread % 4}", op_id=k,
                       op_type="relu", i_point="before_forward_op"),
            phase="analysis")

    def test_concurrent_failures_and_readers(self):
        """8 writers x 200 failures with concurrent snapshot() readers.

        The unlocked counters lost increments (read-modify-write on the
        dict) and readers crashed on mid-append list state; locked, the
        total is exact, every breakdown sums to it, and each reader's
        snapshot is internally consistent.
        """
        manager.reset_health()
        stop = threading.Event()
        snapshots = []

        def reader():
            while not stop.is_set():
                report = manager.snapshot()["faults"]
                assert report["errors"] == sum(report["by_tool"].values())
                snapshots.append(report)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for r in readers:
            r.start()
        try:
            def worker(i):
                for k in range(self.FAILURES_PER_THREAD):
                    manager.record_failure(self._failure(i, k))

            _run_threads(worker)
        finally:
            stop.set()
            for r in readers:
                r.join()

        total = THREADS * self.FAILURES_PER_THREAD
        report = manager.snapshot()["faults"]
        assert report["errors"] == total
        assert sum(report["by_tool"].values()) == total
        assert sum(report["by_i_point"].values()) == total
        assert sum(report["by_op"].values()) == total
        assert len(report["recent"]) == manager.MAX_RECORDED_ERRORS
        assert snapshots, "readers never observed a snapshot"
        manager.reset_health()

    def test_snapshot_is_isolated_from_later_mutation(self):
        manager.reset_health()
        manager.record_failure(self._failure(0, 0))
        report = manager.snapshot()
        before = report["faults"]["by_tool"].copy()
        manager.record_failure(self._failure(0, 1))
        manager.count_fallback("eager.vanilla_op")
        assert report["faults"]["by_tool"] == before, \
            "snapshot() returned live references, not a deep copy"
        assert report["fallbacks"]["eager.vanilla_op"] == 0
        manager.reset_health()

    def test_concurrent_quarantine_is_idempotent(self):
        manager.reset_health()
        epoch = manager.tool_epoch

        def worker(i):
            manager.quarantine("flaky")

        _run_threads(worker)
        assert manager.quarantined == {"flaky"}
        # idempotent: 8 racing quarantines of one tool bump the epoch once
        assert manager.tool_epoch == epoch + 1
        manager.clear_quarantine()
        manager.reset_health()


class TestAllocTrackerHammer:
    PER_THREAD = 500

    def test_scope_stacks_are_thread_local_and_counts_exact(self):
        """Half the threads attribute to "tool", half to "amanda".

        With the old shared scope stack, one thread's push re-attributed
        concurrent threads' allocations (cross-scope bleed); with unlocked
        counters, increments were lost.  Both show up as inexact totals.
        """
        tracker = alloc.tracker
        tracker.reset()

        def worker(i):
            name = "tool" if i % 2 else "amanda"
            tracker.push_scope(name)
            try:
                for _ in range(self.PER_THREAD):
                    assert tracker.current_scope == name
                    scope = tracker.allocate(16)
                    assert scope == name, "allocation bled into another scope"
                    tracker.release(16, scope)
            finally:
                tracker.pop_scope()
            assert tracker.current_scope == "dnn"

        _run_threads(worker)
        snap = tracker.snapshot()
        expected = (THREADS // 2) * self.PER_THREAD * 16
        assert snap["total"]["tool"] == expected
        assert snap["total"]["amanda"] == expected
        assert snap["live"]["tool"] == 0
        assert snap["live"]["amanda"] == 0
        tracker.reset()

    def test_concurrent_uncached_rewrites_release_exactly(self, rng):
        """Threads share one instrumented session with the graph cache off,
        so every run rewrites, charges the ``amanda`` scope and releases the
        charge when it ends; a lost update leaves the scope off by N."""
        model = build_mlp(seed=5)
        feed = {model.inputs: rng.standard_normal((4, 16))}
        tool = amanda.Tool("doubler")
        tool.add_inst_for_op(
            lambda context: context.insert_after_op(lambda a: a * 2.0)
            if context["type"] == "Relu" else None)
        session = model.session()
        with amanda.apply(tool):
            reference = session.run(model.logits, feed)
        tracker = alloc.tracker
        live, total = tracker.live["amanda"], tracker.total_allocated["amanda"]
        runs = 5

        with amanda.apply(tool) as mgr, amanda.cache_disabled():
            driver = next(d for d in mgr._drivers if d.namespace == "graph")

            def worker(i):
                for _ in range(runs):
                    np.testing.assert_array_equal(
                        session.run(model.logits, feed), reference)

            _run_threads(worker)
            assert tracker.live["amanda"] == live
            assert driver._charged == 0
        session.close()
        charge = 512 * len(model.graph.operations)
        assert tracker.total_allocated["amanda"] == \
            total + THREADS * runs * charge
        assert tracker.live["amanda"] == live


class TestGradModeHammer:
    def test_no_grad_is_per_thread(self):
        """Two threads' ``no_grad`` blocks interleave: A enters, B enters,
        A exits, B exits.  With one process-global flag, B's exit restored
        the "off" it saved from A and autograd stayed off for every thread
        (instrumentation routines run under ``no_grad`` on session worker
        threads, so concurrent instrumented runs did exactly this)."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = []

        def worker(i):
            if i == 0:
                with dispatch.no_grad():
                    a_in.set()
                    assert b_in.wait(5)
                seen.append(("a", dispatch.grad_enabled()))
                a_out.set()
            else:
                assert a_in.wait(5)
                with dispatch.no_grad():
                    b_in.set()
                    assert a_out.wait(5)
                    seen.append(("b", dispatch.grad_enabled()))

        assert dispatch.grad_enabled()
        _run_threads(worker, n=2)
        assert seen == [("a", True), ("b", False)]
        assert dispatch.grad_enabled()
