"""Unit tests for the simulated kernel runtime (CUPTI analog)."""

import threading

import numpy as np
import pytest

from repro.kernels.runtime import KernelEvent, KernelRuntime


@pytest.fixture
def runtime() -> KernelRuntime:
    return KernelRuntime()


def test_launch_passthrough_without_subscribers(runtime):
    result = runtime.launch("gemm", np.matmul, np.eye(3), np.ones((3, 2)))
    assert result.shape == (3, 2)
    assert runtime.launch_count == 1


def test_subscriber_receives_events(runtime):
    events: list[KernelEvent] = []
    runtime.subscribe(events.append)
    runtime.launch("relu", np.maximum, np.array([-1.0, 2.0]), 0.0)
    runtime.unsubscribe(events.append)
    assert len(events) == 1
    event = events[0]
    assert event.name == "relu"
    assert event.duration >= 0
    assert event.bytes_accessed > 0


def test_unsubscribe_stops_events(runtime):
    events = []
    runtime.subscribe(events.append)
    runtime.unsubscribe(events.append)
    runtime.launch("noop", lambda: 0)
    assert events == []


def test_correlation_tag_stack(runtime):
    events = []
    runtime.subscribe(events.append)
    runtime.push_tag("conv2d|1")
    runtime.push_tag("gemm|2")
    runtime.launch("inner", lambda: np.zeros(1))
    runtime.pop_tag()
    runtime.launch("outer", lambda: np.zeros(1))
    runtime.pop_tag()
    runtime.launch("untagged", lambda: np.zeros(1))
    runtime.unsubscribe(events.append)
    assert events[0].correlation_tag == "gemm|2"
    assert events[1].correlation_tag == "conv2d|1"
    assert events[2].correlation_tag is None


def test_pop_tag_on_empty_stack_is_noop(runtime):
    runtime.pop_tag()
    assert runtime.current_tag() is None


def test_bytes_accessed_counts_args_and_result(runtime):
    events = []
    runtime.subscribe(events.append)
    a = np.zeros((4, 4))
    runtime.launch("copy", lambda x: x.copy(), a)
    runtime.unsubscribe(events.append)
    assert events[0].bytes_accessed == 2 * a.nbytes


def test_multiple_subscribers_all_notified(runtime):
    seen_a, seen_b = [], []
    runtime.subscribe(seen_a.append)
    runtime.subscribe(seen_b.append)
    runtime.launch("k", lambda: np.zeros(1))
    runtime.unsubscribe(seen_a.append)
    runtime.unsubscribe(seen_b.append)
    assert len(seen_a) == len(seen_b) == 1


def test_event_meta_passthrough(runtime):
    events = []
    runtime.subscribe(events.append)
    runtime.launch("k", lambda: np.zeros(1), meta={"algo": "winograd"})
    runtime.unsubscribe(events.append)
    assert events[0].meta == {"algo": "winograd"}


# -- thread safety (serving workers launch from several threads) -------------

def _hammer(runtime, threads, launches_per_thread):
    def work():
        for _ in range(launches_per_thread):
            runtime.launch("k", lambda: np.zeros(1))
    workers = [threading.Thread(target=work) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()


def test_launch_count_exact_under_contention(runtime):
    _hammer(runtime, threads=8, launches_per_thread=200)
    assert runtime.launch_count == 8 * 200


def test_subscriber_sees_every_event_under_contention(runtime):
    events = []
    lock = threading.Lock()

    def record(event):
        with lock:
            events.append(event)

    runtime.subscribe(record)
    _hammer(runtime, threads=8, launches_per_thread=100)
    runtime.unsubscribe(record)
    assert len(events) == 8 * 100


def test_correlation_tags_are_per_thread(runtime):
    events = []
    lock = threading.Lock()

    def record(event):
        with lock:
            events.append(event)

    runtime.subscribe(record)
    barrier = threading.Barrier(2)

    def work(tag):
        runtime.push_tag(tag)
        barrier.wait()  # both threads hold their tag simultaneously
        for _ in range(20):
            runtime.launch("k", lambda: np.zeros(1))
        runtime.pop_tag()

    threads = [threading.Thread(target=work, args=(f"op|{i}",))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    runtime.unsubscribe(record)
    by_tag = {}
    for event in events:
        by_tag[event.correlation_tag] = by_tag.get(event.correlation_tag, 0) + 1
    # no cross-thread bleed: each thread's 20 launches carry its own tag
    assert by_tag == {"op|0": 20, "op|1": 20}
    assert runtime.current_tag() is None  # main thread's stack untouched
