"""Multi-tenant isolation matrix for the serving runtime.

Two tenants served concurrently from one process:

* **prune** — an MLP with :class:`ActivationPruningTool` at sample rate 1
  (every request instrumented);
* **faulty** — a different MLP with a :class:`FaultyTool` whose inserted
  instrumentation routine always raises, under the ``"quarantine"`` policy —
  the driver's recovery path quarantines it and its requests must come out
  vanilla-equivalent.

The matrix asserts that at every worker count the concurrent multi-tenant
outputs are **bit-identical** to serial single-tenant references: the prune
tenant's instrumented results never leak into the faulty tenant's vanilla
recovery (and vice versa), across lease swaps and quarantine capture.

The swap tests then pin what a lease swap keeps: with one worker whose
queue is full before it starts, the lease swaps tenants on every request
and never idles closed, and each tenant's instrumented graph is rewritten,
and its plan compiled, once for the whole run.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.amanda as amanda
from repro.amanda import manager
from repro import serve
from repro.backends.graph_driver import GraphDriver
from repro.graph import session as session_module
from repro.models.graph.builders import build_mlp
from repro.tools.faulty import FaultyTool
from repro.tools.profiling import KernelProfilingTool
from repro.tools.pruning import ActivationPruningTool, MagnitudePruningTool

REQUESTS = 10
#: requests per tenant in the swap tests: two tenants alternating swap the
#: lease on every request, so 2 * ROUNDS swaps
ROUNDS = 12


def _feeds(model, rng, n=REQUESTS):
    return [{model.inputs: rng.standard_normal((4, 16))} for _ in range(n)]


@pytest.fixture(scope="module")
def workload():
    """Shared graphs, feeds, and serial single-tenant references."""
    rng = np.random.default_rng(42)
    prune_model = build_mlp(seed=11)
    faulty_model = build_mlp(seed=22, hidden=24)
    prune_feeds = _feeds(prune_model, rng)
    faulty_feeds = _feeds(faulty_model, rng)

    # serial reference 1: the prune tenant as the *only* tenant, every
    # request under its tool (classic amanda.apply usage)
    session = prune_model.session()
    with amanda.apply(ActivationPruningTool(keep_ratio=0.25)):
        prune_refs = [session.run(prune_model.logits, f)
                      for f in prune_feeds]
    session.close()
    manager.reset_health()

    # serial reference 2: the faulty tenant must recover to vanilla, so its
    # reference is the plain uninstrumented run
    session = faulty_model.session()
    faulty_refs = [session.run(faulty_model.logits, f)
                   for f in faulty_feeds]
    session.close()

    return {
        "prune": (prune_model, prune_feeds, prune_refs),
        "faulty": (faulty_model, faulty_feeds, faulty_refs),
    }


@pytest.mark.parametrize("workers", [1, 4])
def test_concurrent_tenants_bit_identical_to_serial(workload, workers):
    prune_model, prune_feeds, prune_refs = workload["prune"]
    faulty_model, faulty_feeds, faulty_refs = workload["faulty"]

    rt = serve.ServeRuntime(f"matrix-w{workers}", workers=workers,
                            batch_size=4, deadline_ms=2.0)
    prune = rt.register(
        "prune", prune_model.graph, prune_model.logits,
        tools=(ActivationPruningTool(keep_ratio=0.25),), sample_rate=1)
    faulty = rt.register(
        "faulty", faulty_model.graph, faulty_model.logits,
        tools=(FaultyTool(mode="instrumentation", always=True),),
        sample_rate=1, error_policy="quarantine")

    with rt:
        # interleave submissions so lease swaps actually happen
        futures = []
        for pf, ff in zip(prune_feeds, faulty_feeds):
            futures.append(("prune", rt.submit(prune, pf)))
            futures.append(("faulty", rt.submit(faulty, ff)))
        results = {"prune": [], "faulty": []}
        for tenant_name, future in futures:
            results[tenant_name].append(future.result(timeout=60.0))

    for out, ref in zip(results["prune"], prune_refs):
        np.testing.assert_array_equal(
            out, ref, err_msg="prune tenant diverged from serial reference")
    for out, ref in zip(results["faulty"], faulty_refs):
        np.testing.assert_array_equal(
            out, ref,
            err_msg="faulty tenant's quarantine recovery is not vanilla")

    snap = rt.snapshot()
    assert snap["tenants"]["prune"]["sampled"] == REQUESTS
    assert snap["tenants"]["faulty"]["sampled"] == REQUESTS
    # the fault was quarantined for the faulty tenant only; the quarantine
    # was captured into the tenant across lease swaps, never global state
    assert faulty.quarantined, "FaultyTool was never quarantined"
    assert not prune.quarantined
    assert not manager.quarantined, "quarantine leaked past runtime stop"
    manager.reset_health()


def test_sampled_lane_routing_with_rate_3(workload):
    """1-in-3 sampling: sampled requests instrumented, the rest vanilla."""
    prune_model, prune_feeds, prune_refs = workload["prune"]

    # vanilla references for the un-sampled 2-in-3
    session = prune_model.session()
    vanilla_refs = [session.run(prune_model.logits, f) for f in prune_feeds]
    session.close()
    # guard against a vacuous test: the tool must actually change outputs
    # (keep_ratio 0.5 on relu outputs is a silent no-op — about half the
    # activations are already zero, so the top-half threshold is 0)
    assert not np.array_equal(prune_refs[0], vanilla_refs[0])

    rt = serve.ServeRuntime("rate3", workers=2, batch_size=4,
                            deadline_ms=2.0)
    tenant = rt.register(
        "prune", prune_model.graph, prune_model.logits,
        tools=(ActivationPruningTool(keep_ratio=0.25),), sample_rate=3)
    with rt:
        futures = [rt.submit(tenant, f) for f in prune_feeds]
        outs = [f.result(timeout=60.0) for f in futures]

    for k, out in enumerate(outs):
        ref = prune_refs[k] if k % 3 == 0 else vanilla_refs[k]
        np.testing.assert_array_equal(
            out, ref, err_msg=f"request {k} ran on the wrong lane")
    snap = rt.snapshot()["tenants"]["prune"]
    assert snap["sampled"] == 4   # k = 0, 3, 6, 9
    assert snap["vanilla"] == 6


# ---------------------------------------------------------------------------
# lease swaps keep each tenant's instrumented graph and plan
# ---------------------------------------------------------------------------

def _serve_alternating(monkeypatch, tenants):
    """Serve ``ROUNDS`` requests per tenant, alternating tenants, all on the
    sampled lane of one worker whose queue is filled before it starts.

    ``tenants`` maps name -> (model, feeds, tools).  Returns
    each tenant's outputs, the runtime, the tenants, the vanilla graph of
    every rewrite the graph driver made and the number of session plans
    compiled while serving.
    """
    rewritten, compiled = [], []
    rewrite = GraphDriver._instrument_graph

    def counting_rewrite(driver, graph, *args, **kwargs):
        rewritten.append(graph)
        return rewrite(driver, graph, *args, **kwargs)

    class CountingPlan(session_module.CompiledPlan):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            compiled.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(GraphDriver, "_instrument_graph", counting_rewrite)
    monkeypatch.setattr(session_module, "CompiledPlan", CountingPlan)

    rt = serve.ServeRuntime("alternating", workers=1, batch_size=1)
    registered = {
        name: rt.register(name, model.graph, model.logits, tools=tools,
                          sample_rate=1)
        for name, (model, _, tools) in tenants.items()}
    futures = [(name, rt.submit(registered[name],
                                tenants[name][1][k % REQUESTS]))
               for k in range(ROUNDS) for name in tenants]
    outputs = {name: [] for name in tenants}
    with rt:
        for name, future in futures:
            outputs[name].append(future.result(timeout=60.0))
    return outputs, rt, registered, rewritten, len(compiled)


def _assert_outputs(outputs, refs):
    for name, outs in outputs.items():
        for k, out in enumerate(outs):
            np.testing.assert_array_equal(
                out, refs[name][k % REQUESTS],
                err_msg=f"{name} request {k} diverged from its reference")


def test_swaps_keep_each_tenants_graph_and_plan(workload, monkeypatch):
    prune_model, prune_feeds, prune_refs = workload["prune"]
    other_model, other_feeds, _ = workload["faulty"]
    session = other_model.session()
    with amanda.apply(MagnitudePruningTool(sparsity=0.5)):
        other_refs = [session.run(other_model.logits, f)
                      for f in other_feeds]
    session.close()

    outputs, rt, _, rewritten, compiles = _serve_alternating(monkeypatch, {
        "prune": (prune_model, prune_feeds,
                  (ActivationPruningTool(keep_ratio=0.25),)),
        "magnitude": (other_model, other_feeds,
                      (MagnitudePruningTool(sparsity=0.5),)),
    })

    _assert_outputs(outputs, {"prune": prune_refs, "magnitude": other_refs})
    assert rt.snapshot()["lease"]["swaps"] == 2 * ROUNDS
    assert len(rewritten) == 2, "a returning tenant's graph was rewritten"
    assert compiles == 2, "a returning tenant's plan was compiled again"


def test_quarantine_reapplied_on_every_swap(workload, monkeypatch):
    prune_model, prune_feeds, prune_refs = workload["prune"]
    faulty_model, faulty_feeds, faulty_refs = workload["faulty"]
    faulty_tool = FaultyTool(mode="instrumentation", always=True)

    outputs, _, tenants, rewritten, _ = _serve_alternating(monkeypatch, {
        "prune": (prune_model, prune_feeds,
                  (ActivationPruningTool(keep_ratio=0.25),)),
        "faulty": (faulty_model, faulty_feeds, (faulty_tool,)),
    })

    _assert_outputs(outputs, {"prune": prune_refs, "faulty": faulty_refs})
    # the tool failed once; every later swap re-applied its quarantine, so
    # the faulty tenant ran the graph rewritten without it
    assert faulty_tool.faults == 1
    assert tenants["faulty"].quarantined == {faulty_tool.name}
    assert not tenants["prune"].quarantined
    assert [g is prune_model.graph for g in rewritten].count(True) == 1, \
        "a quarantine swap re-rewrote the pruning tenant's graph"
    assert [g is faulty_model.graph for g in rewritten].count(True) == 2
    assert not manager.quarantined, "quarantine leaked past runtime stop"
    manager.reset_health()


def test_kernel_profiler_sees_only_its_own_requests(workload, monkeypatch):
    prune_model, prune_feeds, prune_refs = workload["prune"]
    model, feeds, refs = workload["faulty"]

    def launches(tool):
        return {op: {kernel: len(times) for kernel, times in kernels.items()}
                for op, kernels in tool.kernel_times.items()}

    baseline = manager.snapshot()["kernels"]["subscribers"]
    serial = KernelProfilingTool()
    session = model.session()
    with amanda.apply(serial):
        for k in range(ROUNDS):
            session.run(model.logits, feeds[k % REQUESTS])
    session.close()

    profiler = KernelProfilingTool()
    outputs, _, _, _, _ = _serve_alternating(monkeypatch, {
        "profiled": (model, feeds, (profiler,)),
        "prune": (prune_model, prune_feeds,
                  (ActivationPruningTool(keep_ratio=0.25),)),
    })

    _assert_outputs(outputs, {"profiled": refs, "prune": prune_refs})
    assert launches(profiler) == launches(serial)
    assert manager.snapshot()["kernels"]["subscribers"] == baseline
