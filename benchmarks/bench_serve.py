"""Serving-runtime benchmark: latency/throughput vs workers and sampling.

Three claims ``repro.serve`` must back with numbers:

* **sampling pays** — at a fixed worker count, serving with 1-in-10 or
  1-in-100 sampled instrumentation delivers strictly more throughput than
  instrumenting every request (rate 1), because un-sampled requests take
  the exempt vanilla fast path instead of queueing on the lease;
* **vanilla lane is near-free** — the un-sampled path through the queue
  and futures onto the graph's vanilla session stays close to a bare
  ``session.run`` loop (the machinery must not eat the fast path's win).
  Warm direct-loop and served rounds alternate in one process and their
  medians are compared, so host noise moves both sides alike;
* **workers scale the vanilla lane** — adding workers increases vanilla
  throughput (sampled execution is lease-serialized by design).

Reports p50/p99 latency (full request latency, enqueue to resolve) and
throughput for workers {1,2,4} x sample rate {1, 1/10, 1/100}.

Runs under pytest (``--benchmark-only``) or directly::

    python benchmarks/bench_serve.py [--smoke]
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

import repro.models.graph as GM
from repro import serve
from repro.tools.pruning import ActivationPruningTool

from _common import report

QUICK = (os.environ.get("REPRO_BENCH_QUICK") == "1"
         or "--smoke" in sys.argv)


class _HeavyAnalysisTool(ActivationPruningTool):
    """Production-weight instrumentation: per-activation singular values.

    Sampling exists because routines like this are too expensive to run on
    every request; the routine passes the activation through unchanged, so
    sampled and vanilla requests stay output-identical and only the cost
    differs.
    """

    def analysis(self, context):
        if context.get("type") not in self.op_types:
            return
        context.insert_after_op(self.spectrum, outputs=[0])

    @staticmethod
    def spectrum(activation):
        mat = activation.reshape(activation.shape[0], -1)
        for _ in range(8):
            np.linalg.svd(mat, compute_uv=False)
        return activation
REQUESTS = 60 if QUICK else 400
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4)
SAMPLE_RATES = (1, 10, 100)
BATCH_SIZE = 8
#: alternating direct/served rounds behind the vanilla-lane comparison
VANILLA_ROUNDS = 3 if QUICK else 21
#: large enough per-request batch that kernel work dominates the
#: queue/batcher/future machinery in the vanilla-overhead comparison
INPUT_SHAPE = (64, 16)


def _workload():
    rng = np.random.default_rng(0)
    model = GM.build_mlp(seed=17)
    feeds = [{model.inputs: rng.standard_normal(INPUT_SHAPE)}
             for _ in range(REQUESTS)]
    return model, feeds


def _timed_burst(rt, tenant, feeds):
    """Requests/s for submitting ``feeds`` at once and reading every result."""
    start = time.perf_counter()
    futures = [rt.submit(tenant, feed) for feed in feeds]
    for future in futures:
        future.result(timeout=120.0)
    return len(feeds) / (time.perf_counter() - start)


def _serve_burst(model, feeds, workers, sample_rate, tools):
    rt = serve.ServeRuntime(f"bench-w{workers}-r{sample_rate}",
                            workers=workers, batch_size=BATCH_SIZE)
    tenant = rt.register("bench", model.graph, model.logits, tools=tools,
                         sample_rate=sample_rate)
    with rt:
        throughput = _timed_burst(rt, tenant, feeds)
        stats = tenant.stats()
    return {
        "workers": workers,
        "rate": sample_rate,
        "throughput": throughput,
        "sampled": stats["sampled"],
        "vanilla": stats["vanilla"],
        "lat_sampled": stats["latency"]["sampled"],
        "lat_vanilla": stats["latency"]["vanilla"],
    }


def _vanilla_rounds(model, feeds):
    """Alternate a bare ``session.run`` loop on one thread with a burst
    served by one worker to a toolless tenant (every request vanilla).

    Both sides are warm before the first round: the loop's session has
    compiled its plan, and the runtime, kept across rounds, has served
    requests on its vanilla session.  Returns the loop's median throughput
    and the served rounds' median throughput with the lane's latencies.
    """
    session = model.session()
    rt = serve.ServeRuntime("bench-vanilla", workers=1,
                            batch_size=BATCH_SIZE)
    tenant = rt.register("bench", model.graph, model.logits)
    direct, served = [], []
    with rt:
        for feed in feeds[:5]:
            session.run(model.logits, feed)
            rt.request(tenant, feed, timeout=120.0)
        for _ in range(VANILLA_ROUNDS):
            start = time.perf_counter()
            for feed in feeds:
                session.run(model.logits, feed)
            direct.append(len(feeds) / (time.perf_counter() - start))
            served.append(_timed_burst(rt, tenant, feeds))
        latency = tenant.stats()["latency"]["vanilla"]
    session.close()
    return statistics.median(direct), {"throughput": statistics.median(served),
                                       "lat_vanilla": latency}


def run_all():
    model, feeds = _workload()
    direct, plain = _vanilla_rounds(model, feeds)
    rows = [_serve_burst(model, feeds, workers, rate,
                         tools=(_HeavyAnalysisTool(),))
            for workers in WORKER_COUNTS
            for rate in SAMPLE_RATES]
    return direct, plain, rows


def _fmt_ms(value):
    return "-" if value is None else f"{value:8.2f}"


def check_and_report(direct, plain, rows):
    lines = [f"MLP {INPUT_SHAPE}, {REQUESTS} requests/burst, "
             f"batch<={BATCH_SIZE}, host_cpus={os.cpu_count()}",
             f"medians of {VANILLA_ROUNDS} alternating rounds:",
             f"direct session.run loop: {direct:9.1f} req/s",
             f"serve vanilla-only (1 worker): {plain['throughput']:9.1f} "
             f"req/s ({plain['throughput'] / direct:.2f}x of direct, "
             f"p50 {_fmt_ms(plain['lat_vanilla']['p50_ms'])}ms "
             f"p99 {_fmt_ms(plain['lat_vanilla']['p99_ms'])}ms)",
             "",
             f"{'workers':<8} {'rate':>6} {'req/s':>9} "
             f"{'van p50':>9} {'van p99':>9} {'smp p50':>9} {'smp p99':>9} "
             f"{'sampled':>8}"]
    for row in rows:
        lines.append(
            f"{row['workers']:<8} 1/{row['rate']:<4} "
            f"{row['throughput']:>9.1f} "
            f"{_fmt_ms(row['lat_vanilla']['p50_ms'])} "
            f"{_fmt_ms(row['lat_vanilla']['p99_ms'])} "
            f"{_fmt_ms(row['lat_sampled']['p50_ms'])} "
            f"{_fmt_ms(row['lat_sampled']['p99_ms'])} "
            f"{row['sampled']:>8}")
    report("serve", lines)

    by_cell = {(r["workers"], r["rate"]): r for r in rows}
    for row in rows:
        # the deterministic 1-in-N split routed exactly as promised
        expected = (REQUESTS + row["rate"] - 1) // row["rate"]
        assert row["sampled"] == expected
        assert row["vanilla"] == REQUESTS - expected
        # latency recorders saw every request, with finite percentiles
        for lane in ("lat_vanilla", "lat_sampled"):
            if row[lane]["count"]:
                assert np.isfinite(row[lane]["p99_ms"])
                assert row[lane]["p99_ms"] >= row[lane]["p50_ms"]
    for workers in WORKER_COUNTS:
        # sampling pays: 1-in-100 beats instrumenting every request
        always = by_cell[(workers, 1)]["throughput"]
        sampled = by_cell[(workers, 100)]["throughput"]
        assert sampled > always, (
            f"sampling gained nothing at {workers} workers: "
            f"{sampled:.1f} <= {always:.1f} req/s")
    if not QUICK and (os.cpu_count() or 1) >= 2:
        # the serving machinery keeps the vanilla lane near the bare loop;
        # only armed with a second core, since on one CPU the submitting
        # thread and the worker contend for the same core
        overhead = direct / plain["throughput"] - 1.0
        assert overhead <= 0.25, (
            f"vanilla lane overhead {overhead:.1%} over the direct loop")


def test_serve(benchmark):
    direct, plain, rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    check_and_report(direct, plain, rows)


if __name__ == "__main__":
    check_and_report(*run_all())
