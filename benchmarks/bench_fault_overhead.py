"""Fault-isolation overhead: what does the recovery layer cost?

Three questions the fault layer must answer with numbers:

* **happy path** — the try/except + provenance plumbing on the hot path must
  not change the instrumented steady state measurably;
* **failing path** — under ``"record"`` every faulting op pays one recovery
  (wrap, count, re-run vanilla); the per-fault cost should stay in the
  microsecond range, not the millisecond range;
* **quarantined path** — after ``"quarantine"`` disables the tool, plans
  recompile without its actions and steady-state latency should approach the
  vanilla (uninstrumented) run.
"""

import os

import numpy as np

import repro.amanda as amanda
import repro.eager as E
import repro.models.eager as M
from repro.amanda.tools import ExecutionTraceTool, FaultyTool

from _common import report, wall_time

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
REPEATS = 3 if QUICK else 8


def run_all():
    rng = np.random.default_rng(0)
    model = M.resnet18()
    x = E.tensor(rng.standard_normal((2, 3, 16, 16)))

    vanilla = wall_time(lambda: model(x), repeats=REPEATS)

    with amanda.apply(ExecutionTraceTool()):
        instrumented = wall_time(lambda: model(x), repeats=REPEATS)

    # record policy: every relu faults on every iteration, recovery per op
    tool = FaultyTool(i_point="before_forward_op", mode="instrumentation",
                      op_type="relu", always=True)
    with amanda.error_policy("record"), amanda.apply(tool) as mgr:
        failing = wall_time(lambda: model(x), repeats=REPEATS)
        faults_per_iter = (mgr.snapshot()["faults"]["errors"]
                           / (REPEATS + 1))  # + warmup

    # quarantine policy: one fault disables the tool, steady state is vanilla
    tool = FaultyTool(i_point="before_forward_op", mode="instrumentation",
                      op_type="relu")
    with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
        model(x)  # trigger the fault + quarantine
        assert tool.name in mgr.quarantined
        quarantined = wall_time(lambda: model(x), repeats=REPEATS)

    return vanilla, instrumented, failing, quarantined, faults_per_iter


def test_fault_overhead(benchmark):
    result = benchmark.pedantic(run_all, rounds=1, iterations=1)
    vanilla, instrumented, failing, quarantined, faults_per_iter = result
    per_fault_us = (max(0.0, failing - instrumented) / max(1.0, faults_per_iter)
                    ) * 1e6
    lines = [
        f"{'configuration':<28} {'wall/iter':>11} {'vs vanilla':>11}",
        f"{'vanilla':<28} {vanilla * 1e3:>9.3f}ms {1.0:>10.2f}x",
        f"{'instrumented (tracing)':<28} {instrumented * 1e3:>9.3f}ms "
        f"{instrumented / vanilla:>10.2f}x",
        f"{'record policy, all relus':<28} {failing * 1e3:>9.3f}ms "
        f"{failing / vanilla:>10.2f}x",
        f"{'quarantined steady state':<28} {quarantined * 1e3:>9.3f}ms "
        f"{quarantined / vanilla:>10.2f}x",
        f"faults/iter {faults_per_iter:.1f}, "
        f"recovery cost ~{per_fault_us:.1f}us/fault",
    ]
    report("fault_overhead", lines)

    # a quarantined tool's steady state must be closer to vanilla than the
    # failing run is — recovery work disappears once the tool is disabled
    assert quarantined <= failing * 1.5
    # fault recovery is bounded: well under a millisecond per fault
    assert per_fault_us < 1000.0, per_fault_us
