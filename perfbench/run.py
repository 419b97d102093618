"""The repo benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> \\
        [--seconds <s>] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, in turn

Workloads, metrics and the default ``--seconds`` come from
``BENCHMARK.json`` at the root of the checkout.  ``--trace 0`` (the
default) measures the end-to-end metrics with nothing attached to the
program.  ``--trace 1`` runs the same workload twice on one
set-up budget: half the seconds untraced, then, on a fresh set-up, half
traced at the program's layer seams (see ``spans.py``); it reports the
per-layer metrics and the tracing overhead.  Either way the last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import os
import sys

# pin the environment before numpy is imported: single-threaded BLAS and
# every AMANDA_* knob at its default
for _key in [key for key in os.environ if key.startswith("AMANDA_")]:
    del os.environ[_key]
for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

import harness  # noqa: E402


def _import_program() -> None:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"program source not found under {source}")
    sys.path.insert(0, source)


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import numpy as np
    from repro.core.config import config
    from repro.core.manager import manager
    from repro.eager import alloc

    import spans as tracing
    import workloads

    print(json.dumps({"provenance": harness.provenance(
        name, seed, seconds, trace, config, np.__version__)}))
    workload = workloads.WORKLOAD_TYPES[name](seed)
    tally = harness.Tally()
    setup_s, setups = harness.median_setup(workload.setup,
                                           workload.teardown)
    print(f"setup: median {setup_s:.4f}s, cold {setups[0]:.4f}s; all "
          + ", ".join(f"{s:.4f}" for s in setups))

    if not trace:
        raw = workload.timed(seconds, tally)
        values = workload.end_to_end(raw, tally)
        values["setup_s"] = setup_s
        values["max_rss_mb"] = harness.max_rss_mb()
        workload.check(tally)
        table = harness.END_TO_END
        print(f"operations: {tally.attempted} attempted, {tally.failed} "
              f"failed (fail_ratio {tally.ratio:.6f})")
    else:
        untraced = workload.timed(seconds / 2, tally)
        workload.teardown()
        recorder = tracing.Recorder()
        tracer = tracing.Tracer(recorder)
        tracer.install()
        try:
            workload.recorder = recorder
            compiled_before = manager.plan_stats()["compiled"]
            workload.setup()
            plans_compiled = manager.plan_stats()["compiled"] - compiled_before
            raw = workload.timed(seconds / 2, tally)
            live = alloc.tracker.snapshot()["live"]
            primary, vanilla = workload.traced_keys(raw)
            values = dict.fromkeys((row[0] for row in harness.PER_LAYER),
                                   0.0)
            values.update(tracing.layer_metrics(recorder, primary, vanilla,
                                                ("setup", "primary")))
            values.update(workload.layer_extras(raw))
            values["core.plans_compiled"] = plans_compiled
            values["alloc.amanda_mb"] = live["amanda"] / 1e6
            values["alloc.tool_mb"] = live["tool"] / 1e6
            values["trace.overhead_ratio"] = (workload.primary_p50(raw)
                                              / workload.primary_p50(untraced))
            print(f"spans recorded: {len(recorder.spans)}")
        finally:
            tracer.uninstall()
        workload.recorder = None
        workload.check(tally)
        table = harness.PER_LAYER
        print(f"operations: {tally.attempted} attempted, {tally.failed} "
              f"failed (fail_ratio {tally.ratio:.6f})")
    for line in workload.notes(raw):
        print(line)
    for reason in tally.reasons:
        print(f"failure: {reason}")
    for row in table:
        print(f"{row[0]:<30} {values[row[0]]:>14.6g} {row[1]}")
    print(harness.result_line(tally, values, table))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in harness.WORKLOADS:
        print(f"===== {name} =====", flush=True)
        status |= subprocess.call(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))])
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=harness.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=harness.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
