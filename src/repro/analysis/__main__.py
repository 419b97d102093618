"""CLI: statically verify + lint the example model graphs.

Usage::

    python -m repro.analysis                # all examples
    python -m repro.analysis resnet bert    # a subset
    python -m repro.analysis --strict       # lint warnings fail the run
    python -m repro.analysis remat          # static remat schedules only

For every example model the tool

1. checks schema-registry completeness (every implemented op has a
   schema);
2. builds the model's forward+backward graph and verifies it;
3. instruments the graph statically with real tools (pruning + profiling —
   no kernel executes) and verifies the instrumented copy, including
   fetch-redirect consistency;
4. lints the recorded action stream for tool-composition problems;
5. prints the static liveness/peak-memory estimate.

Exit status is non-zero on verification failures or missing schemas (and
on lint findings with ``--strict``) — suitable as a CI gate.

The ``remat`` subcommand prints each example's static rematerialization
schedule against a memory budget instead (``--budget`` takes a byte count
with an optional K/M/G suffix; default 60% of each model's unbudgeted peak).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _build_examples():
    from ..models.graph import builders as GM
    return {
        "mlp": (lambda: GM.build_mlp(learning_rate=0.1),
                {"input": (8, 16), "labels": (8,)}),
        "vgg": (lambda: GM.build_vgg("vgg16", learning_rate=0.1),
                {"input": (2, 16, 16, 3), "labels": (2,)}),
        "resnet": (lambda: GM.build_resnet(learning_rate=0.1),
                   {"input": (2, 16, 16, 3), "labels": (2,)}),
        "mobilenet": (lambda: GM.build_mobilenet_v2(learning_rate=0.1),
                      {"input": (2, 16, 16, 3), "labels": (2,)}),
        "inception": (lambda: GM.build_inception_v3(learning_rate=0.1),
                      {"input": (2, 16, 16, 3), "labels": (2,)}),
        "bert": (lambda: GM.build_bert(learning_rate=0.1),
                 {"input": (2, 16), "labels": (2, 16)}),
    }


def _check_schemas() -> int:
    from . import schemas
    from ..eager import ops as eager_ops
    eager_ops.register_default_ops()
    try:
        schemas.check_registry_complete()
    except schemas.SchemaError as exc:
        print(f"FAIL schema registry incomplete: {exc}")
        return 1
    print(f"ok   schema registry complete "
          f"({len(schemas.GRAPH_SCHEMAS)} graph ops, "
          f"{len(schemas.EAGER_SCHEMAS)} eager ops)")
    return 0


def _check_span_safety() -> int:
    from .source_lint import lint_span_safety
    issues = lint_span_safety()
    for issue in issues:
        print(f"FAIL {issue}")
    if not issues:
        print("ok   span accounting exception-safe in backend drivers")
    return len(issues)


def _analyze_example(name: str, build, feeds, strict: bool) -> int:
    from .. import amanda
    from ..tools.profiling import FlopsProfilingTool
    from ..tools.pruning import MagnitudePruningTool
    from .lint import lint_contexts
    from .liveness import estimate_liveness
    from .verify import verify_graph

    failures = 0
    gm = build()
    fetches = [gm.loss] + ([gm.train_op] if gm.train_op is not None else [])

    report = verify_graph(gm.graph, feed_shapes=feeds)
    status = "ok  " if report.ok else "FAIL"
    print(f"{status} {name}: vanilla graph — {report}")
    failures += 0 if report.ok else 1

    # static instrumentation: the driver rewrites a copy, no kernel runs
    tools = [MagnitudePruningTool(sparsity=0.5), FlopsProfilingTool()]
    with amanda.apply(*tools) as mgr:
        driver = next(d for d in mgr._drivers if d.namespace == "graph")
        driver.verify = False  # we want the report, not an exception
        rewrite = driver._instrument_graph(gm.graph, feed_shapes=feeds)
        instrumented, redirects = rewrite.graph, rewrite.redirects
        contexts = list(driver.last_contexts)
        ireport = verify_graph(instrumented, feed_shapes=feeds,
                               redirects=redirects, source_graph=gm.graph)
        lints = lint_contexts(contexts,
                              fetch_names=[t.name for t in fetches],
                              manager=mgr)
    status = "ok  " if ireport.ok else "FAIL"
    print(f"{status} {name}: instrumented graph "
          f"(+{len(instrumented.operations) - len(gm.graph.operations)} "
          f"wrapper ops, {len(redirects)} redirects) — {ireport}")
    failures += 0 if ireport.ok else 1

    for issue in lints:
        print(f"warn {name}: {issue}")
    if strict and lints:
        failures += 1

    live = estimate_liveness(gm.graph, fetches=fetches, feed_shapes=feeds)
    print(f"     {name}: static peak activations "
          f"{live.peak_bytes / 1024:.1f} KiB at {live.peak_op} "
          f"({len(live.schedule)} scheduled ops, "
          f"{len(live.unknown_ops)} unknown shapes)")
    return failures


def _remat_example(name: str, build, feeds, budget: int | None) -> int:
    from .remat import plan_remat_for_graph

    gm = build()
    fetches = [gm.loss] + ([gm.train_op] if gm.train_op is not None else [])
    unbudgeted = plan_remat_for_graph(gm.graph, fetches, budget=1 << 62,
                                      feed_shapes=feeds)
    baseline = unbudgeted.serial_peak
    target = budget if budget is not None else int(baseline * 0.6)
    schedule = plan_remat_for_graph(gm.graph, fetches, budget=target,
                                    feed_shapes=feeds)
    verdict = "fits" if schedule.feasible else "EXCEEDS"
    print(f"{'ok  ' if schedule.feasible else 'over'} {name}: "
          f"budget {target / 1024:.1f} KiB, "
          f"baseline {baseline / 1024:.1f} KiB -> "
          f"peak {schedule.serial_peak / 1024:.1f} KiB ({verdict}, "
          f"{schedule.num_recomputes} recomputes over "
          f"{len(schedule.evicted)} evicted ops, "
          f"+{schedule.recompute_flops} FLOPs)")
    return 0


def _budget_arg(text: str) -> int:
    """``--budget``: a byte count >= 0 with an optional K/M/G suffix."""
    from ..core.config import _parse_bytes

    # the knob parser falls back to its default on junk and clamps negatives
    budget = _parse_bytes(text, default=-1)
    if budget < 0 or text.strip().startswith("-"):
        raise argparse.ArgumentTypeError(
            f"invalid byte count {text!r} (expected e.g. 0, 4096 or 3M)")
    return budget


def _remat_main(argv: list[str]) -> int:
    examples = _build_examples()
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis remat",
        description="static rematerialization schedules for the example "
                    "models: budget vs simulated peak")
    parser.add_argument("examples", nargs="*", metavar="example",
                        help=f"examples to analyze (default: all of "
                             f"{', '.join(sorted(examples))})")
    parser.add_argument("--budget", default=None, metavar="BYTES",
                        type=_budget_arg,
                        help="memory budget (accepts suffixes, e.g. 3M); "
                             "default: 60%% of each model's liveness bound")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.examples) - set(examples))
    if unknown:
        parser.error(f"unknown example(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(sorted(examples))})")
    np.seterr(all="ignore")
    failures = 0
    for name in args.examples or sorted(examples):
        build, feeds = examples[name]
        try:
            failures += _remat_example(name, build, feeds, args.budget)
        except Exception as exc:  # planning must never crash on the zoo
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
    print("PASS" if failures == 0 else f"FAIL ({failures} failing checks)")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "remat":
        return _remat_main(argv[1:])
    examples = _build_examples()
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="statically verify + lint the example model graphs")
    parser.add_argument("examples", nargs="*", metavar="example",
                        help=f"examples to analyze (default: all of "
                             f"{', '.join(sorted(examples))})")
    parser.add_argument("--strict", action="store_true",
                        help="treat lint warnings as failures")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.examples) - set(examples))
    if unknown:
        parser.error(f"unknown example(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(sorted(examples))})")

    np.seterr(all="ignore")
    selected = args.examples or sorted(examples)
    failures = _check_schemas()
    failures += _check_span_safety()
    for name in selected:
        build, feeds = examples[name]
        failures += _analyze_example(name, build, feeds, args.strict)
    print("PASS" if failures == 0 else f"FAIL ({failures} failing checks)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
