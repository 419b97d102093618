"""Fig. 13 — memory-footprint breakdown of the tracing tool by batch size.

For ResNet and Transformer on both backends, splits allocated bytes during an
instrumented forward into the DNN / Amanda-framework / tool shares, at batch
sizes 1, 2, 4.

Expected shape: Amanda's share is a minor fraction and *shrinks* as the batch
grows (framework bookkeeping is batch-independent while activations scale);
the relative overhead is largest for the small Transformer at batch 1.
"""

import numpy as np

import repro.amanda as amanda
import repro.eager as E
import repro.models.eager as M
import repro.models.graph as GM
from repro.amanda.tools import ExecutionTraceTool
from repro.eager import alloc

from _common import report


def eager_case(factory, make_input, batch):
    model = factory()
    x = make_input(batch)
    tool = ExecutionTraceTool()
    alloc.tracker.reset()
    with amanda.apply(tool):
        model(x)
    totals = alloc.tracker.snapshot()["total"]
    return totals


def graph_case(build, make_feed, batch):
    gm = build()
    sess = gm.session()
    tool = ExecutionTraceTool()
    with amanda.apply(tool):
        sess.run(gm.logits, make_feed(gm, batch))  # build instrumented graph
        alloc.tracker.reset()
        sess.run(gm.logits, make_feed(gm, batch))
        totals = alloc.tracker.snapshot()["total"]
    return totals


def run_memory():
    rng = np.random.default_rng(0)
    cases = []

    def image(batch):
        return E.tensor(rng.standard_normal((batch, 3, 16, 16)))

    def tokens_model():
        return M.bert_mini(layers=2)

    def tokens(batch):
        return rng.integers(0, 32, (batch, 16))

    for batch in (1, 2, 4):
        cases.append(("Eager-ResNet", batch,
                      eager_case(M.resnet18, image, batch)))
        cases.append(("Eager-Transformer", batch,
                      eager_case(tokens_model, tokens, batch)))

    def image_feed(gm, batch):
        return {gm.inputs: rng.standard_normal((batch, 16, 16, 3))}

    def token_feed(gm, batch):
        return {gm.inputs: rng.integers(0, 32, (batch, 16))}

    for batch in (1, 2, 4):
        cases.append(("Graph-ResNet", batch, graph_case(
            lambda: GM.build_resnet(layers=(1, 1, 1, 1)), image_feed, batch)))
        cases.append(("Graph-Transformer", batch, graph_case(
            GM.build_bert, token_feed, batch)))
    return cases


def test_fig13_memory(benchmark):
    cases = benchmark.pedantic(run_memory, rounds=1, iterations=1)
    lines = [f"{'model':<18} {'batch':>5} {'DNN %':>8} {'Amanda %':>9} "
             f"{'tool %':>7}"]
    shares = {}
    for name, batch, totals in cases:
        total = sum(totals.values()) or 1
        dnn = 100.0 * totals["dnn"] / total
        fw = 100.0 * totals["amanda"] / total
        tool = 100.0 * totals["tool"] / total
        shares[(name, batch)] = fw + tool
        lines.append(f"{name:<18} {batch:>5} {dnn:>7.1f}% {fw:>8.1f}% "
                     f"{tool:>6.1f}%")

    report("fig13_memory", lines)

    # overhead share shrinks (or stays flat) with batch size
    for name in ("Eager-ResNet", "Eager-Transformer", "Graph-ResNet",
                 "Graph-Transformer"):
        assert shares[(name, 4)] <= shares[(name, 1)] + 1.0, name
    # DNN memory dominates everywhere
    for (name, batch), overhead in shares.items():
        assert overhead < 50.0, (name, batch)
