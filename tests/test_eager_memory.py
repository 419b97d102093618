"""Eager memory contract: a training step frees its activations by
reference counting, and cached analysis contexts keep no tensors.

Tensors own their autograd node, a node holds its outputs weakly and a
cached context drops the traced execution's values, so one step builds no
reference cycle: its activations are freed when backward stops reading
them, whenever the cyclic collector runs or if it never does.
"""

import gc

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager.functional as F
import repro.models.eager as EM
from repro.amanda.tools import GraphTracingTool
from repro.eager import alloc
from repro.eager.optim import SGD
from repro.tools.profiling import FlopsProfilingTool
from repro.tools.pruning import MagnitudePruningTool


def _bert_loss(model, rng):
    tokens = rng.integers(0, 32, (2, 16))
    labels = rng.integers(0, 2, 32)
    return F.cross_entropy(F.reshape(model(tokens), (-1, 2)), labels)


def _image_loss(model, rng):
    logits = model(rng.standard_normal((2, 3, 16, 16)))
    return F.cross_entropy(logits, rng.integers(0, logits.shape[-1], 2))


MODELS = {
    "bert_mini": (lambda: EM.bert_mini(layers=2), _bert_loss),
    "resnet18": (EM.resnet18, _image_loss),
    "mobilenet_v2": (EM.mobilenet_v2, _image_loss),
    "lenet": (EM.LeNet, _image_loss),
}

TOOLSETS = {
    "no_tools": lambda: (),
    "flops_and_pruning": lambda: (FlopsProfilingTool(),
                                  MagnitudePruningTool(sparsity=0.5)),
    "graph_tracing": lambda: (GraphTracingTool(),),
}


class _Trainer:
    def __init__(self, model_name: str) -> None:
        make, self.loss_fn = MODELS[model_name]
        self.model = make()
        self.opt = SGD(self.model.parameters(), lr=0.01)
        self.rng = np.random.default_rng(0)

    def step(self) -> None:
        self.opt.zero_grad()
        self.loss_fn(self.model, self.rng).backward()
        self.opt.step()
        amanda.new_iteration()


@pytest.mark.parametrize("toolset", TOOLSETS)
@pytest.mark.parametrize("model_name", MODELS)
def test_training_step_leaves_no_cycles(model_name, toolset):
    trainer = _Trainer(model_name)
    with amanda.apply(*TOOLSETS[toolset]()):
        trainer.step()                  # trace iteration: analysis, cache
        gc.collect()
        before = alloc.tracker.live["dnn"]
        gc.disable()
        try:
            trainer.step()              # warm step, collector held off
            after = alloc.tracker.live["dnn"]
            unreachable = gc.collect()
        finally:
            gc.enable()
    assert unreachable == 0
    assert after == before


def _step_peak(threshold: int | None, collect_each_step: bool = False) -> int:
    """BERT-mini's tracked peak over three warm steps under the two tools,
    with the collector at ``threshold`` or, for ``None``, off; with
    ``collect_each_step`` a full collection follows each step."""
    trainer = _Trainer("bert_mini")
    saved = gc.get_threshold()
    with amanda.apply(FlopsProfilingTool(), MagnitudePruningTool(sparsity=0.5)):
        trainer.step()
        gc.collect()
        start = alloc.tracker.peak["dnn"] = alloc.tracker.live["dnn"]
        if threshold is None:
            gc.disable()
        else:
            gc.set_threshold(threshold)
        try:
            for _ in range(3):
                trainer.step()
                if collect_each_step:
                    gc.collect()
        finally:
            gc.set_threshold(*saved)
            gc.enable()
    return alloc.tracker.peak["dnn"] - start


def test_step_peak_does_not_follow_the_collector():
    # garbage in a reference cycle can reach the old generation within
    # three steps and then outlive them at thresholds 100 and 5000, as with
    # the collector off, while a full collection after each step frees it;
    # a step that builds no cycle reads one peak under all four
    peaks = {
        "threshold 100": _step_peak(100),
        "threshold 5000": _step_peak(5000),
        "collector off": _step_peak(None),
        "collected after each step": _step_peak(None, collect_each_step=True),
    }
    assert len(set(peaks.values())) == 1, peaks


def test_warm_steps_keep_only_the_parameters():
    gc.collect()
    start = alloc.tracker.live["dnn"]
    trainer = _Trainer("bert_mini")
    with amanda.apply(FlopsProfilingTool(), MagnitudePruningTool(sparsity=0.5)):
        for _ in range(3):
            trainer.step()
        gc.collect()
        held = alloc.tracker.live["dnn"] - start
    params = sum(p.data.nbytes for p in trainer.model.parameters())
    assert held == params
