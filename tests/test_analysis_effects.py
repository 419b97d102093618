"""What the rematerialization pass may recompute.

An op is recomputable when its schema exists and does not call it
``stateful`` (:func:`repro.analysis.remat.recomputable`): variable reads and
assigns, batch norm and unseeded training dropout are pinned, and so is
every ``PyCall``, whatever its tags.  Captured ``batch_norm`` and
``dropout`` follow the same rules through the schemas ``repro.capture``
registers.
"""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager.functional as F
import repro.graph as G
from repro.amanda import Tool
from repro.analysis.remat import recomputable
from repro.capture import capture
from repro.eager import layers
from repro.eager.module import Module
from repro.eager.tensor import Tensor
from repro.graph import builder as gb


class TestSignatures:
    def test_matmul_is_pure(self, rng):
        with G.default_graph():
            x = gb.placeholder(name="x")
            w = gb.constant(rng.standard_normal((4, 3)))
            y = gb.matmul(x, w)
        assert recomputable(y.op)

    def test_variable_reads_its_store_key(self):
        with G.default_graph():
            v = gb.variable(np.zeros(4), name="v")
        assert not recomputable(v.op)

    def test_assign_writes_only(self):
        """A recomputed assign would apply its update twice."""
        with G.default_graph():
            v = gb.variable(np.zeros(4), name="v")
            d = gb.constant(np.ones(4))
            a = gb.assign_sub(v, d)
        assert not recomputable(a)

    def test_batch_norm_training_vs_inference(self):
        """Training writes the running stats, inference reads them: a
        recompute could see a later update, so both are pinned."""
        def bn(training):
            with G.default_graph() as g:
                x = gb.placeholder(name="x")
                gamma = gb.constant(np.ones(3))
                beta = gb.constant(np.zeros(3))
                g.variables.create("m", np.zeros(3))
                g.variables.create("s", np.ones(3))
                y = gb.fused_batch_norm(x, gamma, beta, "m", "s",
                                        training=training)
            return recomputable(y.op)

        assert not bn(True)
        assert not bn(False)

    def test_dropout_rng_only_when_unseeded_training(self):
        def drop(**kwargs):
            with G.default_graph():
                x = gb.placeholder(name="x")
                y = gb.dropout(x, **kwargs)
            return recomputable(y.op)

        assert not drop(rate=0.5, training=True, seed=None)
        assert drop(rate=0.5, training=True, seed=7)
        assert drop(rate=0.5, training=False)
        assert drop(rate=0.0, training=True)

    def test_pycall_declarations(self):
        """A tool routine must not fire twice, so every PyCall is pinned
        whatever its tags say."""
        def pycall(tags):
            with G.default_graph():
                x = gb.placeholder(name="x")
                op = gb.py_call(lambda v: v, [x])
            op.tags.update(tags)
            return recomputable(op)

        assert not pycall({})
        assert not pycall({"alloc_scope": "tool"})
        assert not pycall({"parallel_safe": True})
        assert not pycall({"effects": "pure"})

    def test_unregistered_op_type_is_opaque(self):
        with G.default_graph() as g:
            op = g.add_op("SomeCustomOp", [], name="custom")
        assert not recomputable(op)


class _NormThenDrop(Module):
    """A ``BatchNorm2d`` (or ``F.batch_norm`` over stats that are not module
    state, which the tracer bakes as constants), then ``F.dropout``."""

    def __init__(self, p=0.5, seed=None, baked_stats=False):
        super().__init__()
        self.bn = layers.BatchNorm2d(3)
        self.p, self.seed, self.baked_stats = p, seed, baked_stats

    def forward(self, x):
        if self.baked_stats:
            y = F.batch_norm(x, self.bn.weight, self.bn.bias,
                             Tensor(np.zeros(3)), Tensor(np.ones(3)),
                             training=self.training)
        else:
            y = self.bn(x)
        return F.dropout(y, p=self.p, training=self.training, seed=self.seed)


def _captured_ops(module, rng):
    """Capture one call of ``module``; its graph's ops by type."""
    captured = capture(module)
    captured(rng.standard_normal((2, 3, 4, 4)))
    (bucket,) = captured._buckets.values()
    assert bucket.poisoned is None
    return {op.type: op for op in bucket.graph.operations}


class TestCapturedRules:
    """The captured schemas say which ``batch_norm`` and ``dropout`` ops
    touch state: the running stats a training step updates in place, and
    the fresh entropy of an unseeded training mask."""

    def test_training_batch_norm_with_module_stats_is_pinned(self, rng):
        ops = _captured_ops(_NormThenDrop(), rng)
        assert not recomputable(ops["batch_norm"])

    def test_eval_batch_norm_is_recomputable(self, rng):
        ops = _captured_ops(_NormThenDrop().eval(), rng)
        assert recomputable(ops["batch_norm"])

    def test_training_batch_norm_with_baked_stats_is_recomputable(self, rng):
        bn = _captured_ops(_NormThenDrop(baked_stats=True), rng)["batch_norm"]
        assert [edge.op.type for edge in bn.inputs[3:5]] == ["Const"] * 2
        assert recomputable(bn)

    def test_unseeded_training_dropout_is_pinned(self, rng):
        ops = _captured_ops(_NormThenDrop(), rng)
        assert not recomputable(ops["dropout"])

    @pytest.mark.parametrize("case", ["seeded", "p=0", "eval"])
    def test_deterministic_dropout_is_recomputable(self, rng, case):
        module = {"seeded": lambda: _NormThenDrop(seed=3),
                  "p=0": lambda: _NormThenDrop(p=0.0),
                  "eval": lambda: _NormThenDrop().eval()}[case]()
        assert recomputable(_captured_ops(module, rng)["dropout"])


class TestDeclaredEffectsEndToEnd:
    def test_declared_pycalls_run_parallel_and_serialized(self, rng):
        """Two tools wrapping ops on *independent branches* (insert-before
        wrappers on the same op would chain, i.e. already be ordered): each
        PyCall runs once, in plan order, and the output stays vanilla."""
        hits = []

        def make(name, op_type):
            tool = Tool(name)
            tool.add_inst_for_op(
                lambda context: context.insert_before_op(
                    lambda a: (hits.append(name), a)[1])
                if context.get("type") == op_type else None)
            return tool

        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            y = gb.identity(gb.relu(x) + gb.tanh(x), name="y")
        sess = G.Session(g)
        feed = {x: rng.standard_normal(4)}
        baseline = np.asarray(sess.run(y, feed))

        with amanda.apply(make("first", "Relu"), make("second", "Tanh")):
            got = np.asarray(sess.run(y, feed))
            plan = sess.last_compiled.ops
        np.testing.assert_array_equal(got, baseline)
        assert sorted(hits) == ["first", "second"]
        # the callbacks fired in the plan order of their PyCalls
        wrapped = {edge.op.name: op.type for op in plan for edge in op.inputs}
        owner = {"Relu": "first", "Tanh": "second"}
        assert hits == [owner[wrapped[op.name]] for op in plan
                        if op.type == "PyCall"]
