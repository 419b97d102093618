"""Effect signatures.

Every builtin op type must have a registered signature (CI-enforced
completeness, like the schema registry): the rematerialization pass
recomputes only effect-pure ops.
"""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.graph as G
from repro.amanda import Tool
from repro.analysis.effects import (GRAPH_EFFECTS, OPAQUE, PURE,
                                    ORDERED_EVENTS_KEY, RNG_KEY, EffectSig,
                                    check_effects_complete,
                                    effect_signature,
                                    missing_effect_signatures,
                                    normalize_effects,
                                    stale_effect_signatures)
from repro.analysis.schemas import GRAPH_SCHEMAS
from repro.graph import builder as gb


class TestRegistryCompleteness:
    """Every schema'd graph op must carry an effect signature (CI gate)."""

    def test_no_missing_signatures(self):
        assert missing_effect_signatures() == set()

    def test_no_stale_signatures(self):
        assert stale_effect_signatures() == set()

    def test_check_passes(self):
        check_effects_complete()  # must not raise

    def test_registry_covers_schema_registry_exactly(self):
        missing_effect_signatures()  # force registration side imports
        assert set(GRAPH_EFFECTS) == set(GRAPH_SCHEMAS)


class TestSignatures:
    def test_matmul_is_pure(self, rng):
        with G.default_graph():
            x = gb.placeholder(name="x")
            w = gb.constant(rng.standard_normal((4, 3)))
            y = gb.matmul(x, w)
        assert effect_signature(y.op) is PURE

    def test_variable_reads_its_store_key(self):
        with G.default_graph():
            v = gb.variable(np.zeros(4), name="v")
        sig = effect_signature(v.op)
        assert sig.reads == {"v"} and not sig.writes and not sig.opaque

    def test_assign_writes_only(self):
        """The current value arrives as a data input, so Assign* only
        *writes* — the read is already ordered by the data edge."""
        with G.default_graph():
            v = gb.variable(np.zeros(4), name="v")
            d = gb.constant(np.ones(4))
            a = gb.assign_sub(v, d)
        sig = effect_signature(a)
        assert sig.writes == {"v"} and not sig.reads

    def test_batch_norm_training_vs_inference(self):
        def bn(training):
            with G.default_graph() as g:
                x = gb.placeholder(name="x")
                gamma = gb.constant(np.ones(3))
                beta = gb.constant(np.zeros(3))
                g.variables.create("m", np.zeros(3))
                g.variables.create("s", np.ones(3))
                y = gb.fused_batch_norm(x, gamma, beta, "m", "s",
                                        training=training)
            return effect_signature(y.op)

        train = bn(True)
        assert train.reads == {"m", "s"} and train.writes == {"m", "s"}
        infer = bn(False)
        assert infer.reads == {"m", "s"} and not infer.writes

    def test_dropout_rng_only_when_unseeded_training(self):
        def drop(**kwargs):
            with G.default_graph():
                x = gb.placeholder(name="x")
                y = gb.dropout(x, **kwargs)
            return effect_signature(y.op)

        unseeded = drop(rate=0.5, training=True, seed=None)
        assert unseeded.reads == {RNG_KEY} and unseeded.writes == {RNG_KEY}
        assert drop(rate=0.5, training=True, seed=7).pure
        assert drop(rate=0.5, training=False).pure
        assert drop(rate=0.0, training=True).pure

    def test_pycall_declarations(self):
        def pycall(tags):
            with G.default_graph():
                x = gb.placeholder(name="x")
                op = gb.py_call(lambda v: v, [x])
            op.tags.update(tags)
            return effect_signature(op)

        assert pycall({}).opaque
        assert pycall({"parallel_safe": True}).pure
        declared = pycall({"effects": {"writes": ["counter"]}})
        assert declared.writes == {"counter"} and not declared.opaque
        assert pycall({"effects": "pure"}).pure

    def test_unregistered_op_type_is_opaque(self):
        with G.default_graph() as g:
            op = g.add_op("SomeCustomOp", [], name="custom")
        assert effect_signature(op) is OPAQUE

    def test_signature_is_memoized_on_the_op(self):
        with G.default_graph():
            v = gb.variable(np.zeros(4), name="v")
        first = effect_signature(v.op)
        assert effect_signature(v.op) is first
        assert v.op.tags["_effect_sig"] is first


class TestNormalizeEffects:
    def test_strings_and_passthrough(self):
        assert normalize_effects("pure") is PURE
        assert normalize_effects("opaque") is OPAQUE
        sig = EffectSig(reads=frozenset(("k",)))
        assert normalize_effects(sig) is sig

    def test_mapping_with_synthetic_flags(self):
        sig = normalize_effects({"reads": ["a"], "writes": ["b"],
                                 "rng": True, "ordered": True})
        assert {"a", RNG_KEY, ORDERED_EVENTS_KEY} <= sig.reads
        assert {"b", RNG_KEY, ORDERED_EVENTS_KEY} <= sig.writes

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown effect declaration"):
            normalize_effects({"mutates": ["a"]})

    def test_uninterpretable_declaration_rejected(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            normalize_effects(42)


class TestDeclaredEffectsEndToEnd:
    def test_declared_pycalls_run_parallel_and_serialized(self, rng):
        """Two tools with racing declared effects on *independent branches*
        (insert-before wrappers on the same op would chain, i.e. already be
        ordered): each PyCall runs once, in plan order, and the output
        stays vanilla."""
        hits = []

        def make(name, op_type):
            tool = Tool(name)
            tool.effects = {"reads": ["log"], "writes": ["log"]}
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
