"""Effect signatures and plan-level race detection.

Every builtin op type must have a registered signature (CI-enforced
completeness, like the schema registry): the rematerialization pass
recomputes only effect-pure ops.  ``analyze_plan`` must find exactly the
unordered pairs that race on shared state — the pairs whose order only the
plan's topological tie-break fixes — no more and no less.
"""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.graph as G
from repro.amanda import Tool
from repro.analysis.effects import (GRAPH_EFFECTS, OPAQUE, PURE,
                                    ORDERED_EVENTS_KEY, RNG_KEY, EffectSig,
                                    analyze_plan, check_effects_complete,
                                    effect_signature,
                                    missing_effect_signatures,
                                    normalize_effects,
                                    stale_effect_signatures)
from repro.analysis.lint import lint_contexts
from repro.analysis.schemas import GRAPH_SCHEMAS
from repro.graph import builder as gb
from repro.graph.core import plan_levels, topo_plan


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

    def test_conflicts_with_is_symmetric_on_keys(self):
        w = normalize_effects({"writes": ["k"]})
        r = normalize_effects({"reads": ["k"]})
        assert w.conflicts_with(r) == {"k"}
        assert r.conflicts_with(w) == {"k"}
        assert r.conflicts_with(r) == frozenset()


class TestAnalyzePlan:
    def test_vanilla_training_graph_has_no_conflicts(self):
        import repro.models.graph as GM
        gm = GM.build_mlp(learning_rate=0.1)
        plan = topo_plan([gm.loss.op, gm.train_op.op])
        report = analyze_plan(plan)
        assert report.ok
        assert report.stateful_ops > 0
        assert report.extra_edges == {}
        assert report.serial_only_reason is None
        assert "no conflicting pairs" in str(report)

    def test_write_write_pair_detected_with_edge(self):
        with G.default_graph():
            x = gb.placeholder(name="x")
            v = gb.variable(np.zeros(4), name="v")
            a = gb.assign_add(v, gb.relu(x), name="writer_a")
            b = gb.assign_add(v, gb.tanh(x), name="writer_b")
            step = gb.group([a, b], name="step")
        plan = topo_plan([step])
        report = analyze_plan(plan)
        assert len(report.conflicts) == 1
        conflict = report.conflicts[0]
        assert conflict.kind == "write-write"
        assert conflict.keys == ("v",)
        # the edge points plan-earlier -> plan-later
        position = {op.name: i for i, op in enumerate(plan)}
        assert position[conflict.first] < position[conflict.second]
        assert report.extra_edges == {conflict.second: (conflict.first,)}
        assert not report.ok and report.serial_only_reason is None

    def test_read_write_pair_detected(self):
        """An unordered Variable-store reader races with a writer."""
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            gamma = gb.constant(np.ones(3))
            beta = gb.constant(np.zeros(3))
            g.variables.create("m", np.zeros(3))
            g.variables.create("s", np.ones(3))
            y = gb.fused_batch_norm(x, gamma, beta, "m", "s", training=False)
            m_var = gb.variable(np.zeros(3), name="m")
            w = gb.assign_add(m_var, gb.constant(np.ones(3)), name="w")
            step = gb.group([y.op, w], name="step")
        report = analyze_plan(topo_plan([step]))
        kinds = {c.kind for c in report.conflicts}
        assert "read-write" in kinds
        pairs = {(c.first, c.second) for c in report.conflicts
                 if c.kind == "read-write"}
        names = {name for pair in pairs for name in pair}
        assert "w" in names

    def test_dependency_path_suppresses_conflict(self):
        """Two writers already ordered by a control edge do not race."""
        with G.default_graph():
            v = gb.variable(np.zeros(4), name="v")
            d = gb.constant(np.ones(4))
            a = gb.assign_add(v, d, name="writer_a")
            b = v.graph.add_op("AssignAdd", [v, d], {"var_name": "v"},
                               name="writer_b", control_inputs=[a])
            step = gb.group([b], name="step")
        report = analyze_plan(topo_plan([step]))
        assert report.conflicts == ()
        assert report.ok

    def test_optimizer_writer_ordered_by_data_edge(self):
        """assign_sub(v, delta) data-depends on the Variable read: no race."""
        with G.default_graph():
            v = gb.variable(np.zeros(4), name="v")
            step = gb.assign_sub(v, gb.relu(v), name="update")
        report = analyze_plan(topo_plan([step]))
        assert report.ok

    def test_opaque_pycall_reported_with_provenance(self):
        with G.default_graph():
            x = gb.placeholder(name="x")
            op = gb.py_call(lambda v: v, [x], name="mystery")
        report = analyze_plan(topo_plan([op]))
        assert not report.ok
        assert report.opaque_ops[0][0] == "mystery"
        assert "PyCall" in report.serial_only_reason
        assert "Tool.effects" in report.serial_only_reason
        assert "opaque" in str(report)


class TestRaceAwareLevels:
    def test_injected_edges_order_the_conflicting_pair(self):
        with G.default_graph():
            x = gb.placeholder(name="x")
            v = gb.variable(np.zeros(4), name="v")
            a = gb.assign_add(v, gb.relu(x), name="writer_a")
            b = gb.assign_add(v, gb.tanh(x), name="writer_b")
            step = gb.group([a, b], name="step")
        plan = topo_plan([step])
        plain = plan_levels(plan)
        report = analyze_plan(plan)
        leveled = plan_levels(plan, extra_deps=report.extra_edges)
        level_of = {op.name: i for i, level in enumerate(leveled)
                    for op in level}
        plain_level_of = {op.name: i for i, level in enumerate(plain)
                          for op in level}
        conflict = report.conflicts[0]
        # without edges the writers share a level; with them they are ordered
        assert plain_level_of["writer_a"] == plain_level_of["writer_b"]
        assert level_of[conflict.first] < level_of[conflict.second]
        assert sum(len(level) for level in leveled) == len(plan)


class TestLintEffectConflict:
    @staticmethod
    def _racing_tools():
        def make(name, effects):
            tool = Tool(name)
            tool.effects = effects
            tool.add_inst_for_op(
                lambda context: context.insert_before_op(lambda a: a)
                if context.get("type") == "Relu" else None)
            return tool
        return (make("incr", {"reads": ["counter"], "writes": ["counter"]}),
                make("decr", {"writes": ["counter"]}))

    @staticmethod
    def _lint(graph, *tools):
        # manager.tools is cleared on context exit, so lint inside the scope
        with amanda.apply(*tools) as mgr:
            driver = next(d for d in mgr._drivers if d.namespace == "graph")
            driver.verify = False
            driver._instrument_graph(graph)
            return lint_contexts(list(driver.last_contexts), manager=mgr)

    def test_racing_declarations_flagged_once(self, rng):
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            gb.relu(gb.relu(x))  # two sites, but the pair reports once
        t1, t2 = self._racing_tools()
        issues = [i for i in self._lint(g, t1, t2)
                  if i.rule == "effect-conflict"]
        assert len(issues) == 1
        assert set(issues[0].tools) == {"incr", "decr"}
        assert "'counter'" in issues[0].message

    def test_pure_tools_not_flagged(self, rng):
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            gb.relu(x)
        t1, t2 = self._racing_tools()
        t1.effects = "pure"
        t2.effects = "pure"
        assert not [i for i in self._lint(g, t1, t2)
                    if i.rule == "effect-conflict"]


class TestDeclaredEffectsEndToEnd:
    def test_declared_pycalls_run_parallel_and_serialized(self, rng):
        """Two tools with racing declared effects on *independent branches*
        (insert-before wrappers on the same op would chain, i.e. already be
        ordered): their PyCalls are the plan's one conflicting pair, each
        runs once, in plan order, and the output stays vanilla."""
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
        report = analyze_plan(plan)
        assert len(report.conflicts) == 1
        assert report.conflicts[0].kind == "write-write"
        assert report.conflicts[0].keys == ("log",)
        np.testing.assert_array_equal(got, baseline)
        assert sorted(hits) == ["first", "second"]
        # the callbacks fired in the plan order of their PyCalls
        wrapped = {edge.op.name: op.type for op in plan for edge in op.inputs}
        owner = {"Relu": "first", "Tanh": "second"}
        assert hits == [owner[wrapped[op.name]] for op in plan
                        if op.type == "PyCall"]
