"""Graph verifier: corrupted-graph detection with op-level provenance."""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.graph as G
from repro.analysis.verify import (VerificationError, verify_graph)
from repro.graph import builder as gb
from repro.graph.rewrite import GraphRewriter, copy_graph


@pytest.fixture
def mlp_graph(rng):
    with G.default_graph() as g:
        x = gb.placeholder(name="x")
        w = gb.variable(rng.standard_normal((4, 3)), name="w")
        logits = gb.relu(gb.matmul(x, w))
        loss = gb.reduce_mean(gb.square(logits))
        (grad_w,) = G.gradients(loss, [w])
    return g, x, w, logits, loss, grad_w


class TestVanillaGraphsPass:
    def test_mlp(self, mlp_graph):
        g = mlp_graph[0]
        report = verify_graph(g, feed_shapes={"x": (2, 4)})
        assert report.ok, str(report)

    def test_without_feed_shapes_no_false_positives(self, mlp_graph):
        # unknown placeholder shapes must not produce spurious issues
        assert verify_graph(mlp_graph[0]).ok

    def test_model_zoo(self):
        import repro.models.graph.builders as GM
        for build, feeds in [
            (lambda: GM.build_mlp(learning_rate=0.1),
             {"input": (8, 16), "labels": (8,)}),
            (lambda: GM.build_bert(layers=1, learning_rate=0.1),
             {"input": (2, 16), "labels": (2, 16)}),
        ]:
            report = verify_graph(build().graph, feed_shapes=feeds)
            assert report.ok, str(report)


class TestCorruptionClasses:
    def test_dangling_input(self, mlp_graph, rng):
        g = mlp_graph[0]
        other = G.Graph()
        foreign = other.add_op("Const", attrs={"value": np.ones(3)})
        matmul = next(op for op in g.operations if op.type == "MatMul")
        matmul.inputs[1] = foreign.outputs[0]
        report = verify_graph(g)
        issues = report.issues_of_kind("dangling-input")
        assert issues, str(report)
        assert issues[0].op_name == matmul.name
        assert "not part of this graph" in issues[0].message
        assert any(matmul.name in line for line in issues[0].trail)

    def test_dangling_output_index(self, mlp_graph):
        g = mlp_graph[0]
        relu = next(op for op in g.operations if op.type == "Relu")
        square = next(op for op in g.operations if op.type == "Square")
        square.inputs[0] = G.GraphTensor(relu, 5)  # relu has 1 output
        issues = verify_graph(g).issues_of_kind("dangling-input")
        assert issues and "output 5" in issues[0].message

    def test_cycle(self, mlp_graph):
        g = mlp_graph[0]
        matmul = next(op for op in g.operations if op.type == "MatMul")
        relu = next(op for op in g.operations if op.type == "Relu")
        # close the loop: MatMul consumes Relu's output
        matmul.inputs[0] = relu.outputs[0]
        report = verify_graph(g)
        issues = report.issues_of_kind("cycle")
        assert issues, str(report)
        assert matmul.name in issues[0].message
        assert relu.name in issues[0].message
        # cycle provenance lists the loop ops in order
        assert len(issues[0].trail) >= 3

    def test_duplicate_name(self, mlp_graph):
        g = mlp_graph[0]
        relu = next(op for op in g.operations if op.type == "Relu")
        square = next(op for op in g.operations if op.type == "Square")
        square.name = relu.name
        issues = verify_graph(g).issues_of_kind("duplicate-name")
        assert issues
        assert issues[0].op_name == relu.name

    def test_orphaned_pycall(self, mlp_graph):
        g = mlp_graph[0]
        clone, mapping = copy_graph(g)
        rewriter = GraphRewriter(clone)
        relu = next(op for op in clone.operations if op.type == "Relu")
        consumers = [(op, i) for op in clone.operations
                     for i, e in enumerate(op.inputs)
                     if e.op is relu]
        node = rewriter.insert_after_outputs(relu, (0,), lambda a: a)
        # simulate a buggy rewrite: the consumers get rewired back, leaving
        # the wrapper dangling with no redirect pointing at it
        for op, index in consumers:
            op.inputs[index] = relu.outputs[0]
        report = verify_graph(clone)
        issues = report.issues_of_kind("orphan-pycall")
        assert issues, str(report)
        assert issues[0].op_name == node.name
        assert "no consumers" in issues[0].message

    def test_shape_mismatch_after_bad_rewrite(self, mlp_graph, rng):
        g, x, w, *_ = mlp_graph
        # a "tool" swaps the weight for a wrong-shaped constant
        with G.default_graph(g):
            g._internal_mutation = True
            bad = gb.constant(rng.standard_normal((5, 3)), name="bad_weight")
            g._internal_mutation = False
        matmul = next(op for op in g.operations if op.type == "MatMul")
        matmul.inputs[1] = bad
        report = verify_graph(g, feed_shapes={"x": (2, 4)})
        issues = report.issues_of_kind("shape-mismatch")
        assert issues, str(report)
        issue = issues[0]
        assert issue.op_name == matmul.name and issue.op_type == "MatMul"
        assert "inner dimensions" in issue.message
        # provenance trail walks the producer chain with inferred shapes
        assert any("bad_weight" in line for line in issue.trail)
        assert any("(2, 4)" in line for line in issue.trail)

    def test_redirect_consistency(self, mlp_graph):
        g, x, w, logits, *_ = mlp_graph
        clone, mapping = copy_graph(g)
        relu = next(op for op in clone.operations if op.type == "Relu")
        # a redirect must target a PyCall wrapper — Relu is not one
        report = verify_graph(clone, redirects={"Relu:0": relu.outputs[0]},
                              source_graph=g)
        issues = report.issues_of_kind("redirect")
        assert issues
        assert "wrapper" in issues[0].message
        # and the redirect source must exist in the vanilla graph
        report = verify_graph(
            clone, redirects={"NoSuchOp:0": relu.outputs[0]}, source_graph=g)
        assert any("vanilla graph" in i.message
                   for i in report.issues_of_kind("redirect"))

    def test_unknown_op_type(self, mlp_graph):
        g = mlp_graph[0]
        g._internal_mutation = True
        g.add_op("TotallyUnknownOp", [])
        g._internal_mutation = False
        issues = verify_graph(g).issues_of_kind("unknown-op")
        assert issues and issues[0].op_type == "TotallyUnknownOp"


class TestReporting:
    def test_raise_on_error(self, mlp_graph):
        g = mlp_graph[0]
        square = next(op for op in g.operations if op.type == "Square")
        other = G.Graph()
        foreign = other.add_op("Const", attrs={"value": np.ones(3)})
        square.inputs[0] = foreign.outputs[0]
        with pytest.raises(VerificationError) as excinfo:
            verify_graph(g, raise_on_error=True)
        assert excinfo.value.report.issues
        assert "dangling-input" in str(excinfo.value)

    def test_report_str_mentions_op(self, mlp_graph):
        g = mlp_graph[0]
        report = verify_graph(g)
        assert "OK" in str(report)


class TestDriverIntegration:
    def test_driver_verifies_under_pytest(self, rng, mlp_graph):
        g, x, w, logits, loss, grad_w = mlp_graph
        tool = amanda.Tool("t")
        tool.add_inst_for_op(
            lambda context: context.insert_after_op(lambda a: a * 2.0)
            if context["type"] == "Relu" else None)
        sess = G.Session(g)
        with amanda.apply(tool) as mgr:
            sess.run(logits, {x: rng.standard_normal((2, 4))})
            driver = next(d for d in mgr._drivers if d.namespace == "graph")
            assert driver._should_verify  # auto-on under pytest
            assert driver.last_report is not None and driver.last_report.ok
            assert driver.last_contexts  # lint-pass input is exposed

    def test_instrumented_graph_passes_with_real_tools(self, rng):
        import repro.models.graph.builders as GM
        from repro.tools.pruning import MagnitudePruningTool
        gm = GM.build_mlp(learning_rate=0.1)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((8, 16)),
                gm.labels: rng.integers(0, 4, 8)}
        with amanda.apply(MagnitudePruningTool(sparsity=0.5)) as mgr:
            sess.run([gm.loss, gm.train_op], feed)
            driver = next(d for d in mgr._drivers if d.namespace == "graph")
            assert driver.last_report is not None
            assert driver.last_report.ok, str(driver.last_report)

    def test_rewriter_rejects_stale_handle(self, mlp_graph):
        g = mlp_graph[0]
        clone, _ = copy_graph(g)
        rewriter = GraphRewriter(clone, verify=True)
        stale = next(op for op in g.operations if op.type == "Relu")
        with pytest.raises(ValueError, match="not part of this rewriter"):
            rewriter.insert_after_outputs(stale, (0,), lambda a: a)

    def test_rewriter_rejects_bad_index(self, mlp_graph):
        g = mlp_graph[0]
        clone, _ = copy_graph(g)
        rewriter = GraphRewriter(clone, verify=True)
        relu = next(op for op in clone.operations if op.type == "Relu")
        with pytest.raises(ValueError, match="out of range"):
            rewriter.insert_before_inputs(relu, (7,), lambda a: a)


class TestAnalysisCLI:
    def test_strict_zoo_pass(self, capsys):
        """``python -m repro.analysis --strict``, in process: every zoo
        model verifies and lints clean, instrumented and not, and the
        backend drivers pass the span-safety lint."""
        from repro.analysis.__main__ import main
        with np.errstate():  # the CLI silences numpy warnings process-wide
            status = main(["--strict"])
        lines = capsys.readouterr().out.splitlines()
        assert status == 0, "\n".join(lines)
        assert lines[-1] == "PASS"
