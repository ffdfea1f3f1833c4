"""Unit tests for the fully symbolic BDD fixpoint model checker."""

import json

import pytest

from repro.ltl.ast import FALSE, Always, Eventually, G, Next, Not, X, atom
from repro.ltl.traces import evaluate
from repro.mc.modelcheck import find_run
from repro.mc.symbolic import (
    SymbolicModelError,
    SymbolicProduct,
    find_run_symbolic,
)
from repro.rtl.netlist import Module
from repro.logic.boolexpr import and_, not_, or_, var


def _toggle_module() -> Module:
    """One register toggling under an enable input."""
    module = Module("toggle")
    module.add_input("en")
    module.add_register("q", or_(and_(var("en"), not_(var("q"))), and_(not_(var("en")), var("q"))))
    module.add_assign("out", var("q"))
    module.add_output("out")
    return module


class TestSymbolicProduct:
    def test_interleaved_variable_order(self):
        product = SymbolicProduct(_toggle_module(), [G(atom("out"))])
        order = product.manager.variables
        for name in product.current_vars:
            index = order.index(name)
            assert order[index + 1] == name + "#n"

    def test_image_matches_explicit_successors(self):
        module = _toggle_module()
        product = SymbolicProduct(module, [])
        # From (q=0, en=1) the register steps to q=1; en' is free.
        state = {name: False for name in product.current_vars}
        state["en"] = True
        successors = product.image(product.state_bdd(state))
        assert successors.evaluate({"q": True, "en": False})
        assert successors.evaluate({"q": True, "en": True})
        assert not successors.evaluate({"q": False, "en": False})

    def test_preimage_inverts_image(self):
        module = _toggle_module()
        product = SymbolicProduct(module, [])
        state = {name: False for name in product.current_vars}
        forward = product.image(product.state_bdd(state))
        assert not (product.preimage(forward) & product.state_bdd(state)).is_false()

    def test_reachable_covers_both_register_values(self):
        product = SymbolicProduct(_toggle_module(), [])
        reached = product.reachable()
        assert reached.evaluate({"q": False, "en": False})
        assert reached.evaluate({"q": True, "en": True})

    def test_primed_namespace_collision_raises(self):
        module = Module("clash")
        module.add_input("a#n")
        module.add_register("a", var("a#n"))
        with pytest.raises(SymbolicModelError):
            SymbolicProduct(module, [])

    def test_signal_named_like_an_automaton_bit_does_not_alias(self):
        """A design signal spelled like a state bit must not corrupt verdicts."""
        module = Module("aliasing")
        module.add_input("_aut0b0")
        module.add_register("q", var("_aut0b0"))
        module.add_assign("out", var("q"))
        module.add_output("out")
        formulas = [Eventually(atom("out"))]
        product = SymbolicProduct(module, formulas)
        # The generated bit namespace stepped aside from the design signal.
        assert all(
            not bit.startswith("_aut0") for bits in product._aut_bits for bit in bits
        )
        explicit = find_run(module, formulas)
        symbolic = find_run_symbolic(module, formulas)
        assert explicit.satisfiable == symbolic.satisfiable is True


class TestFindRunSymbolic:
    def test_satisfiable_query_yields_replayed_witness(self):
        module = _toggle_module()
        result = find_run_symbolic(module, [Eventually(atom("out"))])
        assert result.satisfiable
        assert result.witness is not None
        assert evaluate(Eventually(atom("out")), result.witness)

    def test_unsatisfiable_query_is_a_proof(self):
        module = _toggle_module()
        # out is driven by q which starts at 0: "out now and forever" has no run.
        result = find_run_symbolic(module, [atom("out")])
        assert not result.satisfiable
        assert result.witness is None

    def test_false_formula_is_unsatisfiable(self):
        result = find_run_symbolic(_toggle_module(), [FALSE])
        assert not result.satisfiable

    def test_agrees_with_explicit_on_liveness_and_safety(self):
        module = _toggle_module()
        queries = [
            [G(atom("en") >> X(atom("out")))],
            [Eventually(Always(atom("out")))],
            [Always(Eventually(atom("out"))), Always(Eventually(Not(atom("out"))))],
            [Always(Not(atom("out")))],
            [Next(Next(atom("out")))],
        ]
        for formulas in queries:
            explicit = find_run(module, formulas)
            symbolic = find_run_symbolic(module, formulas)
            assert explicit.satisfiable == symbolic.satisfiable, formulas
            if symbolic.satisfiable:
                for formula in formulas:
                    assert evaluate(formula, symbolic.witness)

    def test_statistics_are_populated(self):
        result = find_run_symbolic(_toggle_module(), [Eventually(atom("out"))])
        stats = result.statistics
        assert stats.state_variables >= 2
        assert stats.automata == 1
        assert stats.partitions >= 2
        assert stats.reachable_iterations >= 1
        assert stats.el_iterations >= 1
        assert stats.peak_nodes > 0
        assert result.elapsed_seconds >= 0.0

    def test_combinational_module(self):
        module = Module("comb")
        module.add_input("a")
        module.add_assign("y", not_(var("a")))
        module.add_output("y")
        result = find_run_symbolic(module, [G(atom("a") >> Not(atom("y")))])
        assert result.satisfiable
        impossible = find_run_symbolic(module, [G(atom("a")), G(atom("y"))])
        assert not impossible.satisfiable
        # No register and no automaton: an empty partition still has images.
        product = SymbolicProduct(module, [])
        assert product.partition == []
        assert product.image(product.initial).is_true()
        assert find_run_symbolic(module, []).satisfiable


class TestTracedQuerySizes:
    def test_traced_check_exports_encoding_and_node_counts(self, tmp_path):
        from repro.designs import get_design
        from repro.engines import get_engine
        from repro.obs import JsonlExporter, add_sink
        from repro.runner.cache import using_result_cache

        path = tmp_path / "trace.jsonl"
        exporter = JsonlExporter(str(path))
        add_sink(exporter)
        try:
            with using_result_cache(None):  # the query must reach the engine
                get_engine("symbolic").check_primary(get_design("mal_fig4").builder())
        finally:
            exporter.close()
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        attrs = {r["name"]: r["attrs"] for r in records if r["type"] == "span"}
        assert attrs["symbolic_encode"]["state_variables"] > 0
        assert attrs["symbolic_encode"]["partitions"] > 0
        assert attrs["symbolic_fair"]["peak_nodes"] > 0
