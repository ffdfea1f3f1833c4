"""Unit tests of the compiled CoverageProblem IR (repro.problem)."""


from repro.designs import build_mal_with_gap, build_telemetry_bank
from repro.ltl.ast import Not, atom_support
from repro.ltl.parser import parse
from repro.logic.boolexpr import and_, not_, var
from repro.problem import clear_compile_caches, compile_cache_stats, compile_problem, compiled_automata
from repro.rtl.netlist import Module
from repro.runner.cache import query_key


def _two_channel_module(name="two", extra_prefix=""):
    module = Module(name)
    module.add_input(f"{extra_prefix}x").add_input(f"{extra_prefix}y")
    module.add_register(f"{extra_prefix}r1", var(f"{extra_prefix}x"))
    module.add_register(f"{extra_prefix}r2", var(f"{extra_prefix}y"))
    module.add_assign(f"{extra_prefix}o1", var(f"{extra_prefix}r1"))
    module.add_assign(f"{extra_prefix}o2", var(f"{extra_prefix}r2"))
    module.add_output(f"{extra_prefix}o1").add_output(f"{extra_prefix}o2")
    return module


class TestAtomSupport:
    def test_union_of_formula_atoms(self):
        formulas = [parse("G(a -> X b)"), parse("F(c & a)")]
        assert atom_support(formulas) == frozenset({"a", "b", "c"})

    def test_empty(self):
        assert atom_support([]) == frozenset()


class TestCompileProblem:
    def test_slices_to_cone(self):
        module = _two_channel_module()
        problem = compile_problem(module, [parse("F o1")])
        assert set(problem.module.assigns) == {"o1"}
        assert set(problem.module.registers) == {"r1"}
        assert problem.module.inputs == ["x"]
        assert problem.dropped_assigns == 1
        assert problem.dropped_registers == 1
        assert problem.sliced

    def test_unsliced_keeps_module(self):
        module = _two_channel_module()
        problem = compile_problem(module, [parse("F o1")], slicing=False)
        assert problem.module is module
        assert problem.dropped_signals == 0
        assert not problem.sliced

    def test_observe_keeps_signals_in_slice(self):
        module = _two_channel_module()
        problem = compile_problem(module, [parse("F o1")], observe=("o2",))
        assert "o2" in problem.module.assigns
        assert "r2" in problem.module.registers
        assert problem.observed == ("o2",)

    def test_free_partition_covers_formula_atoms(self):
        module = _two_channel_module()
        problem = compile_problem(module, [parse("F (o1 & ext)")])
        assert "ext" in problem.free_signals
        assert "x" in problem.free_signals
        # Driven signals never appear in the free partition.
        assert "o1" not in problem.free_signals

    def test_memoized_per_structure(self):
        clear_compile_caches()
        module = _two_channel_module()
        formulas = (parse("F o1"),)
        first = compile_problem(module, formulas)
        second = compile_problem(module, formulas)
        assert first is second
        stats = compile_cache_stats()
        assert stats.hits >= 1
        # A structurally identical module built independently also hits.
        third = compile_problem(_two_channel_module(name="other"), formulas)
        assert third is first

    def test_identical_cones_fingerprint_identically_across_designs(self):
        # Two different designs whose cones for the same query are
        # structurally identical must produce the same result-cache key —
        # that is what lets the result cache share entries across designs.
        small = _two_channel_module(name="small")
        big = _two_channel_module(name="big")
        big.add_register("extra", and_(var("extra"), not_(var("o2"))))
        big.add_assign("dbg", var("extra"))
        big.add_output("dbg")

        def cache_key(problem):
            """The key ``CoverageEngine.find_run`` stores an explicit run under."""
            return query_key(
                "engine-run", problem.module, problem.formulas,
                engine="explicit", extra=problem.cache_extra(),
            )

        p_small = compile_problem(small, (parse("F o1"),))
        p_big = compile_problem(big, (parse("F o1"),))
        assert cache_key(p_small) == cache_key(p_big)
        # Unsliced, the two modules differ and so must the keys.
        u_small = compile_problem(small, (parse("F o1"),), slicing=False)
        u_big = compile_problem(big, (parse("F o1"),), slicing=False)
        assert cache_key(u_small) != cache_key(u_big)

    def test_automata_are_shared_between_queries(self):
        clear_compile_caches()
        rtl = parse("G(a -> X b)")
        first = compiled_automata([rtl, parse("F c")])
        second = compiled_automata([rtl, parse("F d")])
        assert first[0] is second[0]

    def test_cache_extra_distinguishes_free_partitions(self):
        module = _two_channel_module()
        plain = compile_problem(module, (parse("F o1"),))
        observed = compile_problem(module, (parse("F o1"),), observe=("ghost",))
        assert plain.cache_extra() != observed.cache_extra()

    def test_summary_mentions_slicing(self):
        module = _two_channel_module()
        problem = compile_problem(module, (parse("F o1"),))
        assert "sliced away" in problem.summary()


class TestAutoSlicing:
    def test_auto_slices_a_narrow_cone(self):
        module = _two_channel_module()
        compiled = compile_problem(module, [parse("F o1")], slicing="auto")
        # The cone covers 1 of 2 registers (50% < 90%): auto must slice.
        assert compiled.sliced
        assert set(compiled.module.registers) == {"r1"}
        assert compiled.slice_ratio == 0.5

    def test_auto_skips_a_full_cone(self):
        module = _two_channel_module()
        compiled = compile_problem(
            module, [parse("F (o1 & o2)")], slicing="auto"
        )
        # Both registers are in the cone (100% >= 90%): auto must skip the
        # slice entirely and keep the original module object.
        assert not compiled.sliced
        assert compiled.module is module
        assert compiled.slice_ratio == 1.0

    def test_forced_true_slices_even_a_full_cone(self):
        module = _two_channel_module()
        compiled = compile_problem(
            module, [parse("F (o1 & o2)")], slicing=True
        )
        # slicing=True is honoured verbatim: a new (equal) module is built.
        assert compiled.sliced
        assert compiled.module is not module
        assert set(compiled.module.registers) == {"r1", "r2"}

    def test_auto_is_the_default(self):
        # A distinct formula shape dodges the compile memo of the tests above.
        module = _two_channel_module()
        implicit = compile_problem(module, [parse("G F (o1 & o2)")])
        assert not implicit.sliced
        assert implicit.module is module

    def test_feature_record_contents(self):
        module = _two_channel_module()
        compiled = compile_problem(module, [parse("F o1")], slicing="auto")
        features = compiled.features(bound=12)
        assert features["coi_size"] == len(compiled.module.assigns) + len(
            compiled.module.registers
        )
        assert features["registers"] == 1
        assert features["automaton_states"] >= 1
        assert features["bound"] == 12
        assert features["formulas"] == 1
        assert features["sliced"] is True
        assert features["slice_ratio"] == 0.5

    def test_feature_record_bound_defaults_to_none(self):
        module = _two_channel_module()
        compiled = compile_problem(module, [parse("F o1")])
        assert compiled.features()["bound"] is None


class TestRealDesignCompile:
    def test_telemetry_bank_slices_away_telemetry(self):
        problem = build_telemetry_bank()
        module = problem.composed_module()
        compiled = compile_problem(
            module,
            [Not(problem.architectural[0])] + problem.all_rtl_formulas(),
        )
        assert compiled.dropped_registers >= 6  # hist0..3 + parity + saw_ack
        assert "ack0" in compiled.module.assigns

    def test_mal_cone_is_whole_module(self):
        problem = build_mal_with_gap()
        module = problem.composed_module()
        compiled = compile_problem(
            module,
            [Not(problem.architectural_conjunction())] + problem.all_rtl_formulas(),
        )
        # The MAL spec reads every driver: slicing must keep the module intact.
        assert compiled.dropped_signals == 0
        assert set(compiled.module.assigns) == set(module.assigns)
