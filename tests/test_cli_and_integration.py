"""CLI smoke tests and end-to-end integration tests."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.core import CoverageOptions, SpecMatcher
from repro.designs import build_cache_logic, build_masking_glue_fig4
from repro.ltl import implies


#: Subcommand invocations that take ``--engine``.
_ENGINE_ARGV = [
    ["check", "mal_fig2"],
    ["analyze", "mal_fig2"],
    ["table1"],
    ["suite"],
    ["submit", "check", "mal_fig2", "--port", "1"],
]

_BACKEND_FLAGS = ["--bdd-reorder", "--bound", "--engine", "--no-slice", "--prop-backend"]

#: Every flag of the subcommands that run coverage queries or serve them.
#: Options may only be removed: a new one must be added here on purpose.
_SUBCOMMAND_FLAGS = {
    "check": _BACKEND_FLAGS + ["--index", "--json"],
    "analyze": _BACKEND_FLAGS + ["--depth", "--max-witnesses", "--no-witnesses"],
    "table1": _BACKEND_FLAGS + ["--max-witnesses"],
    "suite": _BACKEND_FLAGS
    + [
        "--cache-dir",
        "--designs",
        "--jobs",
        "--no-cache",
        "--no-signals",
        "--output",
        "--profile",
        "--random",
        "--report",
        "--seed",
        "--timeout",
    ],
    "serve": [
        "--cache-dir",
        "--host",
        "--port",
        "--preload",
        "--quota-burst",
        "--quota-rate",
        "--ready-file",
        "--request-timeout",
        "--suite-workers",
        "--workers",
    ],
}


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["check", "mal_fig2"])
        assert args.command == "check" and args.design == "mal_fig2"

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mal_fig2" in out and "amba_ahb" in out

    def test_check_covered_design(self, capsys):
        assert main(["check", "mal_fig2"]) == 0
        out = capsys.readouterr().out
        assert "covered  : True" in out

    def test_check_gap_design(self, capsys):
        assert main(["check", "mal_fig4"]) == 0
        out = capsys.readouterr().out
        assert "covered  : False" in out
        assert "witness" in out

    def test_timing_diagrams(self, capsys):
        assert main(["timing"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out and "Figure 3(b)" in out
        assert "wait" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("specmatcher ")
        # The reported version is the package's (installed metadata or the
        # source fallback) — a dotted version number either way.
        version = out.split()[1]
        assert version[0].isdigit() and "." in version

    def test_check_portfolio_reports_winner(self, capsys):
        assert main(["check", "mal_fig4", "--engine", "portfolio"]) == 0
        out = capsys.readouterr().out
        assert "engine   : portfolio" in out
        assert "winner   :" in out

    @pytest.mark.parametrize(
        "design,winner",
        [("mal_fig2", "explicit"), ("mal_fig4", "explicit"), ("paper_example", "bmc")],
    )
    def test_check_auto_reports_ruled_winner(self, design, winner, capsys):
        assert main(["check", design, "--engine", "auto", "--bound", "6"]) == 0
        out = capsys.readouterr().out
        assert "engine   : auto" in out
        assert f"winner   : {winner}" in out

    @pytest.mark.parametrize("argv", _ENGINE_ARGV, ids=lambda argv: argv[0])
    def test_engine_flag_takes_registered_names_only(self, argv, capsys):
        parser = build_parser()
        for name in ("explicit", "bmc", "symbolic", "portfolio", "auto"):
            assert parser.parse_args(argv + ["--engine", name]).engine == name
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv + ["--engine", "race"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'race'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_SUBCOMMAND_FLAGS))
    def test_subcommand_flags_are_pinned(self, command):
        parser = build_parser()
        [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            option
            for action in subparsers.choices[command]._actions
            for option in action.option_strings
        }
        expected = set(_SUBCOMMAND_FLAGS[command]) | {"-h", "--help", "--trace"}
        assert flags == expected

    def test_sched_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sched", "show"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'sched'" in capsys.readouterr().err

    def test_check_no_slice_agrees(self, capsys):
        assert main(["check", "telemetry_bank"]) == 0
        sliced = capsys.readouterr().out
        assert main(["check", "telemetry_bank", "--no-slice"]) == 0
        unsliced = capsys.readouterr().out
        assert "covered  : True" in sliced
        assert "covered  : True" in unsliced


class TestCacheCommand:
    def test_stats_and_clear_roundtrip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(
                ["suite", "--designs", "mal_fig2", "--no-signals",
                 "--cache-dir", cache_dir]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries   :" in out and "entries   : 0" not in out
        assert "misses    : 0" not in out  # the cold run recorded misses
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert "hits      : 0" in out

    def test_stats_on_missing_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["cache", "stats", "--cache-dir", missing]) == 0
        out = capsys.readouterr().out
        assert "(absent)" in out
        assert main(["cache", "clear", "--cache-dir", missing]) == 0
        out = capsys.readouterr().out
        assert "does not exist" in out

    def test_cache_default_dir_matches_suite_default(self):
        parser = build_parser()
        cache_args = parser.parse_args(["cache", "stats"])
        suite_args = parser.parse_args(["suite"])
        assert cache_args.cache_dir == suite_args.cache_dir


class TestSpecMatcherFacade:
    def test_fluent_construction_and_primary_query(self):
        matcher = SpecMatcher("facade-test")
        matcher.add_architectural_property("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))")
        matcher.add_rtl_properties(["G(n1 <-> X g1)", "G((!n1 & n2) <-> X g2)", "!g1 & !g2"])
        matcher.add_assumption("G(wait -> F hit)")
        matcher.add_concrete_module(build_masking_glue_fig4())
        matcher.add_concrete_module(build_cache_logic())
        result = matcher.primary_coverage()
        assert not result.covered
        hole = matcher.coverage_hole()
        assert implies(hole.architectural, hole.formula)
        assert "facade-test" in matcher.summary()

    def test_hdl_text_module_entry(self):
        matcher = SpecMatcher("hdl-entry")
        matcher.add_architectural_property("G(a -> X y)")
        matcher.add_rtl_property("G(a -> X y)")
        matcher.add_concrete_module(
            "module inv(input a, output y); reg y init 0; y <= a; endmodule"
        )
        assert matcher.primary_coverage().covered


@pytest.mark.slow
class TestEndToEnd:
    def test_full_mal_gap_analysis_finds_verified_gap(self, mal_gap_problem):
        options = CoverageOptions(
            max_witnesses=2, unfold_depth=5, max_closure_checks=8, max_reported_gaps=2
        )
        matcher = SpecMatcher("MAL end-to-end", options)
        matcher.problem = mal_gap_problem
        report = matcher.run()
        assert not report.covered
        analysis = report.analyses[0]
        if analysis.gap_properties:
            assert analysis.gap_verified
            for candidate in analysis.gap_properties:
                assert implies(analysis.property_formula, candidate.formula)
        else:
            assert analysis.fallback_to_hole
        row = report.table1_row()
        assert row["rtl_properties"] == 4
        assert row["gap_finding_seconds"] > 0
