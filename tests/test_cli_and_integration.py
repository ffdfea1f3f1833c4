"""CLI smoke tests and end-to-end integration tests."""

import argparse
import json

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

_BACKEND_FLAGS = ["--bound", "--engine"]

#: The removed knobs and the subcommands that used to accept them.
_REMOVED_FLAGS = (
    [(argv, "--prop-backend") for argv in _ENGINE_ARGV]
    + [(argv, "--bdd-reorder") for argv in _ENGINE_ARGV if argv[0] != "submit"]
    + [(argv, "--no-slice") for argv in _ENGINE_ARGV]
)

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
        "--workers",
    ],
    "submit": _BACKEND_FLAGS
    + [
        "--client",
        "--depth",
        "--host",
        "--index",
        "--job-timeout",
        "--max-witnesses",
        "--no-witnesses",
        "--port",
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

    @pytest.mark.parametrize(
        "argv,flag", _REMOVED_FLAGS, ids=lambda value: value if isinstance(value, str) else value[0]
    )
    def test_removed_knob_rejected(self, argv, flag, capsys):
        value = ["auto"] if flag == "--prop-backend" else []
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + [flag] + value)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "paper_example", "--depth", "0"],
            ["analyze", "paper_example", "--depth", "-2"],
            ["analyze", "paper_example", "--max-witnesses", "-1"],
            ["table1", "--max-witnesses", "-1"],
        ],
        ids=lambda argv: "_".join([argv[0]] + argv[-2:]),
    )
    def test_analysis_limits_rejected_below_range(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[-2]}: must be >= " in capsys.readouterr().err

    def test_analysis_limits_accept_their_minimum(self):
        args = build_parser().parse_args(["analyze", "paper_example", "--depth", "1", "--max-witnesses", "0"])
        assert (args.depth, args.max_witnesses) == (1, 0)
        assert build_parser().parse_args(["table1", "--max-witnesses", "0"]).max_witnesses == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "mal_fig4"],
            ["check", "mal_fig2", "--engine", "bmc", "--bound", "6"],
            ["check", "paper_example", "--engine", "symbolic"],
            # Conjunct 0 of amba_ahb is covered up to bound 4 while the design
            # as a whole is not: exit 1, in text mode as with --json.
            ["check", "amba_ahb", "--engine", "bmc", "--bound", "4", "--index", "0"],
            ["check", "amba_ahb", "--engine", "bmc", "--bound", "4", "--index", "1"],
            ["check", "telemetry_bank", "--engine", "auto", "--index", "2"],
        ],
        ids=[
            "mal_fig4",
            "mal_fig2-bmc",
            "paper_example-symbolic",
            "amba_ahb-bmc-index0",
            "amba_ahb-bmc-index1",
            "telemetry_bank-auto-index2",
        ],
    )
    def test_check_text_mode_prints_the_json_verdict(self, argv, capsys):
        """Text mode checks what --json checks (``--index`` included) and
        exits by the same rule."""
        text_code = main(argv)
        text = capsys.readouterr().out
        json_code = main(argv + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        verdict = payload["verdict"]
        covered = f"covered  : {verdict['covered']}"
        if verdict["covered"] and not verdict["complete"]:
            covered += f" (up to bound {verdict['bound']})"
        assert text_code == json_code
        assert f"engine   : {payload['engine']}\n" in text
        assert covered + "\n" in text
        assert ("witness run (first cycles):" in text) == (not verdict["covered"])

    def test_check_text_mode_skips_the_daemon_request_ceilings(self, capsys):
        from repro.service.validation import MAX_BOUND

        argv = ["check", "mal_fig2", "--bound", str(MAX_BOUND + 1)]
        assert main(argv) == 0
        assert "covered  : True" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 2
        assert "bound" in capsys.readouterr().err

    def test_check_index_out_of_range_exits_2_in_both_modes(self, capsys):
        argv = ["check", "paper_example", "--index", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert main(argv + ["--json"]) == 2
        json_captured = capsys.readouterr()
        assert "index 3 is out of range" in captured.err
        assert captured.err == json_captured.err

    def test_sched_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sched", "show"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'sched'" in capsys.readouterr().err

    def test_bench_subcommand_rejected(self, capsys):
        """The engine benchmark runs as `python benchmarks/bench_backends.py`."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--compare", "BENCH_engines.json"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_suite_report_formats_are_pinned(self, capsys):
        parser = build_parser()
        [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        [report] = [
            action
            for action in subparsers.choices["suite"]._actions
            if "--report" in action.option_strings
        ]
        assert set(report.choices) == {"json", "text"}
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["suite", "--report", "markdown"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'markdown'" in capsys.readouterr().err

    def test_check_sliced_and_unsliced_agree(self, capsys, force_slicing):
        assert main(["check", "telemetry_bank"]) == 0
        sliced = capsys.readouterr().out
        force_slicing(False)
        assert main(["check", "telemetry_bank"]) == 0
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
        # Files that are not cache entries are neither counted nor cleared.
        foreign = [tmp_path / "cache" / "notes.json", tmp_path / "cache" / "reports" / "suite.json"]
        for path in foreign:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}", encoding="utf-8")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        entries = int(out.split("entries   :")[1].split()[0])
        assert entries == len(list((tmp_path / "cache").glob("??/*.json"))) > 0
        # The directory holds entries only; lookups are counted in metrics.
        assert "hits" not in out and "misses" not in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert f"removed {entries} cache entr" in capsys.readouterr().out
        assert all(path.exists() for path in foreign)
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert "size      : 0 B (0 bytes)" in out

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

    def test_primary_coverage_runs_on_the_configured_engine(self, mal_covered_problem):
        matcher = SpecMatcher("bounded", CoverageOptions(engine="bmc", bmc_max_bound=4))
        matcher.problem = mal_covered_problem
        verdict = matcher.primary_coverage()
        assert verdict.engine == "bmc"
        # Covered up to the bound only: no complete proof on BMC.
        assert verdict.covered and not verdict.complete
        assert verdict.bound == 4

    def test_coverage_hole_builds_tm_with_minimised_guards(self, mal_gap_problem):
        from repro.core import coverage_hole
        from repro.logic.cube import minimize_cover

        matcher = SpecMatcher("guards", CoverageOptions())
        matcher.problem = mal_gap_problem
        hole = matcher.coverage_hole()
        assert hole.tm_formula == coverage_hole(mal_gap_problem).tm_formula
        # Every transition guard is a minimised cover, and on this design
        # minimising merges input minterms into wider cubes.
        fsms = [result.fsm for result in hole.tm_results if result.fsm is not None]
        assert fsms
        merged = False
        for fsm in fsms:
            for transition in fsm.transitions:
                assert minimize_cover(transition.guard, list(fsm.inputs)) == transition.guard
                merged |= any(len(cube) < len(fsm.inputs) for cube in transition.guard)
        assert merged


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
