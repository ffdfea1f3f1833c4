"""`specmatcher submit` against a live daemon, compared with the one-shot CLI.

The load-bearing contract: `submit check` output byte-matches
`check --json` once the volatile envelope fields (elapsed_seconds, timings,
cache) are stripped, and `analyze` prints the `report` that `submit analyze`
serves, apart from its timing lines — both front doors share ``execute_job``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.service import CoverageService, ServiceConfig

#: Envelope fields that legitimately differ between runs (wall clock, cache
#: temperature); everything else must byte-match.
VOLATILE = ("elapsed_seconds", "timings", "cache")


@pytest.fixture(scope="module")
def served_port():
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0, request_timeout=120.0))
    port = svc.start()
    yield port
    assert svc.drain(timeout=30.0)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_volatile(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key not in VOLATILE}


@pytest.mark.parametrize(
    "design,engine",
    [("mal_fig4", "explicit"), ("mal_fig2", "bmc"), ("paper_example", "explicit")],
)
def test_submit_check_byte_matches_one_shot_json(capsys, served_port, design, engine):
    code_served, out_served, _ = run_cli(
        capsys,
        ["submit", "check", design, "--port", str(served_port), "--engine", engine],
    )
    code_oneshot, out_oneshot, _ = run_cli(
        capsys, ["check", design, "--json", "--engine", engine]
    )
    assert code_served == code_oneshot
    served = strip_volatile(json.loads(out_served))
    oneshot = strip_volatile(json.loads(out_oneshot))
    # Byte-for-byte on the canonical serialisation, not just dict equality.
    assert json.dumps(served, indent=2, sort_keys=True) == json.dumps(
        oneshot, indent=2, sort_keys=True
    )


#: The report's three wall-clock lines, the only ones allowed to differ.
_TIMING_LINE = re.compile(r"^  (primary coverage question|T_M building|gap finding) +: ")


def without_timings(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True) if not _TIMING_LINE.match(line)
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["mal_fig2", "--no-witnesses"],
        ["paper_example", "--engine", "bmc", "--bound", "4", "--max-witnesses", "1", "--depth", "2"],
    ],
)
def test_one_shot_analyze_prints_the_served_report(capsys, served_port, argv):
    code_oneshot, out_oneshot, _ = run_cli(capsys, ["analyze"] + argv)
    code_served, out_served, _ = run_cli(
        capsys, ["submit", "analyze"] + argv + ["--port", str(served_port)]
    )
    assert code_oneshot == code_served == 0
    served_report = json.loads(out_served)["report"]
    assert without_timings(out_oneshot) == without_timings(served_report + "\n")


def test_one_shot_json_exit_code_tracks_expectation(capsys):
    # mal_fig2 is expected covered and the explicit engine proves it: exit 0.
    code, out, _ = run_cli(capsys, ["check", "mal_fig2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["covered"] is True
    assert payload["expected_covered"] is True


def test_one_shot_json_index(capsys):
    code, out, _ = run_cli(capsys, ["check", "mal_fig2", "--json", "--index", "0"])
    assert code == 0
    assert json.loads(out)["index"] == 0


def test_submit_suite(capsys, served_port):
    code, out, _ = run_cli(
        capsys,
        ["submit", "suite", "--port", str(served_port), "--designs", "mal_fig2",
         "--no-signals"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["job"] == "suite"
    assert payload["counts"]["error"] == 0


def test_submit_validation_failure_exits_2_with_structured_stderr(capsys, served_port):
    code, out, err = run_cli(
        capsys, ["submit", "analyze", "mal_fig2", "--port", str(served_port),
                 "--depth", "0"]
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert payload["errors"][0]["field"] == "depth"


def test_submit_quota_rejection_exits_3():
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0.001, quota_burst=1))
    port = svc.start()
    try:
        argv = ["submit", "check", "mal_fig2", "--port", str(port),
                "--client", "greedy-cli"]
        import io
        from contextlib import redirect_stderr, redirect_stdout

        codes = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                codes.append(main(list(argv)))
        assert codes[0] == 0
        assert codes[1] == 3
        assert json.loads(err.getvalue())["error"] == "quota"
    finally:
        assert svc.drain(timeout=30.0)


def test_submit_unreachable_service_exits_2(capsys):
    code, out, err = run_cli(
        capsys, ["submit", "check", "mal_fig2", "--port", "1"]
    )
    assert code == 2
    assert "unreachable" in err


def test_submit_check_requires_design(capsys, served_port):
    code, _, err = run_cli(capsys, ["submit", "check", "--port", str(served_port)])
    assert code == 2
    assert "needs a design" in err


def test_submit_suite_rejects_positional_design(capsys, served_port):
    code, _, err = run_cli(
        capsys, ["submit", "suite", "mal_fig2", "--port", str(served_port)]
    )
    assert code == 2
    assert "--designs" in err
