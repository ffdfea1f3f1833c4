"""The examples that check their own result run and pass."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_three_engines_agree_on_figure_4(capsys):
    namespace = runpy.run_path(str(EXAMPLES / "three_engines.py"))
    assert namespace["main"]() == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if "engine" in line.split(":")[0]]
    assert len(verdicts) == 3
    assert all("NOT covered" in line for line in verdicts)
    assert "cache invariant !(d1 & d2): holds" in lines
