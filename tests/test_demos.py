"""Smoke tests: every demo script runs to completion and prints its results,
and every README example runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdarwin.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def _readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in README.md."""
    text = (REPO_ROOT / "README.md").read_text()
    after = text[text.index(f"\n## {heading}\n"):]
    start = after.index(f"```{language}\n") + len(language) + 4
    return after[start:after.index("```", start)]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # Every "Command line" example exits 0 from the repo root, writing into
    # tmp_path, and the "Library quick start" block runs.
    monkeypatch.chdir(REPO_ROOT)
    lines = [line.split("#")[0].split()
             for line in _readme_block("Command line", "bash").splitlines() if line]
    assert lines and all(argv[0] == "qdarwin" for argv in lines)
    for k, argv in enumerate(lines):
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        assert main(argv[1:] + ["--out", str(tmp_path / f"out{k}")]) == 0, argv
    exec(_readme_block("Library quick start", "python"), {})
    assert capsys.readouterr().out.strip()
