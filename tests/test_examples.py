"""Smoke tests: every example script runs to completion and tells its
story (checked by a distinctive line of expected output)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", [], "what CCFIT did about it"),
    ("hotspot_fairness.py", ["0.2"], "contributor fairness"),
    ("custom_topology.py", [], "per-flow bandwidth in the last millisecond"),
    ("link_downscaling.py", [], "tracked the link's capacity"),
    ("protocol_trace.py", [], "detection -> first BECN"),
    ("congestion_trees.py", ["1", "0.1"], "during the burst"),
]


@pytest.mark.parametrize("script,args,marker", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args, marker):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert marker in proc.stdout, proc.stdout[-2000:]


def test_ci_workflow_names_things_that_exist():
    """The workflow cannot be run here, so a deleted file or command
    would rot it unseen: every ``tests/`` / ``benchmarks/`` /
    ``scripts/`` path it names is on disk, and every ``python -m
    repro`` line parses with the real parser to a command the CLI
    dispatches.  So does every such path the documents name (the file
    of a ``file.py::test`` node id included), and every command line
    of the fenced blocks of README.md and docs/*.md: a removed file or
    flag cannot live on in an example."""
    import re
    import shlex

    from repro.cli import _COMMANDS, build_parser

    root = EXAMPLES.parent
    text = (root / ".github" / "workflows" / "ci.yml").read_text()
    docs = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    named = {}
    for source in [root / ".github" / "workflows" / "ci.yml", root / "DESIGN.md",
                   root / "EXPERIMENTS.md", root / ".claude" / "skills" / "verify" / "SKILL.md",
                   *docs]:
        for path in re.findall(r"\b(?:tests|benchmarks|scripts)/[\w./-]*\w", source.read_text()):
            named.setdefault(path, source.name)
    assert named and {p: s for p, s in named.items() if not (root / p).exists()} == {}
    lines = re.findall(r"python -m repro (.+)", re.sub(r"\\\n\s*", "", text))
    assert lines
    documented = []
    for doc in docs:
        for block in re.findall(r"^```[^\n]*\n(.*?)^```", doc.read_text(), re.M | re.S):
            documented += re.findall(r"^\s*(?:\$ )?python -m repro (.+)",
                                     re.sub(r"\\\n\s*", "", block), re.M)
    assert len(documented) > 10
    for line in lines + documented:
        args = build_parser().parse_args(shlex.split(line, comments=True))  # SystemExit on a stale flag
        assert args.command in _COMMANDS, line
