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
    of a ``file.py::test`` node id included), every command line of
    the fenced blocks of README.md and docs/*.md, and every name those
    blocks import ``from repro...``: a removed file, flag or name
    cannot live on in an example."""
    import importlib
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
    documented, imports = [], []
    for doc in docs:
        for block in re.findall(r"^```[^\n]*\n(.*?)^```", doc.read_text(), re.M | re.S):
            documented += re.findall(r"^\s*(?:\$ )?python -m repro (.+)",
                                     re.sub(r"\\\n\s*", "", block), re.M)
            imports += re.findall(r"^\s*from (repro[\w.]*) import (\([^)]*\)|[^\n#]+)", block, re.M)
    assert len(documented) > 10
    for line in lines + documented:
        args = build_parser().parse_args(shlex.split(line, comments=True))  # SystemExit on a stale flag
        assert args.command in _COMMANDS, line
    assert len(imports) > 5
    for module, names in imports:
        for name in names.strip("() \n").split(","):
            name = name.split(" as ")[0].strip()
            if name:
                assert hasattr(importlib.import_module(module), name), f"from {module} import {name}"


def test_per_packet_state_has_a_reader():
    """Every ``__slots__`` entry of ``Packet`` and of each control
    message is read (a ``Load`` of the attribute) somewhere in ``src/``
    or ``tests/`` outside ``network/packet.py``: state carried per
    packet or per message that nothing reads is deleted, not kept.  An
    ``x.field += 1`` is a write, not a read."""
    import ast

    from repro.network import packet

    root = EXAMPLES.parent
    home = root / "src" / "repro" / "network" / "packet.py"
    read = set()
    for path in [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]:
        if path != home:
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    classes = [packet.Packet, *(c for c in vars(packet).values()
                                if isinstance(c, type) and issubclass(c, packet.ControlMessage))]
    unread = [f"{c.__name__}.{slot}" for c in classes for slot in c.__slots__ if slot not in read]
    assert len(classes) > 5
    assert unread == [], unread



#: definitions that ``http.server`` calls by name, so nothing else does.
CALLED_BY_THE_STDLIB = {"do_GET", "do_POST", "parse_request"}


def _code_words(text):
    """The words of a Python source but its comments and docstrings (any
    string that is a statement of its own): code, and the string
    literals code reads, such as ``getattr(x, "name")``."""
    import ast
    import io
    import re
    import tokenize

    prose = {(node.lineno, node.col_offset) for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
             and isinstance(node.value.value, str)}
    return [word for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type != tokenize.COMMENT
            and not (tok.type == tokenize.STRING and tok.start in prose)
            for word in re.findall(r"\w+", tok.string)]


def test_every_definition_has_a_reader():
    """Every function, method and class defined under ``src/`` is named
    somewhere besides its own ``def`` or ``class`` line, in the code of
    ``src/``, ``tests/``, ``scripts/``, ``examples/`` or ``benchmarks/``
    (a word match: a call, an import or an ``__all__`` entry counts; a
    comment or a docstring's cross-reference does not).  Dunder methods,
    which Python itself calls, are exempt; so are the handler overrides
    in :data:`CALLED_BY_THE_STDLIB`.  Code that nothing names is
    deleted, not kept."""
    import ast
    from collections import Counter

    root = EXAMPLES.parent
    words = Counter()
    defs = []
    for top in ("src", "tests", "scripts", "examples", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            text = path.read_text()
            words.update(_code_words(text))
            if top == "src":
                defs += [(path, node) for node in ast.walk(ast.parse(text))
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    definitions = Counter(node.name for _path, node in defs)
    unread = sorted(
        f"{path.relative_to(root)}:{node.lineno} {node.name}" for path, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in CALLED_BY_THE_STDLIB
        and words[node.name] <= definitions[node.name]
    )
    assert len(defs) > 500
    assert unread == [], unread
