"""The README's examples run as written: the library example keeps the
claims its comments make, and every command line parses."""

from __future__ import annotations

import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import physanet as pn
from physanet.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_block(section: str, language: str) -> str:
    """The first fenced ``language`` block under the ``## section`` heading."""
    text = README.read_text()
    body = text[text.index(f"\n## {section}\n"):]
    match = re.search(rf"^```{language}\n(.*?)^```", body, re.MULTILINE | re.DOTALL)
    assert match, f"no {language} block under {section!r}"
    return match.group(1)


def test_readme_library_example_keeps_its_claims(capsys):
    namespace: dict = {}
    exec(compile(_fenced_block("Library", "python"), str(README), "exec"), namespace)
    capsys.readouterr()
    scen, traj, sol = namespace["scen"], namespace["traj"], namespace["sol"]
    assert traj.status == pn.TerminalStatus.CONVERGED
    # ~sqrt(2/3) per edge
    assert np.allclose(traj.final_x, math.sqrt(2 / 3), rtol=1e-5, atol=0)
    # primal = dual = L(x) = sqrt(6)
    cert = pn.certificate(scen.instance, traj.final_x, sol)
    value = pn.lyapunov(scen.instance, traj.final_x, sol).value
    for got in (cert.primal, cert.dual, value):
        assert got == pytest.approx(math.sqrt(6), abs=1e-6)


def _command_lines() -> list[str]:
    """The ``physanet ...`` commands of the README's command-line block,
    each joined across its ``\\`` continuations."""
    text = _fenced_block("Command line", "bash").replace("\\\n", " ")
    return [line.strip() for line in text.splitlines()
            if line.strip().startswith("physanet ")]


def test_readme_command_lines_parse():
    lines = _command_lines()
    assert {line.split()[1] for line in lines} == {
        "gen-scenario", "run", "certify", "sweep", "export"}
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
