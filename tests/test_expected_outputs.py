"""The benchmark's exactly-checked commands reproduce their recordings.

``perfbench/expected/`` holds the exit code and stdout of every benchmark
command, recorded from a known-good commit.  This test only reads those
files.  Its commands mirror ``perfbench/run.py``: the four verifies, the
four refuting k0 values, the three k4 diagonal mutants, ``scan60`` and
``profile``.  Each runs in-process through ``cli.main``.
"""

import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from flagcert.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"
MANIFEST = json.loads((EXPECTED / "manifest.json").read_text())
EXACT_CASES = sorted(c for c, want in MANIFEST.items() if want["check"] == "exact")

COMMANDS = {
    "verify_k3": ("verify", "--cert", "k3.cert"),
    "verify_k4": ("verify", "--cert", "k4.cert"),
    "verify_lemma074": (
        "verify", "--cert", "lemma074.cert", "--golden", "appendixB.golden",
    ),
    "verify_appendixA": (
        "verify", "--cert", "appendixA.cert", "--golden", "appendixC.golden",
    ),
    **{
        "refute_appendixA_k0_" + k0.replace("/", "_"): (
            "verify", "--cert", "appendixA.cert", "--k0", k0,
        )
        for k0 in ("4", "81/20", "41/10", "4111/1000")
    },
    **{f"refute_k4_diag{e}": ("verify", "--cert", "-") for e in (0, 1, 2)},
    "scan60": ("scan", "--k", "3,7/2,4,5,10", "--nmax", "60"),
    "profile": ("profile", "--from", "0", "--to", "1", "--step", "1/300"),
}


def k4_mutant(entry: int) -> str:
    """k4.cert with diagonal entry ``entry`` of its square block negated."""
    text = (resources.files("flagcert") / "certs" / "k4.cert").read_text()
    lines = text.splitlines()
    i = [n for n, line in enumerate(lines) if line.startswith("row:")][entry]
    cells = [c.strip() for c in lines[i][len("row:"):].split(";")]
    cell = cells[entry]
    cells[entry] = cell[1:] if cell.startswith("-") else "-" + cell
    lines[i] = "row: " + " ; ".join(cells)
    return "\n".join(lines) + "\n"


def test_every_exact_case_has_a_command():
    assert EXACT_CASES == sorted(COMMANDS)


@pytest.mark.parametrize("case", EXACT_CASES)
def test_exact_case_matches_recording(case, capsys, monkeypatch):
    if case.startswith("refute_k4_diag"):
        mutant = k4_mutant(int(case[len("refute_k4_diag"):]))
        monkeypatch.setattr(sys, "stdin", io.StringIO(mutant))
    code = main(list(COMMANDS[case]))
    out = capsys.readouterr().out
    want = MANIFEST[case]
    assert code == want["exit"]
    assert out.encode() == (EXPECTED / want["file"]).read_bytes()
