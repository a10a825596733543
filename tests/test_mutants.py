"""Mutants that a verb must catch, and the known survivors.

Each entry of MUTANTS names one semantic fault: a function of src/padicharm,
a text that occurs exactly once in it, its replacement, and the invocations
that must exit 1 under it.  The test copies src/ to a temporary directory,
applies the one replacement there, and runs each invocation in a fresh
interpreter on the copy.  No mutation package is needed.

SURVIVORS holds the faults that no check catches yet, with the ROADMAP items
that will, as strict expected failures: each of its invocations must still
exit 0 under the mutant, so the change that kills one moves it to MUTANTS.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the fe-gl1 inputs at which the power shift was seen to pass unnoticed when
# both sides read one transform: (p, level, n)
FE_GL1 = [["verify", "fe-gl1", "--p", str(p), "--level", str(level), "--n", str(n)]
          for p, level, n in ((5, 2, 1), (7, 1, 2), (3, 1, 0))]

# (name, module, function, old text, new text, invocations)
MUTANTS = [
    # M(f |.|^{(2n+1)/2}) of the right side taken at the power (2n-1)/2
    ("fe-gl1-right-power-shift", "fxspace", "fe_gl1_sides",
     "Fraction(2 * n + 1, 2)", "Fraction(2 * n - 1, 2)", FE_GL1),
    # the same in the transform the Fourier operator builds for the left side
    ("fe-gl1-left-power-shift", "fxspace", "fourier_L",
     "Fraction(2 * n + 1, 2)", "Fraction(2 * n - 1, 2)", FE_GL1),
]


# (name, module, function, old text, new text, invocations, the ROADMAP items
# whose checks will catch it)
SURVIVORS = [
    # Phi's exponent of |det(h + I)| as (2n-1)/2: phi(h) = phi(h^-1) holds for
    # any exponent
    ("phi-exponent", "gdist", "phi_rho_eval",
     "(2 * n + 1) / 2.0", "(2 * n - 1) / 2.0",
     [["phi-eval", "--p", "3", "--n", "1", "--ord", "1", "--unit", "2", "--level", "1",
       "--seed", str(seed)] for seed in (0, 5)], "items 12, 16 and 21"),
    # psi's sign flipped in the lattice Fourier transform's phase
    ("lattice-phase-sign", "pvszeta", "lattice_fourier",
     "psi_frac(p, tr, -piece.r, sign)", "psi_frac(p, tr, -piece.r, -sign)",
     [["verify", "fe-pvs", "--p", str(p), "--n", "1", "--k", str(k)]
      for p, k in ((5, 2), (7, 4), (13, 3))], "item 13's lattice-phase check"),
]


def mutate(src: Path, module: str, function: str, old: str, new: str) -> None:
    """Replace old by new in the top-level function of src/padicharm/module.py,
    where old must occur exactly once."""
    path = src / "padicharm" / f"{module}.py"
    lines = path.read_text().splitlines(keepends=True)
    node = next(node for node in ast.parse("".join(lines)).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    start, end = node.lineno - 1, node.end_lineno
    body = "".join(lines[start:end])
    assert body.count(old) == 1, f"{module}.{function} holds {old!r} {body.count(old)} times"
    path.write_text("".join(lines[:start]) + body.replace(old, new) + "".join(lines[end:]))


def exits(tmp_path, module, function, old, new, invocations):
    """(argv, exit code, stdout tail) of each invocation on a mutated copy of src/."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    mutate(copy, module, function, old, new)
    env = {**os.environ, "PYTHONPATH": str(copy)}
    for argv in invocations:
        proc = subprocess.run([sys.executable, "-m", "padicharm.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        yield argv, proc.returncode, proc.stdout[-300:]


@pytest.mark.parametrize("name, module, function, old, new, invocations", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(name, module, function, old, new, invocations, tmp_path):
    for argv, code, out in exits(tmp_path, module, function, old, new, invocations):
        assert code == 1, (name, argv, code, out)


@pytest.mark.parametrize("name, module, function, old, new, invocations, items", SURVIVORS,
                         ids=[m[0] for m in SURVIVORS])
def test_known_survivor_still_survives(name, module, function, old, new, invocations, items,
                                       tmp_path):
    for argv, code, out in exits(tmp_path, module, function, old, new, invocations):
        assert code == 0, (f"{name} is caught now: move it to MUTANTS ({items})", argv, out)
