"""src/ is what the verbs run.

One small invocation per CLI verb and per input path (--fx-in, --config,
--format csv --out, --help) runs in a fresh interpreter under sys.setprofile, so no
cache filled by another test hides a function body.  Every function defined
in src/padicharm, nested defs and dunders included, must run, unless it is on
ALLOWED with the reason it stays.  Run as a script, this prints the count of
functions no verb runs:

    PYTHONPATH=src python tests/test_reachable.py
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ALLOWED = {
    "abelian.ab_factors": "ROADMAP item 5: the doubling verb's a_m / b_m factors",
    "pvszeta.pvs_route_transform": "ROADMAP item 7: the prehomogeneous route of verify fe-gl1",
    "cli.run": "the library entry point perfbench/workloads.py calls",
    "ratfunc.RationalFunctionZ.__repr__": "operator of the value type",
    "ratfunc.RationalFunctionZ.equals": "the value type's equality, which the tests assert with",
}

FX_IN = {"p": 3, "level": 1, "k_min": 0, "k_tail": 1, "tail": {"kind": "compact"},
         "shells": [{"k": 0, "coset": 1, "re": 1.0, "im": 0.0},
                    {"k": 0, "coset": 2, "re": 1.0, "im": 0.0}]}


def invocations(tmp):
    return [
        ["gamma", "--p", "3", "--conductor", "1", "--level", "1"],
        ["beta", "--p", "3", "--n", "1", "--conductor", "1", "--level", "1"],
        ["eta-table", "--p", "3", "--n", "1", "--level", "1", "--kmin", "-4", "--kmax", "2"],
        ["verify", "fe-gl1", "--p", "3", "--level", "1", "--n", "1"],
        ["verify", "fe-pvs", "--p", "3", "--n", "1", "--k", "3"],
        ["count-fibers", "--p", "3", "--k", "2", "--m", "3"],
        ["symplectic-check", "--n", "1", "--seed", "9"],
        ["tate-oracle", "--p", "3", "--level", "1", "--conductor", "1"],
        ["fourier-n0", "--p", "3", "--level", "1"],
        ["shells", "--p", "3", "--conductor", "0", "--s", "0.7", "--level", "1"],
        ["phi-eval", "--p", "3", "--n", "1", "--ord", "0", "--unit", "2", "--level", "1"],
        ["fourier-n0", "--fx-in", str(tmp / "phi.json")],
        ["gamma", "--conductor", "0", "--config", str(tmp / "field.cfg")],
        ["count-fibers", "--p", "3", "--k", "1", "--m", "1", "--format", "csv",
         "--out", str(tmp / "counts.csv")],
        ["--help"],
    ]


# run in a fresh interpreter: argv[1] is the JSON list of invocations; prints
# the (file, first line) of every code object that started running
_TRACER = """
import contextlib, io, json, sys
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from padicharm.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
sys.setprofile(None)
print(json.dumps(sorted(seen)))
"""


def defined_functions():
    """{(file, first line): "module.qualname"} of every def in src/padicharm;
    a decorated function's code starts at its first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted((SRC / "padicharm").glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem + ".")
    return out


def unexecuted():
    """The functions of src/padicharm that none of the invocations runs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "phi.json").write_text(json.dumps(FX_IN))
        (tmp / "field.cfg").write_text("p = 5\nlevel = 1\ntolerance = 1e-6\n")
        proc = subprocess.run(
            [sys.executable, "-c", _TRACER, json.dumps(invocations(tmp))],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    seen = {tuple(x) for x in json.loads(proc.stdout)}
    return sorted(name for key, name in defined_functions().items() if key not in seen)


def test_every_function_runs_under_a_verb_or_is_allowed():
    missing = set(unexecuted())
    assert not missing - set(ALLOWED), f"no verb runs {sorted(missing - set(ALLOWED))}"
    assert missing == set(ALLOWED), f"verbs run {sorted(set(ALLOWED) - missing)}: drop them"


if __name__ == "__main__":
    print(f"functions in src/padicharm that no verb runs: {len(unexecuted())}")
