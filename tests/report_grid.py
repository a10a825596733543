"""The report grid: accepted CLI invocations, each run in a fresh interpreter.

Every verb, fe-gl1 at n = 0..2, levels 1..3 and both psi signs, fe-pvs at
the (p, k) corners of its boundary and at n = 0, count-fibers up to m = 7,
a long eta table, tate-oracle, fourier-n0, shells at conductors 0, 1 and 6,
and phi-eval at n = 0 and 1.  Reports carry no runtimes without --timing, so
for a fixed tree each report's sha256 is fixed: two trees whose sha256
columns agree print byte-identical reports.  Run as a script from any
directory; it runs the src/ next to this file, and with an argument, the
src/ of another tree as well:

    python3 tests/report_grid.py [OTHER_SRC]

One line per invocation (exit code, wall seconds, sha256 of stdout, argv,
and "same" or the other tree's exit code and sha256), then the count of
nonzero exits and the total time, and last the count of reports whose exit
code or sha256 differ.  It is not a test module, so tier-1 does not run it.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GRID = [
    ["gamma", "--p", "5", "--level", "2", "--conductor", "0"],
    ["gamma", "--p", "5", "--level", "2", "--conductor", "2", "--psi-sign", "-1"],
    ["beta", "--p", "5", "--n", "1", "--level", "1", "--conductor", "1"],
    ["beta", "--p", "3", "--n", "2", "--level", "2", "--conductor", "0"],
    ["eta-table", "--p", "5", "--n", "1", "--level", "1"],
    ["eta-table", "--p", "3", "--n", "0", "--level", "2", "--kmin", "-6", "--kmax", "2"],
    ["eta-table", "--p", "3", "--n", "1", "--level", "1", "--kmin", "0", "--kmax", "2000"],
    ["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", "0"],
    ["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", "1"],
    ["verify", "fe-gl1", "--p", "5", "--level", "1", "--n", "2"],
    ["verify", "fe-gl1", "--p", "5", "--level", "2", "--n", "0", "--seed", "3"],
    ["verify", "fe-gl1", "--p", "5", "--level", "2", "--n", "1", "--psi-sign", "-1"],
    ["verify", "fe-gl1", "--p", "7", "--level", "2", "--n", "2", "--seed", "1"],
    ["verify", "fe-gl1", "--p", "3", "--level", "3", "--n", "1"],
    ["verify", "fe-gl1", "--p", "3", "--level", "3", "--n", "2", "--psi-sign", "-1"],
    ["verify", "fe-gl1", "--p", "5", "--level", "3", "--n", "1"],
    ["verify", "fe-gl1", "--p", "5", "--level", "3", "--n", "0", "--psi-sign", "-1"],
    ["verify", "fe-gl1", "--p", "11", "--level", "1", "--n", "1", "--seed", "2"],
    ["verify", "fe-pvs", "--p", "5", "--n", "1", "--k", "2"],
    ["verify", "fe-pvs", "--p", "7", "--n", "1", "--k", "4"],
    ["verify", "fe-pvs", "--p", "13", "--n", "1", "--k", "3"],
    ["verify", "fe-pvs", "--p", "23", "--n", "1", "--k", "2", "--psi-sign", "-1"],
    ["verify", "fe-pvs", "--p", "11", "--n", "0", "--k", "3"],
    ["verify", "fe-pvs", "--p", "3", "--n", "0", "--k", "2", "--psi-sign", "-1"],
    ["verify", "fe-pvs", "--p", "5", "--n", "1", "--k", "6"],
    ["verify", "fe-pvs", "--p", "11", "--n", "1", "--k", "3"],
    ["count-fibers", "--p", "3", "--k", "2", "--m", "3"],
    ["count-fibers", "--p", "3", "--k", "3", "--m", "5"],
    ["count-fibers", "--p", "3", "--k", "8", "--m", "7"],
    ["count-fibers", "--p", "5", "--k", "2", "--m", "2", "--format", "csv"],
    ["symplectic-check", "--n", "1", "--seed", "9"],
    ["symplectic-check", "--n", "2", "--p", "5", "--seed", "4"],
    ["tate-oracle", "--p", "5", "--level", "2", "--conductor", "2"],
    ["tate-oracle", "--p", "3", "--level", "4", "--conductor", "4", "--psi-sign", "-1"],
    ["tate-oracle", "--p", "7", "--level", "1", "--conductor", "0"],
    ["tate-oracle", "--p", "3", "--level", "6", "--conductor", "6"],
    ["fourier-n0", "--p", "3", "--level", "1"],
    ["fourier-n0", "--p", "3", "--level", "2", "--seed", "1"],
    ["fourier-n0", "--p", "5", "--level", "2", "--psi-sign", "-1"],
    ["fourier-n0", "--p", "7", "--level", "2", "--seed", "4"],
    ["shells", "--p", "5", "--level", "1", "--conductor", "0", "--s", "0.7"],
    ["shells", "--p", "5", "--level", "1", "--conductor", "1", "--s", "0.7"],
    ["shells", "--p", "3", "--level", "6", "--conductor", "6", "--s", "0.5"],
    ["shells", "--p", "7", "--level", "2", "--conductor", "1", "--s", "-0.2",
     "--psi-sign", "-1"],
    ["phi-eval", "--p", "5", "--n", "0", "--ord", "-2", "--unit", "3", "--level", "2"],
    ["phi-eval", "--p", "3", "--n", "1", "--ord", "1", "--unit", "2", "--level", "1",
     "--seed", "5"],
]


def run(argv, src=SRC):
    """(exit code, wall seconds, sha256 of stdout) of one invocation."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "padicharm.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - t, hashlib.sha256(proc.stdout).hexdigest()


def main(args):
    other = Path(args[0]).resolve() if args else None
    failed, differ, total = 0, 0, 0.0
    for argv in GRID:
        code, seconds, digest = run(argv)
        failed += code != 0
        total += seconds
        line = f"{code}  {seconds:7.2f}  {digest}  {' '.join(argv)}"
        if other is not None:
            other_code, _, other_digest = run(argv, other)
            same = (other_code, other_digest) == (code, digest)
            differ += not same
            line += "  same" if same else f"  DIFFERS: {other_code} {other_digest}"
        print(line, flush=True)
    print(f"report grid: {len(GRID)} invocations, {failed} nonzero exits, {total:.1f} s")
    if other is not None:
        print(f"report grid against {other}: {differ} of {len(GRID)} reports differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
