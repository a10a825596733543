"""The report grid: the accepted CLI invocations, each run in a fresh interpreter.

Every verb, fe-gl1 at n = 0..2, levels 1..3 and 6 and both psi signs,
fe-pvs at the (p, k) corners of its boundary and at n = 0, count-fibers up
to m = 7, a long eta table, tate-oracle, fourier-n0 up to the corner of its
boundary and from a committed --fx-in file (tests/data), shells at
conductors 0, 1, 6 and 12, and phi-eval at n = 0 and 1.  Where an entry
guards a cost or a path, its comment says which.  Reports carry no runtimes
without --timing, so for a fixed tree each report's sha256 is fixed: two
trees whose sha256 columns agree print byte-identical reports.  Run as a
script from any directory; it runs the src/ next to this file, and with an
argument, the src/ of another tree as well:

    python3 tests/report_grid.py [OTHER_SRC]

Each entry runs with --timing.  One line per entry: the exit code, the wall
seconds, the child's own peak RSS (from os.wait4), the count of checks, the
slowest check's runtime and name, the largest max_deviation, the sha256 of
the report as the plain run prints it (every runtime_ms removed and the
report re-emitted by cli.emit; CSV is hashed as printed), and the argv.  With
OTHER_SRC, each line ends with the other tree's wall seconds and "same", or
its exit code and sha256.  Then the count of nonzero exits and the total
time, and last the count of reports whose exit code or sha256 differ.
tests/test_report_grid.py runs every entry through cli.main in one process.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

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
    # the 42 characters mod 7^2 for each of three test functions: a per-check
    # rebuild of a function's sides shows in the slowest check
    ["verify", "fe-gl1", "--p", "7", "--level", "2", "--n", "1"],
    ["verify", "fe-gl1", "--p", "3", "--level", "3", "--n", "1"],
    ["verify", "fe-gl1", "--p", "3", "--level", "3", "--n", "2", "--psi-sign", "-1"],
    ["verify", "fe-gl1", "--p", "5", "--level", "3", "--n", "1"],
    ["verify", "fe-gl1", "--p", "5", "--level", "3", "--n", "0", "--psi-sign", "-1"],
    ["verify", "fe-gl1", "--p", "11", "--level", "1", "--n", "1", "--seed", "2"],
    # rows of length 486, past abelian.DFT_MAX, so they take numpy's FFT, not
    # the plain-Python DFT
    ["verify", "fe-gl1", "--p", "3", "--level", "6", "--n", "1"],
    ["verify", "fe-pvs", "--p", "5", "--n", "1", "--k", "2"],
    # the prehomogeneous functional equation from the exact fiber series
    ["verify", "fe-pvs", "--p", "7", "--n", "1", "--k", "4"],
    # the largest p the boundary accepts at k = 3, whose phased and masked
    # jobs take the census that enumerates nothing
    ["verify", "fe-pvs", "--p", "13", "--n", "1", "--k", "3"],
    ["verify", "fe-pvs", "--p", "23", "--n", "1", "--k", "2", "--psi-sign", "-1"],
    ["verify", "fe-pvs", "--p", "11", "--n", "0", "--k", "3"],
    ["verify", "fe-pvs", "--p", "3", "--n", "0", "--k", "2", "--psi-sign", "-1"],
    # the same at n = 0 (Sym_1, Tate's functional equation), with its depth-k
    # cross-check
    ["verify", "fe-pvs", "--p", "7", "--n", "0", "--k", "3"],
    # a return of rows per det residue shows in the wall and RSS columns
    ["verify", "fe-pvs", "--p", "5", "--n", "1", "--k", "6"],
    ["verify", "fe-pvs", "--p", "11", "--n", "1", "--k", "3"],
    ["count-fibers", "--p", "3", "--k", "2", "--m", "3"],
    ["count-fibers", "--p", "3", "--k", "3", "--m", "5"],
    ["count-fibers", "--p", "3", "--k", "8", "--m", "7"],
    ["count-fibers", "--p", "5", "--k", "2", "--m", "2", "--format", "csv"],
    ["symplectic-check", "--n", "1", "--seed", "9"],
    # the exact doubling identities on 4 x 4 and 8 x 8 matrices: a return to
    # eliminating over Fractions, or to re-verifying the standard elements
    # per factorization, shows in the wall column
    ["symplectic-check", "--n", "2", "--p", "5", "--seed", "4"],
    # the same on 16 x 16 matrices, where Fraction elimination took 1.9 s
    ["symplectic-check", "--n", "4", "--p", "5"],
    # the largest p the boundary accepts at n = 1, where group-order-c0 counts
    # SL_2(F_31) over all 31^4 matrices
    ["symplectic-check", "--n", "1", "--p", "31"],
    ["tate-oracle", "--p", "5", "--level", "2", "--conductor", "2"],
    ["tate-oracle", "--p", "3", "--level", "4", "--conductor", "4", "--psi-sign", "-1"],
    ["tate-oracle", "--p", "7", "--level", "1", "--conductor", "0"],
    ["tate-oracle", "--p", "3", "--level", "6", "--conductor", "6"],
    # the Tate oracle against the shared gamma factors over the 100 characters
    # mod 5^3: a per-character rebuild of the oracle's z-powers or of a gamma
    # factor shows in the slowest check
    ["tate-oracle", "--p", "5", "--level", "3", "--conductor", "3"],
    ["fourier-n0", "--p", "3", "--level", "1"],
    ["fourier-n0", "--p", "3", "--level", "2", "--seed", "1"],
    ["fourier-n0", "--p", "5", "--level", "2", "--psi-sign", "-1"],
    ["fourier-n0", "--p", "7", "--level", "2", "--seed", "4"],
    # the n = 0 Fourier table and its pointwise inverse, per check
    ["fourier-n0", "--p", "5", "--level", "2"],
    # the inverse reflects phi once and reads each shell's eta row once for
    # all 84 points: a return to per-point reflection or per-shell series
    # shows in the wall column
    ["fourier-n0", "--p", "7", "--level", "2"],
    # the largest units the boundary accepts at p = 3 (486, units^2 <= 10^6):
    # a return to caching a rotated row of the table per (shell, coset) shows
    # in the RSS column
    ["fourier-n0", "--p", "3", "--level", "6"],
    # a compact --fx-in with shells at k = -30 and 40, far from the table's
    # window: the zero rows between them are skipped
    ["fourier-n0", "--fx-in", str(DATA / "fx_in_p5_level1.json")],
    ["shells", "--p", "5", "--level", "1", "--conductor", "0", "--s", "0.7"],
    ["shells", "--p", "5", "--level", "1", "--conductor", "1", "--s", "0.7"],
    ["shells", "--p", "3", "--level", "6", "--conductor", "6", "--s", "0.5"],
    ["shells", "--p", "7", "--level", "2", "--conductor", "1", "--s", "-0.2",
     "--psi-sign", "-1"],
    # conductor 12, the row budget's highest at p = 3: a return to averaging
    # eta over every unit (over 3 minutes and 1.2 GB at this size) shows in
    # the wall and RSS columns
    ["shells", "--p", "3", "--level", "12", "--conductor", "12", "--s", "0.5"],
    ["phi-eval", "--p", "5", "--n", "0", "--ord", "-2", "--unit", "3", "--level", "2"],
    # ord det(h + I) = 0 at seed 5, where Phi's exponent of |det(h + I)| does
    # not matter
    ["phi-eval", "--p", "3", "--n", "1", "--ord", "1", "--unit", "2", "--level", "1",
     "--seed", "5"],
    # ord det(h + I) = 2 at seed 0, where that exponent changes phi
    ["phi-eval", "--p", "3", "--n", "1", "--ord", "1", "--unit", "2", "--level", "1",
     "--seed", "0"],
]

HEADER = (f"{'exit':>4}  {'wall_s':>6}  {'rss_MB':>6}  {'checks':>6}  {'slowest_ms':>10}  "
          f"{'slowest_check':<24}  {'max_dev':>7}  {'sha256':<64}  argv")


def spawn(argv, src, out):
    """(exit code, wall seconds, peak RSS in MB) of one invocation in a fresh
    interpreter, its stdout written to the open file out.  The RSS is
    os.wait4's, which also counts the spawning process's RSS at the spawn, so
    main spawns every child before it reads any report: the script then
    stays smaller than any child, and the RSS is the child's own peak."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "padicharm.cli", *argv], env=env,
                            stdout=out, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - t, usage.ru_maxrss / 1024


def run(argv, src=SRC):
    """(exit code, wall seconds, peak RSS in MB, stdout) of one invocation."""
    with tempfile.TemporaryFile() as out:
        result = spawn(argv, src, out)
        out.seek(0)
        return (*result, out.read())


def plain(out: bytes):
    """(checks, sha256) of the stdout of a --timing run: its checks as pairs
    (check without its runtime_ms, runtime_ms), and the sha256 of the plain
    run's stdout, the report with every runtime_ms removed as cli.emit
    writes it.  Stdout that is not JSON (CSV) is hashed as it is."""
    from padicharm.cli import emit
    try:
        report = json.loads(out)
    except ValueError:
        return [], hashlib.sha256(out).hexdigest()
    checks = report.get("checks", [])
    runtimes = [c.pop("runtime_ms") for c in checks]
    text = io.StringIO()
    emit(report, "json", text)
    return list(zip(checks, runtimes)), hashlib.sha256(text.getvalue().encode()).hexdigest()


def measure(argv, src=SRC):
    """(exit code, wall seconds, peak RSS in MB, checks, sha256) of argv run
    with --timing, as plain() reads its stdout."""
    code, seconds, rss, out = run([*argv, "--timing"], src)
    return code, seconds, rss, *plain(out)


def columns(checks) -> str:
    """The check count, the slowest check's runtime and name, and the largest
    max_deviation ("-" where there is none)."""
    if not checks:
        return f"{0:6d}  {'-':>10}  {'-':<24}  {'-':>7}"
    slowest, ms = max(checks, key=lambda cm: cm[1])
    devs = [c["max_deviation"] for c, _ in checks if c["max_deviation"] is not None]
    dev = f"{max(devs):7.1e}" if devs else f"{'-':>7}"
    return f"{len(checks):6d}  {ms:10.1f}  {slowest['name']:<24}  {dev}"


def main(args):
    trees = [SRC, *(Path(a).resolve() for a in args[:1])]
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for i, argv in enumerate(GRID):
            for j, src in enumerate(trees):
                path = Path(tmp, f"{i}.{j}")
                with open(path, "wb") as out:
                    runs[i, j] = (*spawn([*argv, "--timing"], src, out), path)
        failed, differ, total = 0, 0, 0.0
        print(HEADER + ("  [OTHER: wall_s, same | DIFFERS exit sha256]" if args else ""))
        for i, argv in enumerate(GRID):
            code, seconds, rss, path = runs[i, 0]
            checks, digest = plain(path.read_bytes())
            failed += code != 0
            total += seconds
            line = (f"{code:4d}  {seconds:6.2f}  {rss:6.0f}  {columns(checks)}  {digest}  "
                    f"{' '.join(argv)}")
            if args:
                other_code, other_seconds, _, other_path = runs[i, 1]
                other_digest = plain(other_path.read_bytes())[1]
                same = (other_code, other_digest) == (code, digest)
                differ += not same
                line += f"  {other_seconds:.2f} " + (
                    "same" if same else f"DIFFERS: {other_code} {other_digest}")
            print(line)
    print(f"report grid: {len(GRID)} invocations, {failed} nonzero exits, {total:.1f} s")
    if args:
        print(f"report grid against {trees[1]}: {differ} of {len(GRID)} reports differ")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))    # for cli.emit
    sys.exit(main(sys.argv[1:]))
