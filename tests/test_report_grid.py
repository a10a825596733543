"""The report grid in one process: every entry of tests/report_grid.py through
cli.main, in GRID order and in a seeded shuffle, and a few entries against
their bytes from a fresh interpreter, so that a cache that leaks state from
one invocation into the next fails here.  The runner's sha256 of a --timing
run against the plain run's stdout.  And a seeded sample of accepted
inputs of every verb, off the grid, each of which must pass."""

import contextlib
import hashlib
import io
import json
import random

import pytest

from padicharm import PadicharmError, cli
from padicharm.pvszeta import ROW_BUDGET
from report_grid import GRID, measure, run

SHUFFLE_SEED = 5
SAMPLE_SEED = 41
SAMPLE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)   # p^4 <= ROW_BUDGET
# fourier-n0 draws stay at units <= 250 of the boundary's 1000, about 0.3 s
# each at most, and so do the draws of the verbs that sum over characters:
# the grid holds the corners
SAMPLE_UNITS = 250
# count-fibers draws stay at p^k <= 10^4 rows of the boundary's 10^6, where
# the corner takes about 12 s
SAMPLE_ROWS = 10 ** 4

# one JSON verify, the one CSV entry and an n = 1 phi-eval
FRESH = [
    ["verify", "fe-gl1", "--p", "5", "--level", "2", "--n", "1", "--psi-sign", "-1"],
    ["count-fibers", "--p", "5", "--k", "2", "--m", "2", "--format", "csv"],
    ["phi-eval", "--p", "3", "--n", "1", "--ord", "1", "--unit", "2", "--level", "1",
     "--seed", "0"],
]


def in_process(argv):
    """(exit code, stdout bytes) of cli.main(argv) in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


@pytest.fixture(scope="module")
def passes():
    """{index: (exit code, stdout)} of every entry, in GRID order and in a
    seeded shuffle."""
    first = {i: in_process(argv) for i, argv in enumerate(GRID)}
    order = list(range(len(GRID)))
    random.Random(SHUFFLE_SEED).shuffle(order)
    second = {i: in_process(GRID[i]) for i in order}
    return first, second


@pytest.fixture(scope="module")
def fresh():
    """{argv: stdout} of each FRESH entry's plain run in a fresh interpreter."""
    return {tuple(argv): run(argv)[3] for argv in FRESH}


def test_grid_in_one_process_in_two_orders(passes):
    first, second = passes
    for i, argv in enumerate(GRID):
        assert first[i][0] == 0, argv
        assert second[i] == first[i], argv


@pytest.mark.parametrize("argv", FRESH, ids=["fe-gl1", "count-fibers-csv", "phi-eval"])
def test_in_process_report_matches_a_fresh_process(argv, passes, fresh):
    assert passes[0][GRID.index(argv)][1] == fresh[tuple(argv)]


@pytest.mark.parametrize("argv", FRESH[:2], ids=["json", "csv"])
def test_runner_sha_of_a_timed_run_is_the_plain_runs(argv, fresh):
    code, _, rss, checks, digest = measure(argv)
    assert code == 0 and rss > 0
    assert digest == hashlib.sha256(fresh[tuple(argv)]).hexdigest()
    # a JSON report's checks carry their runtimes under --timing, CSV none
    assert bool(checks) == (argv[0] == "verify")


def sample_argv(rng):
    """An accepted symplectic-check or phi-eval input at n = 1..3: p up to
    the 31 of symplectic-check's SL_2 count at n = 1, a unit at level 1 or
    2, an ord in -3..3 and a seed."""
    n, p, seed = rng.randint(1, 3), rng.choice(SAMPLE_PRIMES), rng.randrange(1000)
    if rng.random() < 0.5:
        return ["symplectic-check", "--n", str(n), "--p", str(p), "--seed", str(seed)]
    level = rng.randint(1, 2)
    unit = rng.choice([u for u in range(1, p ** level) if u % p])
    return ["phi-eval", "--p", str(p), "--n", str(n), "--ord", str(rng.randint(-3, 3)),
            "--unit", str(unit), "--level", str(level), "--seed", str(seed)]


def sample_levels(p):
    """The levels of at most SAMPLE_UNITS units at p."""
    return [level for level in range(1, 7) if (p - 1) * p ** (level - 1) <= SAMPLE_UNITS]


def fourier_argv(rng):
    """An accepted fourier-n0 input: p among SAMPLE_PRIMES, a level whose
    units are at most SAMPLE_UNITS, a seed and a psi sign."""
    p = rng.choice(SAMPLE_PRIMES)
    return ["fourier-n0", "--p", str(p), "--level", str(rng.choice(sample_levels(p))),
            "--seed", str(rng.randrange(1000)), "--psi-sign", str(rng.choice((1, -1)))]


def far_shells(rng):
    """A compact --fx-in at p = 3, 5 or 7 and level 1 or 2: a few random
    shells near 0 and two more as far as 2000 shells away."""
    p, level = rng.choice((3, 5, 7)), rng.randint(1, 2)
    cosets = [u for u in range(1, p ** level) if u % p]
    ks = [rng.randint(-2, 2) for _ in range(3)] + [-rng.randint(100, 2000),
                                                   rng.randint(100, 2000)]
    shells = [{"k": k, "coset": rng.choice(cosets), "re": rng.uniform(-1, 1),
               "im": rng.uniform(-1, 1)} for k in ks]
    return {"p": p, "level": level, "k_min": min(ks), "k_tail": max(ks) + 1,
            "shells": shells, "tail": {"kind": "compact"}}


def accepted(argv) -> bool:
    """Whether the input boundary accepts argv."""
    args = cli.parse_args(argv)
    try:
        cli._validate(args, " ".join(args.verb), None)
    except PadicharmError:
        return False
    return True


def character_argv(rng, verb):
    """An accepted gamma, beta, tate-oracle or shells input: p among
    SAMPLE_PRIMES at one of its sample_levels, a conductor up to the level
    and a psi sign; beta at n = 0..6 and shells at s in (-1/2, 2), drawn
    again while the boundary refuses it."""
    while True:
        p = rng.choice(SAMPLE_PRIMES)
        level = rng.choice(sample_levels(p))
        argv = [verb, "--p", str(p), "--level", str(level),
                "--conductor", str(rng.randint(0, level)),
                "--psi-sign", str(rng.choice((1, -1)))]
        if verb == "beta":
            argv += ["--n", str(rng.randint(0, 6))]
        if verb == "shells":
            argv += ["--s", repr(rng.uniform(-0.5, 2.0))]
        if accepted(argv):
            return argv


def table_argv(rng, verb):
    """An accepted eta-table input (n = 0..2 at one of sample_levels, up to
    11 shells from a kmin in -8..2, a psi sign) or count-fibers input
    (m = 1..7, p^k at most SAMPLE_ROWS)."""
    p = rng.choice(SAMPLE_PRIMES)
    if verb == "eta-table":
        kmin = rng.randint(-8, 2)
        return [verb, "--p", str(p), "--level", str(rng.choice(sample_levels(p))),
                "--n", str(rng.randint(0, 2)), "--kmin", str(kmin),
                "--kmax", str(kmin + rng.randint(0, 10)), "--psi-sign", str(rng.choice((1, -1)))]
    k = rng.choice([k for k in range(1, 10) if p ** k <= SAMPLE_ROWS])
    return [verb, "--m", str(rng.randint(1, 7)), "--p", str(p), "--k", str(k)]


def verify_argv(rng, which):
    """An accepted verify input with a psi sign: fe-gl1 at n = 0..2 at one of
    sample_levels, with a seed; fe-pvs at n = 0..1 and any (p, k) of
    SAMPLE_PRIMES within its bound 2 p^(k+2) <= ROW_BUDGET."""
    sign = ["--psi-sign", str(rng.choice((1, -1)))]
    if which == "fe-gl1":
        p = rng.choice(SAMPLE_PRIMES)
        return ["verify", which, "--p", str(p), "--level", str(rng.choice(sample_levels(p))),
                "--n", str(rng.randint(0, 2)), "--seed", str(rng.randrange(1000)), *sign]
    p, k = rng.choice([(p, k) for p in SAMPLE_PRIMES for k in range(2, 12)
                       if 2 * p ** (k + 2) <= ROW_BUDGET])
    return ["verify", which, "--p", str(p), "--n", str(rng.randint(0, 1)), "--k", str(k), *sign]


def test_a_seeded_sample_of_accepted_inputs_passes(tmp_path):
    # 20 draws of symplectic-check and phi-eval, 8 of fourier-n0, one
    # fourier-n0 --fx-in and 20 of each other verb, about 2 s in one process
    rng = random.Random(SAMPLE_SEED)
    sample = [sample_argv(rng) for _ in range(20)]
    # the draw reaches the direct SL_2(F_p) count of n = 1 past p = 7
    assert any(argv[:3] == ["symplectic-check", "--n", "1"] and int(argv[4]) > 7
               for argv in sample)
    sample += [fourier_argv(rng) for _ in range(8)]
    (tmp_path / "phi.json").write_text(json.dumps(far_shells(rng)))
    sample.append(["fourier-n0", "--fx-in", str(tmp_path / "phi.json")])
    for _ in range(20):
        sample += [character_argv(rng, verb) for verb in ("gamma", "beta", "tate-oracle",
                                                          "shells")]
        sample += [table_argv(rng, verb) for verb in ("eta-table", "count-fibers")]
        sample += [verify_argv(rng, which) for which in ("fe-gl1", "fe-pvs")]
    for argv in sample:
        code, out = in_process(argv)
        assert code == 0, (argv, out[:300])
