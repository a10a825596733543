"""The side-perturbation census: can each check of the report grid fail?

For every check of every invocation of tests/report_grid.py, in one process,
each of the check's two routes is evaluated once, and its compare runs three
times: as is, with the first route's value scaled by 1 + SCALE, and with that
value zeroed.  An exact value (ints and Fractions: a matrix or a count) is
not scaled: its first entry is changed by 1 instead.  A check survives a
perturbation when its compare still passes.

SURVIVORS is the committed table of survivors per grid entry and
perturbation, each with the ROADMAP item that removes them.  The tier-1 test
(tests/test_census.py) holds it like a strict expected failure: a count that
moves either way fails until the table follows.  Run as a script, this
prints per verb the checks, the survivors under scaling and under zeroing,
and the totals against the table:

    python3 tests/census.py
"""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCALE = 1e-5
PERTURBATIONS = ("scaled", "zeroed")

# (grid entry, perturbation): (survivors, the ROADMAP item that removes them).
# Item 1 judges each check against the scale of its sides and flags a check
# whose sides are both about 0 as vacuous.
SURVIVORS = {
    # fe-gl1 at level >= 2, whose sides are mostly far below 1: the compare
    # divides by max(|a|, |b|, 1), so --tolerance bounds |a - b| there
    ('verify fe-gl1 --p 5 --level 2 --n 0 --seed 3', 'scaled'): (16, 1),
    ('verify fe-gl1 --p 3 --level 3 --n 1', 'scaled'): (5, 1),
    ('verify fe-gl1 --p 5 --level 3 --n 1', 'scaled'): (13, 1),
    ('verify fe-gl1 --p 5 --level 3 --n 0 --psi-sign -1', 'scaled'): (282, 1),
    ('verify fe-gl1 --p 3 --level 6 --n 1', 'scaled'): (1447, 1),
    # fe-pvs, whose sides are mostly about 0, so that even a zeroed side passes
    ('verify fe-pvs --p 5 --n 1 --k 2', 'scaled'): (3, 1),
    ('verify fe-pvs --p 5 --n 1 --k 2', 'zeroed'): (3, 1),
    ('verify fe-pvs --p 7 --n 1 --k 4', 'scaled'): (17, 1),
    ('verify fe-pvs --p 7 --n 1 --k 4', 'zeroed'): (10, 1),
    ('verify fe-pvs --p 13 --n 1 --k 3', 'scaled'): (35, 1),
    ('verify fe-pvs --p 13 --n 1 --k 3', 'zeroed'): (22, 1),
    ('verify fe-pvs --p 23 --n 1 --k 2 --psi-sign -1', 'scaled'): (21, 1),
    ('verify fe-pvs --p 23 --n 1 --k 2 --psi-sign -1', 'zeroed'): (21, 1),
    ('verify fe-pvs --p 11 --n 0 --k 3', 'scaled'): (9, 1),
    ('verify fe-pvs --p 11 --n 0 --k 3', 'zeroed'): (9, 1),
    ('verify fe-pvs --p 3 --n 0 --k 2 --psi-sign -1', 'scaled'): (1, 1),
    ('verify fe-pvs --p 3 --n 0 --k 2 --psi-sign -1', 'zeroed'): (1, 1),
    ('verify fe-pvs --p 7 --n 0 --k 3', 'scaled'): (5, 1),
    ('verify fe-pvs --p 7 --n 0 --k 3', 'zeroed'): (5, 1),
    ('verify fe-pvs --p 5 --n 1 --k 6', 'scaled'): (11, 1),
    ('verify fe-pvs --p 5 --n 1 --k 6', 'zeroed'): (6, 1),
    ('verify fe-pvs --p 11 --n 1 --k 3', 'scaled'): (29, 1),
    ('verify fe-pvs --p 11 --n 1 --k 3', 'zeroed'): (18, 1),
    # plancherel-truncated: 1e-5 of a norm below 10 is within its absolute 1e-4
    ('fourier-n0 --p 3 --level 1', 'scaled'): (1, 1),
    ('fourier-n0 --p 3 --level 2 --seed 1', 'scaled'): (1, 1),
    ('fourier-n0 --p 5 --level 2 --psi-sign -1', 'scaled'): (1, 1),
    ('fourier-n0 --p 7 --level 2 --seed 4', 'scaled'): (1, 1),
    ('fourier-n0 --p 5 --level 2', 'scaled'): (1, 1),
    ('fourier-n0 --p 7 --level 2', 'scaled'): (1, 1),
    ('fourier-n0 --p 3 --level 6', 'scaled'): (1, 1),
    ('fourier-n0 --fx-in tests/data/fx_in_p5_level1.json', 'scaled'): (1, 1),
    # shells-vs-gamma: its tolerance 1e-5 is the perturbation itself
    ('shells --p 5 --level 1 --conductor 0 --s 0.7', 'scaled'): (1, 1),
    ('shells --p 3 --level 6 --conductor 6 --s 0.5', 'scaled'): (1, 1),
    ('shells --p 7 --level 2 --conductor 1 --s -0.2 --psi-sign -1', 'scaled'): (1, 1),
}


def perturbed(value, how):
    """value with every number zeroed (how = "zeroed") or scaled by
    1 + SCALE ("scaled"), except that a scaled exact value has its first
    number changed by 1 and the others kept."""
    first = [True]

    def walk(x):
        if isinstance(x, (list, tuple)):
            return type(x)(walk(y) for y in x)
        if how == "zeroed":
            return 0 * x
        if isinstance(x, (int, Fraction)):
            if first:
                first.pop()
                return x + 1
            return x
        return x * (1 + SCALE)
    return walk(value)


def name(argv):
    """A grid entry as the table names it: its argv, paths from the repo root."""
    return " ".join(argv).replace(f"{ROOT}/", "")


def checks(argv):
    """The check records of argv, as the CLI builds them."""
    from padicharm import cli
    args = cli.parse_args(argv)
    verb = " ".join(args.verb)
    phi = cli._read_inputs(args)
    cli._validate(args, verb, phi)
    return cli.VERBS[verb](args, random.Random(args.seed), phi)[1]


def census(grid):
    """{(entry, perturbation): survivors} over the checks of every grid
    entry, and {entry: checks}; raises if a check fails as is."""
    survivors, counts = {}, {}
    for argv in grid:
        entry = name(argv)
        counts[entry] = 0
        for check in checks(argv):
            first, second = check.first(), check.second()

            def passes(value):
                return check.compare(value, second) <= check.tolerance
            if not passes(first):
                raise AssertionError(f"{entry}: {check.name} fails as is")
            counts[entry] += 1
            for how in PERTURBATIONS:
                if passes(perturbed(first, how)):
                    survivors[entry, how] = survivors.get((entry, how), 0) + 1
    return survivors, counts


def main():
    from report_grid import GRID
    t0 = time.perf_counter()
    survivors, counts = census(GRID)
    seconds = time.perf_counter() - t0
    verbs = {}
    for argv in GRID:
        entry = name(argv)
        verb = " ".join(argv[:2]) if argv[0] == "verify" else argv[0]
        row = verbs.setdefault(verb, [0, 0, 0])
        row[0] += counts[entry]
        for i, how in enumerate(PERTURBATIONS, 1):
            row[i] += survivors.get((entry, how), 0)
    print(f"{'verb':<18}  {'checks':>6}  {'scaled':>6}  {'zeroed':>6}")
    for verb, (n, scaled, zeroed) in verbs.items():
        print(f"{verb:<18}  {n:6d}  {scaled:6d}  {zeroed:6d}")
    total = [sum(row[i] for row in verbs.values()) for i in range(3)]
    table = [sum(c for (_, how), (c, _) in SURVIVORS.items() if how == h)
             for h in PERTURBATIONS]
    print(f"{'total':<18}  {total[0]:6d}  {total[1]:6d}  {total[2]:6d}")
    print(f"{'committed table':<18}  {'':>6}  {table[0]:6d}  {table[1]:6d}")
    same = survivors == {key: c for key, (c, _) in SURVIVORS.items()}
    print(f"census: {len(GRID)} invocations in {seconds:.1f} s, survivors "
          f"{'match' if same else 'DIFFER FROM'} the committed table")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
