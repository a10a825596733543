"""The side-perturbation census of tests/census.py in tier-1: every check of
the report grid fails with its first route's value scaled by 1 + 1e-5 and
with it zeroed, or is counted on the committed survivor table, which the
census must match exactly."""

import time
from fractions import Fraction

from census import SURVIVORS, census, perturbed
from report_grid import GRID


def test_survivors_match_the_committed_table():
    t0 = time.perf_counter()
    survivors, counts = census(GRID)
    # each route evaluated once, in about 4 s on a 2-core VM
    assert time.perf_counter() - t0 < 10
    assert survivors == {key: count for key, (count, _) in SURVIVORS.items()}
    assert all(counts[entry] for entry, _ in SURVIVORS)


def test_perturbations_scale_floats_and_move_one_exact_entry():
    assert perturbed([2.0, 1j], "scaled") == [2.0 * (1 + 1e-5), 1j * (1 + 1e-5)]
    assert perturbed([2.0, 1j], "zeroed") == [0.0, 0j]
    matrices = [[[Fraction(1, 2), 3]], [[4]]]
    assert perturbed(matrices, "scaled") == [[[Fraction(3, 2), 3]], [[4]]]
    assert perturbed((7, Fraction(1, 3)), "scaled") == (8, Fraction(1, 3))
    assert perturbed((7, Fraction(1, 3)), "zeroed") == (0, 0)
