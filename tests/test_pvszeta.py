import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from padicharm.abelian import UnitCharacter, characters
from padicharm.cli import relative
from padicharm.fxspace import FxError, fx_from_mellin, mellin_transform
from padicharm import pvszeta
from padicharm.padic import unit_group
from padicharm.pvszeta import (LatticeTestFunction, PvsError, _det_class_counts,
                               _entry_order, _at_pz, _rank_census, _recursion_tallies,
                               _size_denominator, _size_series, det_fiber_counts,
                               fe_pvs_side, fe_pvs_sides, fiber_function,
                               fiber_shell_values, lattice_fourier)
from padicharm.padic import legendre
from padicharm.symplectic import det as rational_det
from padicharm.ratfunc import RationalFunctionZ
import oracles
from oracles import (_legendre_table, _mask_vec, _sigma_vec, clifford_rho, diagonal_mask,
                     evaluate_lattice_function, fe_pvs_holds, fold_tallies,
                     fraction_size_denominator, fraction_size_series,
                     homogeneity_deviation)

P, K = 3, 2
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
ZERO3 = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
NONDIAG = ((0, 1, 0), (1, 0, 2), (0, 2, 1))


def zeta_integral(f, chi):
    """Z(s, chi) = (1 - 1/q) M(f)(s + 1, chi) of a fiber function f."""
    q = float(f.p)
    return mellin_transform(f).component(chi).substitute("scale", 1 / q) * (1 - 1 / q)


def one_point(Y0, p):
    """The job mask {Y = Y0 mod p}."""
    return tuple(Y0[i][j] % p for i, j in _entry_order(3)), (p,) * 6


def taylor(R, j):
    return R.laurent_coeffs(j, j)[0]


def spherical_plus_mellin(q):
    # 1/((1-z)(1-q^{-1} z^2))
    return (RationalFunctionZ([1.0], [1.0, -1.0])
            * RationalFunctionZ([1.0], [1.0, 0.0, -1.0 / q]))


def spherical_minus_mellin(q):
    # 1/((1-q^{-1}z)(1-z^2))
    return (RationalFunctionZ([1.0], [1.0, -1.0 / q])
            * RationalFunctionZ([1.0], [1.0, 0.0, -1.0]))


def test_det_fiber_counts_m1():
    t = det_fiber_counts(1, 3, 2)
    # every residue is its own fiber: count 3 per unit class at k=2... each
    # tau mod 9 appears once; unit classes mod 9 hold one residue each
    assert t.counts[(0, 1)] == 1 and t.counts[(1, 1)] == 1
    assert t.zero_count == 1
    assert t.total == 9


def test_det_fiber_counts_m3_conservation_and_values():
    t = det_fiber_counts(3, P, K)
    assert sum(t.counts.values()) + t.zero_count == t.total == P ** (K * 6)
    # f(unit shell) = count/p^{k(d-1)} = 1 - q^{-3} exactly
    for u in (1, 2, 4, 5, 7, 8):
        assert Fraction(t.counts[(0, u)], P ** (K * 5)) == Fraction(26, 27)
    # stabilization against k=1
    t1 = det_fiber_counts(3, P, 1)
    agg = {}
    for (v, u), c in t.counts.items():
        if v == 0:
            agg[u % 3] = agg.get(u % 3, 0) + c
    for u in (1, 2):
        assert Fraction(agg[u], P ** (K * 6 - 1)) == Fraction(t1.counts[(0, u)], P ** 5)


def test_census_at_p37_enumerates_nothing(monkeypatch):
    # a phased job's census at p = 37, past the oracle's enumeration budget
    # (37^6 ~ 2.6e9 cells), is built with the oracle's cell functions patched
    # to raise, and folds to MacWilliams' census
    def built(*args):
        raise AssertionError("a cell was enumerated")
    monkeypatch.setattr(oracles, "_cell_chunks", built)
    monkeypatch.setattr(oracles, "_cell_rank_key", built)
    folded = Counter()
    for (r, key, t), n in pvszeta._job_census(37, ("rho", None, I3, 3)).items():
        folded[(r, legendre(key, 37) if r == 3 else key)] += n
    assert folded == Counter({key: n for key, n in _rank_census(3, 37).items() if n})


def brute_census(m, p):
    """Sym_m(F_p) by rank and class: the rank of a symmetric matrix is the size
    of its largest nonsingular principal minor, and any such minor has the
    discriminant class of the nondegenerate part."""
    census = {}
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    for values in itertools.product(range(p), repeat=len(cells)):
        Y = [[0] * m for _ in range(m)]
        for (i, j), x in zip(cells, values):
            Y[i][j] = Y[j][i] = x
        key = (0, 1)
        for r in range(m, 0, -1):
            minors = [int(rational_det([[Y[i][j] for j in S] for i in S])) % p
                      for S in itertools.combinations(range(m), r)]
            nonzero = [x for x in minors if x]
            if nonzero:
                key = (r, legendre(nonzero[0], p))
                break
        census[key] = census.get(key, 0) + 1
    return census


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_rank_census_matches_brute_force(m, p):
    closed = {key: n for key, n in _rank_census(m, p).items() if n}
    assert closed == brute_census(m, p)
    assert sum(closed.values()) == p ** (m * (m + 1) // 2)


# a symmetric 0/1 matrix of the largest det, 5, among 5 x 5 ones
DET5 = ((0, 0, 0, 1, 1), (0, 0, 1, 0, 1), (0, 1, 1, 1, 0), (1, 0, 1, 1, 0), (1, 1, 0, 0, 1))


@pytest.mark.parametrize("p", [3, 17, 37])
def test_minor_matches_exact_det(p):
    # the oracle's Leibniz formula mod p on entries below p, against exact
    # dets, on (p - 1) DET5 and on 200 random cells, mostly of full rank
    rng = random.Random(p)
    mats = [[[(p - 1) * x for x in row] for row in DET5]]
    for _ in range(200):
        Y = [[0] * 5 for _ in range(5)]
        for i, j in _entry_order(5):
            Y[i][j] = Y[j][i] = rng.randrange(p) if rng.random() < 0.7 else 0
        mats.append(Y)
    at = {(i, j): np.array([Y[i][j] for Y in mats]) for i, j in _entry_order(5)}
    for S in [(0, 1, 2, 3, 4), (0, 1, 3, 4), (0, 2, 4), (3,)]:
        want = [int(rational_det([[Y[i][j] for j in S] for i in S])) % p for Y in mats]
        assert oracles._minor(at, S, p).tolist() == want, S


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_cell_rank_key_matches_congruence_reduction(m, p):
    # the oracle's principal minors against the congruence diagonalization of
    # a one-cell job, on uniform cells (mostly of full rank) and on sums of r
    # random rank-1 forms c v v^t (every rank)
    rng = random.Random(m * 100 + p)
    cells = []
    for n in range(400):
        if n % 2:
            Y = [[0] * m for _ in range(m)]
            for _ in range(rng.randrange(m + 1)):
                c, v = rng.randrange(1, p), [rng.randrange(p) for _ in range(m)]
                Y = [[Y[i][j] + c * v[i] * v[j] for j in range(m)] for i in range(m)]
        else:
            Y = [[0] * m for _ in range(m)]
            for i, j in _entry_order(m):
                Y[i][j] = Y[j][i] = rng.randrange(p)
        cells.append([[x % p for x in row] for row in Y])
    at = {(i, j): np.array([Y[i][j] for Y in cells]) for i, j in _entry_order(m)}
    rank, key = oracles._cell_rank_key(m, at, p)
    got = []
    for Y in cells:
        residues = tuple(Y[i][j] for i, j in _entry_order(m))
        [(r, k, _)] = pvszeta._job_census(p, ("count", (residues, (p,) * len(residues)), m))
        got.append((r, k))
    assert got == list(zip(rank.tolist(), key.tolist()))
    assert {r for r, _ in got} == set(range(m + 1))


@pytest.mark.parametrize("m, p", [(1, 3), (2, 3), (3, 3), (4, 3), (3, 5), (3, 7)])
def test_phased_census_matches_closed_form(m, p):
    # the census of a phased job, summed over t and with full-rank keys
    # (det mod p) folded to their class, against MacWilliams' closed form
    C = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    folded = Counter()
    for (r, key, t), n in pvszeta._job_census(p, ("rho", None, C, m)).items():
        folded[(r, legendre(key, p) if r == m else key)] += n
    assert folded == Counter({key: n for key, n in _rank_census(m, p).items() if n})


def diagonal(D):
    return tuple(tuple(D[i] if i == j else 0 for j in range(len(D))) for i in range(len(D)))


def census_by_enumeration(p, C):
    """The phased job of C: its census by the recursion and by the oracle's
    enumeration."""
    job = ("rho", None, tuple(map(tuple, C)), len(C))
    return pvszeta._job_census(p, job), oracles.enumerated_census(p, job)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_diagonal_census_matches_enumeration(m, p):
    # every diagonal phase, exactly as integers by (r, key, t): zero entries
    # are the only way into the hyperbolic branch's non-uniform case, and at
    # p = 5 entries other than 1 and 2 are scaled to them with det(P) != +-1
    for D in itertools.product(range(p), repeat=m):
        got, want = census_by_enumeration(p, diagonal(D))
        assert got == want, D


def test_diagonal_census_matches_enumeration_at_p7():
    rng = random.Random(7)
    for D in rng.sample(list(itertools.product(range(7), repeat=3)), 12):
        got, want = census_by_enumeration(7, diagonal(D))
        assert got == want, D


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_phased_census_matches_enumeration(p):
    # seeded non-diagonal phases, and zero pivots x_i -> x_i + x_j
    # (NONDIAG) and x_i -> x_i - x_j (2 c_ij + c_jj = 0)
    rng = random.Random(p)
    phases = [NONDIAG, ((0, 1, 0), (1, p - 2, 0), (0, 0, 1))]
    while len(phases) < 5:
        C = [[0] * 3 for _ in range(3)]
        for i, j in _entry_order(3):
            C[i][j] = C[j][i] = rng.randrange(p)
        if C[0][1] or C[0][2] or C[1][2]:
            phases.append(C)
    for C in phases:
        got, want = census_by_enumeration(p, C)
        assert got == want, C


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_identity_phase_census_keeps_the_enumeration_order(p):
    # _job_series sums the census in its key order, so the only phase a
    # verb runs must give the enumeration's keys in the enumeration's order
    got, want = census_by_enumeration(p, I3)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("m, p, k", [(1, 3, 3), (1, 5, 2), (2, 3, 2), (2, 3, 4),
                                     (2, 5, 3), (2, 7, 2)])
def test_recursion_matches_enumeration(m, p, k, enumerated_counts):
    t = det_fiber_counts(m, p, k)
    assert (t.counts, t.zero_count) == enumerated_counts(m, p, k)


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_recursion_matches_sweep(p, k, sweep_counts):
    t = det_fiber_counts(3, p, k)
    assert (t.counts, t.zero_count) == sweep_counts(p, k)


def test_recursion_bins_match_sweep(sweep_oracle):
    # every job kind the checks build from Y mod p: count and Clifford jobs,
    # unmasked, under one-point masks, and with diagonal and non-diagonal
    # phases; the recursion's tallies against the sweep's bins folded to
    # tallies, every entry an exact integer
    jobs = [("count", None, 3), ("count", one_point(I3, P), 3),
            ("count", one_point(ZERO3, P), 3), ("rho", None, None, 3), ("rho", None, I3, 3),
            ("rho", None, NONDIAG, 3),
            ("rho", one_point(((1, 0, 0), (0, 2, 0), (0, 0, 0)), P), None, 3)]
    for job, want in sweep_oracle(P, K, jobs).items():
        assert _recursion_tallies(P, K, job) == fold_tallies(want, P, K), job


def lift_law_cells(p):
    """One Y0 per rank and class of Sym_3(F_p), two det residues of one
    class at full rank, and a non-diagonal cell of ranks 2 and 3."""
    n = next(a for a in range(2, p) if legendre(a, p) == -1)
    sq = next(a for a in range(2, p) if legendre(a, p) == 1)

    def diag(a, b, c):
        return ((a, 0, 0), (0, b, 0), (0, 0, c))
    return [diag(0, 0, 0), diag(1, 0, 0), diag(n, 0, 0), diag(1, 1, 0), diag(1, n, 0),
            ((0, 1, 0), (1, 0, 0), (0, 0, 0)), diag(1, 1, 1), diag(1, 1, sq),
            diag(1, 1, n), ((0, 1, 0), (1, 0, 0), (0, 0, 1))]


@pytest.mark.parametrize("p", [5, 7])
def test_lift_law_against_clifford_rho(p):
    # all p^6 lifts Y0 + pX to Sym_3(Z/p^2): det mod p^2 by enumeration, by
    # valuation v and unit digit u, against the recursion's tallies under the
    # one-point mask Y0 (at full rank they keep det Y0 mod p, not just its
    # class, which p = 3 cannot tell); the tallies put all lifts of a (v, u)
    # under one sign, which oracles.clifford_rho confirms on ten lifts of
    # every det residue mod p^2
    r = np.arange(p)
    lifts = [a.ravel() for a in np.meshgrid(r, r, r, r, r, r, indexing="ij")]
    for Y0 in lift_law_cells(p):
        tallies = _recursion_tallies(p, 1, ("rho", one_point(Y0, p), None, 3))
        x11, x22, x33, x12, x13, x23 = (Y0[i][j] + p * x
                                        for (i, j), x in zip(_entry_order(3), lifts))
        det = (x11 * (x22 * x33 - x23 * x23) - x12 * (x12 * x33 - x23 * x13)
               + x13 * (x12 * x23 - x22 * x13)) % p**2
        nonzero = det != 0
        v = (det % p == 0).astype(np.int64)
        u = det // p**v % p
        hist = Counter(zip(v[nonzero].tolist(), u[nonzero].tolist()))
        shells = [(v0, u0) for v0, u0, _, _ in tallies]
        assert len(set(shells)) == len(shells), Y0
        assert {(v0, u0): n for (v0, u0, _, _), n in tallies.items()} == dict(hist), Y0
        slots = {(v0, u0): slot for v0, u0, slot, _ in tallies}
        for key in np.unique(det[nonzero]).tolist():
            v0 = int(key % p == 0)
            slot = slots[(v0, key // p**v0 % p)]
            for i in np.flatnonzero(det == key)[:10]:
                Y = [[int(x11[i]), int(x12[i]), int(x13[i])],
                     [int(x12[i]), int(x22[i]), int(x23[i])],
                     [int(x13[i]), int(x23[i]), int(x33[i])]]
                assert clifford_rho(Y, p) == 1 - 2 * slot, (Y0, Y)


def minus_series(p, count):
    """(1 - p^-3) times the first coefficients of 1/((1 - z/p)(1 - z^2)),
    exactly."""
    return [(1 - Fraction(1, p**3)) * sum(Fraction(1, p ** (v - j)) for j in range(0, v + 1, 2))
            for v in range(count)]


@pytest.mark.parametrize("p", [5, 7])
def test_weighted_spherical_shells_exact(p):
    # the Clifford-weighted spherical counts on every shell v <= k and level-1
    # class: the signed count over p^(5(k+1)) per unit residue is the z^v
    # coefficient of the minus-class L-product times 1 - p^-3
    for k in range(2, 6):
        K = k + 1
        tallies = _recursion_tallies(p, k, ("rho", None, None, 3))
        want = minus_series(p, K)
        for v in range(K):
            for u in range(1, p):
                signed = tallies.get((v, u, 0, 0), 0) - tallies.get((v, u, 1, 0), 0)
                assert Fraction(signed, p ** (5 * K + K - v - 1)) == want[v], (k, v, u)


def spherical_series(n, p, count):
    """The first coefficients of prod_{i=1..n}(1 - p^(-2i-1)) times
    1/((1 - z) prod_{i<n}(1 - p^(-2i-1) z^2)), exactly."""
    coeffs = [Fraction(1)] * count
    for i in range(n):
        for v in range(2, count):
            coeffs[v] += Fraction(1, p ** (2 * i + 1)) * coeffs[v - 2]
    norm = math.prod(1 - Fraction(1, p ** (2 * i + 1)) for i in range(1, n + 1))
    return [norm * c for c in coeffs]


@pytest.mark.parametrize("m, p, k", [(1, 3, 4), (3, 5, 4), (5, 3, 6), (5, 5, 4),
                                     (7, 3, 5)])
def test_spherical_counts_match_igusa_series(m, p, k):
    # every shell v < k and both unit classes: count / p^(k(d-1)) is the
    # z^v coefficient of the plus-class L-product times its normalization
    t = det_fiber_counts(m, p, k)
    want = spherical_series((m - 1) // 2, p, k)
    d = m * (m + 1) // 2
    assert {(v, legendre(u, p)) for (v, u) in t.counts} == {
        (v, e) for v in range(k) for e in (1, -1)}
    for (v, u), c in t.counts.items():
        assert Fraction(c, p ** (k * (d - 1))) == want[v], (v, u)


def power_series(num, den, count):
    """The first coefficients of num/den at z = 0, exactly (den[0] != 0)."""
    out = []
    for i in range(count):
        acc = Fraction(num[i]) if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return out


def as_fractions(pair, p):
    """An exact pair (c, e) of the series layer as the Fractions c_i / p^e."""
    return [Fraction(c, p ** pair[1]) for c in pair[0]]


@pytest.mark.parametrize("p, m", [(p, m) for p in (3, 5, 7) for m in (1, 2, 3, 5)] + [(3, 7)])
def test_size_series_matches_recursion_counts(p, m):
    # G_m summed over all depths against the depth-k recursion: on every
    # shell w < k and in all 8 states (w mod 2, eps, c), the z^w coefficient
    # is the density count / p^(k d), and 0 off its parity
    k = 4
    table, _ = _det_class_counts(m, p, k)
    den = as_fractions(_size_denominator(p, 0, m), p)
    series = _size_series(m, p)
    for w0 in (0, 1):
        for eps in (1, -1):
            for c in (1, -1):
                num = series.get((w0, eps, c))
                got = power_series(as_fractions(num, p) if num else [0], den, k)
                want = [Fraction(table.get((w, eps, c), 0), p ** (k * m * (m + 1) // 2))
                        if w % 2 == w0 else 0 for w in range(k)]
                assert got == want, (w0, eps, c)


@pytest.mark.parametrize("p", [3, 5, 13])
def test_exact_pairs_leave_as_the_fraction_route_does(p):
    # the Z[1/p] pairs against the Fraction oracle, coefficient by coefficient,
    # and their floats at pz against float(x p^i) with ==: int / int and
    # float(Fraction) are both correctly rounded, so every float that leaves
    # the exact layer is the one the Fraction route gives
    def floats(xs):
        return tuple(float(x * p ** i) for i, x in enumerate(xs))
    for m in range(1, 8):
        want = fraction_size_series(m, p)
        assert _size_series(m, p).keys() == want.keys()
        for state, num in _size_series(m, p).items():
            assert as_fractions(num, p) == list(want[state]), (m, state)
            assert _at_pz(num, p) == floats(want[state]), (m, state)
    for lo in range(8):
        for hi in range(lo, 8):
            den = _size_denominator(p, lo, hi)
            assert as_fractions(den, p) == list(fraction_size_denominator(p, lo, hi))
            assert _at_pz(den, p) == floats(fraction_size_denominator(p, lo, hi)), (lo, hi)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("Phi", [LatticeTestFunction.spherical(3),
                                 LatticeTestFunction.shifted(I3, 1),
                                 LatticeTestFunction.dilated(3, 1)],
                         ids=["spherical", "shifted", "dilated"])
def test_exact_series_matches_recursion_shells(Phi, weighted, p):
    # the exact fiber function against the depth-3 recursion's shells, on
    # the plus side and on the Clifford-weighted side of Phi^
    side = lattice_fourier(Phi, p) if weighted else Phi
    f = fiber_function(side, weighted, p, 3)
    shells, _, _ = fiber_shell_values(side, weighted, p, 3)
    scale = max(abs(x) for x in shells.values())
    assert scale > 0
    for (w, u), x in shells.items():
        assert abs(f.evaluate(w, u) - x) <= 1e-12 * scale, (w, u)


def test_wrong_series_coefficient_is_caught(monkeypatch):
    series = pvszeta._job_series

    def wrong(*args):
        out = [list(row) for row in series(*args)]
        out[0][2] *= 1 + 1e-9
        return out
    monkeypatch.setattr(pvszeta, "_job_series", wrong)
    with pytest.raises(PvsError, match="differs from the depth-3 recursion"):
        fiber_function(LatticeTestFunction.spherical(3), False, P, 3)


def test_wrong_tally_is_caught(monkeypatch):
    # one cell more in one tally, on the deepest stable shell, moves that
    # shell by 3^-20 ~ 3e-10 against the exact series
    tallies = pvszeta._recursion_tallies

    def wrong(p, k, job):
        out = tallies(p, k, job)
        out[(3, 1, 0, 0)] += 1
        return out
    monkeypatch.setattr(pvszeta, "_SWEEP_CACHE", {})
    monkeypatch.setattr(pvszeta, "_recursion_tallies", wrong)
    with pytest.raises(PvsError, match="differs from the depth-3 recursion"):
        fiber_function(LatticeTestFunction.spherical(3), False, P, 3)


@pytest.mark.xfail(raises=FxError, strict=True, reason=(
    "float partial fractions do not cancel the size denominator at p = 59"))
def test_spherical_sides_at_k2_past_the_cli_bound():
    # the exact series at n = 1, k = 2 holds up to p = 53; verify fe-pvs
    # accepts p <= 23 at k = 2 only
    fe_pvs_sides(LatticeTestFunction.spherical(3), 1, 59, 2)


def test_det_fiber_counts_does_not_sweep(monkeypatch):
    monkeypatch.setattr(pvszeta, "_SWEEP_CACHE", {})
    det_fiber_counts(3, 5, 2)
    assert pvszeta._SWEEP_CACHE == {}


def test_spherical_shells_match_product_formula():
    # normalized shell integrals reproduce the Taylor coefficients of
    # 1/((1-z)(1-q^{-1}z^2)); the overall constant is 1 - q^{-3}
    vals, lo, hi = fiber_shell_values(LatticeTestFunction.spherical(3), False, P, K)
    ref = spherical_plus_mellin(P)
    c = 1 - Fraction(1, P) ** 3
    for v in range(lo, hi + 1):
        for u in (1, 2):
            want = complex(c) * taylor(ref, v)
            assert abs(vals[(v, u)] - want) < 1e-12, (v, u)


def test_weighted_spherical_shells_match_minus_formula():
    vals, lo, hi = fiber_shell_values(LatticeTestFunction.spherical(3), True, P, K)
    ref = spherical_minus_mellin(P)
    c = 1 - Fraction(1, P) ** 3
    for v in range(lo, hi + 1):
        for u in (1, 2):
            want = complex(c) * taylor(ref, v)
            assert abs(vals[(v, u)] - want) < 1e-12, (v, u)


def test_sigma_against_exact_clifford():
    # the vectorized Clifford sign agrees with the exact oracle route on
    # random integral matrices through det valuation 2 (k = 2 consumes)
    rng = random.Random(31)
    leg = _legendre_table(P)
    hits = {0: 0, 1: 0, 2: 0}
    trials = 0
    while min(hits.values()) < 30 and trials < 30000:
        trials += 1
        Y = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                Y[i][j] = Y[j][i] = rng.randrange(9)
        det = rational_det(Y)
        if det == 0 or det.numerator % 27 == 0:
            continue
        v = 0
        t = int(det)
        while t % P == 0:
            t //= P
            v += 1
        if v > 2:
            continue
        hits[v] += 1
        x11, x22, x33 = Y[0][0], Y[1][1], Y[2][2]
        x12, x13, x23 = Y[0][1], Y[0][2], Y[1][2]
        arr = lambda x: np.array([x], dtype=np.int64)
        a11 = arr(x22 * x33 - x23 * x23)
        a22 = arr(x11 * x33 - x13 * x13)
        a33 = arr(x11 * x22 - x12 * x12)
        adjnz = ((a11 % P != 0) | (a22 % P != 0) | (a33 % P != 0)
                 | (arr(-(x12 * x33 - x23 * x13)) % P != 0)
                 | (arr(x12 * x23 - x22 * x13) % P != 0)
                 | (arr(-(x11 * x23 - x12 * x13)) % P != 0))
        sig = _sigma_vec(P, 2, x11, x22, arr(x12), arr(x13), arr(x23), arr(x33),
                         arr(int(det)), a11, a22, a33, adjnz, leg)
        assert int(sig[0]) == clifford_rho(Y, P), (Y, v)
    assert min(hits.values()) >= 30


def test_sigma_valuation_three_profiles():
    # the valuation-3 Clifford signs feed the refined shells of the k = 3
    # sweep; all three rank profiles against the exact route
    leg = _legendre_table(P)
    rng = random.Random(77)
    hits = {"rank2": 0, "rank1": 0, "rank0": 0}
    trials = 0
    while min(hits.values()) < 20 and trials < 200000:
        trials += 1
        Y = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                Y[i][j] = Y[j][i] = rng.randrange(27)
        det = int(rational_det(Y))
        if det == 0 or det % 27 != 0 or det % 81 == 0:
            continue
        x11, x22, x33 = Y[0][0], Y[1][1], Y[2][2]
        x12, x13, x23 = Y[0][1], Y[0][2], Y[1][2]
        arr = lambda x: np.array([x], dtype=np.int64)
        a11 = arr(x22 * x33 - x23 * x23)
        a22 = arr(x11 * x33 - x13 * x13)
        a33 = arr(x11 * x22 - x12 * x12)
        adjnz = ((a11 % P != 0) | (a22 % P != 0) | (a33 % P != 0)
                 | (arr(-(x12 * x33 - x23 * x13)) % P != 0)
                 | (arr(x12 * x23 - x22 * x13) % P != 0)
                 | (arr(-(x11 * x23 - x12 * x13)) % P != 0))
        rank0 = all(Y[i][j] % P == 0 for i in range(3) for j in range(3))
        hits["rank0" if rank0 else ("rank2" if adjnz[0] else "rank1")] += 1
        sig = _sigma_vec(P, 3, x11, x22, arr(x12), arr(x13), arr(x23), arr(x33),
                         arr(det), a11, a22, a33, adjnz, leg)
        assert int(sig[0]) == clifford_rho(Y, P), Y
    assert min(hits.values()) >= 20


def test_lattice_fourier_closed_form():
    # spherical is self-dual
    sph = LatticeTestFunction.spherical(3)
    hat = lattice_fourier(sph, P)
    assert hat.pieces[0].r == 0 and abs(hat.pieces[0].weight - 1.0) < 1e-15
    # B = 0, r = 1, m = 1: p^{-1} ch(p^{-1} Z_p)
    one = LatticeTestFunction.dilated(1, 1)
    hatone = lattice_fourier(one, P)
    q = hatone.pieces[0]
    assert q.r == -1 and abs(q.weight - 1.0 / P) < 1e-15
    # double transform is the reflection X -> -X on 10 random functions
    rng = random.Random(41)
    for _ in range(10):
        B = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                B[i][j] = B[j][i] = rng.randrange(3)
        Phi = LatticeTestFunction.shifted(tuple(map(tuple, B)), r=1,
                                          weight=complex(rng.uniform(-1, 1)))
        double = lattice_fourier(lattice_fourier(Phi, P), P)
        for _ in range(8):
            X = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    X[i][j] = X[j][i] = Fraction(rng.randrange(-6, 7), rng.choice([1, 3]))
            lhs = evaluate_lattice_function(double, X, P)
            neg = [[-x for x in row] for row in X]
            rhs = evaluate_lattice_function(Phi, neg, P)
            assert abs(lhs - rhs) < 1e-12


def test_fiber_function_m1():
    # Phi = ch(Z_p): f = 1 on Z_p - 0, M(f)(z, triv) = 1/(1-z)
    f = fiber_function(LatticeTestFunction.dilated(1, 0), False, P, K)
    Z = mellin_transform(f)
    assert Z.comps[0].equals(RationalFunctionZ([1.0], [1.0, -1.0]))
    assert Z.comps[1].is_zero()
    # shifted interval: b=1, r=1: single coset window
    g = fiber_function(LatticeTestFunction.shifted(((1,),), r=1), False, P, K)
    assert abs(g.evaluate(0, 1) - 1.0) < 1e-15
    assert abs(g.evaluate(0, 2)) < 1e-15
    assert abs(g.evaluate(1, 1)) < 1e-15


M1_FUNCTIONS = [LatticeTestFunction.dilated(1, 0), LatticeTestFunction.dilated(1, 1),
                LatticeTestFunction.shifted([[2]], 1)]


def m1_fiber_deviation(p, k):
    """max |f - Phi| over shells -3..4 for the M1_FUNCTIONS and, weighted,
    their Fourier transforms, both psi signs: at m = 1 det is the identity
    and rho = 1, so the fiber function is the function itself."""
    worst = 0.0
    for sign in (1, -1):
        for Phi in M1_FUNCTIONS:
            for weighted, side in ((False, Phi), (True, lattice_fourier(Phi, p, sign))):
                f = fiber_function(side, weighted, p, k, sign)
                for v in range(-3, 5):
                    for u in unit_group(p, 1)[0]:
                        want = evaluate_lattice_function(side, [[Fraction(p) ** v * u]], p, sign)
                        worst = max(worst, abs(f.evaluate(v, u) - want))
    return worst


@pytest.mark.parametrize("first", ["m1", "m3"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_fiber_function_m1_is_phi_pointwise(p, first, monkeypatch):
    # from empty caches, m = 1 and m = 3 jobs of the same kind, in either
    # order: a cache entry shared between the sizes spoils whichever comes second
    monkeypatch.setattr(pvszeta, "_SWEEP_CACHE", {})
    for cached in (pvszeta._job_census, pvszeta._job_series, pvszeta._cell_series):
        cached.cache_clear()
    c = float(1 - Fraction(1, p) ** 3)
    sizes = ["m1", "m3"] if first == "m1" else ["m3", "m1"]
    for size in sizes:
        if size == "m1":
            assert m1_fiber_deviation(p, 3) < 1e-12
        else:
            f = fiber_function(LatticeTestFunction.spherical(3), False, p, 3)
            assert mellin_transform(f).comps[0].equals(spherical_plus_mellin(p) * c, tol=1e-9)


def test_fiber_function_m3_spherical_exact_mellin():
    f = fiber_function(LatticeTestFunction.spherical(3), False, P, K)
    Z = mellin_transform(f)
    c = float(1 - Fraction(1, P) ** 3)
    assert Z.comps[0].equals(spherical_plus_mellin(P) * c, tol=1e-9)
    assert Z.comps[1].is_zero(1e-10)
    fx_from_mellin(Z, "plus", 1)      # raises FxError outside the class
    g = fiber_function(LatticeTestFunction.spherical(3), True, P, K)
    W = mellin_transform(g)
    assert W.comps[0].equals(spherical_minus_mellin(P) * c, tol=1e-9)
    fx_from_mellin(W, "minus", 1)


def test_fiber_function_shifted_is_compact():
    f = fiber_function(LatticeTestFunction.shifted(I3, r=1), False, P, K)
    assert f.tail.kind == "compact"
    # det(I + 3Z) = 1 mod 3: only the unit-1 coset of shell 0
    assert abs(f.evaluate(0, 1) - f.values[(0, 1)]) < 1e-15
    assert abs(f.evaluate(0, 2)) < 1e-15
    assert abs(f.evaluate(1, 1)) < 1e-15
    # mass: integral of f over F^x d*t matches vol(I + 3 S(O)) = q^{-6}
    # up to the dt measure: sum over cosets /phi * (1-1/q)^{-1}... window value
    assert abs(f.values[(0, 1)] - 2 * 3.0 ** -6 / (1 - 1 / 3)) < 1e-12


def test_zeta_from_fibers_m1():
    # Z(s, ch_O, triv) = (1-q^{-1}) / (1 - q^{-1} z): geometric in s+1
    f = fiber_function(LatticeTestFunction.dilated(1, 0), False, P, K)
    Z = zeta_integral(f, UnitCharacter(P, 1, 0))
    expected = RationalFunctionZ([1 - 1.0 / P], [1.0, -1.0 / P])
    assert Z.equals(expected)


def fe_pvs_deviation(sides, n, chi, sign=1):
    """The verb's deviation of the two sides of the functional equation at chi."""
    return relative(fe_pvs_side(sides, 0, n, chi, sign), fe_pvs_side(sides, 1, n, chi, sign))


def test_fe_pvs_spherical_both_characters():
    sides = fe_pvs_sides(LatticeTestFunction.spherical(3), 1, P, K)
    for j in (0, 1):
        chi = UnitCharacter(P, 1, j)
        assert fe_pvs_deviation(sides, 1, chi) < 1e-6
        assert fe_pvs_holds(sides, 1, chi)


def test_fe_pvs_n0_reduces_to_tate():
    # m = 1 pieces: the FE is the Tate functional equation, both orientations
    for Phi in (LatticeTestFunction.dilated(1, 0),
                LatticeTestFunction.shifted(((2,),), r=1),
                LatticeTestFunction.dilated(1, 1)):
        for j in (0, 1):
            for sign in (1, -1):
                dev = fe_pvs_deviation(fe_pvs_sides(Phi, 0, P, K, sign), 0,
                                       UnitCharacter(P, 1, j), sign)
                assert dev < 1e-8, (Phi, j, sign)


def test_fe_pvs_opposite_orientation():
    sides = fe_pvs_sides(LatticeTestFunction.spherical(3), 1, P, K, -1)
    for j in (0, 1):
        chi = UnitCharacter(P, 1, j)
        assert fe_pvs_deviation(sides, 1, chi, -1) < 1e-6 and fe_pvs_holds(sides, 1, chi, -1)


def test_insufficient_k_signals():
    with pytest.raises(PvsError, match="insufficient k"):
        fiber_function(LatticeTestFunction.dilated(3, 1), False, P, 2)


def test_homogeneity_identity_and_scalar_dilation(sweep_oracle):
    sph, (triv, quad) = LatticeTestFunction.spherical(3), characters(P, 1)
    assert homogeneity_deviation(sph, (0, 0, 0), triv, P, K, sweep_oracle) < 1e-12
    dev = homogeneity_deviation(sph, (0, 0, 1), quad, P, K, sweep_oracle)
    assert dev <= 1e-8, dev


@pytest.mark.parametrize("Phi, exponents", [
    (LatticeTestFunction.shifted([[1]], 1), (1,)),
    (LatticeTestFunction.dilated(1, 1), (2,)),
    (LatticeTestFunction.shifted(I3, 1), (0, 1, 2)),
    (LatticeTestFunction.shifted(((1, 1, 0), (1, 2, 0), (0, 0, 1)), 1), (1, 0, 1)),
    (LatticeTestFunction.spherical(3), (0, 0, 1)),
    (LatticeTestFunction.dilated(3, 1), (1, 1, 1)),
])
def test_act_diagonal_matches_pointwise_definition(Phi, exponents):
    # (g Phi)(X) = Phi(g^{-1} X g^{-t}), g = diag(p^a_i), on random rational X:
    # the oracle's mask of the moved piece holds X exactly where Phi(Y) != 0,
    # and at m = 3 the sweep's `_mask_vec` selects the same integral X
    rng = random.Random(41)
    m, p, a, (piece,) = Phi.m, P, exponents, Phi.pieces
    residues, moduli = mask = diagonal_mask(Phi, a, p)
    hits = 0
    for _ in range(200):
        # Y = g^{-1} X g^{-t}: near the piece's base point half of the time
        base = piece.B if rng.random() < 0.5 else [[0] * m for _ in range(m)]
        Y = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                Y[i][j] = Y[j][i] = base[i][j] + p ** piece.r * Fraction(
                    rng.randint(-9, 9), rng.choice((1, 1, 1, p)))
        X = [[Y[i][j] * p ** (a[i] + a[j]) for j in range(m)] for i in range(m)]
        want = evaluate_lattice_function(Phi, Y, p) != 0
        hits += want
        inside = all(((X[i][j] - res) / mo).denominator % p != 0
                     for (i, j), res, mo in zip(_entry_order(m), residues, moduli))
        assert inside == want, (X, a)
        if m == 3 and all(x.denominator == 1 for row in X for x in row):
            entries = [np.array([int(X[i][j])])
                       for i, j in ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2))]
            assert bool(_mask_vec(mask, *entries)[0]) == want, (X, a)
    assert hits > 0


@pytest.mark.parametrize("Phi", [LatticeTestFunction.dilated(m, r)
                                 for m in (1, 3) for r in (2, -2)],
                         ids=["m1-scale2", "m1-scale-2", "m3-scale2", "m3-scale-2"])
@pytest.mark.parametrize("route", [
    lambda Phi: fiber_function(Phi, False, P, 3),
    lambda Phi: fiber_function(Phi, True, P, 3),
    lambda Phi: fiber_shell_values(Phi, False, P, 3),
    lambda Phi: fiber_shell_values(Phi, True, P, 3),
    lambda Phi: fe_pvs_sides(Phi, (Phi.m - 1) // 2, P, 3),
], ids=["fiber_function", "fiber_function-weighted", "fiber_shell_values",
        "fiber_shell_values-weighted", "fe_pvs_sides"])
def test_piece_past_the_recursion_is_refused(route, Phi):
    # the recursion serves scales -1, 0 and 1 only; _piece_job refuses the
    # rest, and its refusal reaches every route, weighted or not, at m = 1 and 3
    with pytest.raises(PvsError, match="past the recursion"):
        route(Phi)


@pytest.mark.parametrize("Phi, why", [
    (LatticeTestFunction.dilated(1, 2), "no exact series"),
    (LatticeTestFunction.dilated(1, -2), "r < -1"),
    (LatticeTestFunction.shifted([[3]], 2), "no exact series"),
])
def test_m1_fiber_function_past_y_mod_p_is_refused(Phi, why):
    # m = 1 takes the recursion like m = 3, with the same reach: a mask finer
    # than Y mod p has no exact series, and a scale below -1 a finer phase;
    # `why` names which, and a shifted piece is refused for its scale alone
    with pytest.raises(PvsError, match="past the recursion"):
        fiber_function(Phi, False, P, 3)


@pytest.mark.xfail(raises=FxError, strict=True, reason=(
    "float partial fractions do not cancel the size denominator at m = 5"))
def test_masked_sym5_fiber_function():
    # the census of the one cell the mask fixes passes at m = 5; the exact
    # series then leaves the plus(2) class in the float partial fractions
    fiber_function(LatticeTestFunction.dilated(5, 1), False, P, 3)


def test_pvs_route_matches_mellin_route():
    # Eq-level cross-check of the two transform constructions on fiber input
    from padicharm.fxspace import fourier_L
    from padicharm.pvszeta import pvs_route_transform
    n = 1
    Phi = LatticeTestFunction.spherical(3)
    f = fiber_function(Phi, False, P, K).scale_by_power(-2 * n)
    mellin_route = fourier_L(f, n)
    pvs_route = pvs_route_transform(Phi, P, K, n)
    for k in range(-2, 5):
        for u in (1, 2):
            a = mellin_route.evaluate(k, u)
            b = pvs_route.evaluate(k, u)
            assert abs(a - b) < 1e-6 * max(1.0, abs(a)), (k, u, a, b)


def test_pole_containment_in_shifted_a_m():
    # Z_Phi(s, chi)/a_m(s + n + 1, chi) is a Laurent polynomial
    from padicharm.abelian import ab_factors
    n, m = 1, 3
    for Phi in (LatticeTestFunction.spherical(3),
                LatticeTestFunction.shifted(I3, r=1)):
        f = fiber_function(Phi, False, P, K)
        for chi in characters(P, 1):
            Z = zeta_integral(f, chi)
            a_m, _ = ab_factors(m, chi)
            shifted = a_m.substitute("scale", float(P) ** (-(n + 1)))
            quotient = Z / shifted
            quotient.partial_fractions(())    # raises PoleError on any pole
