import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from padicharm.abelian import UnitCharacter, characters
from padicharm.fxspace import check_paley_wiener, mellin_transform
from padicharm import pvszeta
from padicharm.pvszeta import (LatticeTestFunction, PvsError, _by_recursion,
                               _coset_bins, _det_class_counts, _entry_order,
                               _legendre_table, _piece_job, _rank_census,
                               _recursion_bins, _size_denominator, _size_series,
                               act_diagonal,
                               check_fe_pvs, det_fiber_counts,
                               evaluate_lattice_function, fiber_function,
                               fiber_shell_values, homogeneity_check,
                               lattice_fourier, precompute_jobs,
                               zeta_from_fibers)
from padicharm.quadform import clifford_rho, legendre
from padicharm.symplectic import det as rational_det
from padicharm.ratfunc import RationalFunctionZ
from oracles import _mask_vec, _sigma_vec

P, K = 3, 2
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
ZERO3 = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
NONDIAG = ((0, 1, 0), (1, 0, 2), (0, 2, 1))


def one_point(Y0, p):
    """The job mask {Y = Y0 mod p}."""
    return tuple(Y0[i][j] % p for i, j in _entry_order(3)), (p,) * 6


def taylor(R, j):
    return R.laurent_coeff_at_zero(j)


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


def test_budget_guard():
    # a coset (an entry-wise mask finer than Y mod p) past ENUM_BUDGET cells,
    # and recursion bins past ROW_BUDGET rows
    moved = ("count", ((0,) * 6, (1, 1, 25, 1, 5, 5)))
    with pytest.raises(PvsError, match="enumeration budget"):
        precompute_jobs(5, 4, (moved,))
    with pytest.raises(PvsError, match="row budget"):
        precompute_jobs(3, 13, (("rho", None, I3),))


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
    # phases; row 0 (det = 0 mod p^(k+1)) is read by no shell
    jobs = [("count", None), ("count", one_point(I3, P)), ("count", one_point(ZERO3, P)),
            ("rho", None, None), ("rho", None, I3), ("rho", None, NONDIAG),
            ("rho", one_point(((1, 0, 0), (0, 2, 0), (0, 0, 0)), P), None)]
    for job, want in sweep_oracle(P, K, jobs).items():
        got = _recursion_bins(P, K, job)
        assert np.array_equal(got[1:], want[1:]), job


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
    # all p^6 lifts Y0 + pX to Sym_3(Z/p^2): det mod p^2 by enumeration
    # against the recursion's bins under the one-point mask Y0 (at full rank
    # they keep det Y0 mod p, not just its class, which p = 3 cannot tell);
    # the bins put all lifts of a det residue under one sign, which
    # quadform.clifford_rho confirms on ten lifts of every residue
    r = np.arange(p)
    lifts = [a.ravel() for a in np.meshgrid(r, r, r, r, r, r, indexing="ij")]
    for Y0 in lift_law_cells(p):
        bins = _recursion_bins(p, 1, ("rho", one_point(Y0, p), None))
        x11, x22, x33, x12, x13, x23 = (Y0[i][j] + p * x
                                        for (i, j), x in zip(_entry_order(3), lifts))
        det = (x11 * (x22 * x33 - x23 * x23) - x12 * (x12 * x33 - x23 * x13)
               + x13 * (x12 * x23 - x22 * x13)) % p**2
        hist = np.bincount(det, minlength=p**2)
        assert np.array_equal(bins.sum(axis=(1, 2))[1:], hist[1:]), Y0
        for key in np.flatnonzero(hist[1:]) + 1:
            (slot,) = np.flatnonzero(bins[key, :, 0])
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
        bins = _recursion_bins(p, k, ("rho", None, None))
        want = minus_series(p, K)
        for v in range(K):
            for u in range(1, p):
                rows = p**v * np.arange(u, p ** (K - v), p)
                signed = sum(int(x) for x in bins[rows, 0, 0] - bins[rows, 1, 0])
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


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_size_series_matches_recursion_counts(m, p):
    # G_m summed over all depths against the depth-k recursion: on every
    # shell w < k and in all 8 states (w mod 2, eps, c), the z^w coefficient
    # is the density count / p^(k d), and 0 off its parity
    k = 4
    table, _ = _det_class_counts(m, p, k)
    den = _size_denominator(p, 0, m)
    series = _size_series(m, p)
    for w0 in (0, 1):
        for eps in (1, -1):
            for c in (1, -1):
                got = power_series(series.get((w0, eps, c), [0]), den, k)
                want = [Fraction(table.get((w, eps, c), 0), p ** (k * m * (m + 1) // 2))
                        if w % 2 == w0 else 0 for w in range(k)]
                assert got == want, (w0, eps, c)


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
        out = series(*args).copy()
        out[0, 2] *= 1 + 1e-9
        return out
    monkeypatch.setattr(pvszeta, "_job_series", wrong)
    with pytest.raises(PvsError, match="differs from the depth-3 recursion"):
        fiber_function(LatticeTestFunction.spherical(3), False, P, 3)


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
    # the vectorized Clifford sign agrees with the exact quadform route on
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


def test_fiber_function_m3_spherical_exact_mellin():
    f = fiber_function(LatticeTestFunction.spherical(3), False, P, K)
    Z = mellin_transform(f)
    c = float(1 - Fraction(1, P) ** 3)
    assert Z.comps[0].equals(spherical_plus_mellin(P) * c, tol=1e-9)
    assert Z.comps[1].is_zero(1e-10)
    ok, witness = check_paley_wiener(Z, "plus", 1)
    assert ok, witness
    g = fiber_function(LatticeTestFunction.spherical(3), True, P, K)
    W = mellin_transform(g)
    assert W.comps[0].equals(spherical_minus_mellin(P) * c, tol=1e-9)
    ok, witness = check_paley_wiener(W, "minus", 1)
    assert ok, witness


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
    Z = zeta_from_fibers(f, UnitCharacter(P, 1, 0))
    expected = RationalFunctionZ([1 - 1.0 / P], [1.0, -1.0 / P])
    assert Z.equals(expected)


def test_fe_pvs_spherical_both_characters():
    for j in (0, 1):
        rep = check_fe_pvs(LatticeTestFunction.spherical(3), 1,
                           UnitCharacter(P, 1, j), P, K)
        assert rep["max_deviation"] < 1e-6
        assert rep["ratfunc_equal"]


def test_fe_pvs_n0_reduces_to_tate():
    # m = 1 pieces: the FE is the Tate functional equation, both orientations
    for Phi in (LatticeTestFunction.dilated(1, 0),
                LatticeTestFunction.shifted(((2,),), r=1),
                LatticeTestFunction.dilated(1, 1)):
        for j in (0, 1):
            for sign in (1, -1):
                rep = check_fe_pvs(Phi, 0, UnitCharacter(P, 1, j), P, K, sign=sign)
                assert rep["max_deviation"] < 1e-8, (Phi, j, sign)


def test_fe_pvs_opposite_orientation():
    for j in (0, 1):
        rep = check_fe_pvs(LatticeTestFunction.spherical(3), 1,
                           UnitCharacter(P, 1, j), P, K, sign=-1)
        assert rep["max_deviation"] < 1e-6 and rep["ratfunc_equal"]


def test_insufficient_k_signals():
    with pytest.raises(PvsError, match="insufficient k"):
        fiber_function(LatticeTestFunction.dilated(3, 1), False, P, 2)


def test_homogeneity_identity_and_scalar_dilation():
    triv = UnitCharacter(P, 1, 0)
    rep = homogeneity_check(LatticeTestFunction.spherical(3), (0, 0, 0), triv, P, K)
    assert rep["max_deviation"] < 1e-12
    rep = homogeneity_check(LatticeTestFunction.spherical(3), (0, 0, 1),
                            UnitCharacter(P, 1, 1), P, K)
    assert rep["shells_equal"], rep["max_deviation"]


@pytest.mark.parametrize("Phi, exponents", [
    (LatticeTestFunction.shifted([[1]], 1), (1,)),
    (LatticeTestFunction.dilated(1, 1), (2,)),
    (LatticeTestFunction.shifted(I3, 1), (0, 1, 2)),
    (LatticeTestFunction.shifted(((1, 1, 0), (1, 2, 0), (0, 0, 1)), 1), (1, 0, 1)),
    (LatticeTestFunction.spherical(3), (0, 0, 1)),
    (LatticeTestFunction.dilated(3, 1), (1, 1, 1)),
])
def test_act_diagonal_matches_pointwise_definition(Phi, exponents):
    # (g Phi)(X) = Phi(g^{-1} X g^{-t}), g = diag(p^a_i), on random rational X;
    # at m = 3 the oracle sweep's mask of the moved piece must select the same X
    rng = random.Random(41)
    m, p = Phi.m, P
    a = exponents
    (piece,) = Phi.pieces
    moved = act_diagonal(Phi, a, p)
    mask = _piece_job(moved.pieces[0], False, p, 6)[0][1] if m == 3 else None
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
        want = evaluate_lattice_function(Phi, Y, p)
        hits += want != 0
        assert evaluate_lattice_function(moved, X, p) == want, (X, a)
        if mask is not None and all(x.denominator == 1 for row in X for x in row):
            entries = [np.array([int(X[i][j])])
                       for i, j in ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2))]
            assert bool(_mask_vec(mask, *entries)[0]) == (want != 0), (X, a)
    assert hits > 0


def counting_cosets(monkeypatch):
    """The job of every coset enumeration from here on, with an empty cache."""
    calls = []
    coset_bins = pvszeta._coset_bins

    def counting(p, k, job):
        calls.append(job)
        return coset_bins(p, k, job)
    monkeypatch.setattr(pvszeta, "_SWEEP_CACHE", {})
    monkeypatch.setattr(pvszeta, "_coset_bins", counting)
    return calls


def test_check_fe_pvs_never_sweeps(monkeypatch):
    # both sides of the functional equation come from the recursion
    calls = counting_cosets(monkeypatch)
    for Phi in (LatticeTestFunction.spherical(3), LatticeTestFunction.shifted(I3, 1),
                LatticeTestFunction.dilated(3, 1)):
        rep = check_fe_pvs(Phi, 1, UnitCharacter(P, 1, 1), P, 3)
        assert rep["ratfunc_equal"], rep["max_deviation"]
    assert calls == []


def test_homogeneity_sweeps_the_moved_side_once(monkeypatch):
    # the entry-wise mask of diag(1, 1, p) acting on the spherical function
    # reaches past Y mod p: one coset enumeration, for its one masked count job
    calls = counting_cosets(monkeypatch)
    rep = homogeneity_check(LatticeTestFunction.spherical(3), (0, 0, 1),
                            UnitCharacter(P, 1, 1), P, K)
    assert rep["shells_equal"], rep["max_deviation"]
    assert len(calls) == 1
    (kind, mask), = calls
    assert kind == "count" and max(mask[1]) > P


MOVES = [(0, 0, 1), (0, 1, 1), (1, 0, 1)]


def moved_job(Phi, exponents, k):
    """The count job of Phi's one piece moved by diag(p^a_i)."""
    (piece,) = act_diagonal(Phi, exponents, P).pieces
    return _piece_job(piece, False, P, k)[0]


def test_coset_bins_match_sweep(sweep_oracle):
    # every row of the refined bins against the oracle sweep of Sym_3(Z/9);
    # the shifted function's moved pieces reach moduli 27 > 9, and criterion 4
    # compares one of them with the shared k = 3 sweep
    jobs = [moved_job(LatticeTestFunction.spherical(3), a, K) for a in MOVES]
    for job, want in sweep_oracle(P, K, jobs).items():
        assert not _by_recursion(job, P)
        assert np.array_equal(_coset_bins(P, K, job), want), job


def direct_coset_counts(job, p, K):
    """det mod p^K over every cell of Sym_3(Z/p^K) inside the job's mask,
    with no adjugate refinement."""
    residues, moduli = job[1]
    x11s, *rest = [res % mo + mo * np.arange(p ** K // mo)
                   for res, mo in zip(residues, moduli)]
    x22, x33, x12, x13, x23 = (a.ravel() for a in np.meshgrid(*rest, indexing="ij"))
    counts = np.zeros(p ** K, dtype=np.int64)
    for x11 in x11s:
        det = (x11 * (x22 * x33 - x23 * x23) - x12 * (x12 * x33 - x23 * x13)
               + x13 * (x12 * x23 - x22 * x13))
        counts += np.bincount(det % p ** K, minlength=p ** K)
    return counts


@pytest.mark.parametrize("Phi, k", [(LatticeTestFunction.spherical(3), 2),
                                    (LatticeTestFunction.shifted(I3, 1), 3)],
                         ids=["spherical", "shifted"])
@pytest.mark.parametrize("exponents", MOVES)
def test_coset_bins_match_direct_enumeration(Phi, k, exponents):
    # the adjugate refinement against det mod p^(k+1) on all p^6 lifts of
    # each coset cell, every row including det = 0
    job = moved_job(Phi, exponents, k)
    bins = _coset_bins(P, k, job)
    assert bins.shape == (P ** (k + 1), 1, 1)
    assert np.array_equal(bins[:, 0, 0], direct_coset_counts(job, P, k + 1))


def test_coset_bins_do_not_see_chunk_boundaries(monkeypatch):
    # 6561 cells: one block by default, six full blocks and a partial one here
    job = moved_job(LatticeTestFunction.spherical(3), (0, 0, 1), K)
    want = _coset_bins(P, K, job)
    monkeypatch.setattr(pvszeta, "COSET_CHUNK", 1000)
    assert np.array_equal(_coset_bins(P, K, job), want)


def test_weighted_piece_finer_than_y_mod_p_is_refused():
    # Clifford-weighted bins come from the recursion alone, and a piece of
    # scale 2 has a mask finer than Y mod p
    with pytest.raises(PvsError, match="Clifford-weighted pieces"):
        fiber_shell_values(LatticeTestFunction.dilated(3, 2), True, P, K)


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
            Z = zeta_from_fibers(f, chi)
            a_m, _ = ab_factors(m, chi)
            shifted = a_m.substitute("scale", float(P) ** (-(n + 1)))
            quotient = Z / shifted
            assert quotient.is_laurent_polynomial(tol=1e-7), chi
