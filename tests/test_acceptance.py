"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The checks read the package's one tally path, the Jordan-splitting
recursion.  Its oracle, the Sym_3 sweep at k = 3 (3^18 matrices,
vectorized, in `tests/oracles.py`), is shared between criteria 3, 4 and 11
through a module fixture: criterion 11 takes the moved side of its k = 3
homogeneity checks from it, since their entry-wise masks are finer than
Y mod p.  Expect a couple of minutes for the full suite, dominated by that
single enumeration.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from padicharm.abelian import (UnitCharacter, ab_factors, beta_factor,
                               characters, conductor, epsilon_factor,
                               gamma_factor, gauss_sum, tate_gamma_oracle)
from padicharm.fxspace import (FxError, FxFunction, TailSpec, eta_kernel,
                               fe_gl1_compare, fe_gl1_sides, fourier_L,
                               fx_from_mellin, mellin_transform, pv_convolve)
from padicharm.gdist import (fourier_n0, fourier_n0_table, l2_norm_fx,
                             l2_norm_truncated, shell_coefficients_sum)
from padicharm.padic import psi_frac, unit_group
from padicharm import pvszeta
from padicharm.pvszeta import (LatticeTestFunction, det_fiber_counts, fe_pvs_compare,
                               fe_pvs_sides, fiber_function, lattice_fourier, _piece_job,
                               precompute_jobs)
from padicharm.ratfunc import PoleError, RationalFunctionZ
from padicharm.symplectic import (c0_constant, cayley_inv, mat_eq,
                                  siegel_factorize, sl2_order, sp_order)
from oracles import diagonal_mask, fe_pvs_holds, fold_tallies, homogeneity_deviation
from shell_functions import one_k

P = 3
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
NONDIAG = ((0, 1, 0), (1, 0, 2), (0, 2, 1))
PVS_FUNCTIONS = [
    ("spherical", LatticeTestFunction.spherical(3)),
    ("shifted-I", LatticeTestFunction.shifted(I3, r=1)),
    ("dilated-p", LatticeTestFunction.dilated(3, 1)),
]


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


HOMOGENEITY_CASES = [
    # (base, exponents, character exponent, k)
    (LatticeTestFunction.spherical(3), (0, 0, 0), 0, 2),
    (LatticeTestFunction.dilated(3, -1), (1, 1, 1), 0, 3),
    (LatticeTestFunction.spherical(3), (0, 0, 1), 0, 2),
    (LatticeTestFunction.shifted(I3, r=1), (0, 0, 1), 1, 3),
]
# moved shells from counts against the base's exact Laurent coefficients: both
# are exact up to float rounding, and deviate by ~1e-16
HOMOGENEITY_TOL = 1e-8


def recursion_jobs():
    """The recursion's jobs of both sides of the fe-pvs functions, plus a
    non-diagonal phase."""
    jobs = {("rho", None, NONDIAG, 3)}
    for _, Phi in PVS_FUNCTIONS:
        for piece in Phi.pieces:
            jobs.add(_piece_job(piece, False, P)[0])
        for piece in lattice_fourier(Phi, P, 1).pieces:
            jobs.add(_piece_job(piece, True, P)[0])
    return jobs


@pytest.fixture(scope="module")
def k3_sweep(sweep_oracle):
    """One shared Sym_3 sweep at k = 3: the oracle bins of the recursion's
    jobs and of the moved jobs of the k = 3 homogeneity cases.  Returns
    (bins, seconds)."""
    jobs = recursion_jobs() | {("count", diagonal_mask(base, expo, P), 3)
                               for base, expo, _, k in HOMOGENEITY_CASES if k == 3}
    t0 = time.perf_counter()
    bins = sweep_oracle(P, 3, sorted(jobs, key=repr))
    return bins, time.perf_counter() - t0


def test_criterion_01_tate_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (3, 5):
        for chi in characters(p, 2):
            assert conductor(chi) <= 2
            g = gamma_factor(chi)
            for s in (0.3, 0.42, 0.5, 0.61, 0.7):
                z = complex(p) ** (-s)
                got = tate_gamma_oracle(chi, s)
                worst = max(worst, abs(got - g(z)) / max(1.0, abs(g(z))))
    dt = time.perf_counter() - t0
    report(1, "gamma matches the Tate-integral oracle", worst < 1e-6 and dt < 10,
           f"max rel dev {worst:.2e}, {dt:.1f}s")


def test_criterion_02_epsilon_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (3, 5):
        for chi in characters(p, 2):
            eps = epsilon_factor(chi, 1)
            eps_m = epsilon_factor(chi, -1)
            eps_inv = epsilon_factor(chi.inverse(), 1)
            cm1 = chi.value(-1 % p**2)
            for s in (0.25, 0.5, 0.8):
                z = p ** (-s)
                worst = max(worst, abs(eps(z).conjugate() - cm1 * eps_inv(z)))
                worst = max(worst, abs(eps(z) - cm1 * eps_m(z)))
            # eps(1/2, chi, psi) = q^{-e/2} G(chi, psi) has modulus 1
            worst = max(worst, abs(abs(gauss_sum(chi)) * p ** (-conductor(chi) / 2) - 1.0))
    dt = time.perf_counter() - t0
    report(2, "epsilon conjugation/psi-inversion/modulus identities",
           worst < 1e-9 and dt < 1.0, f"max dev {worst:.2e}, {dt:.2f}s")


def test_criterion_03_spherical_mellin_formula(k3_sweep, sweep_counts):
    t0 = time.perf_counter()
    ref = (RationalFunctionZ([1.0], [1.0, -1.0])
           * RationalFunctionZ([1.0], [1.0, 0.0, -Fraction(1, P)]))
    norm = 1 - Fraction(1, P) ** 3   # the measure constant, tested not assumed
    ok = True
    detail = []
    for k in (2, 3):
        table = det_fiber_counts(3, P, k)
        # shells v <= k-2 carry full coset data; v = k-1 is still exact for
        # the level-1 classes used here (unit digit determined mod p)
        for v in range(0, k):
            for u in (1, 2):
                count = sum(c for (vv, uu), c in table.counts.items()
                            if vv == v and uu % P == u)
                classes = (P - 1) * P ** (k - v - 1) // 2
                got = Fraction(count, P ** (k * 5) * classes)
                want = norm * Fraction(ref.laurent_coeffs(v, v)[0].real).limit_denominator(10**6)
                if got != want:
                    ok = False
                    detail.append(f"k={k} v={v} got {got} want {want}")
    # the recursion's table against the sweep's count fold, its oracle at k = 3
    table = det_fiber_counts(3, P, 3)
    if (table.counts, table.zero_count) != sweep_counts(P, 3):
        ok = False
        detail.append("k=3 recursion differs from the sweep's count fold")
    dt = time.perf_counter() - t0
    report(3, "spherical fiber counts reproduce the Mellin Taylor coefficients",
           ok and dt < 600, "; ".join(detail) or f"exact as rationals, {dt:.1f}s "
           f"(+{k3_sweep[1]:.0f}s shared sweep)")


def test_criterion_04_prehomogeneous_functional_equation(k3_sweep):
    t0 = time.perf_counter()
    worst = 0.0
    all_eq = True
    for name, Phi in PVS_FUNCTIONS:
        sides = fe_pvs_sides(Phi, 1, P, 3)
        for chi in characters(P, 1):
            worst = max(worst, fe_pvs_compare(sides, 1, chi))
            all_eq = all_eq and fe_pvs_holds(sides, 1, chi)
    # the cached tallies of every job against the shared sweep's bins folded
    # to tallies, entry by entry as exact integers
    jobs = recursion_jobs()
    precompute_jobs(P, 3, jobs)
    cached = pvszeta._SWEEP_CACHE[(P, 3)]
    same = all(cached[job] == fold_tallies(k3_sweep[0][job], P, 3) for job in jobs)
    dt = time.perf_counter() - t0
    report(4, "prehomogeneous functional equation at k = 3",
           worst < 1e-6 and all_eq and same and dt < 900,
           f"max dev {worst:.2e} over 3 functions x 2 characters, recursion tallies "
           f"{'equal' if same else 'differ from'} the sweep's on {len(jobs)} jobs, "
           f"{dt:.1f}s")


def at_level(f, level):
    """The shell function f seen at a finer invariance level."""
    fine = unit_group(f.p, level)[0]
    mod = f.p**f.level
    vals = {(k, w): v for (k, u), v in f.values.items() for w in fine if w % mod == u}
    src = [f.cosets.index(w % mod) for w in fine]
    tail = TailSpec(f.tail.kind, tuple(tuple(row[i] for i in src) for row in f.tail.rows))
    return FxFunction(f.p, level, f.k_min, f.k_tail, vals, tail, f.power_shift)


def _gl1_family(n):
    """Ten members of S_pvs^+: compactly supported plus fiber-generated."""
    rng = random.Random(97)
    cosets = unit_group(P, 2)[0]
    fam = []
    for _ in range(6):
        vals = {(k, u): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for k in range(-1, 2) for u in cosets}
        fam.append(FxFunction(P, 2, -1, 2, vals, TailSpec.compact()))
    fam.append(one_k(P, 1, 2))
    fam.append(one_k(P, 2, 2))
    if n == 0:
        f1 = fiber_function(LatticeTestFunction.dilated(1, 0), False, P, 2)
        f2 = fiber_function(LatticeTestFunction.shifted(((2,),), 1), False, P, 2)
        fam.append(at_level(f1, 2))
        fam.append(at_level(f2, 2))
    else:
        fib = fiber_function(LatticeTestFunction.spherical(3), False, P, 2)
        fam.append(at_level(fib.scale_by_power(-2 * n), 2))
        fib2 = fiber_function(LatticeTestFunction.shifted(I3, 1), False, P, 2)
        fam.append(at_level(fib2.scale_by_power(-2 * n), 2))
    return fam


def test_criterion_05_gl1_functional_equation():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (0, 1):
        for f in _gl1_family(n):
            sides = fe_gl1_sides(f, n)
            for chi in characters(P, 2):
                worst = max(worst, fe_gl1_compare(sides, n, chi))
                count += 1
    dt = time.perf_counter() - t0
    report(5, "GL(1) functional equation across the test family",
           worst < 1e-8 and dt < 30,
           f"max dev {worst:.2e} over {count} cases, {dt:.1f}s")


def test_criterion_06_eta_kernel():
    t0 = time.perf_counter()
    n, level = 1, 2
    # (a) convolution identity against the Mellin-route transform
    worst_a = 0.0
    f = one_k(P, 2, level)
    Lf = fourier_L(f, n)
    refl = f.reflect()
    frefl = FxFunction(P, level, min(k for k, _ in refl),
                       max(k for k, _ in refl) + 1, refl, TailSpec.compact())

    def kernel_row(k):
        return [eta_kernel(n, 1, k, u, P, level) * P ** (-k * (2 * n + 1) / 2.0)
                for u in unit_group(P, level)[0]]

    points = [(0, 1), (1, 2), (-1, 4), (2, 5)]
    for (k0, u0), got in zip(points, pv_convolve(kernel_row, frefl, points)):
        worst_a = max(worst_a, abs(got - Lf.evaluate(k0, u0)))
    # (b) eta(chi_s) = beta(chi_s) at 5 z-samples
    worst_b = 0.0
    cosets = unit_group(P, level)[0]
    for chi in characters(P, level):
        if conductor(chi) > 1:
            continue
        B = beta_factor(n, chi)
        shells = {}
        for i in range(-8, 60):
            shells[i] = sum(eta_kernel(n, 1, i, u, P, level)
                            * chi.inverse().value(u) for u in cosets) / len(cosets)
        for z in (0.95, 1.3j, -1.2, 0.8 + 0.6j, 1.5):
            total = sum(shells[i] * complex(z) ** (-i) for i in shells)
            worst_b = max(worst_b, abs(total - B(z)) / max(1.0, abs(B(z))))
    # (c) n = 0 closed form at 20 points
    worst_c = 0.0
    pts = [(k, u) for k in range(-2, 3) if True for u in unit_group(P, 2)[0]][:20]
    for (k, u) in pts:
        got = eta_kernel(0, 1, k, u, P, 2)
        want = psi_frac(P, u, -k) * P ** (-k / 2.0) * (1 - 1.0 / P)
        worst_c = max(worst_c, abs(got - want))
    dt = time.perf_counter() - t0
    report(6, "eta kernel: convolution identity, Fourier coefficient, n=0 form",
           worst_a < 1e-8 and worst_b < 1e-8 and worst_c < 1e-10 and dt < 30,
           f"conv {worst_a:.2e}, pairing {worst_b:.2e}, closed form {worst_c:.2e}, {dt:.1f}s")


def _in_class(Z, kind, n):
    """Whether fx_from_mellin, the class-membership test, accepts Z."""
    try:
        fx_from_mellin(Z, kind, n)
    except FxError:
        return False
    return True


def test_criterion_07_paley_wiener_membership():
    t0 = time.perf_counter()
    checked, ok = 0, True
    for name, Phi in PVS_FUNCTIONS[:2]:
        f = fiber_function(Phi, False, P, 2)
        ok = ok and _in_class(mellin_transform(f), "plus", 1)
        g = fiber_function(lattice_fourier(Phi, P), True, P, 2) \
            if name == "spherical" else None
        if g is not None:
            ok = ok and _in_class(mellin_transform(g), "minus", 1)
            checked += 1
        checked += 1
    for n in (0, 1):
        for f in _gl1_family(n):
            ok = ok and _in_class(mellin_transform(f.scale_by_power(2 * n)), "plus", n)
            Lf = fourier_L(f, n)
            ok = ok and _in_class(mellin_transform(Lf.scale_by_power(-(n + 1))), "minus", n)
            checked += 2
    dt = time.perf_counter() - t0
    report(7, "Paley-Wiener class membership for fiber and transformed functions",
           ok and dt < 60, f"{checked} memberships, {dt:.1f}s")


def test_criterion_08_symplectic_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(5)
    ok = True
    for n, trials in ((1, 100), (2, 20)):
        done = 0
        while done < trials:
            X = [[0] * (2 * n) for _ in range(2 * n)]
            for i in range(2 * n):
                for j in range(i, 2 * n):
                    X[i][j] = X[j][i] = rng.randint(-3, 3)
            try:
                p_std, h = siegel_factorize(X, n)
            except Exception:
                continue
            done += 1
            ok = ok and mat_eq(cayley_inv(h, n), [[Fraction(x) for x in row] for row in X])
    dt = time.perf_counter() - t0
    report(8, "symplectic identity suite exact on random instances",
           ok and dt < 60, f"100 x n=1 and 20 x n=2, {dt:.1f}s")


def test_criterion_09_jacobian_constant():
    t0 = time.perf_counter()
    o3, o5 = sl2_order(3), sl2_order(5)
    ok = (o3 == 24 and o5 == 120
          and o3 == sp_order(1, 3)[0] and o5 == sp_order(1, 5)[0]
          and Fraction(o3, 3**3) == c0_constant(1, 3)
          and Fraction(o5, 5**3) == c0_constant(1, 5)
          and sp_order(2, 3)[1] == c0_constant(2, 3))
    dt = time.perf_counter() - t0
    report(9, "group orders and the Jacobian constant c0",
           ok and dt < 5, f"|Sp2(F3)|={o3}, |Sp2(F5)|={o5}, {dt:.1f}s")


def test_criterion_10_n0_fourier_operator():
    t0 = time.perf_counter()
    rng = random.Random(23)
    cosets = unit_group(P, 1)[0]
    family = []
    for _ in range(10):
        vals = {(k, u): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for k in range(-1, 2) for u in cosets}
        family.append(FxFunction(P, 1, -1, 2, vals, TailSpec.compact()))
    worst_inv, worst_pl = 0.0, 0.0
    for phi in family:
        table = fourier_n0_table(phi, -14, 14)
        ks = [k for k, _ in table]
        G = FxFunction(P, 1, min(ks), max(ks) + 1,
                       {ku: complex(v) for ku, v in table.items()},
                       TailSpec.compact())
        points = [(k, u) for k in range(phi.k_min, phi.k_tail) for u in cosets]
        for (k, u), got in zip(points, fourier_n0(G, points, sign=-1)):
            worst_inv = max(worst_inv, abs(got - phi.evaluate(k, u)))
        worst_pl = max(worst_pl, abs(l2_norm_truncated(table, P, 1, 12)
                                     - l2_norm_fx(phi, 12)))
    worst_sh = 0.0
    for chi in characters(P, 1):
        for s in (0.7, 0.55 + 0.15j):
            rep = shell_coefficients_sum(chi, s)
            worst_sh = max(worst_sh, rep["deviation"])
    dt = time.perf_counter() - t0
    report(10, "n=0 Fourier operator: inversion, Plancherel, shell coefficients",
           worst_inv < 1e-6 and worst_pl < 1e-4 and worst_sh < 1e-5 and dt < 30,
           f"inv {worst_inv:.2e}, plancherel {worst_pl:.2e}, shells {worst_sh:.2e}, {dt:.1f}s")


def test_criterion_11_homogeneity_and_pole_containment(k3_sweep, sweep_oracle):
    t0 = time.perf_counter()
    ok = True

    def swept(p, k, jobs):    # the k = 3 moved jobs are the shared sweep's: no second one
        return {job: k3_sweep[0][job] for job in jobs} if k == 3 else sweep_oracle(p, k, jobs)
    # g = p I is checked on the pair ch(p^{-1} S) -> ch(p S): moving the
    # spherical function itself would land outside any k <= 3 budget; the
    # quadratic-character content comes from the shifted base (nonzero
    # quadratic Mellin component) moved by diag(1,1,p)
    for base, expo, chi_exp, k in HOMOGENEITY_CASES:
        chi = UnitCharacter(P, 1, chi_exp)
        ok = ok and homogeneity_deviation(base, expo, chi, P, k, swept) <= HOMOGENEITY_TOL
    # pole containment: poles of Z_Phi within those of a_m(s + n + 1, chi)
    n, m = 1, 3
    for _, Phi in PVS_FUNCTIONS[:2]:
        f = fiber_function(Phi, False, P, 2)
        for chi in characters(P, 1):
            # Z(s, chi) = (1 - 1/q) M(f)(s + 1, chi)
            Z = mellin_transform(f).component(chi).substitute("scale", 1 / P) * (1 - 1 / P)
            a_m, _ = ab_factors(m, chi)
            shifted = a_m.substitute("scale", float(P) ** (-(n + 1)))
            try:
                (Z / shifted).partial_fractions(())    # a Laurent polynomial
            except PoleError:
                ok = False
    dt = time.perf_counter() - t0
    report(11, "homogeneity identities and pole containment in a_m",
           ok and dt < 60, f"{dt:.1f}s")
