import random
from fractions import Fraction
from functools import lru_cache

import pytest

from padicharm.abelian import (UnitCharacter, beta_factor,
                               beta_factor_inverse_argument, characters, conductor)
from padicharm import fxspace
from padicharm.cli import relative
from padicharm.fxspace import (FxError, FxFunction, MellinData, TailSpec, _eta_series,
                               eta_column, eta_kernel, fe_gl1_side, fe_gl1_sides,
                               fourier_L, fx_from_mellin, mellin_transform, pv_convolve)
from padicharm.padic import psi_frac, unit_group, unit_order
from padicharm.ratfunc import RationalFunctionZ
from oracles import fe_gl1_holds, paley_wiener_by_roots, pointwise_pv_convolve
from shell_functions import indicator_integers, indicator_units, one_k


def random_fx(rng, p=3, level=2, kind="plus", n=1, in_class=False):
    """Random shells and, for a tailed kind, a random tail: any row per pole,
    or with in_class only the rows the Paley-Wiener class allows, a constant
    (the trivial character) at the first pole and a constant plus a multiple
    of the quadratic character (-1)^k on coset g^k at the +-alpha pairs."""
    cosets = unit_group(p, level)[0]
    k_min, k_tail = rng.randint(-2, 0), rng.randint(1, 2)
    vals = {}
    for k in range(k_min, k_tail):
        for u in cosets:
            if rng.random() < 0.7:
                vals[(k, u)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if kind == "compact":
        return FxFunction(p, level, k_min, k_tail, vals, TailSpec.compact())
    rnd = lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if in_class:
        def draw(quadratic):
            a, b = rnd(), rnd() if quadratic else 0
            return tuple(a + b * (-1) ** k for k in range(len(cosets)))
    else:
        draw = lambda quadratic: tuple(rnd() for _ in cosets)
    # drawn as a0, every ap_i, every am_i; stored in allowed_alphas order
    a0, ap, am = draw(False), [draw(True) for _ in range(n)], [draw(True) for _ in range(n)]
    rows = (a0, *(row for pair in zip(ap, am) for row in pair))
    return FxFunction(p, level, k_min, k_tail, vals, TailSpec(kind, rows))


def test_mellin_of_unit_indicator():
    f = indicator_units(3, 2)
    Z = mellin_transform(f)
    assert Z.comps[0].equals(RationalFunctionZ.one())
    for j in range(1, 6):
        assert Z.comps[j].is_zero()


def test_mellin_of_one_k():
    # M(1_k |.|^c)(z^{-1}, chi^{-1}) = 1 iff e(chi) <= k
    p, k, level = 3, 1, 2
    f = one_k(p, k, level).scale_by_power(Fraction(3, 2))
    Z = mellin_transform(f)
    for j, R in Z.comps.items():
        chi = UnitCharacter(p, level, j)
        mirrored = R.substitute("invert")
        if conductor(chi) <= k:
            assert mirrored.equals(RationalFunctionZ.one())
        else:
            assert mirrored.is_zero()


def test_mellin_plus_tail_geometric():
    # window empty, a0 = 1: M(f)(z, triv) = z^{k_tail}/(1-z)
    p, level = 3, 1
    cosets = unit_group(p, level)[0]
    ones = tuple(1.0 + 0.0j for _ in cosets)
    zeros = tuple(0.0 for _ in cosets)
    f = FxFunction(p, level, 2, 2, {}, TailSpec("plus", (ones, zeros, zeros)))
    Z = mellin_transform(f)
    expected = RationalFunctionZ.z_power(2) / RationalFunctionZ([1.0, -1.0])
    assert Z.comps[0].equals(expected)


def test_mellin_inverse_examples():
    # the inversion is fx_from_mellin: 1/(1-z) is ch(Z_p - 0), z^2 the shell 2
    f = fx_from_mellin(MellinData(3, 1, {0: RationalFunctionZ([1.0], [1.0, -1.0])}), "plus", 0)
    assert abs(f.evaluate(3, 1) - 1.0) < 1e-12
    g = fx_from_mellin(MellinData(3, 1, {0: RationalFunctionZ.z_power(2)}), "plus", 0)
    assert abs(g.evaluate(2, 1) - 1.0) < 1e-12
    assert abs(g.evaluate(1, 1)) < 1e-12


def test_mellin_roundtrip_all_classes():
    # a compact function's transform is a Laurent polynomial, in every class
    rng = random.Random(17)
    for kind in ("compact", "plus", "minus"):
        for n in (0, 1) if kind != "compact" else (0,):
            for _ in range(50):
                f = random_fx(rng, kind=kind, n=n, in_class=True)
                g = fx_from_mellin(mellin_transform(f), "plus" if kind == "compact" else kind, n)
                for k in range(f.k_min - 1, f.k_tail + 4):
                    for u in f.cosets:
                        got = g.evaluate(k, u)
                        want = f.evaluate(k, u)
                        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_mellin_injectivity_on_minus():
    # M(f) = 0 forces f = 0: contrapositive on random nonzero data
    rng = random.Random(23)
    for _ in range(20):
        f = random_fx(rng, kind="minus", n=1)
        nonzero = (any(abs(v) > 1e-9 for v in f.values.values())
                   or any(abs(a) > 1e-9 for a in f.tail.rows[0]))
        zero = all(R.is_zero(1e-10) for R in mellin_transform(f).comps.values())
        assert zero != nonzero


def test_fx_from_mellin_roundtrip():
    # the shells past k_tail come from the residues alone, so they check them
    rng = random.Random(31)
    for p in (3, 5):
        for n in (0, 1, 2):
            for kind in ("plus", "minus"):
                for _ in range(25):
                    f = random_fx(rng, p=p, kind=kind, n=n, in_class=True)
                    g = fx_from_mellin(mellin_transform(f), kind, n)
                    for k in range(f.k_min - 1, f.k_tail + 5):
                        for u in f.cosets:
                            assert abs(f.evaluate(k, u) - g.evaluate(k, u)) < 1e-8


def test_fx_from_mellin_rejects_poles_outside_the_class():
    p = 3
    outside = RationalFunctionZ([1.0], [1.0, -9.0])     # pole at z = 1/9
    double = RationalFunctionZ([1.0], [1.0, -2.0, 1.0])  # 1/(1 - z)^2
    for R in (outside, double):
        with pytest.raises(FxError, match="plus"):
            fx_from_mellin(MellinData(p, 1, {0: R}), "plus", 1)
    # the same double pole at the minus class's a0 slot q^-n
    with pytest.raises(FxError, match="minus"):
        fx_from_mellin(MellinData(p, 1, {1: double.substitute("scale", 1 / p)}), "minus", 1)


def test_fx_from_mellin_expands_each_component_once(monkeypatch):
    rng = random.Random(37)
    calls = []
    series = RationalFunctionZ.laurent_coeffs

    def counting(self, lo, hi):
        calls.append((lo, hi))
        return series(self, lo, hi)
    monkeypatch.setattr(RationalFunctionZ, "laurent_coeffs", counting)
    for kind in ("plus", "minus"):
        f = random_fx(rng, kind=kind, n=1, in_class=True)
        Z = mellin_transform(f)
        nonzero = sum(not R.is_zero(1e-13) for R in Z.comps.values())
        calls.clear()
        fx_from_mellin(Z, kind, 1)
        assert 0 < len(calls) <= nonzero


def test_fx_from_mellin_rejects_unrestricted_tails():
    # a tail row that is not constant carries its pole at a ramified
    # character: chi_1 mod 9 has chi_1^2 ramified, so it carries no pole
    rng = random.Random(41)
    for kind in ("plus", "minus"):
        for n in (0, 1):
            f = random_fx(rng, kind=kind, n=n)
            with pytest.raises(FxError, match=rf"chi exponent 1 leaves the {kind}\({n}\) class"):
                fx_from_mellin(mellin_transform(f), kind, n)


def test_fx_from_mellin_class_examples():
    # 1/((1-z)(1-q^{-1}z^2)) at trivial chi is in the beta plus class for n=1
    p = 3
    R = RationalFunctionZ([1.0], [1.0, -1.0]) * RationalFunctionZ([1.0], [1.0, 0.0, -1.0 / 3.0])
    f = fx_from_mellin(MellinData(p, 1, {0: R}), "plus", 1)
    # its shell 6 is the z^6 coefficient sum_{i <= 3} 3^-i
    assert abs(f.evaluate(6, 1) - (1 - 3.0 ** -4) / (1 - 1 / 3.0)) < 1e-12
    # pole at z = q^{-2}: not allowed for plus(1)
    bad = MellinData(p, 1, {0: RationalFunctionZ([1.0], [1.0, -9.0])})
    with pytest.raises(FxError, match="chi exponent 0 "):
        fx_from_mellin(bad, "plus", 1)
    # b0 term at the quadratic character: its beta carries only the pairs
    bad2 = MellinData(p, 1, {1: RationalFunctionZ([1.0], [1.0, -1.0])})
    with pytest.raises(FxError, match="chi exponent 1 "):
        fx_from_mellin(bad2, "plus", 1)


def _in_class(Z, kind, n):
    try:
        fx_from_mellin(Z, kind, n)
    except FxError:
        return False
    return True


def test_fx_from_mellin_matches_the_root_oracle(monkeypatch):
    # the class verdict of fx_from_mellin against the roots of each component:
    # fe-pvs's exact series and its sides, fourier_L's V, and two rejects
    from padicharm import pvszeta
    from padicharm.pvszeta import LatticeTestFunction, fe_pvs_sides
    inverted = []
    invert = fx_from_mellin

    def capturing(Z, kind, n):
        inverted.append((Z, kind, n))
        return invert(Z, kind, n)
    monkeypatch.setattr(pvszeta, "fx_from_mellin", capturing)
    monkeypatch.setattr(fxspace, "fx_from_mellin", capturing)
    eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    accepted = []
    for p in (3, 5, 7):
        for k in (2, 3):
            family = [LatticeTestFunction.spherical(3)]
            if k == 3:
                family += [LatticeTestFunction.shifted(eye, 1), LatticeTestFunction.dilated(3, 1)]
            for sign in (1, -1):
                for Phi in family:
                    plus, minus = fe_pvs_sides(Phi, 1, p, k, sign)
                    accepted += [(plus, "plus", 1), (minus, "minus", 1)]
    rng = random.Random(73)
    for p in (3, 5, 7):
        for n in (0, 1, 2):
            for kind in ("compact", "plus"):
                # fourier_L's input f has f |.|^{2n} in the plus(n) class
                g = random_fx(rng, p, 1, kind=kind, n=n, in_class=True)
                fourier_L(g.scale_by_power(-2 * n), n)
    assert {kind for _, kind, _ in inverted} == {"plus", "minus"}
    for Z, kind, n in inverted + accepted:
        assert paley_wiener_by_roots(Z, kind, n) and _in_class(Z, kind, n), (Z.p, kind, n)
    # rejects: a b0 pole at a ramified character (mod 25, chi_5 has
    # conductor 1), and M(L(f)|.|^{-1/2}) as plus(2), whose pole at
    # z = q^{5/2} no plus(2) beta carries
    rejected = [(MellinData(5, 2, {5: RationalFunctionZ([1.0], [1.0, -1.0])}), "plus", 0)]
    for _ in range(5):
        Lf = fourier_L(random_fx(rng, 5, 1, kind="compact"), 1)
        rejected.append((mellin_transform(Lf.scale_by_power(Fraction(-1, 2))), "plus", 2))
    for Z, kind, n in rejected:
        assert not paley_wiener_by_roots(Z, kind, n) and not _in_class(Z, kind, n)


@pytest.mark.xfail(raises=pytest.fail.Exception, strict=True, reason=(
    "the termination test reads deg(den0) series terms past the Laurent range, "
    "b alpha^5 ~ 2.7e-11 here: exact residues (ROADMAP item 2) would see the pole"))
def test_fx_from_mellin_sees_a_small_pole_outside_the_class():
    # 7^{-5/2} is no plus(2) alpha, yet its term z^5 / 7^{25/2} is below the cut
    R = (RationalFunctionZ.z_power(-4) + RationalFunctionZ.one()
         + RationalFunctionZ([1.0], [1.0, -7.0 ** -2.5]))
    with pytest.raises(FxError, match=r"plus\(2\)"):
        fx_from_mellin(MellinData(7, 1, {0: R}), "plus", 2)


@pytest.mark.parametrize("order", ["ascending", "descending", "jumping"])
def test_eta_column_extends_to_a_fresh_series(order):
    # the series held per (n, chi, sign), grown on demand, against a fresh
    # laurent_coeffs(lo, hi) per request: the same floats, bit for bit
    requests = {
        "ascending": [(k, k) for k in range(-8, 30)],
        "descending": [(k, k) for k in range(30, -9, -1)],
        "jumping": [(0, 0), (25, 27), (-9, -9), (3, 40), (-2, 1), (12, 12), (-14, 55)],
    }[order]
    for p, level in ((3, 2), (5, 1), (7, 2)):
        for n in (0, 1):
            for sign in (1, -1):
                _eta_series.cache_clear()
                for chi in characters(p, level):
                    R = beta_factor_inverse_argument(n, chi, sign)
                    for lo, hi in requests:
                        assert eta_column(n, chi, sign, lo, hi) == R.laurent_coeffs(lo, hi), \
                            (p, level, n, sign, chi.exponent, lo, hi)


def test_batched_pv_convolve_matches_per_point_sums():
    # one pass for all points against a pv sum per point, bit for bit, with
    # points on either side of f's window
    rng = random.Random(71)
    p, level = 3, 2
    cosets = unit_group(p, level)[0]
    weights = {u: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for u in cosets}

    def kernel(k, u):
        return 0.5 ** abs(k) * weights[u]

    def kernel_row(k):
        return [kernel(k, u) for u in cosets]

    for _ in range(3):
        f = random_fx(rng, p, level, kind="compact", n=1)
        points = [(k, u) for k in (-4, 0, 1, 5) for u in cosets]
        got = pv_convolve(kernel_row, f, points)
        for (k0, u0), value in zip(points, got):
            assert value == pointwise_pv_convolve(kernel, f, k0, u0, 80, 1e-12), (k0, u0)


def test_pv_convolve_refuses_a_tailed_f():
    # its sums are finite: a tail would need a principal value
    rng = random.Random(72)
    for kind in ("plus", "minus"):
        f = random_fx(rng, kind=kind, n=1)
        with pytest.raises(FxError, match="compactly supported"):
            pv_convolve(lambda k: [1.0] * unit_order(3, 2), f, [(0, 1)])


@lru_cache(maxsize=None)
def _beta_inv(n, p, level, j, sign):
    return beta_factor_inverse_argument(n, UnitCharacter(p, level, j), sign)


def eta_scalar_loop(n, sign, k, u, p, level):
    """eta_kernel's character sum over conductor <= level, one character at a time."""
    total = 0.0 + 0.0j
    for j in range(unit_order(p, level)):
        c = _beta_inv(n, p, level, j, sign).laurent_coeffs(k, k)[0]
        if c != 0:
            total += c * UnitCharacter(p, level, -j).value(u % p**level)
    return total


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [0, 1])
def test_eta_kernel_matches_scalar_loop(p, n):
    for sign in (1, -1):
        for level in (1, 2):
            for k in range(-4, 4):
                for u in unit_group(p, 2)[0]:
                    want = eta_scalar_loop(n, sign, k, u, p, level)
                    got = eta_kernel(n, sign, k, u, p, level)
                    assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (sign, level, k, u)


def test_eta_n0_closed_form():
    # eta(x) = psi(x) |x|^{1/2} (1 - 1/q) for n = 0
    p = 3
    for k in range(-2, 4):
        for u in unit_group(p, 2)[0]:
            got = eta_kernel(0, 1, k, u, p, level=2)
            want = psi_frac(p, u, -k) * p ** (-k / 2.0) * (1 - 1.0 / p)
            assert abs(got - want) < 1e-10, (k, u)
    # spot values of the closed form
    assert abs(eta_kernel(0, 1, 0, 1, p, 2) - 2.0 / 3.0) < 1e-12
    import cmath
    want = cmath.exp(2j * cmath.pi / 3) * 3 ** 0.5 * (2.0 / 3.0)
    assert abs(eta_kernel(0, 1, -1, 1, p, 2) - want) < 1e-12


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_eta_kernel_n0_is_coset_average(p, level):
    # eta_kernel at level N is the closed form psi(x)|x|^{1/2}(1 - 1/q) averaged
    # by brute force over x in p^k u (1 + p^N Z_p); the average vanishes for -k > N
    for sign in (1, -1):
        for k in range(-6, 4):
            depth = max(level, -k)
            vs = range(1, p**depth, p**level)
            for u in unit_group(p, level)[0]:
                want = sum(psi_frac(p, u * v, -k, sign) for v in vs) / len(vs) \
                    * p ** (-k / 2.0) * (1 - 1.0 / p)
                got = eta_kernel(0, sign, k, u, p, level)
                assert abs(got - want) < 1e-12, (sign, k, u)
                if -k > level:
                    assert abs(got) < 1e-12, (sign, k, u)


def test_fourier_L_n0_is_classical_fourier_transform():
    # L(ch_O)(t) = |t| ch_O(t): Mellin route against the finite Fourier sum
    p, level = 3, 2
    f = indicator_integers(p, level)
    Lf = fourier_L(f, 0)
    for k in range(-2, 5):
        for u in unit_group(p, level)[0]:
            want = p ** float(-k) if k >= 0 else 0.0
            assert abs(Lf.evaluate(k, u) - want) < 1e-9, (k, u)


def test_fourier_L_linearity():
    rng = random.Random(41)
    for _ in range(10):
        f = random_fx(rng, kind="compact")
        g = random_fx(rng, kind="compact")
        a, b = complex(rng.uniform(-2, 2)), complex(rng.uniform(-2, 2))
        combo = {(k, u): a * f.evaluate(k, u) + b * g.evaluate(k, u)
                 for k in range(-2, 2) for u in f.cosets}
        lhs = fourier_L(FxFunction(3, 2, -2, 2, combo, TailSpec.compact()), 1)
        f1, g1 = fourier_L(f, 1), fourier_L(g, 1)
        for k in range(-3, 4):
            for u in f.cosets:
                want = a * f1.evaluate(k, u) + b * g1.evaluate(k, u)
                assert abs(lhs.evaluate(k, u) - want) < 1e-8 * max(1.0, abs(want))


def test_fourier_L_one_k_mellin_data():
    # for f = 1_1, M(L(f)|.|^{-(2n+1)/2})(z,chi) = beta(chi_s^{-1}) for e(chi)<=1
    from padicharm.abelian import beta_factor_inverse_argument
    p, n = 3, 1
    f = one_k(p, 1, 2)
    Lf = fourier_L(f, n)
    Z = mellin_transform(Lf.scale_by_power(Fraction(-(2 * n + 1), 2)))
    for j, R in Z.comps.items():
        chi = UnitCharacter(p, 2, j)
        if conductor(chi) <= 1:
            assert R.equals(beta_factor_inverse_argument(n, chi), tol=1e-7)
        else:
            assert R.is_zero(1e-9)


def test_eta_equals_transform_limit():
    # |x|^{(2n+1)/2} L(1_k)(x) is eta averaged over x (1 + p^k Z_p) on every
    # shell, the deep ramified bands included; it is the pointwise eta above
    # shell -(2n+1)(k+1), and tends to it as k grows
    p, n = 3, 1
    for k_cut in (2, 3):
        f = one_k(p, k_cut, k_cut)
        Lf = fourier_L(f, n)
        for ord_x in range(-12, 4):
            for u in unit_group(p, k_cut)[0]:
                lim = Lf.evaluate(ord_x, u % p**k_cut) * p ** (ord_x * (2 * n + 1) / 2.0)
                eta = eta_kernel(n, 1, ord_x, u, p, level=k_cut)
                assert abs(lim - eta) < 1e-8, (k_cut, ord_x, u)


def test_fourier_L_rejects_wrong_class():
    # a minus-class input is not in S_pvs^+
    p, level = 3, 1
    cosets = unit_group(p, level)[0]
    ones = tuple(1.0 + 0.0j for _ in cosets)
    zeros = tuple(0.0 for _ in cosets)
    f = FxFunction(p, level, 0, 1, {}, TailSpec("minus", (ones, zeros, zeros)))
    with pytest.raises(FxError, match="plus"):
        fourier_L(f, 1)


def test_eta_convolution_identity():
    # (eta |.|^{(2n+1)/2} * f^v)(t) = L(f)(t) for f = 1_2, n = 1
    p, n, level = 3, 1, 2
    f = one_k(p, 2, level)
    Lf = fourier_L(f, n)
    cosets = unit_group(p, level)[0]

    def kernel_row(k):
        return [eta_kernel(n, 1, k, u, p, level) * p ** (-k * (2 * n + 1) / 2.0)
                for u in cosets]

    for k0, u0 in [(0, 1), (1, 2), (-1, 4)]:
        # f^v(x^{-1} t) = f(t^{-1} x); pv_convolve evaluates kernel * f(x^{-1}t),
        # so pass the reflected data explicitly
        fv_vals = f.reflect()
        frefl = FxFunction(p, level, min(k for k, _ in fv_vals) if fv_vals else 0,
                           max(k for k, _ in fv_vals) + 1 if fv_vals else 1,
                           fv_vals, TailSpec.compact())
        [got] = pv_convolve(kernel_row, frefl, [(k0, u0)])
        want = Lf.evaluate(k0, u0)
        assert abs(got - want) < 1e-8, (k0, u0, got, want)


def test_eta_pairing_equals_beta():
    # pv pairing of the level-N coset average of eta against chi_s equals
    # beta_psi(chi_s); the average drops the conductor > N bands and makes the
    # shell sums converge (for |z| > q^{-1/2}, the decay rate of the average)
    p, n, level = 3, 1, 2
    cosets = unit_group(p, level)[0]
    for chi in characters(p, level):
        if conductor(chi) > 1:
            continue
        B = beta_factor(n, chi)
        shell = {}
        for i in range(-8, 64):
            shell[i] = sum(eta_kernel(n, 1, i, u, p, level) * chi.inverse().value(u)
                           for u in cosets) / len(cosets)
        for z in (0.95, 1.3j, -1.2, 0.8 + 0.6j, 1.5):
            total = sum(shell[i] * complex(z) ** (-i) for i in shell)
            assert abs(total - B(z)) < 1e-8 * max(1.0, abs(B(z))), (chi, z)


def test_check_fe_gl1():
    rng = random.Random(53)
    p = 3
    for n in (0, 1):
        for _ in range(4):
            f = random_fx(rng, kind="compact")
            sides = fe_gl1_sides(f, n)
            for chi in characters(p, 2):
                left, right = (fe_gl1_side(sides, i, n, chi) for i in (0, 1))
                assert relative(left, right) < 1e-8
                assert fe_gl1_holds(sides, n, chi)


def test_pv_convolve_single_shell_average():
    p, level = 3, 1
    f = indicator_units(p, level, 2.0)

    def kernel_row(k):
        return [1.0 if k == 0 else 0.0] * unit_order(p, level)

    [got] = pv_convolve(kernel_row, f, [(0, 1)])
    assert abs(got - 2.0) < 1e-12


def test_tail_formula_written_out():
    # plus tail: a0 + sum_i (ap_i + (-1)^k am_i) q^(-k(i+1/2)); minus tail:
    # a0 q^(-kn) + sum_i (ap_i + (-1)^k am_i) q^(-ki); both times
    # q^(-k power_shift), summed here from the a0/ap/am rows of the JSON form
    rng = random.Random(43)
    p, level, n = 5, 2, 2
    q, cosets = float(p), unit_group(p, level)[0]
    exponents = {"plus": (0.0, lambda i: i + 0.5), "minus": (float(n), float)}
    for kind, (e0, e) in exponents.items():
        rnd = lambda: [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in cosets]
        a0, ap, am = rnd(), [rnd() for _ in range(n)], [rnd() for _ in range(n)]
        pairs = lambda row: [[v.real, v.imag] for v in row]
        f = FxFunction.from_json({
            "p": p, "level": level, "k_min": 0, "k_tail": 2, "power_shift": [-1, 3],
            "shells": [], "tail": {"kind": kind, "n": n, "a0": pairs(a0),
                                   "ap": [pairs(r) for r in ap], "am": [pairs(r) for r in am]}})
        for k in (2, 3, 6, 7):
            for idx, u in enumerate(cosets):
                want = a0[idx] * q ** (-k * e0) + sum(
                    (ap[i][idx] + (-1) ** k * am[i][idx]) * q ** (-k * e(i)) for i in range(n))
                want *= q ** (k / 3)
                assert f.evaluate(k, u) == pytest.approx(want, rel=1e-12, abs=0), (kind, k, u)


def test_hand_written_json_tail():
    # p = 3, minus class n = 1: f(3^k u) = a0(u) 3^-k + ap0(u) + (-1)^k am0(u), k >= 1
    f = FxFunction.from_json({
        "p": 3, "level": 1, "k_min": 0, "k_tail": 1, "power_shift": [0, 1],
        "shells": [{"k": 0, "coset": 2, "re": 0.5, "im": 0.0}],
        "tail": {"kind": "minus", "n": 1, "a0": [[2.0, 0.0], [0.0, 1.0]],
                 "ap": [[[1.0, 0.0], [0.0, 0.0]]], "am": [[[0.0, 0.0], [3.0, 0.0]]]}})
    want = {(0, 1): 0, (0, 2): 0.5, (1, 1): 5 / 3, (1, 2): -3 + 1j / 3,
            (2, 1): 11 / 9, (2, 2): 3 + 1j / 9, (3, 2): -3 + 1j / 27}
    for (k, u), v in want.items():
        assert abs(f.evaluate(k, u) - v) < 1e-15, (k, u)


def test_fx_json_roundtrip():
    rng = random.Random(71)
    f = random_fx(rng, kind="plus", n=1)
    g = FxFunction.from_json(f.to_json())
    for k in range(f.k_min, f.k_tail + 4):
        for u in f.cosets:
            assert abs(f.evaluate(k, u) - g.evaluate(k, u)) < 1e-12
