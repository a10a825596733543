import random
from fractions import Fraction
from functools import lru_cache

import pytest

from padicharm.abelian import (UnitCharacter, beta_factor,
                               beta_factor_inverse_argument, characters, conductor)
from padicharm.fxspace import (FxError, FxFunction, MellinData, TailSpec,
                               check_fe_gl1, check_paley_wiener, eta_kernel,
                               fourier_L, fx_from_mellin,
                               indicator_integers, indicator_units,
                               mellin_inverse, mellin_transform, one_k,
                               pv_convolve)
from padicharm.padic import psi_frac, unit_group, unit_order
from padicharm.ratfunc import RationalFunctionZ


def random_fx(rng, p=3, level=2, kind="plus", n=1):
    cosets = unit_group(p, level)[0]
    k_min, k_tail = rng.randint(-2, 0), rng.randint(1, 2)
    vals = {}
    for k in range(k_min, k_tail):
        for u in cosets:
            if rng.random() < 0.7:
                vals[(k, u)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if kind == "compact":
        return FxFunction(p, level, k_min, k_tail, vals, TailSpec.compact())
    rnd = lambda: tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in cosets)
    tail = TailSpec(kind, n, rnd(),
                    tuple(rnd() for _ in range(n)),
                    tuple(rnd() for _ in range(n)))
    return FxFunction(p, level, k_min, k_tail, vals, tail)


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
    f = FxFunction(p, level, 2, 2, {}, TailSpec("plus", 1, ones,
                                                (tuple(0.0 for _ in cosets),),
                                                (tuple(0.0 for _ in cosets),)))
    Z = mellin_transform(f)
    expected = RationalFunctionZ.z_power(2) / RationalFunctionZ([1.0, -1.0])
    assert Z.comps[0].equals(expected)


def test_mellin_inverse_examples():
    Z = MellinData(3, 1, {0: RationalFunctionZ([1.0], [1.0, -1.0])})
    assert abs(mellin_inverse(Z, 3, 1) - 1.0) < 1e-12
    Z2 = MellinData(3, 1, {0: RationalFunctionZ.z_power(2)})
    assert abs(mellin_inverse(Z2, 2, 1) - 1.0) < 1e-12
    assert abs(mellin_inverse(Z2, 1, 1)) < 1e-12


def test_mellin_roundtrip_all_classes():
    rng = random.Random(17)
    for kind in ("compact", "plus", "minus"):
        for n in (0, 1) if kind != "compact" else (0,):
            for _ in range(50):
                f = random_fx(rng, kind=kind, n=n)
                Z = mellin_transform(f)
                for k in range(f.k_min - 1, f.k_tail + 4):
                    for u in f.cosets:
                        got = mellin_inverse(Z, k, u)
                        want = f.evaluate(k, u)
                        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_mellin_injectivity_on_minus():
    # M(f) = 0 forces f = 0: contrapositive on random nonzero data
    rng = random.Random(23)
    for _ in range(20):
        f = random_fx(rng, kind="minus", n=1)
        nonzero = (any(abs(v) > 1e-9 for v in f.values.values())
                   or any(abs(a) > 1e-9 for a in f.tail.a0))
        Z = mellin_transform(f)
        if nonzero:
            assert not Z.is_zero()
        else:
            assert Z.is_zero()


def test_pv_convolve_reports_no_stabilization():
    # a kernel that keeps growing cannot stabilize: error with the trace
    p, level = 3, 1
    f = indicator_integers(p, level)

    def kernel(k, u):
        return 2.0 ** abs(k)

    with pytest.raises(Exception, match="stabilize"):
        pv_convolve(kernel, f, 0, 1, K_max=8, tol=1e-12)


def test_fx_from_mellin_roundtrip():
    # the shells past k_tail come from the residues alone, so they check them
    rng = random.Random(31)
    for p in (3, 5):
        for n in (0, 1, 2):
            for kind in ("plus", "minus"):
                for _ in range(25):
                    f = random_fx(rng, p=p, kind=kind, n=n)
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
        f = random_fx(rng, kind=kind, n=1)
        Z = mellin_transform(f)
        nonzero = sum(not R.is_zero(1e-13) for R in Z.comps.values())
        calls.clear()
        fx_from_mellin(Z, kind, 1)
        assert 0 < len(calls) <= nonzero


def test_check_paley_wiener_examples():
    # 1/((1-z)(1-q^{-1}z^2)) at trivial chi is in the beta plus class for n=1
    p = 3
    R = RationalFunctionZ([1.0], [1.0, -1.0]) * RationalFunctionZ([1.0], [1.0, 0.0, -1.0 / 3.0])
    Z = MellinData(p, 1, {0: R})
    ok, witness = check_paley_wiener(Z, "plus", 1)
    assert ok, witness
    # pole at z = q^{-2}: not allowed for plus(1)
    bad = MellinData(p, 1, {0: RationalFunctionZ([1.0], [1.0, -9.0])})
    ok, witness = check_paley_wiener(bad, "plus", 1)
    assert not ok and abs(witness["pole"] - 1.0 / 9.0) < 1e-6
    # b0 term at a nontrivial character violates the beta restriction
    bad2 = MellinData(p, 1, {1: RationalFunctionZ([1.0], [1.0, -1.0])})
    ok, witness = check_paley_wiener(bad2, "plus", 1)
    assert not ok and witness["chi_exponent"] == 1


@lru_cache(maxsize=None)
def _beta_inv(n, p, level, j, sign):
    return beta_factor_inverse_argument(n, UnitCharacter(p, level, j), sign)


def eta_scalar_loop(n, sign, k, u, p, level):
    """eta_kernel's character sum over conductor <= level, one character at a time."""
    total = 0.0 + 0.0j
    for j in range(unit_order(p, level)):
        c = _beta_inv(n, p, level, j, sign).laurent_coeff_at_zero(k)
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
        lhs = fourier_L(f * a + g * b, 1)
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
    zeros = (tuple(0.0 for _ in cosets),)
    f = FxFunction(p, level, 0, 1, {}, TailSpec("minus", 1, ones, zeros, zeros))
    with pytest.raises(FxError, match="plus"):
        fourier_L(f, 1)


def test_eta_convolution_identity():
    # (eta |.|^{(2n+1)/2} * f^v)(t) = L(f)(t) for f = 1_2, n = 1
    p, n, level = 3, 1, 2
    f = one_k(p, 2, level)
    Lf = fourier_L(f, n)
    mod = p**level

    def kernel(k, u):
        return (eta_kernel(n, 1, k, u, p, level)
                * p ** (-k * (2 * n + 1) / 2.0))

    for k0, u0 in [(0, 1), (1, 2), (-1, 4)]:
        # f^v(x^{-1} t) = f(t^{-1} x); pv_convolve evaluates kernel * f(x^{-1}t),
        # so pass the reflected data explicitly
        fv_vals = f.reflect()
        frefl = FxFunction(p, level, min(k for k, _ in fv_vals) if fv_vals else 0,
                           max(k for k, _ in fv_vals) + 1 if fv_vals else 1,
                           fv_vals, TailSpec.compact())
        got, k_stable, _ = pv_convolve(kernel, frefl, k0, u0, K_max=24, tol=1e-12)
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
            for chi in characters(p, 2):
                rep = check_fe_gl1(f, n, chi)
                assert rep["max_deviation"] < 1e-8
                assert rep["ratfunc_equal"]


def test_pv_convolve_single_shell_average():
    p, level = 3, 1
    f = indicator_units(p, level) * (2.0 + 0.0j)

    def kernel(k, u):
        return 1.0 if k == 0 else 0.0

    got, _, _ = pv_convolve(kernel, f, 0, 1, K_max=6, tol=1e-12)
    assert abs(got - 2.0) < 1e-12


def test_fx_json_roundtrip():
    rng = random.Random(71)
    f = random_fx(rng, kind="plus", n=1)
    g = FxFunction.from_json(f.to_json())
    for k in range(f.k_min, f.k_tail + 4):
        for u in f.cosets:
            assert abs(f.evaluate(k, u) - g.evaluate(k, u)) < 1e-12
