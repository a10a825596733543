import math
import random
from fractions import Fraction

import numpy as np
import pytest

from padicharm.ratfunc import PoleError, RationalFunctionZ, _divide, _pmul

# float64 rounding of the kernel against its numpy or exact reference, relative
# to the sum of |terms| behind each coefficient: set from eps = 1.1e-16 times
# the at most ~100 roundings behind a coefficient here, not tuned to the data
KERNEL_TOL = 1e-13


def resum(laurent, alphas, residues):
    """sum_k c z^k + sum_i residues[i] / (1 - alphas[i] z): partial fractions undone."""
    out = RationalFunctionZ.from_laurent(laurent)
    for alpha, b in zip(alphas, residues):
        out = out + RationalFunctionZ([b], [1.0, -alpha])
    return out


def test_laurent_coeff_geometric():
    R = RationalFunctionZ([1.0], [1.0, -1.0])  # 1/(1-z)
    assert abs(R.laurent_coeffs(5, 5)[0] - 1.0) < 1e-12
    # 1/(1 - z^2/3), coefficient of z^4 is 1/9
    R2 = RationalFunctionZ([1.0], [1.0, 0.0, -1.0 / 3.0])
    assert abs(R2.laurent_coeffs(4, 4)[0] - 1.0 / 9.0) < 1e-12
    # z^3 has no z^2 coefficient
    R3 = RationalFunctionZ.z_power(3)
    assert abs(R3.laurent_coeffs(2, 2)[0]) < 1e-12


def test_laurent_coeff_with_z_power_denominator():
    R = RationalFunctionZ.z_power(-2)  # 1/z^2
    assert abs(R.laurent_coeffs(-2, -2)[0] - 1.0) < 1e-12
    assert abs(R.laurent_coeffs(-3, -3)[0]) < 1e-12
    assert abs(R.laurent_coeffs(0, 0)[0]) < 1e-12


def test_substitutions():
    R = RationalFunctionZ([1.0], [1.0, -1.0])
    S = R.substitute("scale", 1.0 / 3.0)  # 1/(1 - z/3)
    assert S.equals(RationalFunctionZ([1.0], [1.0, -1.0 / 3.0]))
    T = RationalFunctionZ.z_power(1).substitute("invert")
    assert T.equals(RationalFunctionZ.z_power(-1))
    U = R.substitute("square")
    assert U.equals(RationalFunctionZ([1.0], [1.0, 0.0, -1.0]))


def test_substitution_commutes_with_evaluation():
    rng = random.Random(3)
    for _ in range(25):
        num = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(1, 4))]
        den = [1.0] + [complex(rng.uniform(-0.4, 0.4)) for _ in range(rng.randint(0, 3))]
        R = RationalFunctionZ(num, den)
        c = complex(rng.uniform(0.2, 1.5))
        S = R.substitute("scale", c)
        for z in [0.3 + 0.1j, -0.45, 0.9j]:
            assert abs(S(z) - R(c * z)) < 1e-9 * max(1.0, abs(R(c * z)))
        Q = R.substitute("square")
        for z in [0.4, 0.2 - 0.3j]:
            assert abs(Q(z) - R(z * z)) < 1e-9 * max(1.0, abs(R(z * z)))
        V = R.substitute("invert")
        for z in [1.7, 2.0 + 0.5j]:
            assert abs(V(z) - R(1.0 / z)) < 1e-9 * max(1.0, abs(R(1.0 / z)))


def test_scaling_property_of_laurent_coeffs():
    # coeff_m(R(cz)) = c^m coeff_m(R)
    rng = random.Random(5)
    for _ in range(20):
        num = [complex(rng.uniform(-1, 1)) for _ in range(3)]
        den = [1.0, complex(rng.uniform(-0.5, 0.5)), complex(rng.uniform(-0.3, 0.3))]
        R = RationalFunctionZ(num, den)
        c = complex(rng.uniform(0.5, 2.0))
        S = R.substitute("scale", c)
        for m in range(6):
            assert abs(S.laurent_coeffs(m, m)[0] - c**m * R.laurent_coeffs(m, m)[0]) < 1e-9


def test_partial_fractions_simple():
    # 1/((1-z)(1+z)) = (1/2)/(1-z) + (1/2)/(1+z)
    R = RationalFunctionZ([1.0], np.convolve([1.0, -1.0], [1.0, 1.0]))
    laurent, residues = R.partial_fractions((1.0, -1.0))
    assert not laurent
    assert np.allclose(residues, [0.5, 0.5], atol=1e-9)


def test_partial_fractions_split_of_even_L_factor():
    # 1/(1 - z^2/q) with q = 9 splits as (1/2)/(1 - z/3) + (1/2)/(1 + z/3)
    R = RationalFunctionZ([1.0], [1.0, 0.0, -1.0 / 9.0])
    laurent, residues = R.partial_fractions((1.0 / 3.0, -1.0 / 3.0))
    assert np.allclose(residues, [0.5, 0.5], atol=1e-9)


def test_partial_fractions_with_polynomial_part():
    R = RationalFunctionZ.z_power(1) + RationalFunctionZ([1.0], [1.0, -1.0])
    laurent, residues = R.partial_fractions((1.0,))
    assert abs(laurent.get(1, 0.0) - 1.0) < 1e-9
    assert abs(laurent.get(0, 0.0)) < 1e-9
    assert abs(residues[0] - 1.0) < 1e-9


def test_partial_fractions_resum_roundtrip():
    # the pole set is a superset of the poles: the others get residue 0
    rng = random.Random(11)
    candidates = (0.2, 0.35, 0.6, -0.4, -0.75, 1.2, -1.6)
    for _ in range(100):
        deg_n = rng.randint(0, 6)
        num = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg_n + 1)]
        alphas = rng.sample(candidates, rng.randint(1, 3))
        den = np.array([1.0], dtype=complex)
        for a in alphas:
            den = np.convolve(den, [1.0, -a])
        R = RationalFunctionZ(num, den)
        laurent, residues = R.partial_fractions(candidates)
        for a, b in zip(candidates, residues):
            if a not in alphas:
                assert b == 0
        S = resum(laurent, candidates, residues)
        assert R.equals(S, tol=1e-7)


def test_partial_fractions_double_pole():
    # a net double pole at a given alpha raises, also when its factors
    # are three numerically coincident ones; one canceled factor leaves a
    # simple pole
    den = np.convolve(np.convolve([1.0, -1.0], [1.0, -1.0]), [1.0, 0.5])
    with pytest.raises(PoleError, match="order 2"):
        RationalFunctionZ([1.0, 0.3], den).partial_fractions((1.0, -0.5))
    cluster = np.convolve(np.convolve([1.0, -1.0], [1.0, -1.0 - 1e-9]), [1.0, -1.0 + 1e-9])
    with pytest.raises(PoleError, match="order 3"):
        RationalFunctionZ([1.0], cluster).partial_fractions((1.0,))
    R = RationalFunctionZ(np.convolve([1.0, -1.0], [1.0, 0.3]), den)
    laurent, residues = R.partial_fractions((1.0, -0.5))
    assert R.equals(resum(laurent, (1.0, -0.5), residues), tol=1e-12)


def test_partial_fractions_with_z_power_denominator():
    # (1 + z)/(z^2 (1 - z/2)): Laurent part with negative exponents plus one pole
    den = np.convolve([0.0, 0.0, 1.0], [1.0, -0.5])
    R = RationalFunctionZ([1.0, 1.0], den)
    laurent, residues = R.partial_fractions((0.5,))
    assert sorted(laurent) == [-2, -1]
    S = resum(laurent, (0.5,), residues)
    assert R.equals(S, tol=1e-7)


def test_pole_outside_the_set_raises():
    R = RationalFunctionZ([1.0], np.convolve([1.0, -1.0], [1.0, -0.5]))
    with pytest.raises(PoleError):
        R.partial_fractions((1.0,))
    with pytest.raises(PoleError):
        RationalFunctionZ([1.0], [1.0, -9.0]).partial_fractions((1.0, 1.0 / 9.0))
    laurent, residues = R.partial_fractions((1.0, 0.5))
    assert not laurent and np.allclose(residues, [2.0, -1.0], atol=1e-12)


def test_partial_fractions_against_no_poles():
    # the Laurent-polynomial test: (1-z)(1+2z)/(z (1-z)) is z^-1 + 2
    R = RationalFunctionZ(np.convolve([1.0, -1.0], [1.0, 2.0]), [0.0, 1.0, -1.0])
    laurent, residues = R.partial_fractions(())
    assert residues == () and laurent.keys() == {-1, 0}
    assert abs(laurent[-1] - 1) < 1e-12 and abs(laurent[0] - 2) < 1e-12
    # 1/(1-z) is not one
    with pytest.raises(PoleError):
        RationalFunctionZ([1.0], [1.0, -1.0]).partial_fractions(())


def test_json_roundtrip():
    R = RationalFunctionZ([1.0, 2.0 + 1.0j], [1.0, 0.0, -0.25])
    obj = R.to_json()
    S = RationalFunctionZ([complex(*c) for c in obj["num"]], [complex(*c) for c in obj["den"]])
    assert R.equals(S, tol=1e-12)


def test_equality_by_cross_multiplication():
    R = RationalFunctionZ([1.0, 1.0], [1.0, -0.5])
    S = RationalFunctionZ(np.convolve([1.0, 1.0], [2.0, 1.0]),
                          np.convolve([1.0, -0.5], [2.0, 1.0]))
    assert R.equals(S)
    assert not R.equals(R + 1e-4)


def random_poly(rng, terms):
    """`terms` complex coefficients whose sizes spread over six decades."""
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(-3, 3)
            for _ in range(terms)]


def test_pmul_matches_numpy_convolve():
    rng = random.Random(17)
    for _ in range(300):
        a, b = random_poly(rng, rng.randint(1, 12)), random_poly(rng, rng.randint(1, 12))
        want = np.convolve(a, b)
        scale = np.convolve(np.abs(a), np.abs(b))
        got = _pmul(tuple(a), tuple(b))
        assert len(got) == len(want)
        assert np.all(np.abs(np.array(got) - want) <= KERNEL_TOL * scale)


def test_divide_matches_numpy_power_convolution():
    # reference: the leading len(c) terms of c * (alpha^0, alpha^1, ...) by numpy
    rng = random.Random(19)
    for _ in range(300):
        c = random_poly(rng, rng.randint(1, 12))
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * rng.uniform(0.1, 2.0)
        powers = alpha ** np.arange(len(c))
        full = np.convolve(c, powers)[: len(c)]
        sizes = np.convolve(np.abs(c), np.abs(powers))[: len(c)]
        q, r, scale = _divide(tuple(c), alpha)
        assert len(q) == len(c) - 1
        assert np.all(np.abs(np.array(q + (r,)) - full) <= KERNEL_TOL * sizes)
        assert abs(scale - sizes[-1]) <= KERNEL_TOL * sizes[-1]


def exact_series(num, den, top):
    """The first top + 1 power-series coefficients of num/den, den[0] != 0,
    in exact Fractions."""
    out = []
    for i in range(top + 1):
        acc = num[i] if i < len(num) else Fraction(0)
        acc -= sum(den[j] * out[i - j] for j in range(1, min(i, len(den) - 1) + 1))
        out.append(acc / den[0])
    return out


def test_laurent_coeffs_match_exact_series():
    # rational inputs held exactly as their float64 values; the reference is
    # exact, and its scale the same recursion on |num| and |den|
    rng = random.Random(23)

    def rational():
        return Fraction(float(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    for _ in range(200):
        num = [rational() for _ in range(rng.randint(1, 12))]
        den = [rational() for _ in range(rng.randint(1, 12))]
        den[0] = den[0] or Fraction(1)
        v = rng.randint(0, 2)   # a factor z^v in the denominator
        R = RationalFunctionZ([float(c) for c in num], [0.0] * v + [float(c) for c in den])
        lo, hi = -v - 2, rng.randint(0, 20)
        series = exact_series(num, den, hi + v)
        sizes = exact_series([abs(c) for c in num],
                             [abs(den[0])] + [-abs(c) for c in den[1:]], hi + v)
        got = R.laurent_coeffs(lo, hi)
        assert len(got) == hi - lo + 1
        for m, x in zip(range(lo, hi + 1), got):
            want = series[m + v] if m + v >= 0 else 0
            size = float(sizes[m + v]) if m + v >= 0 else 0.0
            assert abs(x - float(want)) <= KERNEL_TOL * size, (m, x, want)


# ---- the fast paths give the general path's floats, bit for bit ----

NAN = float("nan")
SIGNED_ZEROS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


def same_bits(a, b):
    """Equal tuples of complex, signed zeros told apart and NaN equal to NaN."""
    def same(x, y):
        return (x == y and math.copysign(1.0, x) == math.copysign(1.0, y)) or (x != x and y != y)
    return len(a) == len(b) and all(same(x.real, y.real) and same(x.imag, y.imag)
                                    for x, y in zip(a, b))


def poly_with_zeros(rng, terms):
    """random_poly with about a third of its coefficients signed zeros,
    among them the top one now and then."""
    return [rng.choice(SIGNED_ZEROS) if rng.random() < 0.35 else x
            for x in random_poly(rng, terms)]


def random_ratfunc(rng):
    den = poly_with_zeros(rng, rng.randint(1, 6))
    den[0] = 1.0 + rng.random()
    return RationalFunctionZ(poly_with_zeros(rng, rng.randint(1, 8)), den)


def scalars(rng):
    return [*SIGNED_ZEROS, -0.0, 0.0, 0, 3, -2.5, NAN, complex(NAN, 1.0),
            *(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)),
            *(rng.uniform(-2, 2) for _ in range(3))]


def test_scalar_product_matches_the_general_product():
    rng = random.Random(23)
    for _ in range(200):
        R = random_ratfunc(rng)
        for c in scalars(rng):
            fast, general = R * c, R * RationalFunctionZ([c])
            assert same_bits(fast.num, general.num) and same_bits(fast.den, general.den), c


def test_scale_substitution_matches_the_per_coefficient_form():
    rng = random.Random(29)
    for _ in range(200):
        R = random_ratfunc(rng)
        for c in scalars(rng):
            c = complex(c)
            fast = R.substitute("scale", c)
            want = RationalFunctionZ([x * c ** k for k, x in enumerate(R.num)],
                                     [x * c ** k for k, x in enumerate(R.den)])
            assert same_bits(fast.num, want.num) and same_bits(fast.den, want.den), c


def test_pmul_of_one_coefficient_matches_the_double_loop():
    def double_loop(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return tuple(out)
    rng = random.Random(31)
    for _ in range(300):
        a = tuple(poly_with_zeros(rng, rng.randint(1, 10)))
        for y in scalars(rng):
            y = complex(y)
            assert same_bits(_pmul(a, (y,)), double_loop(a, (y,)))
            assert same_bits(_pmul((y,), a), double_loop((y,), a))
    assert _pmul((2, 3), (Fraction(1, 2),)) == (1, Fraction(3, 2))


def test_scalar_product_and_absent_component_build_no_spare_objects(monkeypatch):
    from padicharm.abelian import UnitCharacter
    from padicharm.fxspace import MellinData
    R, want = RationalFunctionZ([1.0, 2.0], [1.0, -0.5]), RationalFunctionZ([2.5, 5.0], [1.0, -0.5])
    zero, one = RationalFunctionZ.zero(), RationalFunctionZ.one()
    built = []
    make, init = RationalFunctionZ._make.__func__, RationalFunctionZ.__init__

    def counted_make(cls, num, den):
        built.append("_make")
        return make(cls, num, den)

    def counted_init(self, *args):
        built.append("__init__")
        init(self, *args)
    monkeypatch.setattr(RationalFunctionZ, "_make", classmethod(counted_make))
    monkeypatch.setattr(RationalFunctionZ, "__init__", counted_init)
    product = R * 2.5
    assert built == ["_make", "_make"]    # the scalar's wrapper and the product
    assert product.equals(want)
    built.clear()
    Z = MellinData(5, 1, {0: R})
    assert Z.component(UnitCharacter(5, 1, 3)) is zero
    assert RationalFunctionZ.one() is one
    assert built == []


# ---- a NaN never reads as zero or as agreement ----

@pytest.mark.parametrize("coeffs", [[NAN, 1.0], [1.0, NAN], [0.0, NAN], [NAN],
                                    [complex(0.0, NAN), 0.0], [math.inf, 1.0], [1.0, math.inf]])
def test_a_non_finite_coefficient_is_never_trimmed_away(coeffs):
    num = RationalFunctionZ(coeffs).num
    assert any(not math.isfinite(abs(x)) for x in num), num


@pytest.mark.parametrize("coeffs", [[0.0, NAN], [NAN, 0.0], [1e-20, complex(0.0, NAN)], [math.inf]])
def test_a_non_finite_numerator_is_not_zero(coeffs):
    assert not RationalFunctionZ(coeffs).is_zero()
    assert not RationalFunctionZ(coeffs, [1.0, -0.5]).is_zero(1e-13)


def test_a_nan_scalar_product_is_not_zero():
    R = RationalFunctionZ([1.0, 0.5], [1.0, -0.25])
    assert all(math.isnan(x.real) for x in (R * NAN).num)
    assert not (R * 0.0).num[0] and len((R * 0.0).num) == 1


def test_a_nan_side_deviates_infinitely():
    R = RationalFunctionZ([1.0, 0.5])
    assert R.max_relative_deviation(RationalFunctionZ([1.0, NAN])) == math.inf
    assert RationalFunctionZ([NAN, 1.0]).max_relative_deviation(R, [0.3]) == math.inf
    assert R.max_relative_deviation(R * math.inf, [0.5j]) == math.inf
    assert R.max_relative_deviation(RationalFunctionZ([1.0, 0.5])) == 0.0
    assert not R.equals(RationalFunctionZ([1.0, NAN]))
    assert not RationalFunctionZ([NAN, 1.0]).equals(RationalFunctionZ([5.0]))
    assert R.equals(RationalFunctionZ([1.0, 0.5]))
