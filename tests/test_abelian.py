import cmath

import numpy as np
import pytest

from padicharm import abelian
from padicharm.abelian import (CharacterError, OracleError, UnitCharacter,
                               ab_factors, beta_factor,
                               beta_factor_inverse_argument, characters,
                               character_components, conductor, coset_values,
                               epsilon_factor, gamma_factor, gauss_sum,
                               tate_gamma_oracle)
from padicharm.padic import psi_frac, unit_group, unit_order
from padicharm.ratfunc import RationalFunctionZ
from oracles import gamma_factor_composed, tate_gamma_by_two_sums


def quad3():
    # the order-2 character of (Z/3)^x
    return UnitCharacter(3, 1, 1)


def test_conductors():
    assert conductor(UnitCharacter(3, 1, 0)) == 0
    assert conductor(quad3()) == 1
    # at level 2: order-2 character has conductor 1, order-3 characters conductor 2
    assert conductor(UnitCharacter(3, 2, 3)) == 1
    assert conductor(UnitCharacter(3, 2, 2)) == 2
    assert conductor(UnitCharacter(3, 2, 1)) == 2


def value_conductor(chi):
    """Least e with chi(u) = 1 on every unit u = 1 mod p^e, from chi's values."""
    p, level = chi.p, chi.level
    for e in range(level + 1):
        if all(abs(chi.value(u) - 1.0) < 1e-9
               for u in range(1, p**level) if u % p and (u - 1) % p**e == 0):
            return e


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_conductor_closed_form_matches_values(p, level):
    for chi in characters(p, level):
        assert conductor(chi) == value_conductor(chi), chi


def value_lift(chi, level):
    """The exponent at `level` of the character that agrees with chi on every
    unit mod p^max(level, chi.level), or None if there is none.  Only the
    candidate matching chi at the target generator can agree everywhere."""
    p = chi.p
    order = unit_order(p, level)
    gen = unit_group(p, level)[1]
    j = round(cmath.phase(chi.value(gen)) / (2 * cmath.pi) * order) % order
    cand = UnitCharacter(p, level, j)
    top = p ** max(level, chi.level)
    agree = all(abs(cand.value(u) - chi.value(u)) < 1e-9
                for u in range(1, top) if u % p)
    return j if agree else None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_at_level_matches_values(p):
    # every character of level <= 3 moved to every level <= 4, rejections too
    for level in (1, 2, 3):
        for chi in characters(p, level):
            for target in (1, 2, 3, 4):
                want = value_lift(chi, target)
                if want is None:
                    with pytest.raises(CharacterError):
                        chi.at_level(target)
                else:
                    assert chi.at_level(target).exponent == want, (chi, target)


def direct_gauss_sum(chi, sign):
    """sum over (Z/p^e)^x of chi^{-1}(u) psi(u / p^e), term by term."""
    p, e = chi.p, value_conductor(chi)
    if e == 0:
        return 1.0
    return sum(chi.value(u).conjugate() * cmath.exp(sign * 2j * cmath.pi * u / p**e)
               for u in range(1, p**e) if u % p)


@pytest.mark.parametrize("p,max_level", [(3, 4), (5, 3), (7, 3)])
@pytest.mark.parametrize("sign", [1, -1])
def test_gauss_sum_table_matches_direct_sum(p, max_level, sign):
    for level in range(1, max_level + 1):
        for chi in characters(p, level):
            G = gauss_sum(chi, sign)
            assert abs(G - direct_gauss_sum(chi, sign)) < 1e-10, chi
            e = conductor(chi)
            if e > 0:
                assert abs(abs(G) ** 2 - p**e) < 1e-10 * p**e, chi


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_character_transforms_match_direct_sums(p, level):
    # c_j = (1/phi) sum_u f(u) chi_j(u) and f(u) = sum_j c_j chi_j(u)^{-1},
    # term by term over UnitCharacter.value, on rows in unit_group order
    rng = np.random.default_rng(p * 10 + level)
    cosets = unit_group(p, level)[0]
    chis = characters(p, level)
    table = np.array([[chi.value(u) for u in cosets] for chi in chis])
    rows = rng.normal(size=(2, len(cosets))) + 1j * rng.normal(size=(2, len(cosets)))
    comps = character_components(rows)
    want = rows @ table.T / len(cosets)
    assert np.max(np.abs(comps - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    vals = coset_values(rows)
    want = rows @ table.conj()
    assert np.max(np.abs(vals - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(coset_values(comps) - rows)) <= 1e-12


@pytest.mark.parametrize("transform, reference", [(character_components, np.fft.ifft),
                                                  (coset_values, np.fft.fft)])
def test_transforms_match_numpy_fft(transform, reference):
    # the plain-Python DFT up to DFT_MAX and the numpy branch past it, on
    # lists of one row and of three, against numpy's FFT
    rng = np.random.default_rng(21)
    for n in [*range(2, abelian.DFT_MAX + 1), abelian.DFT_MAX + 1, 128, 162, 486]:
        rows = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        want = reference(rows, axis=-1)
        for x, w in ((rows[:1], want[:1]), (rows, want)):
            got = transform(x.tolist())
            assert isinstance(got, list) and np.shape(got) == w.shape, n
            assert np.max(np.abs(np.subtract(got, w))) <= 1e-13 * np.max(np.abs(w)), n
    # the half-turn twiddle is exactly -1, so a constant row of length 2 (the
    # characters mod 3) has an exactly zero quadratic component, as under an FFT
    assert character_components([[0.3 + 0.1j] * 2])[0][1] == 0


def test_transform_branch_follows_row_length_and_work(monkeypatch):
    # numpy takes rows past DFT_MAX and calls past DFT_WORK_MAX multiply-adds,
    # such as eta-table's one call over kmax - kmin + 1 shells; the
    # plain-Python DFT takes the rest
    def no_python_dft(n):
        raise AssertionError("plain-Python DFT")

    monkeypatch.setattr(abelian, "_twiddles", no_python_dft)
    n = abelian.DFT_MAX
    most = abelian.DFT_WORK_MAX // n**2
    coset_values([[1.0] * (n + 1)])
    coset_values([[1.0] * n] * (most + 1))
    with pytest.raises(AssertionError, match="plain-Python"):
        coset_values([[1.0] * n] * most)


def test_L_factor():
    from padicharm.abelian import L_factor
    triv = UnitCharacter(3, 1, 0)
    assert L_factor(triv).equals(RationalFunctionZ([1.0], [1.0, -1.0]))
    assert L_factor(quad3()).equals(RationalFunctionZ.one())
    # chi^2 of the quadratic character is trivial; the 2s substitution gives 1/(1-z^2)
    sq = quad3().square()
    assert L_factor(sq).substitute("square").equals(
        RationalFunctionZ([1.0], [1.0, 0.0, -1.0]))


def test_gauss_sum_quadratic():
    chi = quad3()
    G = gauss_sum(chi)
    assert abs(G - (cmath.exp(2j * cmath.pi / 3) - cmath.exp(4j * cmath.pi / 3))) < 1e-12
    # eps(1/2, chi, psi) = q^{-e/2} G has modulus 1
    assert abs(abs(G) * 3 ** -0.5 - 1.0) < 1e-12
    # full factor G z^1 = sqrt(3) eps(1/2) z
    eps = epsilon_factor(chi)
    assert eps.equals(RationalFunctionZ([0.0, G]))


def test_epsilon_unramified_is_one():
    triv = UnitCharacter(3, 2, 0)
    assert epsilon_factor(triv).equals(RationalFunctionZ.one())


def test_epsilon_identities():
    # conj(eps(s,chi,psi)) at real s = chi(-1) eps(s,chi^{-1},psi)
    # eps(s,chi,psi) = chi(-1) eps(s,chi,psi^{-1})
    for p in (3, 5):
        for chi in characters(p, 2):
            e = conductor(chi)
            eps_p = epsilon_factor(chi, 1)
            eps_m = epsilon_factor(chi, -1)
            eps_inv = epsilon_factor(chi.inverse(), 1)
            cm1 = chi.value(-1 % p**2)
            for s in (0.3, 0.71, 1.2):
                z = p ** (-s)
                assert abs(eps_p(z).conjugate() - cm1 * eps_inv(z)) < 1e-9
                assert abs(eps_p(z) - cm1 * eps_m(z)) < 1e-9
            if conductor(chi) > 0:
                assert abs(abs(gauss_sum(chi)) * p ** (-e / 2) - 1.0) < 1e-9
            assert e == conductor(chi)


def test_gamma_trivial_closed_form():
    triv = UnitCharacter(3, 1, 0)
    g = gamma_factor(triv)
    # z(1-z)/(z - 1/q)
    expected = RationalFunctionZ([0.0, 1.0, -1.0], [-1.0 / 3.0, 1.0])
    assert g.equals(expected)


def test_gamma_ramified_is_epsilon():
    chi = quad3()
    assert gamma_factor(chi).equals(epsilon_factor(chi))


def test_gamma_against_oracle_all_small_conductors():
    for p in (3, 5):
        for chi in characters(p, 2):
            g = gamma_factor(chi)
            for s in (0.5, 0.33, 0.61 + 0.2j):
                z = complex(p) ** (-s)
                got = tate_gamma_oracle(chi, s)
                assert abs(got - g(z)) < 1e-6 * max(1.0, abs(g(z)))


def test_gamma_reflection_identity():
    # gamma(s,chi,psi) gamma(1-s,chi^{-1},psi^{-1}) = 1
    for p in (3, 5):
        for chi in characters(p, 1):
            g = gamma_factor(chi, 1)
            gd = gamma_factor(chi.inverse(), -1)
            for s in (0.4, 0.8):
                z = p ** (-s)
                zd = p ** (-(1 - s))
                assert abs(g(z) * gd(zd) - 1.0) < 1e-9


def test_oracle_rejects_bad_region():
    for s in (1.7, 0.0, -0.3 + 0.1j, 1.0):
        with pytest.raises(OracleError):
            tate_gamma_oracle(UnitCharacter(3, 1, 0), s)


def _closed_form_forbidden(*args, **kwargs):
    raise AssertionError("the oracle touched a closed-form factor")


def test_oracle_never_touches_closed_forms(monkeypatch):
    for name in ("gauss_sum", "_gauss_table", "epsilon_factor", "gamma_factor"):
        monkeypatch.setattr(abelian, name, _closed_form_forbidden)
    abelian._oracle_shells.cache_clear()
    for chi in characters(5, 2):
        for sign in (1, -1):
            assert np.isfinite(tate_gamma_oracle(chi, 0.5, sign))


@pytest.mark.parametrize("sign", [1, -1])
def test_oracle_matches_gamma_at_p7(sign):
    for chi in characters(7, 2):
        g = gamma_factor(chi, sign)
        for s in (0.3, 0.5, 0.61 + 0.2j):
            z = complex(7) ** (-s)
            got = tate_gamma_oracle(chi, s, sign)
            assert abs(got - g(z)) < 1e-6 * max(1.0, abs(g(z))), (chi, s)


def test_oracle_shells_are_keyed_by_sign():
    # the shell averages of f^ depend on psi, so a sign -1 call made after a
    # sign +1 call for the same character must not reuse them
    for chi in characters(5, 2)[1:6]:
        for sign in (1, -1):
            g = gamma_factor(chi, sign)
            z = complex(5) ** -0.4
            assert abs(tate_gamma_oracle(chi, 0.4, sign) - g(z)) < 1e-6 * max(1.0, abs(g(z)))


@pytest.mark.parametrize("p, level", [(3, 2), (5, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_oracle_shells_match_direct_sums(p, level, sign):
    # the test functions and their transforms pointwise, summed in loops
    elements, gen, _ = unit_group(p, level)
    ks = range(-level, abelian._TRUNCATION + 7)

    def coset(u0):
        return (lambda k, u: float(k == 0 and u == u0),
                lambda k, u: p ** -level * psi_frac(p, u0 * u, -k, sign))

    def ch_O(k, u):
        return float(k >= 0)

    for chi in characters(p, level):
        pairs = ((ch_O, ch_O), coset(1)) if chi.is_trivial else (coset(1), coset(gen))
        got = abelian._oracle_shells(p, level, chi.exponent, sign)
        for (f, fhat), (b, a) in zip(pairs, got):
            # each row at its natural length, zero past its end: ch(Z_p) and
            # the trivial character's transforms to the last shell, a coset
            # indicator to shell 0, a ramified transform to its last nonzero sum
            assert len(b) == (len(ks) if f is ch_O else level + 1)
            if chi.is_trivial:
                assert len(a) == len(ks)
            else:
                assert len(a) <= level and a[-1]
            want_b = [sum(f(k, u) * chi.value(u) for u in elements) / len(elements)
                      for k in ks]
            want_a = [sum(fhat(k, u) * chi.inverse().value(u) for u in elements)
                      / len(elements) for k in ks]
            for row, want in ((b, want_b), (a, want_a)):
                padded = list(row) + [0j] * (len(ks) - len(row))
                assert np.max(np.abs(np.subtract(padded, want))) <= 1e-13


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cached_gamma_factor_equals_a_fresh_build(p):
    # callers share one cached factor per (character, sign): it must carry
    # the very coefficients a fresh build gives
    for level in (1, 2):
        for chi in characters(p, level):
            for sign in (1, -1):
                got, want = gamma_factor(chi, sign), gamma_factor.__wrapped__(chi, sign)
                assert got.num == want.num and got.den == want.den, (chi, sign)


def _bits(poly):
    return [(c.real.hex(), c.imag.hex()) for c in poly]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("sign", [1, -1])
def test_ramified_gamma_is_the_composed_build(p, sign):
    # gamma is eps itself for ramified chi: the very floats, signed zeros
    # included, of eps L(1-s, chi^-1) / L(s, chi) built as a product
    for level in (1, 2, 3):
        for chi in characters(p, level):
            if conductor(chi):
                got, want = gamma_factor.__wrapped__(chi, sign), gamma_factor_composed(chi, sign)
                assert _bits(got.num) == _bits(want.num), (chi, sign)
                assert _bits(got.den) == _bits(want.den), (chi, sign)


@pytest.mark.parametrize("p, level", [(3, 1), (3, 2), (5, 2), (7, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_tate_oracle_matches_its_two_sum_form(p, level, sign):
    # the truncated and full sums from one running sum against the two sums
    # taken apart: the same ratio, and the same OracleError at the same samples
    # (s = 0.98 leaves the trivial character's truncation unstabilized)
    raised = 0
    for chi in characters(p, level):
        for s in (0.3, 0.5, 0.7, 0.61 + 0.2j, 0.98):
            try:
                want = tate_gamma_by_two_sums(chi, s, sign)
            except OracleError as exc:
                raised += 1
                with pytest.raises(OracleError, match=str(exc)):
                    tate_gamma_oracle(chi, s, sign)
                continue
            assert tate_gamma_oracle(chi, s, sign) == want, (chi, s)
    assert raised


def test_gauss_sum_builds_only_its_conductor(monkeypatch):
    # a character of conductor e asks for one transform of length phi(p^e):
    # at p = 3, level 5, conductor 2 that is 6 values of psi, not the 3^5 - 3^4
    # of every conductor 1..5
    calls = []
    psi = abelian.psi_frac

    def counting(*args):
        calls.append(args)
        return psi(*args)
    monkeypatch.setattr(abelian, "psi_frac", counting)
    abelian._gauss_table.cache_clear()
    chi = UnitCharacter(3, 5, 3 ** 3)
    assert conductor(chi) == 2
    direct = sum(chi.inverse().value(u) * psi(3, u, 2) for u in range(1, 9) if u % 3)
    assert abs(gauss_sum(chi) - direct) < 1e-12 and len(calls) == 6
    abelian._gauss_table.cache_clear()


@pytest.mark.parametrize("p, N", [(3, 1), (5, 2), (7, 3)])
def test_cached_z_powers_equal_the_direct_powers(p, N):
    ks = range(-N, abelian._TRUNCATION + 7)
    abelian._z_powers.cache_clear()
    for s in (0.3, 0.5, 0.7, 0.61 + 0.2j):
        xa, xb = complex(p) ** -(1 - s), complex(p) ** -s
        for _ in range(2):      # a fresh build, then the cached rows
            za, zb = abelian._z_powers(p, N, s)
            assert za == tuple(xa ** k for k in ks) and zb == tuple(xb ** k for k in ks)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_beta_from_cached_gamma_factors_is_unchanged(n, monkeypatch):
    # the cached beta against one rebuilt from gamma factors built afresh
    cached = {(chi, sign): beta_factor(n, chi, sign)
              for p in (3, 5) for chi in characters(p, 2) for sign in (1, -1)}
    monkeypatch.setattr(abelian, "gamma_factor", gamma_factor.__wrapped__)
    for (chi, sign), got in cached.items():
        want = beta_factor.__wrapped__(n, chi, sign)
        assert got.num == want.num and got.den == want.den, (chi, sign)


def test_oracle_rejects_disagreeing_test_functions(monkeypatch):
    # perturb the second test function's denominator shells: the two gamma
    # ratios then differ, and the oracle must refuse
    shells = abelian._oracle_shells

    def perturbed(*key):
        first, (b, a) = shells(*key)
        return first, ([1.01 * x for x in b], a)
    monkeypatch.setattr(abelian, "_oracle_shells", perturbed)
    with pytest.raises(OracleError, match="depends on the test function"):
        tate_gamma_oracle(UnitCharacter(5, 1, 1), 0.5)


def test_oracle_rejects_unstabilized_truncation(monkeypatch):
    # a numerator shell past the truncation, too heavy for its z^k to damp
    shells = abelian._oracle_shells

    def heavy_tail(*key):
        (b, a), second = shells(*key)
        return (b, np.where(np.arange(len(a)) == len(a) - 1, 1e40, a)), second
    monkeypatch.setattr(abelian, "_oracle_shells", heavy_tail)
    with pytest.raises(OracleError, match="not stabilized"):
        tate_gamma_oracle(UnitCharacter(5, 1, 0), 0.5)


def test_beta_n0_is_shifted_gamma():
    triv = UnitCharacter(3, 1, 0)
    b = beta_factor(0, triv)
    g = gamma_factor(triv).substitute("scale", 3 ** (-0.5))
    assert b.equals(g)


def test_beta_n1_trivial_product_form():
    triv = UnitCharacter(3, 1, 0)
    b = beta_factor(1, triv)
    g1 = gamma_factor(triv).substitute("scale", 3 ** 0.5)           # gamma(s - 1/2)
    g2 = gamma_factor(triv).substitute("square")                    # gamma(2s)
    assert b.equals(g1 * g2)


def test_beta_monomial_when_chi_squared_ramified():
    # order-3 character at p=3 level 2: chi^2 ramified (conductor 2)
    chi = UnitCharacter(3, 2, 2)
    assert conductor(chi.square()) == 2
    b = beta_factor(1, chi)
    laurent, _ = b.partial_fractions(())
    degs = sorted(k for k, c in laurent.items() if abs(c) > 1e-9)
    e, e2 = conductor(chi), conductor(chi.square())
    assert degs == [e + 2 * e2]


def test_ab_factors():
    triv = UnitCharacter(3, 1, 0)
    a1, b1 = ab_factors(1, triv)
    assert a1.equals(RationalFunctionZ([1.0], [1.0, -1.0]))
    a3, _ = ab_factors(3, triv)
    # L(s-1) L(2s-1) = 1/((1-3z)(1-3z^2))
    expected = RationalFunctionZ([1.0], np.convolve([1.0, -3.0], [1.0, 0.0, -3.0]))
    assert a3.equals(expected)
    # chi^2 ramified => a_m = 1
    chi = UnitCharacter(3, 2, 2)
    am, _ = ab_factors(3, chi)
    assert am.equals(RationalFunctionZ.one())
    # b_{2n} formula: n=1, trivial: L(s+3/2) L(2s+1)
    _, b2 = ab_factors(2, triv)
    q = 3.0
    expected_b = (RationalFunctionZ([1.0], [1.0, -q ** -1.5])
                  * RationalFunctionZ([1.0], [1.0, 0.0, -1.0 / q]))
    assert b2.equals(expected_b)


def test_twist_helper():
    # a general chi(p) is recovered from the chi(p) = 1 form by z -> chi(p) z
    triv = UnitCharacter(3, 1, 0)
    from padicharm.abelian import L_factor
    twisted = L_factor(triv).substitute("scale", -1.0)
    assert twisted.equals(RationalFunctionZ([1.0], [1.0, 1.0]))


def test_beta_inverse_argument_consistency():
    chi = quad3()
    b = beta_factor(1, chi)
    binv = beta_factor_inverse_argument(1, chi)
    for s in (0.37, 0.9):
        z = 3 ** (-s)
        # beta(chi_s^{-1}) evaluated at z equals beta for chi^{-1} at 1/z
        direct = beta_factor(1, chi.inverse())(1.0 / z)
        assert abs(binv(z) - direct) < 1e-9 * max(1.0, abs(direct))
