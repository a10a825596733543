import random
from fractions import Fraction

import pytest

from padicharm.abelian import UnitCharacter, characters, conductor
from padicharm.fxspace import FxFunction, TailSpec
from padicharm.gdist import (GDistError, GPoint, fourier_n0, fourier_n0_table,
                             l2_norm_fx, l2_norm_truncated, phi_rho_eval,
                             shell_coefficients_sum)
from padicharm.padic import PadicElement, psi_frac, unit_group
from padicharm.symplectic import random_symplectic, mul, inverse
from oracles import pointwise_fourier_n0, shell_coefficient_by_units
from shell_functions import indicator_integers, indicator_units


def compact_fx(p, level, data):
    ks = [k for k, _ in data]
    return FxFunction(p, level, min(ks), max(ks) + 1,
                      {ku: complex(v) for ku, v in data.items()}, TailSpec.compact())


def classical_fourier_shell(phi: FxFunction, k: int, u: int, sign=1) -> complex:
    """Finite-sum Fourier transform oracle: phi^(y) = int phi(x) psi(xy) dx,
    evaluated at y = p^k u (phi compactly supported, level N)."""
    p, N = phi.p, phi.level
    total = 0.0 + 0.0j
    for (i, v), val in phi.values.items():
        # integral over the coset p^i v (1+p^N O): vol = q^{-(i+N)},
        # psi(x y) constant = psi(p^{i+k} v u) when ord(y) + i + N >= 0
        if k + i + N < 0:
            # the character oscillates inside the coset: integral 0 unless
            # deeper cancellation; exact value: vol * psi(...) * [k+i+N >= 0]
            continue
        total += val * p ** (-(i + N) * 1.0) * psi_frac(p, v * u, -(i + k), sign)
    return total


def test_phi_rho_eval_n0_closed_form():
    # n = 0: Phi(a) = eta(a) = psi(a) |a|^{1/2} zeta(1)^{-1}, c0 = 1
    p, level = 3, 2
    for val, unit in [(0, 1), (1, 2), (-1, 1), (-2, 5)]:
        a = PadicElement(p=p, valuation=val, unit=unit, level=level)
        got = phi_rho_eval(GPoint(a, ()), level)
        want = (psi_frac(p, unit, -val) * p ** (-val / 2.0) * (1 - 1.0 / p))
        assert abs(got - want) < 1e-10


def test_phi_rho_invariances():
    rng = random.Random(3)
    p, level, n = 3, 2, 1
    a = PadicElement(p=p, valuation=0, unit=2, level=level)
    hits = 0
    while hits < 6:
        h = random_symplectic(n, rng)
        try:
            base = phi_rho_eval(GPoint(a, tuple(map(tuple, h))), level)
        except GDistError:
            continue
        hits += 1
        hinv = inverse(h)
        assert abs(phi_rho_eval(GPoint(a, tuple(map(tuple, hinv))), level) - base) < 1e-9
        y = random_symplectic(n, rng)
        conj = mul(mul(y, h), inverse(y))
        assert abs(phi_rho_eval(GPoint(a, tuple(map(tuple, conj))), level) - base) < 1e-9


def test_phi_rho_locally_constant_in_level():
    # evaluation is stable under raising the working level
    rng = random.Random(29)
    p, n = 3, 1
    a = PadicElement(p=p, valuation=-1, unit=7, level=3)
    hits = 0
    while hits < 4:
        h = random_symplectic(n, rng)
        try:
            v2 = phi_rho_eval(GPoint(a, tuple(map(tuple, h))), level=2)
            v3 = phi_rho_eval(GPoint(a, tuple(map(tuple, h))), level=3)
        except GDistError:
            continue
        hits += 1
        assert abs(v2 - v3) < 1e-9


def test_phi_rho_singular_locus():
    p, level = 3, 2
    a = PadicElement(p=p, valuation=0, unit=1, level=level)
    minus_eye = ((-1, 0), (0, -1))
    with pytest.raises(GDistError, match="singular"):
        phi_rho_eval(GPoint(a, minus_eye), level)


@pytest.mark.parametrize("p", [3, 5])
def test_fourier_n0_matches_classical_fourier(p):
    # F(phi)(a) = |a|^{1/2} (phi |.|^{-1/2})^(a): the d*y-to-dy conversion
    # puts the |y|^{-1/2} weight inside the additive Fourier transform
    level = 2
    rng = random.Random(7)
    for _ in range(5):
        data = {}
        for k in range(-1, 2):
            for u in unit_group(p, level)[0]:
                if rng.random() < 0.6:
                    data[(k, u)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if not data:
            continue
        phi = compact_fx(p, level, data)
        weighted = phi.scale_by_power(Fraction(-1, 2))
        table = fourier_n0_table(phi, -2, 2)
        points = [(k, u) for k in range(-2, 3) for u in (1, 2, p + 2, p**level - 1)]
        for (k, u), got in zip(points, fourier_n0(phi, points)):
            want = p ** (-k / 2.0) * classical_fourier_shell(weighted, k, u)
            assert abs(got - want) < 1e-8, (k, u)
            assert abs(table[(k, u)] - want) < 1e-8, (k, u)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("level", [1, 2])
def test_fourier_n0_table_matches_pointwise_route(p, level):
    # the character-space product against the finite kernel sums
    rng = random.Random(100 * p + level)
    cosets = unit_group(p, level)[0]
    random_phi = compact_fx(p, level, {
        (k, u): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for k in range(-1, 2) for u in cosets})
    zero_phi = compact_fx(p, level, {(k, u): 0.0 for k in range(-1, 2) for u in cosets})
    for phi in (random_phi, zero_phi):
        for sign in (1, -1):
            table = fourier_n0_table(phi, -4, 4, sign=sign)
            assert sorted(table) == [(k, u) for k in range(-4, 5) for u in sorted(cosets)]
            pointwise = fourier_n0(phi, list(table), sign=sign)
            for ((k, u), got), want in zip(table.items(), pointwise):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (sign, k, u)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_batched_fourier_n0_matches_per_point_sums(p, level, sign):
    # one pass over the shells for all points against a pv sum per point, bit
    # for bit: on a random phi, and on the wide table fourier-n0 inverts
    rng = random.Random(10 * p + level)
    cosets = unit_group(p, level)[0]
    phi = compact_fx(p, level, {(k, u): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for k in range(-1, 2) for u in cosets})
    table = compact_fx(p, level, fourier_n0_table(phi, -12, 12, sign=-sign))
    some = cosets[::max(1, len(cosets) // 6)]
    for f in (phi, table):
        points = [(k, u) for k in (0, 1) for u in cosets] + [(k, u) for k in (-3, 4)
                                                             for u in some]
        got = fourier_n0(f, points, sign)
        assert got == [pointwise_fourier_n0(f, k, u, sign) for k, u in points], (p, level)


class CountedProducts(complex):
    """A component of phi^v that counts the products it takes part in."""
    products = 0

    def __rmul__(self, other):
        CountedProducts.products += 1
        return complex.__rmul__(self, other)


def test_fourier_n0_table_updates_only_from_nonzero_shells(monkeypatch):
    # phi on shells 30 and 34 only, its window 30..34: the table on -36..-28
    # against the per-point pv sums, with one row update (units products)
    # per nonzero shell of phi^v and output shell, none from the zero shells
    from padicharm import gdist
    p, level = 5, 2
    cosets = unit_group(p, level)[0]
    rng = random.Random(19)
    phi = compact_fx(p, level, {(k, u): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for k in (30, 34) for u in cosets})
    phi = FxFunction(p, level, 30, 35, phi.values)
    components = gdist.character_components

    def counted(rows):
        return [[CountedProducts(c) for c in row] for row in components(rows)]
    monkeypatch.setattr(gdist, "character_components", counted)
    CountedProducts.products = 0
    table = fourier_n0_table(phi, -36, -28)
    assert CountedProducts.products == 2 * 9 * len(cosets)
    for (k, u), got in table.items():
        want = pointwise_fourier_n0(phi, k, u)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (k, u)


def test_fourier_n0_table_needs_compact_support():
    with pytest.raises(GDistError, match="compact"):
        fourier_n0_table(indicator_integers(3, 1), -2, 2)


def test_fourier_n0_double_transform_is_identity():
    # F_{psi^{-1}} o F_{psi} = Id pointwise on a test family
    p, level = 3, 1
    family = [indicator_units(p, level)]
    rng = random.Random(11)
    for _ in range(3):
        data = {(k, u): complex(rng.uniform(-1, 1))
                for k in range(0, 2) for u in unit_group(p, level)[0]}
        family.append(compact_fx(p, level, data))
    for phi in family:
        table = fourier_n0_table(phi, -14, 14)
        G = compact_fx(p, level, table)
        points = [(k, u) for k in range(phi.k_min, phi.k_tail)
                  for u in unit_group(p, level)[0]]
        for (k, u), got in zip(points, fourier_n0(G, points, sign=-1)):
            want = phi.evaluate(k, u)
            assert abs(got - want) < 1e-6, (k, u)


def test_fourier_n0_truncated_plancherel():
    p, level = 3, 1
    rng = random.Random(13)
    for _ in range(4):
        data = {(k, u): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for k in range(-1, 2) for u in unit_group(p, level)[0]}
        phi = compact_fx(p, level, data)
        table = fourier_n0_table(phi, -12, 12)
        lhs = l2_norm_truncated(table, p, level, 12)
        rhs = l2_norm_fx(phi, 12)
        assert abs(lhs - rhs) < 1e-4 * max(1.0, rhs)


def test_shell_coefficients_match_abelian_gamma():
    p = 3
    for chi in characters(p, 2):
        if conductor(chi) > 1:
            continue
        for s in (0.7, 0.52 + 0.2j):
            rep = shell_coefficients_sum(chi, s)
            assert rep["stable_at"] is not None
            assert rep["deviation"] < 1e-5, (chi, s, rep["deviation"])


@pytest.mark.parametrize("p, level", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3),
                                      (7, 1), (7, 2)])
def test_shell_coefficients_match_per_unit_average(p, level):
    # each f_ell is read off one eta_column; the oracle averages eta's coset
    # values against chi over every unit of the shell.  A character of each
    # conductor and its inverse, both psi orientations.
    s = 0.7
    z = complex(p) ** -s
    for e in range(level + 1):
        base = p ** (level - e) if e else 0
        for chi in {UnitCharacter(p, level, base), UnitCharacter(p, level, -base)}:
            for sign in (1, -1):
                coeffs = shell_coefficients_sum(chi, s, sign)["coefficients"]
                for ell, f in coeffs.items():
                    c = f / z**ell
                    want = shell_coefficient_by_units(ell, chi, z, sign) / z**ell
                    assert abs(c - want) <= 1e-12 * max(1.0, abs(want)), (chi, sign, ell)


def test_shell_coefficients_single_band_for_ramified():
    # quadratic chi: the epsilon monomial supports a single ell band
    p = 3
    chi = UnitCharacter(p, 1, 1)
    rep = shell_coefficients_sum(chi, 0.6)
    nonzero = [ell for ell, c in rep["coefficients"].items() if abs(c) > 1e-12]
    assert nonzero == [-1]


@pytest.mark.parametrize("p, level, e", [(3, 3, 3), (5, 3, 3), (7, 3, 3), (3, 4, 4)])
def test_shell_coefficients_reach_high_conductors(p, level, e):
    # conductor e >= 3 puts the one nonzero coefficient at ell = -e, past the
    # three zero partial sums of radii 0..2
    chi = next(chi for chi in characters(p, level) if conductor(chi) == e)
    rep = shell_coefficients_sum(chi, 0.7)
    nonzero = [ell for ell, c in rep["coefficients"].items() if abs(c) > 1e-12]
    assert nonzero == [-e] and rep["stable_at"] == e + 2
    assert rep["deviation"] < 1e-9, (chi, rep["deviation"])


def test_shell_coefficients_divergence_guard():
    with pytest.raises(GDistError, match="half-plane|Re"):
        shell_coefficients_sum(UnitCharacter(3, 1, 0), -0.8)
