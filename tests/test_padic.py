import cmath
from fractions import Fraction

import pytest

from padicharm.padic import (LocalFieldConfig, PadicElement, PadicError,
                             legendre, load_config, psi_frac, unit_group,
                             unit_order, unit_part, val_p)


def test_config_guards():
    LocalFieldConfig(p=3)
    with pytest.raises(PadicError):
        LocalFieldConfig(p=2)
    with pytest.raises(PadicError):
        LocalFieldConfig(p=9)


def ord_abs_ac(x, p, level):
    """(ord(x), |x|, ac(x)) of a nonzero rational, ac(x) = x p^{-ord(x)} mod p^level."""
    return val_p(x, p), Fraction(1, p) ** val_p(x, p), unit_part(x, p, level)


def test_ord_abs_ac_examples():
    # p=3, x = 3^2 * 2
    assert ord_abs_ac(Fraction(18), 3, 2) == (2, Fraction(1, 9), 2)
    # x = 1
    assert ord_abs_ac(1, 3, 2) == (0, Fraction(1), 1)
    # p=5, x = 3/5
    assert ord_abs_ac(Fraction(3, 5), 5, 2) == (-1, Fraction(5), 3)


def test_zero_input_rejected():
    with pytest.raises(PadicError, match="valuation undefined"):
        unit_part(0, 3, 2)


def test_val_p_and_unit_part_definitions():
    # x = p^v y with y a p-adic unit, and unit_part(x) = y mod p^level
    import random
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**4), rng.randint(1, 10**4))
        y = x / Fraction(p) ** val_p(x, p)
        assert y.numerator % p and y.denominator % p
        for level in (1, 2, 3):
            u = unit_part(x, p, level)
            assert 0 < u < p**level
            assert (u * y.denominator - y.numerator) % p**level == 0
    with pytest.raises(PadicError, match="valuation undefined"):
        val_p(0, 3)


def test_multiplicativity_of_ord_and_ac():
    import random
    rng = random.Random(1)
    for _ in range(60):
        p = rng.choice([3, 5])
        a = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        b = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert val_p(a * b, p) == val_p(a, p) + val_p(b, p)
        assert unit_part(a * b, p, 3) == unit_part(a, p, 3) * unit_part(b, p, 3) % p**3


def psi(x, p, sign=1):
    """psi(x) of a rational x through psi_frac: frac(x) = p^v u mod 1."""
    x = Fraction(x)
    v = val_p(x, p)
    return psi_frac(p, p ** max(v, 0) * unit_part(x, p, max(-v, 1)), -v, sign)


def test_psi_conductor_contract():
    # psi = 1 on O
    for uval in [1, 2, 4, 17]:
        assert abs(psi(uval, 3) - 1.0) < 1e-12
    # psi(1/3) = exp(2 pi i/3), psi(2/9) = exp(4 pi i/9)
    assert abs(psi(Fraction(1, 3), 3) - cmath.exp(2j * cmath.pi / 3)) < 1e-12
    assert abs(psi(Fraction(2, 9), 3) - cmath.exp(4j * cmath.pi / 9)) < 1e-12
    assert abs(psi(Fraction(2, 9), 3, -1) - cmath.exp(-4j * cmath.pi / 9)) < 1e-12
    # nontrivial on p^{-1} O
    worst = max(abs(psi(Fraction(u, 3), 3) - 1.0) for u in [1, 2])
    assert worst > 0.5


def test_psi_additive():
    import random
    rng = random.Random(2)
    for _ in range(40):
        p = 3
        a = Fraction(rng.randint(1, 50), p ** rng.randint(0, 2))
        b = Fraction(rng.randint(1, 50), p ** rng.randint(0, 2))
        if a + b == 0:
            continue
        assert abs(psi(a, p) * psi(b, p) - psi(a + b, p)) < 1e-9


def test_padic_element_guards():
    assert PadicElement(p=3, valuation=-3, unit=11, level=2).unit == 2
    with pytest.raises(PadicError, match="coprime"):
        PadicElement(p=3, valuation=0, unit=6, level=2)
    with pytest.raises(PadicError, match="level"):
        PadicElement(p=3, valuation=0, unit=1, level=0)


def test_unit_group_small():
    elements, gen, dlog = unit_group(3, 1)
    assert sorted(elements) == [1, 2]
    assert gen == 2
    elements, gen, dlog = unit_group(3, 2)
    assert len(elements) == 6 and gen == 2
    # brute-force cyclicity check
    assert sorted(pow(2, k, 9) for k in range(6)) == sorted(elements)
    elements, gen, dlog = unit_group(5, 1)
    assert len(elements) == 4 and gen == 2
    assert sorted(pow(2, k, 5) for k in range(4)) == sorted(elements)


def test_unit_group_rejects_bad_level():
    with pytest.raises(PadicError):
        unit_group(3, 0)


def test_coset_volume():
    # d*t-volume of a coset of 1 + p^level Z_p inside Z_p^x is 1 / phi(p^level)
    assert Fraction(1, unit_order(3, 2)) == Fraction(1, 6)
    assert unit_order(5, 2) == 20


def test_legendre_is_eulers_criterion_on_squares():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        assert [legendre(a, p) for a in range(p)] == \
            [0] + [1 if a in squares else -1 for a in range(1, p)]
        assert legendre(-1, p) == (-1) ** ((p - 1) // 2)


def test_load_config(tmp_path):
    cfg = tmp_path / "field.cfg"
    cfg.write_text("# local field\np = 5\nlevel = 3\ntolerance = 1e-8\n")
    assert load_config(cfg) == {"p": 5, "level": 3, "tolerance": 1e-8}
    cfg.write_text("tolerance = 1e-6\n")
    assert load_config(cfg) == {"tolerance": 1e-6}
    cfg.write_text("lvl = 1\n")
    with pytest.raises(PadicError, match="unknown config key 'lvl'"):
        load_config(cfg)


def test_val_p_of_an_int_matches_its_fraction():
    for p in (3, 5, 7, 101):
        for x in [*range(-300, 0), *range(1, 300), 4 * p**9, -(p**12), p**40 + p**39]:
            assert val_p(x, p) == val_p(Fraction(x), p), (x, p)
    with pytest.raises(PadicError):
        val_p(0, 3)
