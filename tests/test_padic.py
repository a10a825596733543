import cmath
from fractions import Fraction

import pytest

from padicharm.padic import (LocalFieldConfig, PadicElement, PadicError,
                             coset_volume, load_config, ord_abs_ac, psi_eval,
                             unit_group, unit_order, unit_part, val_p)


def test_config_guards():
    LocalFieldConfig(p=3)
    with pytest.raises(PadicError):
        LocalFieldConfig(p=2)
    with pytest.raises(PadicError):
        LocalFieldConfig(p=9)
    with pytest.raises(PadicError):
        LocalFieldConfig(p=5, default_level=0)


def test_ord_abs_ac_examples():
    # p=3, x = 3^2 * 2
    x = PadicElement.from_rational(Fraction(18), 3, 2)
    assert ord_abs_ac(x) == (2, Fraction(1, 9), 2)
    # x = 1
    one = PadicElement.from_rational(1, 3, 2)
    assert ord_abs_ac(one) == (0, Fraction(1), 1)
    # p=5, x = 3/5
    y = PadicElement.from_rational(Fraction(3, 5), 5, 2)
    assert ord_abs_ac(y) == (-1, Fraction(5), 3)


def test_zero_input_rejected():
    with pytest.raises(PadicError, match="valuation undefined"):
        PadicElement.from_rational(0, 3, 2)


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
        x = PadicElement.from_rational(a, p, 3)
        y = PadicElement.from_rational(b, p, 3)
        xy = PadicElement.from_rational(a * b, p, 3)
        prod = x * y
        assert prod.valuation == xy.valuation == x.valuation + y.valuation
        assert prod.unit == xy.unit


def test_psi_conductor_contract():
    # psi = 1 on O
    for uval in [1, 2, 4, 17]:
        x = PadicElement.from_rational(uval, 3, 2)
        assert abs(psi_eval(x) - 1.0) < 1e-12
    # psi(1/3) = exp(2 pi i/3), psi(2/9) = exp(4 pi i/9)
    x = PadicElement.from_rational(Fraction(1, 3), 3, 2)
    assert abs(psi_eval(x) - cmath.exp(2j * cmath.pi / 3)) < 1e-12
    y = PadicElement.from_rational(Fraction(2, 9), 3, 2)
    assert abs(psi_eval(y) - cmath.exp(4j * cmath.pi / 9)) < 1e-12
    # nontrivial on p^{-1} O
    worst = max(
        abs(psi_eval(PadicElement.from_rational(Fraction(u, 3), 3, 2)) - 1.0)
        for u in [1, 2]
    )
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
        xa = PadicElement.from_rational(a, p, 4)
        xb = PadicElement.from_rational(b, p, 4)
        xab = PadicElement.from_rational(a + b, p, 4)
        assert abs(psi_eval(xa) * psi_eval(xb) - psi_eval(xab)) < 1e-9


def test_psi_insufficient_precision():
    x = PadicElement(p=3, valuation=-3, unit=2, level=2)
    with pytest.raises(PadicError, match="insufficient precision"):
        psi_eval(x)


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
    assert coset_volume(3, 2) == Fraction(1, 6)
    assert unit_order(5, 2) == 20


def test_load_config(tmp_path):
    cfg = tmp_path / "field.cfg"
    cfg.write_text("# local field\np = 5\nlevel = 3\ntolerance = 1e-8\n")
    c = load_config(cfg)
    assert c.p == 5 and c.default_level == 3 and c.numeric_tolerance == 1e-8
