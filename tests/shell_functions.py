"""Shell functions (`fxspace.FxFunction`) the tests build their inputs from."""

from padicharm.fxspace import FxFunction, TailSpec
from padicharm.padic import unit_group, unit_order


def one_k(p: int, k: int, level: int | None = None) -> FxFunction:
    """Normalized indicator of 1 + p^k Z_p (d*-volume 1), at the given level >= k."""
    level = k if level is None else level
    assert 1 <= k <= level
    vals = {(0, u): complex(unit_order(p, k)) for u in unit_group(p, level)[0]
            if u % p**k == 1}
    return FxFunction(p, level, 0, 1, vals, TailSpec.compact())


def indicator_units(p: int, level: int, value: complex = 1.0) -> FxFunction:
    """value * ch(Z_p^x)."""
    vals = {(0, u): complex(value) for u in unit_group(p, level)[0]}
    return FxFunction(p, level, 0, 1, vals, TailSpec.compact())


def indicator_integers(p: int, level: int) -> FxFunction:
    """ch(Z_p - 0) as an FxFunction: plus-class tail with a0 = 1."""
    ones = tuple(1.0 + 0.0j for _ in unit_group(p, level)[0])
    return FxFunction(p, level, 0, 0, {}, TailSpec("plus", (ones,)))
