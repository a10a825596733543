"""Finite-precision model of the local field Q_p for odd p.

Elements are pairs (valuation, unit class mod p^N).  The additive character
psi has conductor Z_p: psi(x) = exp(2*pi*i*frac(x)) with frac the p-adic
fractional part.  Unit groups (Z/p^N)^x are cyclic for odd p; we fix the
smallest generator and ship discrete logarithms with the enumeration.
The valuation, unit part and Legendre symbol of rationals are exact.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import PadicharmError


class PadicError(PadicharmError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class LocalFieldConfig:
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise PadicError(f"p = {self.p} is not prime")
        if self.p == 2:
            raise PadicError("p = 2 is not supported (odd residue characteristic required)")


# the keys of a config file, each the name of the flag it sets, and their types
CONFIG_KEYS = {"p": int, "level": int, "tolerance": float}


def load_config(path) -> dict:
    """Read a key=value config file: {flag: value} for the keys it names,
    each one of CONFIG_KEYS; any other key raises PadicError."""
    vals = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise PadicError(f"unknown config key {key!r}: the keys are "
                                 + ", ".join(CONFIG_KEYS))
            vals[key] = CONFIG_KEYS[key](val.strip())
    return vals


def val_p(x, p: int) -> int:
    """ord_p of a nonzero rational x.  An int is its own numerator over 1, so
    it takes no Fraction."""
    if not isinstance(x, int):
        x = Fraction(x)
    if x == 0:
        raise PadicError("valuation undefined: zero input")
    v = 0
    for part, step in ((x.numerator, 1), (x.denominator, -1)):
        while part % p == 0:
            part //= p
            v += step
    return v


def unit_part(x, p: int, level: int) -> int:
    """ac(x) = x p^{-ord(x)} mod p^level for a nonzero rational x."""
    u = Fraction(x) / Fraction(p) ** val_p(x, p)
    mod = p**level
    return u.numerator * pow(u.denominator, -1, mod) % mod


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a|p): 0 on multiples of p, else +-1 by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@dataclass(frozen=True)
class PadicElement:
    """x = unit * p^valuation with unit known mod p^level."""

    p: int
    valuation: int
    unit: int
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise PadicError("level must be >= 1")
        u = self.unit % self.p**self.level
        if u % self.p == 0:
            raise PadicError("unit part must be coprime to p")
        object.__setattr__(self, "unit", u)


def psi_frac(p: int, num: int, den_pow: int, sign: int = 1) -> complex:
    """psi(num / p^den_pow) for integer num; den_pow >= 0."""
    if den_pow <= 0:
        return 1.0 + 0.0j
    den = p**den_pow
    return cmath.exp(sign * 2j * cmath.pi * (num % den) / den)


@lru_cache(maxsize=None)
def unit_group(p: int, level: int):
    """Enumeration of (Z/p^level)^x: (elements, generator, dlog table).

    The group is cyclic of order (p-1)p^(level-1) for odd p.  dlog maps a
    unit to its exponent with respect to the returned generator.
    """
    if level < 1:
        raise PadicError("level must be >= 1")
    if p == 2:
        raise PadicError("p = 2 unsupported")
    mod = p**level
    order = unit_order(p, level)
    primes = _prime_factors(order)
    # g generates iff g^(order/ell) != 1 for every prime ell | order; a cyclic
    # group has one, so the search ends
    gen = next(g for g in range(2, mod)
               if g % p and all(pow(g, order // ell, mod) != 1 for ell in primes))
    elements = []
    dlog = {}
    x = 1
    for k in range(order):
        elements.append(x)
        dlog[x] = k
        x = x * gen % mod
    return tuple(elements), gen, dlog


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def unit_order(p: int, level: int) -> int:
    return (p - 1) * p ** (level - 1)
