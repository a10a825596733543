"""Rational functions of z = q^(-s) with complex coefficients.

The Mellin machinery manipulates these through three substitutions
(z -> c*z for s-shifts, z -> z^2 for s -> 2s, z -> 1/z for s -> -s),
Laurent coefficients at z = 0 (residue inversion), and partial fractions
against a given pole set, whose simple-pole terms b/(1 - a*z) carry the
asymptotic data of shell functions.  The pole set comes from the caller (the
L-factors of a class fix it in advance), so no roots are searched for:
multiplicities come from synthetic division, residues from cover-up, and the
Laurent part from the series at z = 0.

Polynomials are tuples of Python complex coefficients in ascending order.
The GL(1) calculus builds them with 2 to 10 terms, where numpy's fixed cost
per call outweighs the arithmetic, so the kernel is plain Python, with no
numpy, and `laurent_coeffs` returns a list.  `partial_fractions(())` is the
Laurent-polynomial test: it raises PoleError on any pole off z = 0.
Equality is decided by cross-multiplied evaluation at fixed sample points
off the unit circle.

RationalFunctionZ is a value type: an instance is never written after it is
built, so callers share instances freely (the gamma and beta caches hand out
one each), and `zero()` and `one()` return one shared instance each.  The
generic constructor converts any coefficients to complex; the kernel's own
results, already tuples of complex, take `_make`, which only trims them.  A
scalar c enters a product as the one-coefficient function c / 1, built by
`_make`, so `_trim` alone decides what a coefficient becomes; `_pmul` takes a
one-coefficient operand in one pass, 0 + x * y per coefficient, the floats
of its double loop, signed zeros included.  A non-finite coefficient is
never trimmed to zero, and a non-finite sample fails `equals`, so a NaN
never reads as zero or as agreement.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from operator import add, mul

from . import PadicharmError

_EQ_TOL = 1e-8
# a synthetic-division remainder this small against its own rounding scale
# is a factor (1 - alpha z): far above float rounding, far below a real residue
_DIV_TOL = 1e-9
# a remainder series coefficient this small against the series is zero: the
# class-membership margin, far above the ~1e-13 rounding of an n = 2 round trip
_TERM_TOL = 1e-8
# a top coefficient this small against the largest is cancellation left by a
# sum of a few products (about 90 ulp of float64), not a term: the verbs'
# genuine top coefficients stay above 1e-10 of the largest
_TRIM_TOL = 1e-14
# a constant term this small against the largest coefficient is a factor z:
# dividing the series by it would magnify float64 rounding past 1e-3
_LEAD_TOL = 1e-13
_SAMPLES = tuple(
    r * cmath.exp(2j * cmath.pi * (k / 20.0 + 0.037))
    for k, r in zip(range(20), [0.63, 1.41] * 10)
)
_ZERO = (0j,)
_ONE = (1 + 0j,)


class PoleError(PadicharmError):
    pass


def _trim(c: tuple) -> tuple:
    """c without the top coefficients below _TRIM_TOL of its largest; (0,)
    when all of c is zero, and c itself when a coefficient is not finite."""
    # no default=: a keyword argument sends max() down a slower call path
    scale = max(map(abs, c)) if c else 0.0
    if not 0.0 < scale < math.inf:
        # max() skips a NaN that is not first, so zero alone is tested exactly
        return _ZERO if all(x == 0 for x in c) else c
    cut = _TRIM_TOL * scale
    n = len(c)
    if abs(c[-1]) > cut:
        return c
    while n > 1 and abs(c[n - 1]) <= cut:
        n -= 1
    return c[:n]


def _pmul(a, b):
    """The product of two polynomials, exact on exact coefficients.  A
    one-coefficient operand takes the double loop's 0 + x * y directly."""
    if len(b) == 1:
        y = b[0]
        return tuple([0 + x * y for x in a])
    if len(a) == 1:
        x = a[0]
        return tuple([0 + x * y for y in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return tuple(out)


def _padd(a, b):
    """The sum of two polynomials (tuples), exact on exact coefficients."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


def _peval(c, z):
    out = 0.0 + 0.0j
    for coef in reversed(c):
        out = out * z + coef
    return out


class RationalFunctionZ:
    """num(z)/den(z), den not identically zero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1.0,)):
        self.num = _trim(tuple(map(complex, num)))
        self.den = _trim(tuple(map(complex, den)))
        if self.den == _ZERO:
            raise ZeroDivisionError("denominator is identically zero")

    # ---- constructors ----
    @classmethod
    def _make(cls, num: tuple, den: tuple) -> "RationalFunctionZ":
        """From tuples of complex that the kernel built: trimmed, not converted."""
        out = object.__new__(cls)
        out.num, out.den = _trim(num), _trim(den)
        if out.den == _ZERO:
            raise ZeroDivisionError("denominator is identically zero")
        return out

    @classmethod
    @cache
    def one(cls) -> "RationalFunctionZ":
        return cls([1.0])

    @classmethod
    @cache
    def zero(cls) -> "RationalFunctionZ":
        return cls([0.0])

    @classmethod
    def z_power(cls, k: int) -> "RationalFunctionZ":
        if k >= 0:
            return cls._make(_mono(k), _ONE)
        return cls._make(_ONE, _mono(-k))

    @classmethod
    def from_laurent(cls, coeffs: dict) -> "RationalFunctionZ":
        """sum_k coeffs[k] z^k as num / z^(-lo), lo the lowest exponent (or 0)."""
        if not coeffs:
            return cls.zero()
        lo = min(min(coeffs), 0)
        num = [0j] * (max(coeffs) - lo + 1)
        for k, c in coeffs.items():
            num[k - lo] += c
        return cls(num, _mono(-lo))

    @classmethod
    def geometric(cls, ratio, start: int = 0) -> "RationalFunctionZ":
        """sum_{k>=start} (ratio*z)^k ... z^start * ratio^start/(1 - ratio z)."""
        head = cls.z_power(start) * complex(ratio) ** start
        return head / cls([1.0, -complex(ratio)])

    # ---- arithmetic ----
    def __add__(self, other):
        other = _coerce(other)
        return RationalFunctionZ._make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __mul__(self, other):
        other = _coerce(other)
        return RationalFunctionZ._make(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other):
        other = _coerce(other)
        return RationalFunctionZ._make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __call__(self, z):
        z = complex(z)
        return _peval(self.num, z) / _peval(self.den, z)

    def is_zero(self, tol=_EQ_TOL) -> bool:
        # each coefficient is compared, since max() skips a NaN that is not first
        bound = tol * max(max(map(abs, self.den)), 1.0)
        return all(abs(x) <= bound for x in self.num)

    def equals(self, other, tol=_EQ_TOL) -> bool:
        """Cross-multiplied agreement at 20 deterministic sample points; a
        sample that is not finite fails the comparison."""
        other = _coerce(other)
        for z in _SAMPLES:
            a = _peval(self.num, z) * _peval(other.den, z)
            b = _peval(other.num, z) * _peval(self.den, z)
            if not abs(a - b) / max(abs(a), abs(b), 1.0) <= tol:
                return False
        return True

    # ---- substitutions ----
    def substitute(self, rule: str, c=None) -> "RationalFunctionZ":
        """rule in {'scale','square','invert'}: z -> c*z, z -> z^2, z -> 1/z."""
        num, den = self.num, self.den
        if rule == "scale":
            c = complex(c)
            powers = [c ** k for k in range(max(len(num), len(den)))]
            return RationalFunctionZ._make(tuple(map(mul, num, powers)),
                                           tuple(map(mul, den, powers)))
        if rule == "square":
            return RationalFunctionZ._make(_spread(num), _spread(den))
        if rule == "invert":
            # z^max(dn, dd) num(1/z) / (z^max(dn, dd) den(1/z))
            pad = (0j,) * abs(len(den) - len(num))
            if len(den) >= len(num):
                return RationalFunctionZ._make(pad + num[::-1], den[::-1])
            return RationalFunctionZ._make(num[::-1], pad + den[::-1])
        raise ValueError(f"unknown substitution rule: {rule}")

    # ---- Laurent expansion at z = 0 ----
    def laurent_coeffs(self, lo: int, hi: int) -> list:
        """Coefficients of z^lo..z^hi of the expansion at z = 0, from one
        power-series division of num by the z-power-free part of den; the
        coefficient of z^m is Res_{z=0}(R(z) z^(-m-1))."""
        v, den0 = _split_z_power(self.den)
        return _laurent_range(self.num, v, den0, [0j] * (len(den0) - 1), lo, hi)

    # ---- partial fractions ----
    def partial_fractions(self, alphas):
        """Laurent part and simple-pole residues against a given pole set.

        Returns (laurent, residues): laurent is a dict {k: c} and residues[i]
        is the b of the term b/(1 - alphas[i] z) (0 where there is no pole),
        so that R = sum_k c z^k + sum_i residues[i]/(1 - alphas[i] z).  The
        multiplicity of each factor (1 - alpha z) comes from forward
        synthetic division of the denominator and the numerator, a simple
        pole's residue from cover-up.  The Laurent part is the series of R at
        z = 0 minus the pole terms; a remainder that does not terminate means
        a pole outside the set, and a net double pole is not a simple pole:
        both raise PoleError.
        """
        v, den0 = _split_z_power(self.den)
        residues = tuple(_cover_up(self.num, den0, v, a) for a in alphas)
        return _laurent_part(self, v, den0, alphas, residues, _TERM_TOL), residues

    # ---- serialization ----
    def to_json(self) -> dict:
        return {
            "num": [[c.real, c.imag] for c in self.num],
            "den": [[c.real, c.imag] for c in self.den],
        }

    def __repr__(self):
        num, den = ([complex(round(c.real, 6), round(c.imag, 6)) for c in poly]
                    for poly in (self.num, self.den))
        return f"RationalFunctionZ(num={num}, den={den})"


def _coerce(x) -> RationalFunctionZ:
    if isinstance(x, RationalFunctionZ):
        return x
    return RationalFunctionZ._make((complex(x),), _ONE)


def _split_z_power(den):
    """(v, den0) with den = z^v den0 and den0(0) != 0 (relative to _LEAD_TOL)."""
    cut = _LEAD_TOL * max(map(abs, den))
    v = next((i for i, c in enumerate(den) if abs(c) > cut), 0)
    return v, den[v:]


def _laurent_range(num, v: int, den0, series: list, lo: int, hi: int) -> list:
    """Coefficients of z^lo..z^hi of num / (z^v den0) at z = 0.  `series`
    holds the expansion so far: t = deg(den0) leading zeros, then the
    coefficients of z^-v, z^(1-v), ... in order, so that every step reads a
    full window of the t previous terms.  It is extended in place through
    z^hi; a term once computed is never computed again."""
    top = hi + v
    if top < 0:
        return [0j] * (hi - lo + 1)
    inv0 = 1.0 / den0[0]
    tail = den0[:0:-1]
    t = len(tail)
    for i in range(len(series) - t, top + 1):
        acc = num[i] if i < len(num) else 0j
        acc -= sum(map(mul, tail, series[i:i + t]))
        series.append(acc * inv0)
    start = lo + v
    return [0j] * max(-start, 0) + series[t + max(start, 0):t + top + 1]


def _mono(k: int) -> tuple:
    return (0j,) * k + _ONE


def _spread(c):
    """c(z^2): a zero between consecutive coefficients."""
    out = [0j] * (2 * len(c) - 1)
    out[::2] = c
    return tuple(out)


def _divide(c, alpha):
    """Forward synthetic division c = (1 - alpha z) q + r z^deg(c).

    Returns (q, r, scale): r = sum_i c_i alpha^(deg - i) is the reversed
    polynomial at alpha, and scale the same sum over |c_i| |alpha|^(deg - i),
    the size of its rounding.  Each step multiplies the carry by alpha and
    adds the next coefficient, and the scale runs the same recursion on |c_i|
    and |alpha|, so the division is stable for |alpha| <= 1."""
    size = abs(alpha)
    q, carry, scale = [], 0j, 0.0
    for x in c:
        carry = carry * alpha + x
        scale = scale * size + abs(x)
        q.append(carry)
    return tuple(q[:-1]), carry, scale


def _strip(c, alpha, most):
    """Divide (1 - alpha z) out of c up to `most` times, while it divides.
    Returns (multiplicity, quotient, reversed quotient at alpha)."""
    m = 0
    while True:
        q, r, scale = _divide(c, alpha)
        if m == most or len(c) == 1 or abs(r) > _DIV_TOL * scale:
            return m, c, r
        m, c = m + 1, q


def _cover_up(num, den0, v, alpha):
    """Residue b of b/(1 - alpha z) in num/(z^v den0); 0 without a pole."""
    md, D, rd = _strip(den0, alpha, len(den0))
    mn, N, rn = _strip(num, alpha, md)
    if md - mn > 1:
        raise PoleError(f"pole of order {md - mn} at z = {1 / alpha:.6g}")
    if md == mn:
        return 0j
    # N(1/alpha) = alpha^-deg(N) rn, D(1/alpha) = alpha^-deg(D) rd
    return rn / rd * alpha ** (v + len(D) - len(N))


def _laurent_part(R, v, den0, alphas, residues, tol):
    """The series of R = num / (z^v den0) at z = 0 minus the pole terms, over
    the Laurent range -v..top; deg(den0) further terms of the remainder must
    vanish, or R has a pole outside alphas (PoleError)."""
    top = max(len(R.num) - len(den0), -1)
    # series[i] is the coefficient of z^(i - v)
    series = R.laurent_coeffs(-v, top + len(den0) - 1)
    scale = max(max(map(abs, series)), max(map(abs, residues), default=0.0))
    for alpha, b in zip(alphas, residues):
        if b:
            for i in range(v, len(series)):
                series[i] -= b * alpha ** (i - v)
    cut = top + v + 1
    if any(abs(c) > tol * scale for c in series[cut:]):
        raise PoleError("the series does not terminate: a pole outside the given set")
    return {k: c for k, c in enumerate(series[:cut], -v) if c != 0}
