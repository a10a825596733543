"""Rational functions of z = q^(-s) with complex coefficients.

The Mellin machinery manipulates these through three substitutions
(z -> c*z for s-shifts, z -> z^2 for s -> 2s, z -> 1/z for s -> -s),
Laurent coefficients at z = 0 (residue inversion), and partial fractions
against a given pole set, whose simple-pole terms b/(1 - a*z) carry the
asymptotic data of shell functions.  The pole set comes from the caller (the
L-factors of a class fix it in advance), so no roots are searched for:
multiplicities come from synthetic division, residues from cover-up, and the
Laurent part from the series at z = 0.

Polynomials are numpy arrays of complex coefficients in ascending order.
Equality is decided by cross-multiplied evaluation at fixed sample points
off the unit circle.
"""

from __future__ import annotations

import cmath
import numpy as np

from . import PadicharmError

_EQ_TOL = 1e-8
# a synthetic-division remainder this small against its own rounding scale
# is a factor (1 - alpha z): far above float rounding, far below a real residue
_DIV_TOL = 1e-9
# a remainder series coefficient this small against the series is zero: the
# class-membership margin, far above the ~1e-13 rounding of an n = 2 round trip
_TERM_TOL = 1e-8
_SAMPLES = tuple(
    r * cmath.exp(2j * cmath.pi * (k / 20.0 + 0.037))
    for k, r in zip(range(20), [0.63, 1.41] * 10)
)


class PoleError(PadicharmError):
    pass


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.size == 0:
        return np.zeros(1, dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    nz = np.nonzero(np.abs(c) > 1e-14 * scale)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1].copy()


def _pmul(a, b):
    return np.convolve(a, b)


def _padd(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=complex)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def _peval(c, z):
    out = 0.0 + 0.0j
    for coef in reversed(c):
        out = out * z + coef
    return out


class RationalFunctionZ:
    """num(z)/den(z), den not identically zero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1.0,)):
        self.num = _trim(np.atleast_1d(np.asarray(num, dtype=complex)))
        self.den = _trim(np.atleast_1d(np.asarray(den, dtype=complex)))
        if len(self.den) == 1 and self.den[0] == 0:
            raise ZeroDivisionError("denominator is identically zero")

    # ---- constructors ----
    @classmethod
    def one(cls) -> "RationalFunctionZ":
        return cls([1.0])

    @classmethod
    def zero(cls) -> "RationalFunctionZ":
        return cls([0.0])

    @classmethod
    def z_power(cls, k: int) -> "RationalFunctionZ":
        if k >= 0:
            return cls([0.0] * k + [1.0])
        return cls([1.0], [0.0] * (-k) + [1.0])

    @classmethod
    def from_laurent(cls, coeffs: dict) -> "RationalFunctionZ":
        """sum_k coeffs[k] z^k as num / z^(-lo), lo the lowest exponent (or 0)."""
        if not coeffs:
            return cls.zero()
        lo = min(min(coeffs), 0)
        num = np.zeros(max(coeffs) - lo + 1, dtype=complex)
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
        return RationalFunctionZ(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __neg__(self):
        return RationalFunctionZ(-self.num, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        return RationalFunctionZ(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = _coerce(other)
        return RationalFunctionZ(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __call__(self, z):
        return _peval(self.num, complex(z)) / _peval(self.den, complex(z))

    def is_zero(self, tol=_EQ_TOL) -> bool:
        return bool(np.max(np.abs(self.num)) <= tol * max(np.max(np.abs(self.den)), 1.0))

    def equals(self, other, tol=_EQ_TOL) -> bool:
        """Cross-multiplied agreement at 20 deterministic sample points."""
        other = _coerce(other)
        worst = 0.0
        for z in _SAMPLES:
            a = _peval(self.num, z) * _peval(other.den, z)
            b = _peval(other.num, z) * _peval(self.den, z)
            scale = max(abs(a), abs(b), 1.0)
            worst = max(worst, abs(a - b) / scale)
        return worst <= tol

    def max_relative_deviation(self, other, samples=None) -> float:
        other = _coerce(other)
        worst = 0.0
        for z in samples if samples is not None else _SAMPLES:
            a = self(z)
            b = other(z)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
        return worst

    # ---- substitutions ----
    def substitute(self, rule: str, c=None) -> "RationalFunctionZ":
        """rule in {'scale','square','invert'}: z -> c*z, z -> z^2, z -> 1/z."""
        if rule == "scale":
            pw = np.power(complex(c), np.arange(len(self.num)))
            pwd = np.power(complex(c), np.arange(len(self.den)))
            return RationalFunctionZ(self.num * pw, self.den * pwd)
        if rule == "square":
            num = np.zeros(2 * len(self.num) - 1, dtype=complex)
            num[::2] = self.num
            den = np.zeros(2 * len(self.den) - 1, dtype=complex)
            den[::2] = self.den
            return RationalFunctionZ(num, den)
        if rule == "invert":
            dn, dd = len(self.num) - 1, len(self.den) - 1
            num = self.num[::-1].copy()
            den = self.den[::-1].copy()
            if dd >= dn:
                num = _pmul(num, _mono(dd - dn))
            else:
                den = _pmul(den, _mono(dn - dd))
            return RationalFunctionZ(num, den)
        raise ValueError(f"unknown substitution rule: {rule}")

    # ---- Laurent expansion at z = 0 ----
    def laurent_coeffs(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients of z^lo..z^hi of the expansion at z = 0, from one
        power-series division of num by the z-power-free part of den; the
        coefficient of z^m is Res_{z=0}(R(z) z^(-m-1))."""
        v, den0 = _split_z_power(self.den)
        out = np.zeros(hi - lo + 1, dtype=complex)
        top = hi + v
        if top < 0:
            return out
        # series[i] is the coefficient of z^(i - v)
        series = np.zeros(top + 1, dtype=complex)
        num, tail, inv0 = self.num, den0[1:], 1.0 / den0[0]
        for i in range(top + 1):
            acc = num[i] if i < len(num) else 0.0
            t = min(i, len(tail))
            if t:
                acc -= tail[:t] @ series[i - 1::-1][:t]
            series[i] = acc * inv0
        start = lo + v
        out[max(-start, 0):] = series[max(start, 0):]
        return out

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
        residues = np.array([_cover_up(self.num, den0, v, a) for a in alphas],
                            dtype=complex)
        return _laurent_part(self, alphas, residues, _TERM_TOL), residues

    # ---- Laurent-polynomial test ----
    def laurent_polynomial_witness(self, tol=_TERM_TOL):
        """None if R is a Laurent polynomial (its series at z = 0
        terminates), else the pole z0 of R where the numerator is largest;
        only this failure path finds roots."""
        try:
            _laurent_part(self, (), (), tol)
            return None
        except PoleError:
            _, den0 = _split_z_power(self.den)
            roots = np.roots(den0[::-1])
            deg = len(self.num) - 1
            return complex(max(roots, key=lambda r: abs(_peval(self.num, r))
                               / max(abs(r), 1.0) ** deg))

    # ---- serialization ----
    def to_json(self) -> dict:
        return {
            "num": [[float(c.real), float(c.imag)] for c in self.num],
            "den": [[float(c.real), float(c.imag)] for c in self.den],
        }

    def __repr__(self):
        return f"RationalFunctionZ(num={list(np.round(self.num, 6))}, den={list(np.round(self.den, 6))})"


def _coerce(x) -> RationalFunctionZ:
    if isinstance(x, RationalFunctionZ):
        return x
    return RationalFunctionZ([complex(x)])


def _split_z_power(den):
    """(v, den0) with den = z^v den0 and den0(0) != 0 (relative to 1e-13)."""
    v = int(np.argmax(np.abs(den) > 1e-13 * np.max(np.abs(den))))
    return v, den[v:]


def _mono(k: int) -> np.ndarray:
    out = np.zeros(k + 1, dtype=complex)
    out[k] = 1.0
    return out


def _divide(c, alpha):
    """Forward synthetic division c = (1 - alpha z) q + r z^deg(c).

    Returns (q, r, scale): r = sum_i c_i alpha^(deg - i) is the reversed
    polynomial at alpha, and scale the same sum over |c_i| |alpha|^(deg - i),
    the size of its rounding.  Each step multiplies the carry by alpha, so
    the division is stable for |alpha| <= 1."""
    powers = alpha ** np.arange(len(c))
    q = np.convolve(c, powers)[: len(c)]
    scale = np.convolve(np.abs(c), np.abs(powers))[len(c) - 1]
    return q[:-1], q[-1], scale


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
        return 0.0
    # N(1/alpha) = alpha^-deg(N) rn, D(1/alpha) = alpha^-deg(D) rd
    return rn / rd * alpha ** (v + len(D) - len(N))


def _laurent_part(R, alphas, residues, tol):
    """The series of R at z = 0 minus the pole terms, over the Laurent range
    -v..top; deg(den0) further terms of the remainder must vanish, or R has
    a pole outside alphas (PoleError)."""
    v, den0 = _split_z_power(R.den)
    top = max(len(R.num) - len(den0), -1)
    series = R.laurent_coeffs(-v, top + len(den0) - 1)
    ks = np.arange(-v, top + len(den0))
    scale = max(np.max(np.abs(series)), np.max(np.abs(residues), initial=0.0))
    for alpha, b in zip(alphas, residues):
        series[ks >= 0] -= b * alpha ** ks[ks >= 0]
    cut = top + v + 1
    if np.any(np.abs(series[cut:]) > tol * scale):
        raise PoleError("the series does not terminate: a pole outside the given set")
    return {int(k): complex(c) for k, c in zip(ks[:cut], series[:cut]) if c != 0}
