"""Rational functions of z = q^(-s) with complex coefficients.

The Mellin machinery manipulates these through three substitutions
(z -> c*z for s-shifts, z -> z^2 for s -> 2s, z -> 1/z for s -> -s),
Laurent coefficients at z = 0 (residue inversion), and partial fractions
whose pole terms b/(1 - a*z) carry the asymptotic data of shell functions.

Polynomials are numpy arrays of complex coefficients in ascending order.
Equality is decided by cross-multiplied evaluation at fixed sample points
off the unit circle.
"""

from __future__ import annotations

import cmath
import numpy as np

from . import PadicharmError

_EQ_TOL = 1e-8
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
    def const(cls, c) -> "RationalFunctionZ":
        return cls([complex(c)])

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
        power-series division of num by the z-power-free part of den."""
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

    def laurent_coeff_at_zero(self, m: int) -> complex:
        """Coefficient of z^m, i.e. Res_{z=0}(R(z) z^(-m-1))."""
        return complex(self.laurent_coeffs(m, m)[0])

    # ---- partial fractions ----
    def partial_fractions(self, sep_threshold=1e-4):
        """Laurent part + pole terms.

        Returns (laurent: dict[int, complex], poles: list[(alpha, [b1, b2...])])
        where each pole term is sum_j b_j/(1 - alpha z)^j (pole at z = 1/alpha).
        Multiplicity at most 2; closer root clusters raise PoleError.
        A z^v factor in the denominator becomes negative Laurent exponents.
        """
        v, den0 = _split_z_power(self.den)
        num = self.num / den0[0]
        den0 = den0 / den0[0]

        roots = np.roots(den0[::-1]) if len(den0) > 1 else np.array([])
        groups = _cluster_roots(roots, sep_threshold)

        laurent: dict[int, complex] = {}
        poles = []
        # polynomial part of num/den0
        if len(num) - 1 >= len(den0) - 1 and len(den0) > 1:
            quot, num = _polydiv(num, den0)
        elif len(den0) == 1:
            quot, num = num.copy(), np.zeros(1, dtype=complex)
        else:
            quot = np.zeros(0, dtype=complex)
        for j, cj in enumerate(quot):
            if abs(cj) > 1e-12:
                laurent[j - v] = laurent.get(j - v, 0.0) + complex(cj)

        for root, mult in groups:
            if abs(root) < 1e-12:
                raise PoleError("denominator has a genuine pole at z = 0 beyond its z-power")
            alpha = 1.0 / root
            rest = den0.copy()
            for _ in range(mult):
                rest = _polydiv_exact_root(rest, root)
            # den0 = rest (z-root)^mult and (1-alpha z)^mult = (-alpha)^mult (z-root)^mult,
            # so num/den0 = h(z)/(1-alpha z)^mult with h = (-alpha)^mult num/rest
            c_m = (-alpha) ** mult
            if mult == 1:
                bs = [complex(c_m * _peval(num, root) / _peval(rest, root))]
            else:
                h0 = c_m * _peval(num, root) / _peval(rest, root)
                dh = c_m * (_peval(_pderiv(num), root) * _peval(rest, root)
                            - _peval(num, root) * _peval(_pderiv(rest), root)) / _peval(rest, root) ** 2
                # h(z) ~ h0 + dh (z-root) and (z-root) = -(1-alpha z)/alpha
                bs = [complex(-dh / alpha), complex(h0)]
            if v == 0:
                poles.append((complex(alpha), bs))
                continue
            # fold z^(-v): b/(1-az)^j z^(-v) = head Laurent terms + shifted pole terms
            folded = [0.0 + 0.0j] * len(bs)
            for j, b in enumerate(bs, start=1):
                if j == 1:
                    folded[0] += b * alpha**v
                    for t in range(1, v + 1):
                        laurent[-t] = laurent.get(-t, 0.0) + b * alpha ** (v - t)
                else:  # j == 2: sum (m+v+1) a^(m+v) z^m
                    folded[1] += b * alpha**v
                    folded[0] += b * v * alpha**v
                    for t in range(1, v + 1):
                        laurent[-t] = laurent.get(-t, 0.0) + b * (v - t + 1) * alpha ** (v - t)
            poles.append((complex(alpha), folded))
        return laurent, poles

    def resum(self, laurent, poles) -> "RationalFunctionZ":
        out = RationalFunctionZ.from_laurent(laurent)
        for alpha, bs in poles:
            base = RationalFunctionZ([1.0], [1.0, -alpha])
            term = RationalFunctionZ.one()
            for b in bs:
                term = term * base
                out = out + term * b
        return out

    # ---- Laurent-polynomial test ----
    def laurent_polynomial_witness(self, tol=1e-8):
        """None if R is a Laurent polynomial, else an offending pole z0."""
        if self.is_zero():
            return None
        _, den0 = _split_z_power(self.den)
        if len(den0) == 1:
            return None
        roots = np.roots((den0 / den0[0])[::-1])
        nscale = max(np.max(np.abs(self.num)), 1e-300)
        for root, mult in _cluster_roots(roots, 1e-6):
            # the root must cancel in num to multiplicity >= mult
            cur = self.num
            for _ in range(mult):
                val = _peval(cur, root)
                if abs(val) > tol * nscale * max(abs(root), 1.0) ** max(len(cur) - 1, 0):
                    return complex(root)
                cur = _deflate(cur, root)
        return None

    def is_laurent_polynomial(self, tol=1e-8) -> bool:
        return self.laurent_polynomial_witness(tol) is None

    # ---- serialization ----
    def to_json(self) -> dict:
        return {
            "num": [[float(c.real), float(c.imag)] for c in self.num],
            "den": [[float(c.real), float(c.imag)] for c in self.den],
        }

    @classmethod
    def from_json(cls, obj) -> "RationalFunctionZ":
        num = [complex(a, b) for a, b in obj["num"]]
        den = [complex(a, b) for a, b in obj["den"]]
        return cls(num, den)

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


def _pderiv(c):
    if len(c) <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, len(c))


def _polydiv(num, den):
    """Ascending-order polynomial division: num = quot*den + rem."""
    q, r = np.polydiv(num[::-1], den[::-1])
    q = np.atleast_1d(q)[::-1].astype(complex)
    r = np.atleast_1d(r)[::-1].astype(complex)
    return q, _trim(r)


def _polydiv_exact_root(c, root):
    """Deflate one factor (z - root) out of c (ascending coeffs)."""
    d = np.atleast_1d(np.polydiv(c[::-1], np.array([1.0, -root]))[0])[::-1]
    return d.astype(complex)


def _deflate(c, root):
    return _polydiv_exact_root(c, root)


def _cluster_roots(roots, sep_threshold):
    """Group numerically coincident roots; multiplicity > 2 is rejected."""
    used = [False] * len(roots)
    groups = []
    order = np.argsort(np.abs(roots)) if len(roots) else []
    for i in order:
        if used[i]:
            continue
        cluster = [roots[i]]
        used[i] = True
        for j in order:
            if used[j]:
                continue
            if abs(roots[j] - roots[i]) < sep_threshold * max(1.0, abs(roots[i])):
                cluster.append(roots[j])
                used[j] = True
        if len(cluster) > 2:
            raise PoleError("ill-conditioned poles: cluster of multiplicity > 2")
        groups.append((np.mean(cluster), len(cluster)))
    return groups
