"""Characters of Z_p^x and the abelian local factors L, epsilon, gamma.

Characters are normalized by chi(p) = 1, so a quasi-character chi_s is the
pair (chi restricted to units, z = q^(-s)).  All factors are returned as
RationalFunctionZ in z:

    L(s,chi)       = 1/(1-z) unramified, 1 otherwise
    eps(s,chi,psi) = G(chi,psi) z^e, G the Gauss sum over (Z/p^e)^x
    gamma          = eps * L(1-s, chi^{-1}) / L(s, chi), eps itself if ramified
    beta(n)        = gamma(s-(2n-1)/2) * prod_{r=1..n} gamma(2s-2n+2r, chi^2)

A character of (Z/p^L)^x is its exponent a on the fixed generator g, so
chi_a(g^k) = exp(2 pi i a k / phi) with phi = phi(p^L); its conductor is
L - v_p(a).  For chi_a of conductor e, a = p^(L-e) a' with p not dividing
a', and chi_a(g^k) = exp(2 pi i a' k / phi_e), phi_e = phi(p^e).  As g mod
p^e generates (Z/p^e)^x, u = g^k for k < phi_e runs over its classes once,
so G(chi_a, psi) is coefficient a' of the forward transform (coset_values) of
v_e[k] = psi((g^k mod p^e) / p^e), k < phi_e: one transform of length phi_e
per (p, L, e, sign), built the first time a character of conductor e asks,
so a verb that needs one character builds one conductor's table.

Shell data and character data are related by one convention.  A row of
values f(u) over the unit cosets, in unit_group (dlog) order u = g^k, has the
character components

    c_j = (1/phi) sum_u f(u) chi_j(u)      (character_components: inverse DFT)

and is recovered from them as

    f(u) = sum_j c_j chi_j(u)^{-1}          (coset_values: forward DFT).

Both transforms take a list of rows and return lists.  A call on rows of
at most DFT_MAX entries and of little total work, which is every call the
benchmark's verbs make, runs a plain-Python DFT; a longer or larger one runs
numpy's FFT, and only then is numpy imported.

Every gamma factor is built once per (character, sign) and shared: beta
takes gamma(chi) and gamma(chi^2) at each n, and the oracle and shell
checks take it again per character.  A RationalFunctionZ is never written
after it is built, so the callers can share one.

The whole stack is cross-checked by a shell-sum Tate integral oracle that
never touches the closed forms.  Its shell averages avg_u f(p^k u) chi(u)
are brute-force sums over the units that do not depend on s, so they are
computed once per character; the powers z^k depend on the sample s alone,
so they are formed once per sample and shared by every character.  Its
truncated sum and its full sum are read off one running sum, which stops at
a row's last nonzero shell.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from . import PadicharmError
from .padic import psi_frac, unit_group, unit_order, val_p
from .ratfunc import RationalFunctionZ


class CharacterError(PadicharmError):
    pass


@dataclass(frozen=True)
class UnitCharacter:
    """Character of (Z/p^level)^x given by its exponent on the fixed generator."""

    p: int
    level: int
    exponent: int

    def __post_init__(self):
        order = unit_order(self.p, self.level)
        object.__setattr__(self, "exponent", self.exponent % order)

    def value(self, u: int) -> complex:
        _, _, dlog = unit_group(self.p, self.level)
        k = dlog[u % self.p**self.level]
        # the dlog table holds one entry per unit: its length is the group order
        return cmath.exp(2j * cmath.pi * self.exponent * k / len(dlog))

    @property
    def is_trivial(self) -> bool:
        return self.exponent == 0

    def inverse(self) -> "UnitCharacter":
        return UnitCharacter(self.p, self.level, -self.exponent)

    def square(self) -> "UnitCharacter":
        return UnitCharacter(self.p, self.level, 2 * self.exponent)

    def at_level(self, level: int) -> "UnitCharacter":
        """The same character seen on (Z/p^level)^x; level must be >= conductor.

        On the target generator g', chi(g') = exp(2 pi i a dlog(g') / phi(p^L)),
        so the target exponent is a dlog(g') phi(p^level) / phi(p^L).  That is
        an integer once chi is trivial on 1 + p^level Z_p, because g'^phi(p^level)
        lies there."""
        if level == self.level:
            return self
        if level < conductor(self):
            raise CharacterError("cannot lower level below the conductor")
        gen = unit_group(self.p, level)[1]
        dlog = unit_group(self.p, self.level)[2][gen % self.p**self.level]
        j = self.exponent * dlog * unit_order(self.p, level) // unit_order(self.p, self.level)
        return UnitCharacter(self.p, level, j)


@lru_cache(maxsize=None)
def characters(p: int, level: int) -> tuple:
    """All characters of (Z/p^level)^x, by exponent: one cached tuple per
    (p, level), shared by every caller."""
    return tuple(UnitCharacter(p, level, j) for j in range(unit_order(p, level)))


def conductor(chi: UnitCharacter) -> int:
    """Smallest e with chi trivial on 1 + p^e Z_p; e = 0 means unramified.

    1 + p^e Z_p is generated mod p^level by g^((p-1) p^(e-1)), so chi_a is
    trivial on it iff p^(level-e) divides a: e = level - v_p(a).  With
    chi(p) = 1, e = 0 forces chi to be the trivial character, which is what
    makes eps = 1 and L = 1/(1-z) in the unramified case.
    """
    return 0 if chi.exponent == 0 else chi.level - val_p(chi.exponent, chi.p)


# numpy's FFT takes a call whose rows are longer than DFT_MAX, or whose
# plain-Python DFT would take more than DFT_WORK_MAX multiply-adds; the
# plain-Python DFT takes the rest.  Measured on a 2-core Xeon VM (Python
# 3.11.7, numpy 2.4.6): importing numpy takes 0.16 s, a DFT row of length n
# about 0.075 n^2 us (0.87 ms at n = 100).  DFT_WORK_MAX is one call that
# costs the import, 0.16 s / 0.075 us ~ 2e6, as eta-table's single call of
# kmax - kmin + 1 rows can.  DFT_MAX is a verb that does: verify fe-gl1
# transforms 88-178 rows of its longest length (88 at p = 101, level 1; 124
# at p = 5, level 3; 160 at p = 3, level 5), in calls of mostly 3 rows, so
# its Python rows cost as much as the import near n = 100, although none of
# its calls there comes near DFT_WORK_MAX.
DFT_MAX = 100
DFT_WORK_MAX = 2_000_000


@lru_cache(maxsize=None)
def _twiddles(n: int) -> tuple:
    """Row k holds exp(-2 pi i j k / n), j < n, each read off one table of
    the n-th roots of unity at index j k mod n, so no twiddle drifts.  The
    quarter turns are exact, so that a length-2 transform cancels exactly,
    as an FFT's does."""
    roots = [cmath.exp(-2j * cmath.pi * t / n) for t in range(n)]
    for q, root in enumerate((1 + 0j, -1j, -1 + 0j, 1j)):
        if q * n % 4 == 0:
            roots[q * n // 4] = root
    return tuple(tuple(roots[j * k % n] for j in range(n)) for k in range(n))


def _dft(rows, inverse: bool) -> list:
    """The DFT of each row of a list of rows, as lists: sum_j x_j w^(j k), or
    (1/n) sum_j x_j w^(-j k) when inverse, w = exp(-2 pi i / n)."""
    if not len(rows):
        return []
    n = len(rows[0])
    if n > DFT_MAX or len(rows) * n * n > DFT_WORK_MAX:
        import numpy as np
        a = np.asarray(rows, dtype=complex)
        return (np.fft.ifft(a, axis=-1) if inverse else np.fft.fft(a, axis=-1)).tolist()
    tw = _twiddles(n)
    if inverse:
        tw, scale = tw[:1] + tw[:0:-1], 1.0 / n
    else:
        scale = 1.0
    return [[sum(map(mul, row, w)) * scale for w in tw] for row in rows]


def character_components(rows) -> list:
    """c_j = (1/phi) sum_u f(u) chi_j(u) along the last axis, rows in unit_group order."""
    return _dft(rows, inverse=True)


def coset_values(components) -> list:
    """f(u) = sum_j c_j chi_j(u)^{-1} along the last axis, the inverse of
    character_components; the result is in unit_group order."""
    return _dft(components, inverse=False)


# ---------------------------------------------------------------- factors

def L_factor(chi: UnitCharacter) -> RationalFunctionZ:
    if conductor(chi) == 0:
        return RationalFunctionZ([1.0], [1.0, -1.0])
    return RationalFunctionZ.one()


@lru_cache(maxsize=None)
def _gauss_table(p: int, level: int, e: int, sign: int) -> tuple:
    """G(chi_a, psi) for the exponents a = p^(level-e) a' of conductor e, at
    index a': one transform of length phi(p^e) over the level's first
    phi(p^e) generator powers, built when a character of conductor e asks."""
    elements = unit_group(p, level)[0][:unit_order(p, e)]
    return tuple(coset_values([[psi_frac(p, u, e, sign) for u in elements]])[0])


def gauss_sum(chi: UnitCharacter, sign: int = 1) -> complex:
    """G = sum over u in (Z/p^e)^x of chi^{-1}(u) psi(u/p^e), e = conductor."""
    if chi.is_trivial:
        return 1.0 + 0.0j
    e = conductor(chi)
    row = _gauss_table(chi.p, chi.level, e, sign)
    return complex(row[chi.exponent // chi.p ** (chi.level - e)])


def epsilon_factor(chi: UnitCharacter, sign: int = 1) -> RationalFunctionZ:
    """eps(s,chi,psi) = q^{e(1/2-s)} eps(1/2,chi,psi) = G(chi,psi) z^e."""
    e = conductor(chi)
    if e == 0:
        return RationalFunctionZ.one()
    return RationalFunctionZ.z_power(e) * gauss_sum(chi, sign)


@lru_cache(maxsize=None)
def gamma_factor(chi: UnitCharacter, sign: int = 1) -> RationalFunctionZ:
    """gamma(s,chi,psi) = eps(s,chi,psi) L(1-s,chi^{-1}) / L(s,chi).

    One build per (p, level, exponent, sign); callers pass sign by position,
    so that they share the cache entry.  For ramified chi both L-factors are
    1, and gamma is eps itself."""
    eps = epsilon_factor(chi, sign)
    if conductor(chi):
        return eps
    q = chi.p
    l_s = L_factor(chi)
    # L(1-s, chi^{-1}): substitute z -> q^{-1}/z in L(s, chi^{-1})
    l_dual = L_factor(chi.inverse()).substitute("scale", 1.0 / q).substitute("invert")
    return eps * l_dual / l_s


def _shift_argument(factor: RationalFunctionZ, p: int, shift: Fraction,
                    doubled: bool = False) -> RationalFunctionZ:
    """A factor F(s) at s + shift, or at 2s + shift if doubled: z -> q^-shift z,
    then z -> z^2."""
    out = factor.substitute("scale", float(p) ** (-float(shift)))
    return out.substitute("square") if doubled else out


@lru_cache(maxsize=None)
def beta_factor(n: int, chi: UnitCharacter, sign: int = 1) -> RationalFunctionZ:
    """beta_psi(chi_s) = gamma(s-(2n-1)/2, chi, psi) prod_r gamma(2s-2n+2r, chi^2, psi).

    The n = 0 case is the empty product: gamma(s + 1/2, chi, psi).  One
    build per (n, p, level, exponent, sign), shared by every caller.
    """
    p, chi2 = chi.p, chi.square()
    out = _shift_argument(gamma_factor(chi, sign), p, Fraction(-(2 * n - 1), 2))
    for r in range(1, n + 1):
        out = out * _shift_argument(gamma_factor(chi2, sign), p, Fraction(-2 * n + 2 * r),
                                    doubled=True)
    return out


def beta_factor_inverse_argument(n: int, chi: UnitCharacter, sign: int = 1) -> RationalFunctionZ:
    """beta_psi(chi_s^{-1}) as a rational function of z = q^{-s}."""
    return beta_factor(n, chi.inverse(), sign).substitute("invert")


def ab_factors(m: int, chi: UnitCharacter):
    """(a_m, b_m): products of abelian L-factors along the Siegel orbit.

    a_m(s,chi) = L(s-(m-1)/2, chi) prod_{r=1..floor(m/2)} L(2s-m+2r, chi^2)
    b_m(s,chi) = L(s+(m+1)/2, chi) prod_{r=1..floor(m/2)} L(2s+2r-1, chi^2)
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p, L, L2 = chi.p, L_factor(chi), L_factor(chi.square())
    a = _shift_argument(L, p, Fraction(-(m - 1), 2))
    b = _shift_argument(L, p, Fraction(m + 1, 2))
    for r in range(1, m // 2 + 1):
        a = a * _shift_argument(L2, p, Fraction(-m + 2 * r), doubled=True)
        b = b * _shift_argument(L2, p, Fraction(2 * r - 1), doubled=True)
    return a, b


# ---------------------------------------------------------------- oracle

class OracleError(PadicharmError, RuntimeError):
    pass


_TRUNCATION = 48    # shells the oracle sums; its stabilization check sums 6 more
# relative bound on the truncation's drift over those 6 shells and on the
# disagreement of the two test functions' ratios: ten times the worst drift
# the verbs reach (1e-7 at p = 3, Re s = 0.7), far below a wrong factor's gap
_ORACLE_TOL = 1e-6
# a denominator zeta integral below this is a zero of Z(s, f, chi), where the
# ratio would be rounding noise; the oracle's integrals are at least 1/phi(p^N)
_ZETA_FLOOR = 1e-14


@lru_cache(maxsize=None)
def _psi_rows(p: int, N: int, u0: int, sign: int) -> tuple:
    """psi(u0 u / p^j) over the units u mod p^N in unit_group order, one row
    per shell k = -j, for k = -N..-1."""
    elements = unit_group(p, N)[0]
    return tuple(tuple(psi_frac(p, u0 * u, j, sign) for u in elements)
                 for j in range(N, 0, -1))


@lru_cache(maxsize=None)
def _oracle_shells(p: int, N: int, exponent: int, sign: int):
    """The oracle's shell averages, which do not depend on s.

    Row i holds, for the oracle's i-th test-function pair (f, f^), the tuples
    avg_u f(p^k u) chi(u) and avg_u f^(p^k u) chi^{-1}(u) over the shells
    k = -N, -N+1, ..., for chi of this exponent mod p^N, each at its natural
    length: the shells past the end of a row are zero.  Both functions are
    taken from their definitions:

        ch(Z_p)              its own transform, psi having conductor Z_p;
        ch(u0 (1 + p^N Z_p)) transform q^{-N} psi(u0 y) ch(p^{-N} Z_p)(y).

    ch(Z_p) is 1 on the shells k = 0..truncation+6.  The coset indicator lives
    on shell 0 alone, so its row is N zeros and one value.  Its transform's
    row is the N sums over the units on the shells k < 0, followed on the
    shells k >= 0 (where psi is 1) by the constant q^{-N} avg_u chi(u), which
    is 0 unless chi is trivial: only the trivial character keeps that tail,
    and a ramified one's row ends at its last nonzero sum.  A ramified chi
    has Z(s, ch(Z_p), chi) = 0, so it takes the two coset indicators u0 = 1
    and u0 = g instead.
    """
    elements, gen, dlog = unit_group(p, N)
    phi = len(elements)
    chi = list(map(UnitCharacter(p, N, exponent).value, elements))   # chi(g^k)
    chi_inv = [c.conjugate() for c in chi]
    tail = _TRUNCATION + 7                  # the shells k = 0..truncation+6
    q_N = float(p) ** -N

    def coset(u0):
        fhat = [sum(map(mul, row, chi_inv)) * q_N / phi for row in _psi_rows(p, N, u0, sign)]
        if exponent == 0:
            fhat += [complex(q_N)] * tail
        while fhat and not fhat[-1]:
            fhat.pop()
        return (0j,) * N + (chi[dlog[u0]] / phi,), tuple(fhat)

    if exponent == 0:
        ch_O = (0j,) * N + (1.0 + 0j,) * tail
        return (ch_O, ch_O), coset(1)
    return coset(1), coset(gen)


@lru_cache(maxsize=64)
def _z_powers(p: int, N: int, s: complex) -> tuple:
    """The powers x^k over the oracle's shells k = -N..truncation+6, for
    x = p^-(1-s) and x = p^-s: they depend on the sample, not the character."""
    ks = range(-N, _TRUNCATION + 7)
    xa, xb = complex(p) ** -(1 - s), complex(p) ** -s
    return tuple(xa ** k for k in ks), tuple(xb ** k for k in ks)


def tate_gamma_oracle(chi: UnitCharacter, s: complex, sign: int = 1) -> complex:
    """Z(1-s, f^, chi^{-1}) / Z(s, f, chi) by brute shell sums.

    The shell averages come from _oracle_shells, once per character, and
    the powers z^k from _z_powers, once per sample; a call only takes their
    dot products.  The ratios of the two test functions must agree
    (functional-equation uniqueness) and the truncation must have
    stabilized, else OracleError.
    """
    if not 0.0 < complex(s).real < 1.0:
        raise OracleError("sample s outside the common convergence strip 0 < Re(s) < 1")
    p, N = chi.p, chi.level
    za_pow, zb_pow = _z_powers(p, N, s)
    ratios = []
    for b, a in _oracle_shells(p, N, chi.exponent, sign):
        # the truncated sum (shells k <= _TRUNCATION) and the full one, in one
        # pass; the shells past the end of a row are zero
        za = list(accumulate(map(mul, a, za_pow)))
        za1, za2 = za[min(_TRUNCATION + N, len(za) - 1)], za[-1]
        zb = sum(map(mul, b, zb_pow))
        if abs(za1 - za2) > _ORACLE_TOL * max(abs(za2), 1.0):
            raise OracleError(
                f"truncation not stabilized at K={_TRUNCATION}: |delta|={abs(za1 - za2):.3g}")
        if abs(zb) < _ZETA_FLOOR:
            raise OracleError("denominator zeta integral vanished at this sample")
        ratios.append(za2 / zb)
    if abs(ratios[0] - ratios[1]) > _ORACLE_TOL * max(abs(ratios[0]), 1.0):
        raise OracleError(
            f"gamma ratio depends on the test function: {ratios[0]} vs {ratios[1]}")
    return complex(ratios[0])
