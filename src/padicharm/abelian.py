"""Characters of Z_p^x and the abelian local factors L, epsilon, gamma.

Characters are normalized by chi(p) = 1, so a quasi-character chi_s is the
pair (chi restricted to units, z = q^(-s)).  All factors are returned as
RationalFunctionZ in z:

    L(s,chi)       = 1/(1-z) unramified, 1 otherwise
    eps(s,chi,psi) = G(chi,psi) z^e, G the Gauss sum over (Z/p^e)^x
    gamma          = eps * L(1-s, chi^{-1}) / L(s, chi)
    beta(n)        = gamma(s-(2n-1)/2) * prod_{r=1..n} gamma(2s-2n+2r, chi^2)

A character of (Z/p^L)^x is its exponent a on the fixed generator g, so
chi_a(g^k) = exp(2 pi i a k / phi) with phi = phi(p^L); its conductor is
L - v_p(a).  The Gauss sums of one level come from a table built once per
(p, L, sign).  For chi_a of conductor e, the sum over (Z/p^L)^x of
chi_a^{-1}(u) psi(u / p^e) meets each class mod p^e exactly p^(L-e) times,
and with u = g^k it is coefficient a of the discrete Fourier transform of
v_e[k] = psi((g^k mod p^e) / p^e).  So for each conductor e = 1..L one FFT
of length phi gives

    G(chi_a, psi) = p^-(L-e) FFT(v_e)[a]     for every a of conductor e.

Shell data and character data are related by one convention.  A row of
values f(u) over the unit cosets, in unit_group (dlog) order u = g^k, has the
character components

    c_j = (1/phi) sum_u f(u) chi_j(u)      (character_components: inverse FFT)

and is recovered from them as

    f(u) = sum_j c_j chi_j(u)^{-1}          (coset_values: forward FFT).

The whole stack is cross-checked by a shell-sum Tate integral oracle that
never touches the closed forms.  Its shell averages avg_u f(p^k u) chi(u)
are brute-force sums over the units that do not depend on s, so they are
computed once per character; a sample s only forms the powers z^k.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import PadicharmError
from .padic import unit_group, unit_order, val_p
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

    @property
    def order_of_group(self) -> int:
        return unit_order(self.p, self.level)

    def value(self, u: int) -> complex:
        _, _, dlog = unit_group(self.p, self.level)
        k = dlog[u % self.p**self.level]
        n = self.order_of_group
        return cmath.exp(2j * cmath.pi * self.exponent * k / n)

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
        j = self.exponent * dlog * unit_order(self.p, level) // self.order_of_group
        return UnitCharacter(self.p, level, j)


def characters(p: int, level: int):
    """All characters of (Z/p^level)^x."""
    return [UnitCharacter(p, level, j) for j in range(unit_order(p, level))]


def conductor(chi: UnitCharacter) -> int:
    """Smallest e with chi trivial on 1 + p^e Z_p; e = 0 means unramified.

    1 + p^e Z_p is generated mod p^level by g^((p-1) p^(e-1)), so chi_a is
    trivial on it iff p^(level-e) divides a: e = level - v_p(a).  With
    chi(p) = 1, e = 0 forces chi to be the trivial character, which is what
    makes eps = 1 and L = 1/(1-z) in the unramified case.
    """
    return 0 if chi.exponent == 0 else chi.level - val_p(chi.exponent, chi.p)


def character_components(rows) -> np.ndarray:
    """c_j = (1/phi) sum_u f(u) chi_j(u) along the last axis, rows in unit_group order."""
    return np.fft.ifft(np.asarray(rows, dtype=complex), axis=-1)


def coset_values(components) -> np.ndarray:
    """f(u) = sum_j c_j chi_j(u)^{-1} along the last axis, the inverse of
    character_components; the result is in unit_group order."""
    return np.fft.fft(np.asarray(components, dtype=complex), axis=-1)


# ---------------------------------------------------------------- factors

def L_factor(chi: UnitCharacter) -> RationalFunctionZ:
    if conductor(chi) == 0:
        return RationalFunctionZ([1.0], [1.0, -1.0])
    return RationalFunctionZ.one()


@lru_cache(maxsize=None)
def _gauss_table(p: int, level: int, sign: int) -> np.ndarray:
    """G(chi_a, psi) for every exponent a mod phi(p^level), by one FFT per conductor."""
    elements = np.array(unit_group(p, level)[0], dtype=np.int64)
    cond = np.array([conductor(chi) for chi in characters(p, level)])
    table = np.ones(len(elements), dtype=complex)
    for e in range(1, level + 1):
        pe = p**e
        v = np.exp(sign * 2j * np.pi * (elements % pe) / pe)
        of_e = cond == e
        table[of_e] = np.fft.fft(v)[of_e] / p ** (level - e)
    return table


def gauss_sum(chi: UnitCharacter, sign: int = 1) -> complex:
    """G = sum over u in (Z/p^e)^x of chi^{-1}(u) psi(u/p^e), e = conductor."""
    if chi.is_trivial:
        return 1.0 + 0.0j
    return complex(_gauss_table(chi.p, chi.level, sign)[chi.exponent])


def epsilon_factor(chi: UnitCharacter, sign: int = 1) -> RationalFunctionZ:
    """eps(s,chi,psi) = q^{e(1/2-s)} eps(1/2,chi,psi) = G(chi,psi) z^e."""
    e = conductor(chi)
    if e == 0:
        return RationalFunctionZ.one()
    return RationalFunctionZ.z_power(e) * gauss_sum(chi, sign)


def gamma_factor(chi: UnitCharacter, sign: int = 1) -> RationalFunctionZ:
    """gamma(s,chi,psi) = eps(s,chi,psi) L(1-s,chi^{-1}) / L(s,chi)."""
    q = chi.p
    eps = epsilon_factor(chi, sign)
    l_s = L_factor(chi)
    # L(1-s, chi^{-1}): substitute z -> q^{-1}/z in L(s, chi^{-1})
    l_dual = L_factor(chi.inverse()).substitute("scale", 1.0 / q).substitute("invert")
    return eps * l_dual / l_s


def gamma_factor_shifted(chi: UnitCharacter, shift: Fraction, sign: int = 1,
                         doubled: bool = False) -> RationalFunctionZ:
    """gamma(s + shift, chi, psi), or gamma(2s + shift, chi, psi) if doubled."""
    q = chi.p
    g = gamma_factor(chi, sign)
    g = g.substitute("scale", float(q) ** (-float(shift)))
    if doubled:
        g = g.substitute("square")
    return g


@lru_cache(maxsize=None)
def beta_factor(n: int, chi: UnitCharacter, sign: int = 1) -> RationalFunctionZ:
    """beta_psi(chi_s) = gamma(s-(2n-1)/2, chi, psi) prod_r gamma(2s-2n+2r, chi^2, psi).

    The n = 0 case is the empty product: gamma(s + 1/2, chi, psi).  One
    build per (n, p, level, exponent, sign), shared by every caller.
    """
    out = gamma_factor_shifted(chi, Fraction(-(2 * n - 1), 2), sign)
    chi2 = chi.square()
    for r in range(1, n + 1):
        out = out * gamma_factor_shifted(chi2, Fraction(-2 * n + 2 * r), sign, doubled=True)
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
    q = float(chi.p)
    chi2 = chi.square()

    def l_shift(character, shift, doubled=False):
        f = L_factor(character).substitute("scale", q ** (-float(shift)))
        return f.substitute("square") if doubled else f

    a = l_shift(chi, Fraction(-(m - 1), 2))
    b = l_shift(chi, Fraction(m + 1, 2))
    for r in range(1, m // 2 + 1):
        a = a * l_shift(chi2, Fraction(-m + 2 * r), doubled=True)
        b = b * l_shift(chi2, Fraction(2 * r - 1), doubled=True)
    return a, b


# ---------------------------------------------------------------- oracle

class OracleError(PadicharmError, RuntimeError):
    pass


_TRUNCATION = 48    # shells the oracle sums; its stabilization check sums 6 more


@lru_cache(maxsize=None)
def _oracle_shells(p: int, N: int, exponent: int, sign: int):
    """The oracle's shell averages, which do not depend on s.

    Row i holds, for the oracle's i-th test-function pair (f, f^), the arrays
    avg_u f(p^k u) chi(u) and avg_u f^(p^k u) chi^{-1}(u) over the shells
    k = -N..truncation+6, for chi of this exponent mod p^N.  Both functions
    are evaluated from their definitions over (shells x units):

        ch(Z_p)              its own transform, psi having conductor Z_p;
        ch(u0 (1 + p^N Z_p)) transform q^{-N} psi(u0 y) ch(p^{-N} Z_p)(y).

    A ramified chi has Z(s, ch(Z_p), chi) = 0, so it takes the two coset
    indicators u0 = 1 and u0 = g instead.
    """
    elements, gen, _ = unit_group(p, N)
    units = np.array(elements, dtype=np.int64)
    phi = len(units)
    chi = np.exp(2j * np.pi * exponent * np.arange(phi) / phi)    # chi(g^k) = chi(units[k])
    ks = np.arange(-N, _TRUNCATION + 7)[:, None]

    def coset(u0):
        f = ((ks == 0) & (units == u0)).astype(float)
        den = p ** np.maximum(-ks, 0)      # psi(u0 y) is 1 on the shells k >= 0
        return f, p ** (-float(N)) * np.exp(sign * 2j * np.pi * (u0 * units % den) / den)

    if exponent == 0:
        ch_O = np.repeat((ks >= 0).astype(float), phi, axis=1)
        pairs = ((ch_O, ch_O), coset(1))
    else:
        pairs = (coset(1), coset(gen))
    shells = np.array([(f @ chi, fhat @ chi.conj()) for f, fhat in pairs]) / phi
    shells.setflags(write=False)    # cached: every caller gets this same array
    return shells


def tate_gamma_oracle(chi: UnitCharacter, s: complex, sign: int = 1) -> complex:
    """Z(1-s, f^, chi^{-1}) / Z(s, f, chi) by brute shell sums.

    The shell averages come from _oracle_shells, once per character; a
    sample s only takes their dot products with the powers z^k.  The ratios
    of the two test functions must agree (functional-equation uniqueness)
    and the truncation must have stabilized, else OracleError.
    """
    if not 0.0 < complex(s).real < 1.0:
        raise OracleError("sample s outside the common convergence strip 0 < Re(s) < 1")
    p, N = chi.p, chi.level
    tol = 1e-6      # the stabilization and agreement tolerance
    ks = np.arange(-N, _TRUNCATION + 7)
    za_pow = (complex(p) ** -(1 - s)) ** ks
    zb_pow = (complex(p) ** -s) ** ks
    ratios = []
    for b, a in _oracle_shells(p, N, chi.exponent, sign):
        za = a * za_pow
        za1, za2 = za[:_TRUNCATION + N + 1].sum(), za.sum()
        zb = b @ zb_pow
        if abs(za1 - za2) > tol * max(abs(za2), 1.0):
            raise OracleError(
                f"truncation not stabilized at K={_TRUNCATION}: |delta|={abs(za1 - za2):.3g}")
        if abs(zb) < 1e-14:
            raise OracleError("denominator zeta integral vanished at this sample")
        ratios.append(za2 / zb)
    if abs(ratios[0] - ratios[1]) > tol * max(abs(ratios[0]), 1.0):
        raise OracleError(
            f"gamma ratio depends on the test function: {ratios[0]} vs {ratios[1]}")
    return complex(ratios[0])
