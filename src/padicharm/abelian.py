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
never touches the closed forms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

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

    @property
    def order_of_group(self) -> int:
        return unit_order(self.p, self.level)

    def value(self, u: int) -> complex:
        _, _, dlog = unit_group(self.p, self.level)
        k = dlog[u % self.p**self.level]
        n = self.order_of_group
        return cmath.exp(2j * cmath.pi * self.exponent * k / n)

    def value_table(self) -> dict:
        elements, _, dlog = unit_group(self.p, self.level)
        n = self.order_of_group
        return {u: cmath.exp(2j * cmath.pi * self.exponent * dlog[u] / n) for u in elements}

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

    def value_minus_one(self) -> complex:
        return self.value(-1 % self.p**self.level)

    @classmethod
    def from_table(cls, p: int, level: int, table: dict, tol=1e-8) -> "UnitCharacter":
        """Build from an explicit value table, validating multiplicativity."""
        mod = p**level
        elements, gen, dlog = unit_group(p, level)
        for u in elements:
            for v in elements[: min(len(elements), 12)]:
                if abs(table[u] * table[v] - table[u * v % mod]) > tol:
                    raise CharacterError("value table is not multiplicative")
        n = unit_order(p, level)
        gval = table[gen]
        for j in range(n):
            if abs(cmath.exp(2j * cmath.pi * j / n) - gval) < tol:
                return cls(p, level, j)
        raise CharacterError("generator image is not a root of unity of the right order")


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


def epsilon_half(chi: UnitCharacter, sign: int = 1) -> complex:
    """eps(1/2,chi,psi) = q^{-e/2} G(chi,psi); modulus 1 for unitary chi."""
    e = conductor(chi)
    return gauss_sum(chi, sign) * chi.p ** (-e / 2.0)


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


def beta_factor(n: int, chi: UnitCharacter, sign: int = 1) -> RationalFunctionZ:
    """beta_psi(chi_s) = gamma(s-(2n-1)/2, chi, psi) prod_r gamma(2s-2n+2r, chi^2, psi).

    The n = 0 case is the empty product: gamma(s + 1/2, chi, psi).
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


def twist_by_pi_value(R: RationalFunctionZ, chi_at_pi: complex) -> RationalFunctionZ:
    """Recover a general chi(p) from the chi(p)=1 normal form: z -> chi(p) z."""
    return R.substitute("scale", chi_at_pi)


# ---------------------------------------------------------------- oracle

class OracleError(PadicharmError, RuntimeError):
    pass


def _shell_zeta(s: complex, chi: UnitCharacter, f, k_lo: int, k_hi: int) -> complex:
    """sum_k z^k avg_u f(p^k u) chi(u) over shells k_lo..k_hi, level = chi.level."""
    p, N = chi.p, chi.level
    z = complex(p) ** (-s)
    elements, _, _ = unit_group(p, N)
    table = chi.value_table()
    total = 0.0 + 0.0j
    for k in range(k_lo, k_hi + 1):
        sh = sum(f(k, u) * table[u] for u in elements) / len(elements)
        total += z**k * sh
    return total


def tate_gamma_oracle(chi: UnitCharacter, s: complex, sign: int = 1) -> complex:
    """Z(1-s, f^, chi^{-1}) / Z(s, f, chi) by brute shell sums.

    Uses f = ch(Z_p) and f = ch(1 + p^N Z_p) with closed-form Fourier
    transforms; the two ratios must agree (functional-equation uniqueness)
    and the truncation must have stabilized, else OracleError.
    """
    if not 0.0 < complex(s).real < 1.0:
        raise OracleError("sample s outside the common convergence strip 0 < Re(s) < 1")
    p, N = chi.p, chi.level
    chi_inv = chi.inverse()
    truncation, tol = 48, 1e-6     # shells summed, and the stabilization tolerance

    def ch_O(k, u):
        return 1.0 if k >= 0 else 0.0

    # ch_O is self-dual for psi of conductor Z_p
    def ch_O_hat(k, u):
        return 1.0 if k >= 0 else 0.0

    def coset(u0):
        # ch of u0 (1 + p^N O); hat(y) = q^{-N} psi(u0 y) ch_{p^{-N} O}(y)
        def f(k, u):
            return 1.0 if (k == 0 and u % p**N == u0 % p**N) else 0.0

        def fhat(k, u):
            if k < -N:
                return 0.0
            if k >= 0:
                return p ** (-float(N))
            return p ** (-float(N)) * psi_frac(p, u0 * u, -k, sign)

        return f, fhat

    _, gen, _ = unit_group(p, N)
    if chi.is_trivial:
        pairs = ((ch_O, ch_O_hat), coset(1))
    else:
        # Z(s, ch_O, chi) = 0 for ramified chi; use two coset translates instead
        pairs = (coset(1), coset(gen))

    ratios = []
    for f, fhat in pairs:
        za1 = _shell_zeta(1 - s, chi_inv, fhat, -N, truncation)
        za2 = _shell_zeta(1 - s, chi_inv, fhat, -N, truncation + 6)
        zb = _shell_zeta(s, chi, f, -N, truncation + 6)
        if abs(za1 - za2) > tol * max(abs(za2), 1.0):
            raise OracleError(
                f"truncation not stabilized at K={truncation}: |delta|={abs(za1 - za2):.3g}")
        if abs(zb) < 1e-14:
            raise OracleError("denominator zeta integral vanished at this sample")
        ratios.append(za2 / zb)
    if abs(ratios[0] - ratios[1]) > tol * max(abs(ratios[0]), 1.0):
        raise OracleError(
            f"gamma ratio depends on the test function: {ratios[0]} vs {ratios[1]}")
    return ratios[0]
