"""The G = GL_1 x Sp_2n level: the invariant kernel Phi, the n = 0 Fourier
operator, and the GL_1 shadow of the shell Fourier coefficients.

Phi(a, h) = c0 eta(a det(h + I)) |det(h + I)|^{-(2n+1)/2} is evaluated
pointwise for rational symplectic h; the full group Fourier operator is
realized only in the n = 0 degeneration (Sp_0 trivial), where it is the
classical multiplicative-shell convolution against eta and satisfies the
inversion and Plancherel identities of the abelian theory (Tate's thesis).
On a compactly supported phi that convolution is a finite sum over the
shells of phi^v, taken two ways: as one product in character space
(fourier_n0_table) and pointwise, kernel row by kernel row (fourier_n0).

The shell coefficients f_ell(chi_s) integrate eta over |a| = q^{-ell} and
their sums recover the abelian gamma value at the reflected argument.
Integrating against chi picks out eta's chi-component, so f_ell is read off
one Laurent series of beta, fxspace.eta_column, at z^ell.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import PadicharmError
from .abelian import (UnitCharacter, character_components, conductor, coset_values,
                      gamma_factor)
from .fxspace import FxFunction, eta_column, eta_components, eta_kernel, pv_convolve
from .padic import PadicElement, unit_group, unit_order, unit_part, val_p
from .symplectic import add, c0_constant, det, eye, is_symplectic, mat


class GDistError(PadicharmError):
    pass


@dataclass(frozen=True)
class GPoint:
    """(a, h) in GL_1(F) x Sp_2n(F) with exact rational h."""
    a: PadicElement
    h: tuple

    def __post_init__(self):
        if not self.h:
            return   # n = 0: Sp_0 is trivial
        n = len(self.h) // 2
        if not is_symplectic([list(r) for r in self.h], n):
            raise GDistError("h is not symplectic")


def phi_rho_eval(point: GPoint, level: int, sign: int = 1) -> complex:
    """Phi(a,h) = c0 eta(a det(h+I)) |det(h+I)|^{-(2n+1)/2}, h in Sp_2n, with
    eta the level coset average (pointwise for ord > -(2n+1)(level+1))."""
    a = point.a
    p = a.p
    n = len(point.h) // 2
    dh = det(add(mat(point.h), eye(2 * n)))   # 1 at n = 0, where h = ()
    if dh == 0:
        raise GDistError("singular locus of Phi: det(h + I) = 0")
    vh = val_p(dh, p)
    u = a.unit * unit_part(dh, p, level) % p**level
    eta = eta_kernel(n, sign, vh + a.valuation, u, p, level)
    c0 = float(c0_constant(n, p))
    return c0 * eta * float(p) ** (vh * (2 * n + 1) / 2.0)


def fourier_n0(phi: FxFunction, points, sign: int = 1) -> list:
    """(Phi * phi^v)(a) at each a = p^{k0} u0 of points ((k0, u0) pairs) for
    n = 0: the convolution of eta against the reflection of a compactly
    supported phi, a finite sum over the shells of phi^v.  phi is reflected
    once, each shell's row of eta is read once through eta_kernel, and
    pv_convolve sums every point in one pass."""
    if phi.tail.kind != "compact":
        raise GDistError("fourier_n0 needs compactly supported input")
    p, level = phi.p, phi.level
    cosets = unit_group(p, level)[0]
    refl = phi.reflect()
    ks = [k for k, _ in refl] or [0]
    phiv = FxFunction(p, level, min(ks), max(ks) + 1, refl)

    # the test function only sees eta through its level-N coset averages
    def kernel_row(k):
        return [eta_kernel(0, sign, k, u, p, level) for u in cosets]

    return pv_convolve(kernel_row, phiv, points)


def fourier_n0_table(phi: FxFunction, k_lo: int, k_hi: int, sign: int = 1) -> dict:
    """fourier_n0 on all shells k_lo..k_hi (inclusive), all cosets, as one
    product in character space.

    F(phi) = eta * phi^v is a convolution on Z x (Z/p^N)^x, so component j of
    F(phi) on shell k is sum_m a_j(k - m) b_j(m), with a(i) the level-N
    components of eta on shell i (eta_components) and b(m) those of phi^v's
    shell m.  phi has compact support, so the sum over m is finite, and only
    the nonzero shells of phi^v take part; the table is one transform in and
    one out.
    """
    if phi.tail.kind != "compact":
        raise GDistError("fourier_n0_table needs compactly supported input")
    p, level = phi.p, phi.level
    cosets = unit_group(p, level)[0]
    refl = phi.reflect()
    shells = [m for m, _ in refl] or [0]
    m_lo, m_hi = min(shells), max(shells)
    b = character_components([[refl.get((m, u), 0.0) for u in cosets]
                              for m in range(m_lo, m_hi + 1)])
    a = eta_components(0, sign, k_lo - m_hi, k_hi - m_lo, p, level)
    comps = [[0j] * len(cosets) for _ in range(k_hi - k_lo + 1)]
    for m, row in zip(range(m_lo, m_hi + 1), b):
        if not any(row):
            continue
        # eta shells k - m for k = k_lo..k_hi are rows m_hi - m onward of a
        for out, eta in zip(comps, a[m_hi - m:m_hi - m + len(comps)]):
            out[:] = [x + y * c for x, y, c in zip(out, eta, row)]
    return {(k, u): v for k, vals in zip(range(k_lo, k_hi + 1), coset_values(comps))
            for u, v in zip(cosets, vals)}


def l2_norm_truncated(values: dict, p: int, level: int, K: int) -> float:
    """Truncated L^2(F^x, d*a) norm^2 of shell data {(k,u): value}."""
    order = unit_order(p, level)
    total = 0.0
    for (k, u), v in values.items():
        if abs(k) <= K:
            total += abs(v) ** 2 / order
    return total


def l2_norm_fx(phi: FxFunction, K: int) -> float:
    order = unit_order(phi.p, phi.level)
    total = 0.0
    for k in range(-K, K + 1):
        for u in unit_group(phi.p, phi.level)[0]:
            total += abs(phi.evaluate(k, u)) ** 2 / order
    return total


# the shells of shell_coefficients_sum: ELL_MIN reaches every conductor e that
# the row budget lets a level have (e <= 12, at p = 3), since a character of
# conductor e >= 2 has its only nonzero coefficient at ell = -e
ELL_MIN, ELL_MAX = -12, 60
STABLE_TOL = 1e-9   # three consecutive partial sums this close are stable


def shell_coefficients_sum(chi: UnitCharacter, s: complex, sign: int = 1) -> dict:
    """Partial sums of sum_ell f_ell(chi_s) over ELL_MIN <= ell <= ELL_MAX,
    and the abelian gamma target
    Gamma(1/2, chi_s^{-1}) = gamma(1/2 - s, chi^{-1}, psi).

    f_ell = z^ell avg_u eta(p^ell u) chi(u), z = q^{-s}, is z^ell times eta's
    chi-component on shell ell, read off one eta_column of beta_psi(chi_s^{-1}).

    Convergence needs Re(s) > -1/2 (the positive shells decay like
    q^{-ell(Re(s)+1/2)}); outside, the partial sums are reported divergent.
    The shells are summed outward by radius, and three equal partial sums
    count as stable only from radius e + 2, past the support of a character
    of conductor e >= 2.
    """
    p = chi.p
    if complex(s).real <= -0.5:
        raise GDistError("divergent partial sums: need Re(s) > -1/2")
    e = conductor(chi)
    z = complex(p) ** (-complex(s))
    column = eta_column(0, chi, sign, ELL_MIN, ELL_MAX)
    coeffs = {}
    total = 0.0 + 0.0j
    partials = []
    stable_at = None
    for radius in range(ELL_MAX + 1):
        for ell in [0] if radius == 0 else [x for x in (radius, -radius) if x >= ELL_MIN]:
            c = z**ell * column[ell - ELL_MIN]
            coeffs[ell] = c
            total += c
        partials.append(total)
        if radius >= e + 2:   # so partials has radius + 1 >= 3 sums
            a, b, cc = partials[-3], partials[-2], partials[-1]
            scale = max(1.0, abs(cc))
            if abs(a - b) <= STABLE_TOL * scale and abs(b - cc) <= STABLE_TOL * scale:
                stable_at = radius
                break
    # target: gamma(1/2 - s, chi^{-1}, psi) evaluated through the closed form
    g = gamma_factor(chi.inverse(), sign)
    target = g(complex(p) ** (-0.5) / z)
    return {
        "coefficients": coeffs,
        "sum": total,
        "target": target,
        "stable_at": stable_at,
        "deviation": abs(total - target) / max(1.0, abs(target)),
    }
