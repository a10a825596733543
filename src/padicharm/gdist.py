"""The G = GL_1 x Sp_2n level: the invariant kernel Phi, the n = 0 Fourier
operator, and the GL_1 shadow of the shell Fourier coefficients.

Phi(a, h) = c0 eta(a det(h + I)) |det(h + I)|^{-(2n+1)/2} is evaluated
pointwise for rational symplectic h; the full group Fourier operator is
realized only in the n = 0 degeneration (Sp_0 trivial), where it is the
classical multiplicative-shell convolution against eta and satisfies the
inversion and Plancherel identities of the abelian theory.  The shell
coefficients f_ell(chi_s) integrate eta over |a| = q^{-ell} and their sums
recover the abelian gamma value at the reflected argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import PadicharmError
from .abelian import UnitCharacter, gamma_factor
from .fxspace import FxFunction, eta_kernel, pv_convolve
from .padic import PadicElement, unit_group, unit_order, unit_part, val_p
from .symplectic import add, det, eye, is_symplectic, mat


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


def phi_rho_eval(point: GPoint, n: int, level: int, sign: int = 1) -> complex:
    """Phi(a,h) = c0 eta(a det(h+I)) |det(h+I)|^{-(2n+1)/2}, with eta the
    level coset average (pointwise for ord > -(2n+1)(level+1))."""
    from .symplectic import c0_constant
    a = point.a
    p = a.p
    if n == 0:
        dh = Fraction(1)
    else:
        h = mat([list(r) for r in point.h])
        dh = det(add(h, eye(2 * n)))
    if dh == 0:
        raise GDistError("singular locus of Phi: det(h + I) = 0")
    vh = val_p(dh, p)
    u = a.unit * unit_part(dh, p, level) % p**level
    eta = eta_kernel(n, sign, vh + a.valuation, u, p, level)
    c0 = float(c0_constant(n, p))
    return c0 * eta * float(p) ** (vh * (2 * n + 1) / 2.0)


def fourier_n0(phi: FxFunction, k0: int, u0: int, K_max: int = 40,
               sign: int = 1, tol: float = 1e-10) -> complex:
    """(Phi * phi^v)(a) at a = p^{k0} u0 for n = 0: the pv convolution of
    eta against the reflection of a compactly supported phi."""
    if phi.tail.kind != "compact":
        raise GDistError("fourier_n0 needs compactly supported input")
    p, level = phi.p, phi.level
    refl = phi.reflect()
    if refl:
        lo = min(k for k, _ in refl)
        hi = max(k for k, _ in refl) + 1
    else:
        lo, hi = 0, 1
    from .fxspace import TailSpec
    phiv = FxFunction(p, level, lo, hi, refl, TailSpec.compact())

    # the test function only sees eta through its level-N coset averages
    def kernel(k, u):
        return eta_kernel(0, sign, k, u, p, level)

    value, _, _ = pv_convolve(kernel, phiv, k0, u0, K_max=K_max, tol=tol)
    return value


def fourier_n0_table(phi: FxFunction, k_lo: int, k_hi: int, sign: int = 1,
                     K_max: int = 40) -> dict:
    """fourier_n0 on all shells k_lo..k_hi (inclusive), all cosets."""
    out = {}
    for k in range(k_lo, k_hi + 1):
        for u in unit_group(phi.p, phi.level)[0]:
            out[(k, u)] = fourier_n0(phi, k, u, K_max=K_max, sign=sign)
    return out


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


def shell_coefficient(ell: int, chi: UnitCharacter, z: complex, sign: int = 1) -> complex:
    """f_ell(chi_s) = z^ell avg_u eta_N(p^ell u) chi(u): the shell integral of
    the level-N coset average of eta against chi_s over |a| = q^{-ell}."""
    p = chi.p
    N = chi.level
    cosets = unit_group(p, N)[0]
    total = 0.0 + 0.0j
    for u in cosets:
        total += eta_kernel(0, sign, ell, u, p, N) * chi.value(u)
    return z**ell * total / len(cosets)


def shell_coefficients_sum(chi: UnitCharacter, s: complex, sign: int = 1,
                           ell_min: int = -12, ell_max: int = 60,
                           tol: float = 1e-9) -> dict:
    """Partial sums of sum_ell f_ell(chi_s) and the abelian gamma target
    Gamma(1/2, chi_s^{-1}) = gamma(1/2 - s, chi^{-1}, psi).

    Convergence needs Re(s) > -1/2 (the positive shells decay like
    q^{-ell(Re(s)+1/2)}); outside, the partial sums are reported divergent.
    """
    p = chi.p
    if complex(s).real <= -0.5:
        raise GDistError("divergent partial sums: need Re(s) > -1/2")
    z = complex(p) ** (-complex(s))
    coeffs = {}
    total = 0.0 + 0.0j
    partials = []
    stable_at = None
    for radius in range(0, max(abs(ell_min), abs(ell_max)) + 1):
        band = [0] if radius == 0 else [x for x in (radius, -radius)
                                        if ell_min <= x <= ell_max]
        if not band and radius > 0:
            continue
        for ell in band:
            c = shell_coefficient(ell, chi, z, sign)
            coeffs[ell] = c
            total += c
        partials.append(total)
        if len(partials) >= 3:
            a, b, cc = partials[-3], partials[-2], partials[-1]
            scale = max(1.0, abs(cc))
            if abs(a - b) <= tol * scale and abs(b - cc) <= tol * scale and stable_at is None:
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
