"""Shell-function model of smooth functions on F^x and its Mellin calculus.

An FxFunction holds finitely many shell values f(p^k u) (k in a window,
u running over unit cosets mod p^level) together with an asymptotic tail
for small |x|:

    plus  tail: a0(u) + sum_i ( ap_i(u) |x|^(i+1/2) + am_i(u) |x|^(i+1/2) (-1)^ord(x) )
    minus tail: a0(u) |x|^n + sum_i ( ap_i(u) |x|^i + am_i(u) |x|^i (-1)^ord(x) )

optionally times a global power |x|^power_shift.  The Mellin transform per
unit character is then a rational function of z whose poles sit at

    plus:  z in {1, +-q^(i+1/2)}        minus: z in {q^n, +-q^i}

and the whole dictionary FxFunction <-> MellinData is exact in both
directions (geometric summation one way, residues at z = 0 the other).

Coset rows are in unit_group (dlog) order u = g^k, and component j belongs
to chi_j(g^k) = exp(2 pi i j k / phi).  The change of axis is owned by
abelian: character_components (an inverse FFT) gives the components
(1/phi) sum_u f(u) chi_j(u) of a row, and coset_values (the forward FFT)
gives back the values sum_j c_j chi_j(u)^{-1}.  Each Mellin component is
expanded at z = 0 once, as one Laurent series.

On top of that dictionary sit the kernel eta (residues of beta against
monomials), the Fourier operator on the plus space, principal-value
convolution, and the functional-equation / Paley-Wiener verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import PadicharmError
from .abelian import (UnitCharacter, beta_factor, beta_factor_inverse_argument,
                      character_components, conductor, coset_values)
from .padic import unit_group, unit_order
from .ratfunc import PoleError, RationalFunctionZ


class FxError(PadicharmError):
    pass


class StabilizationError(PadicharmError, RuntimeError):
    pass


@dataclass(frozen=True)
class TailSpec:
    kind: str          # "compact" | "plus" | "minus"
    n: int = 0
    a0: tuple = ()     # complex per unit coset, in unit_group order
    ap: tuple = ()     # ap[i] is a tuple over cosets, i = 0..n-1
    am: tuple = ()

    @classmethod
    def compact(cls):
        return cls(kind="compact")


@dataclass(frozen=True)
class FxFunction:
    p: int
    level: int
    k_min: int
    k_tail: int
    values: dict = field(default_factory=dict)   # (k, u) -> complex, k_min <= k < k_tail
    tail: TailSpec = field(default_factory=TailSpec.compact)
    power_shift: Fraction = Fraction(0)

    @property
    def cosets(self):
        return unit_group(self.p, self.level)[0]

    def evaluate(self, k: int, u: int) -> complex:
        u = u % self.p**self.level
        if k < self.k_min:
            return 0.0 + 0.0j
        if k < self.k_tail or self.tail.kind == "compact":
            return complex(self.values.get((k, u), 0.0))
        return self._tail_value(k, u)

    def _tail_value(self, k: int, u: int) -> complex:
        q = float(self.p)
        idx = self.cosets.index(u)
        shift = q ** (-k * float(self.power_shift))
        t = self.tail
        if t.kind == "plus":
            out = t.a0[idx]
            for i in range(t.n):
                out = out + (t.ap[i][idx] + (-1) ** k * t.am[i][idx]) * q ** (-k * (i + 0.5))
            return shift * out
        if t.kind == "minus":
            out = t.a0[idx] * q ** (-k * t.n)
            for i in range(t.n):
                out = out + (t.ap[i][idx] + (-1) ** k * t.am[i][idx]) * q ** (-k * i)
            return shift * out
        raise FxError(f"unknown tail kind {t.kind}")

    def scale_by_power(self, c) -> "FxFunction":
        """Multiply by |x|^c (c rational, half-integers allowed)."""
        c = Fraction(c)
        q = float(self.p)
        vals = {(k, u): v * q ** (-k * float(c)) for (k, u), v in self.values.items()}
        return FxFunction(self.p, self.level, self.k_min, self.k_tail, vals,
                          self.tail, self.power_shift + c)

    def at_level(self, level: int) -> "FxFunction":
        """The same function seen at a finer invariance level."""
        if level == self.level:
            return self
        if level < self.level:
            raise FxError("cannot coarsen the level")
        fine = unit_group(self.p, level)[0]
        mod = self.p**self.level
        vals = {}
        for (k, u), v in self.values.items():
            for w in fine:
                if w % mod == u:
                    vals[(k, w)] = v
        t = self.tail
        if t.kind == "compact":
            tail = t
        else:
            coarse = self.cosets
            idx = {u: i for i, u in enumerate(coarse)}

            def lift(row):
                return tuple(row[idx[w % mod]] for w in fine)

            tail = TailSpec(t.kind, t.n, lift(t.a0),
                            tuple(lift(r) for r in t.ap),
                            tuple(lift(r) for r in t.am))
        return FxFunction(self.p, level, self.k_min, self.k_tail, vals, tail,
                          self.power_shift)

    def reflect(self) -> dict:
        """Pointwise values of f(x^{-1}) on the shells where f is known exactly.

        Only usable for compact tails; general reflection is done at call
        sites through evaluate().
        """
        if self.tail.kind != "compact":
            raise FxError("reflect() needs compact support")
        mod = self.p**self.level
        return {(-k, pow(u, -1, mod)): v for (k, u), v in self.values.items()}

    def __add__(self, other: "FxFunction") -> "FxFunction":
        if (self.p, self.level) != (other.p, other.level):
            raise FxError("incompatible levels")
        if self.tail.kind != "compact" or other.tail.kind != "compact":
            # general addition goes through Mellin data at call sites
            raise FxError("direct addition only for compact functions")
        k_min = min(self.k_min, other.k_min)
        k_tail = max(self.k_tail, other.k_tail)
        vals = {}
        for k in range(k_min, k_tail):
            for u in self.cosets:
                v = self.evaluate(k, u) + other.evaluate(k, u)
                if v != 0:
                    vals[(k, u)] = v
        return FxFunction(self.p, self.level, k_min, k_tail, vals, TailSpec.compact())

    def __mul__(self, c) -> "FxFunction":
        vals = {ku: v * c for ku, v in self.values.items()}
        t = self.tail
        if t.kind == "compact":
            tail = t
        else:
            tail = TailSpec(t.kind, t.n,
                            tuple(a * c for a in t.a0),
                            tuple(tuple(a * c for a in row) for row in t.ap),
                            tuple(tuple(a * c for a in row) for row in t.am))
        return FxFunction(self.p, self.level, self.k_min, self.k_tail, vals,
                          tail, self.power_shift)

    def to_json(self) -> dict:
        t = self.tail
        tail: dict = {"kind": t.kind, "n": t.n}
        if t.kind != "compact":
            tail["a0"] = [[v.real, v.imag] for v in t.a0]
            tail["ap"] = [[[v.real, v.imag] for v in row] for row in t.ap]
            tail["am"] = [[[v.real, v.imag] for v in row] for row in t.am]
        return {
            "p": self.p,
            "level": self.level,
            "k_min": self.k_min,
            "k_tail": self.k_tail,
            "power_shift": [self.power_shift.numerator, self.power_shift.denominator],
            "shells": [
                {"k": k, "coset": u, "re": complex(v).real, "im": complex(v).imag}
                for (k, u), v in sorted(self.values.items())
            ],
            "tail": tail,
        }

    @classmethod
    def from_json(cls, obj) -> "FxFunction":
        t = obj["tail"]
        if t["kind"] == "compact":
            tail = TailSpec.compact()
        else:
            tail = TailSpec(
                t["kind"], t["n"],
                tuple(complex(a, b) for a, b in t["a0"]),
                tuple(tuple(complex(a, b) for a, b in row) for row in t["ap"]),
                tuple(tuple(complex(a, b) for a, b in row) for row in t["am"]),
            )
        vals = {(s["k"], s["coset"]): complex(s["re"], s["im"]) for s in obj["shells"]}
        num, den = obj.get("power_shift", [0, 1])
        return cls(obj["p"], obj["level"], obj["k_min"], obj["k_tail"], vals, tail,
                   Fraction(num, den))


def one_k(p: int, k: int, level: int | None = None) -> FxFunction:
    """Normalized indicator of 1 + p^k Z_p (d*-volume 1), at the given level >= k."""
    if k < 1:
        raise FxError("one_k needs k >= 1")
    level = k if level is None else level
    if level < k:
        raise FxError("level must be >= k")
    mod = p**level
    vals = {(0, u): complex(unit_order(p, k)) for u in unit_group(p, level)[0]
            if u % p**k == 1}
    return FxFunction(p, level, 0, 1, vals, TailSpec.compact())


def indicator_units(p: int, level: int) -> FxFunction:
    vals = {(0, u): 1.0 + 0.0j for u in unit_group(p, level)[0]}
    return FxFunction(p, level, 0, 1, vals, TailSpec.compact())


def indicator_integers(p: int, level: int) -> FxFunction:
    """ch(Z_p - 0) as an FxFunction: plus-class tail with a0 = 1."""
    cosets = unit_group(p, level)[0]
    ones = tuple(1.0 + 0.0j for _ in cosets)
    return FxFunction(p, level, 0, 0, {}, TailSpec("plus", 0, ones, (), ()))


# ------------------------------------------------------------- Mellin data

@dataclass
class MellinData:
    p: int
    level: int
    comps: dict          # exponent j -> RationalFunctionZ
    pole_class: tuple | None = None   # ("plus"|"minus", n) hint

    def character(self, j: int) -> UnitCharacter:
        return UnitCharacter(self.p, self.level, j)

    def component(self, chi: UnitCharacter) -> RationalFunctionZ:
        chi = chi.at_level(self.level)
        return self.comps.get(chi.exponent, RationalFunctionZ.zero())

    def __add__(self, other: "MellinData") -> "MellinData":
        if (self.p, self.level) != (other.p, other.level):
            raise FxError("incompatible Mellin data")
        comps = dict(self.comps)
        for j, R in other.comps.items():
            comps[j] = comps[j] + R if j in comps else R
        return MellinData(self.p, self.level, comps, self.pole_class)

    def is_zero(self, tol=1e-10) -> bool:
        return all(R.is_zero(tol) for R in self.comps.values())


def mellin_transform(f: FxFunction) -> MellinData:
    """M(f)(z, chi) = sum_k z^k (1/phi(p^N)) sum_u f(p^k u) chi(u), closed form."""
    p, N = f.p, f.level
    cosets = unit_group(p, N)[0]
    ks = range(f.k_min, f.k_tail)
    window = character_components(
        np.array([[f.values.get((k, u), 0.0) for u in cosets] for k in ks],
                 dtype=complex).reshape(len(ks), len(cosets)))
    t = f.tail
    if t.kind == "compact":
        tail, terms = np.zeros((0, len(cosets))), []
    else:
        # rows in allowed_alphas order (a0, then ap_i, am_i); the row of pole
        # slot alpha sums to (q^-sigma alpha z)^k over k >= k_tail
        tail = character_components([t.a0, *(row for pair in zip(t.ap, t.am) for row in pair)])
        shift = float(p) ** -float(f.power_shift)
        terms = [RationalFunctionZ.geometric(shift * alpha, f.k_tail)
                 for alpha, _ in allowed_alphas(t.kind, t.n, float(p))]
    comps = {}
    for j in range(len(cosets)):
        R = RationalFunctionZ.from_laurent(
            {k: sh for k, sh in zip(ks, window[:, j]) if sh != 0})
        for coef, term in zip(tail[:, j], terms):
            if coef != 0:
                R = R + term * coef
        comps[j] = R
    klass = None if t.kind == "compact" else (t.kind, t.n)
    return MellinData(p, N, comps, klass)


def _component_series(Z: MellinData, lo: int, hi: int) -> np.ndarray:
    """Laurent coefficients z^lo..z^hi of every nonzero component, as rows
    k = lo..hi over the character exponents j."""
    out = np.zeros((hi - lo + 1, unit_order(Z.p, Z.level)), dtype=complex)
    for j, R in Z.comps.items():
        if not R.is_zero(1e-13):
            out[:, j] = R.laurent_coeffs(lo, hi)
    return out


def mellin_inverse(Z: MellinData, k: int, u: int) -> complex:
    """f(p^k u) = sum_chi Res_{z=0}(Z(z,chi) z^(-k-1)) chi(u)^{-1}."""
    dlog = unit_group(Z.p, Z.level)[2]
    return complex(coset_values(_component_series(Z, k, k))[0, dlog[u % Z.p**Z.level]])


def allowed_alphas(kind: str, n: int, q: float):
    """Pole data as (alpha, slot) with slot in {('a0',), ('ap', i), ('am', i)}."""
    out = []
    if kind == "plus":
        out.append((1.0, ("a0",)))
        for i in range(n):
            out.append((q ** -(i + 0.5), ("ap", i)))
            out.append((-(q ** -(i + 0.5)), ("am", i)))
    elif kind == "minus":
        out.append((q ** -float(n), ("a0",)))
        for i in range(n):
            out.append((q ** -float(i), ("ap", i)))
            out.append((-(q ** -float(i)), ("am", i)))
    else:
        raise FxError(f"unknown class kind {kind}")
    return out


def fx_from_mellin(Z: MellinData, kind: str, n: int) -> FxFunction:
    """Materialize the shell function with the stated pole class (power shift 0)."""
    p, N = Z.p, Z.level
    cosets = unit_group(p, N)[0]
    alphas = [alpha for alpha, _ in allowed_alphas(kind, n, float(p))]

    # residues b per (pole slot, character exponent j), slots in alphas order
    residues = np.zeros((len(alphas), len(cosets)), dtype=complex)
    laurents = {}
    for j, R in Z.comps.items():
        if R.is_zero(1e-13):
            continue
        try:
            laurents[j], residues[:, j] = R.partial_fractions(alphas)
        except PoleError as exc:
            raise FxError(f"chi exponent {j} leaves the {kind}({n}) class: {exc}") from exc
    keys = [k for laurent in laurents.values() for k in laurent]
    k_min, k_tail = min(keys + [0]), max(keys + [0]) + 1

    # shell k of component j: its Laurent coefficient plus the pole terms b alpha^k
    ks = np.arange(k_min, k_tail)[:, None]
    series = np.where(ks >= 0, np.array(alphas) ** ks, 0.0) @ residues
    for j, laurent in laurents.items():
        for k, c in laurent.items():
            series[k - k_min, j] += c
    shells = coset_values(series).tolist()
    vals = {(k, u): v for k, row in zip(range(k_min, k_tail), shells)
            for u, v in zip(cosets, row) if v != 0}
    # slot rows come in allowed_alphas order: a0, then ap_i, am_i for each i
    rows = [tuple(row) for row in coset_values(residues).tolist()]
    tail = TailSpec(kind, n, rows[0], tuple(rows[1::2]), tuple(rows[2::2]))
    return FxFunction(p, N, k_min, k_tail, vals, tail, Fraction(0))


# --------------------------------------------------- Paley-Wiener checking

def class_denominator(chi: UnitCharacter, kind: str, n: int) -> RationalFunctionZ:
    """The L-product a Mellin component of the given class must divide into,
    restricted to the factors beta can carry: (1 - z)-type factors only for
    unramified chi, z^2-type factors only for unramified chi^2."""
    q = float(chi.p)
    D = RationalFunctionZ.one()
    e, e2 = conductor(chi), conductor(chi.square())
    if kind == "plus":
        if e == 0:
            D = D * RationalFunctionZ([1.0], [1.0, -1.0])
        for i in range(n):
            if e2 == 0:
                D = D * RationalFunctionZ([1.0], [1.0, 0.0, -q ** -(2 * i + 1)])
    elif kind == "minus":
        if e == 0:
            D = D * RationalFunctionZ([1.0], [1.0, -q ** -float(n)])
        for i in range(n):
            if e2 == 0:
                D = D * RationalFunctionZ([1.0], [1.0, 0.0, -q ** -float(2 * i)])
    else:
        raise FxError(f"unknown class kind {kind}")
    return D


def check_paley_wiener(Z: MellinData, kind: str, n: int):
    """True iff every component over its class L-product is a Laurent polynomial.

    Returns (ok, witness); the witness names the offending character exponent
    and pole location.
    """
    for j, R in Z.comps.items():
        if R.is_zero(1e-13):
            continue
        chi = Z.character(j)
        quotient = R / class_denominator(chi, kind, n)
        w = quotient.laurent_polynomial_witness()
        if w is not None:
            return False, {"chi_exponent": j, "pole": w,
                           "conductor": conductor(chi),
                           "conductor_sq": conductor(chi.square())}
    return True, None


# ----------------------------------------------------------- eta and L-op

@lru_cache(maxsize=None)
def _beta_inv_cached(n: int, p: int, level: int, j: int, sign: int) -> RationalFunctionZ:
    return beta_factor_inverse_argument(n, UnitCharacter(p, level, j), sign)


@lru_cache(maxsize=None)
def _eta_coeff(n: int, p: int, level: int, sign: int, k: int):
    """The nonzero residues of shell k at this level, as vectors (js, cs):
    cs[i] = Res_{z=0} beta_psi(chi_s^{-1}) z^{-k-1} for chi of exponent js[i]."""
    cs = np.array([_beta_inv_cached(n, p, level, j, sign).laurent_coeff_at_zero(k)
                   for j in range(unit_order(p, level))], dtype=complex)
    js = np.flatnonzero(cs)
    return js, cs[js]


def eta_components(n: int, sign: int, lo: int, hi: int, p: int, level: int) -> np.ndarray:
    """Rows k = lo..hi of eta's level-N character components: entry (k, j) is
    Res_{z=0} beta_psi(chi_j,s^{-1}) z^{-k-1}, the _eta_coeff residue, so that
    eta_kernel on shell k is coset_values of row k."""
    out = np.zeros((hi - lo + 1, unit_order(p, level)), dtype=complex)
    for k in range(lo, hi + 1):
        js, cs = _eta_coeff(n, p, level, sign, k)
        out[k - lo, js] = cs
    return out


@lru_cache(maxsize=None)
def _eta_values(n: int, p: int, level: int, sign: int, k: int) -> np.ndarray:
    """eta_kernel on every coset of shell k, in unit_group order."""
    return coset_values(eta_components(n, sign, k, k, p, level))[0]


def eta_kernel(n: int, sign: int, k: int, u: int, p: int, level: int) -> complex:
    """(eta * 1_N^v)(p^k u): eta averaged over the coset p^k u (1 + p^N Z_p),
    N = level, which is all a level-N caller ever sees of it.

    The average keeps exactly the characters of conductor <= N, so it is

        sum_{e(chi) <= N} chi(u)^{-1} Res_{z=0} beta_psi(chi_s^{-1}) z^{-k-1},

    the coset values of shell k's component vector (eta_components), one
    forward FFT per shell, cached, and looked up here by dlog(u).
    It also equals the pointwise kernel for k > -(2n+1)(N+1): at odd p,
    e(chi^2) = e(chi) whenever chi^2 is ramified, so a character of
    conductor e >= 2 feeds only the shell -(2n+1)e, and every character the
    average drops has e > N.
    """
    d = unit_group(p, level)[2][u % p**level]
    return complex(_eta_values(n, p, level, sign, k)[d])


def fourier_L(f: FxFunction, n: int, sign: int = 1) -> FxFunction:
    """The Fourier operator on the plus space via the Mellin route:

    L(f)(t) = |t|^{(2n+1)/2} M^{-1}( beta_psi(chi_s^{-1})
                                     M(f |.|^{(2n+1)/2})(z^{-1}, chi^{-1}) )(t).
    """
    p, N = f.p, f.level
    q = float(p)
    ok, witness = check_paley_wiener(mellin_transform(f.scale_by_power(2 * n)), "plus", n)
    if not ok:
        raise FxError(f"input is not in the pvs plus space: {witness}")
    Zg = mellin_transform(f.scale_by_power(Fraction(2 * n + 1, 2)))
    order = unit_order(p, N)
    comps = {}
    for j in range(order):
        mirror = Zg.comps.get(-j % order, RationalFunctionZ.zero())
        if mirror.is_zero(1e-13):
            continue
        comps[j] = _beta_inv_cached(n, p, N, j, sign) * mirror.substitute("invert")
    # comps is M(L(f) |.|^{-(2n+1)/2}); L(f) lands in |.|^{n+1} S^-_{n,beta},
    # so shift by |.|^{-1/2} more to reach the shift-free minus class
    V = MellinData(p, N, {j: R.substitute("scale", q**0.5) for j, R in comps.items()},
                   ("minus", n))
    ok, witness = check_paley_wiener(V, "minus", n)
    if not ok:
        raise FxError(f"transform left the minus class (this should not happen): {witness}")
    out = fx_from_mellin(V, "minus", n)
    return out.scale_by_power(Fraction(n + 1))


def pv_convolve(kernel, f: FxFunction, k0: int, u0: int, K_max: int,
                tol: float = 1e-9):
    """Principal-value convolution sum_shells kernel(x) f(x^{-1} t), t = p^k0 u0.

    kernel is a callable (k, u) -> complex at f's level.  Returns
    (value, k_stable, partial_sums); stability means three consecutive
    truncations within tol.
    """
    p, N = f.p, f.level
    mod = p**N
    cosets = unit_group(p, N)[0]
    order = len(cosets)
    # the coset u0 u^{-1} of f that meets kernel coset u, the same on every shell
    targets = [u0 * pow(u, -1, mod) % mod for u in cosets]
    partial_sums = []
    total = 0.0 + 0.0j
    # radii that have not yet swept past the support window of f cannot be
    # trusted for stabilization (leading zeros are not convergence)
    K_start = max(2, abs(k0 - f.k_min), abs(k0 - (f.k_tail - 1)))
    for K in range(K_max + 1):
        band = [K] if K == 0 else [K, -K]
        for i in band:
            sh = 0.0 + 0.0j
            for u, target in zip(cosets, targets):
                fv = f.evaluate(k0 - i, target)
                if fv != 0:
                    sh += kernel(i, u) * fv
            total += sh / order
        partial_sums.append(total)
        if K >= K_start:
            a, b, c = partial_sums[-3], partial_sums[-2], partial_sums[-1]
            scale = max(1.0, abs(c))
            if abs(a - b) <= tol * scale and abs(b - c) <= tol * scale:
                return total, K, partial_sums
    raise StabilizationError(
        f"pv convolution did not stabilize by K={K_max}; trace={partial_sums}")


def fe_gl1_sides(f: FxFunction, n: int, sign: int = 1):
    """The character-free parts of the GL(1) functional equation, once per f:
    (M(L(f) |.|^{-(2n+1)/2}), M(f |.|^{(2n+1)/2})).  fe_gl1_compare reads one
    character off each."""
    Lf = fourier_L(f, n, sign)
    return (mellin_transform(Lf.scale_by_power(Fraction(-(2 * n + 1), 2))),
            mellin_transform(f.scale_by_power(Fraction(2 * n + 1, 2))))


def fe_gl1_compare(sides, n: int, chi: UnitCharacter, sign: int = 1) -> dict:
    """Compare M(L(f) |.|^{-(2n+1)/2})(z^{-1}, chi^{-1}) with
    beta_psi(chi_s) M(f |.|^{(2n+1)/2})(z, chi), as rational functions."""
    A, B = sides
    chi = chi.at_level(B.level)
    lhs = A.component(chi.inverse()).substitute("invert")
    rhs = beta_factor(n, chi, sign) * B.component(chi)
    q = float(B.p)
    z_samples = [0.45 * q ** -0.5, 0.8 * q ** -0.5 * 1j,
                 (0.3 + 0.4j) * q ** -0.5, -0.22, 0.15 - 0.33j]
    dev = lhs.max_relative_deviation(rhs, z_samples)
    return {
        "max_deviation": dev,
        "ratfunc_equal": lhs.equals(rhs, tol=1e-8),
        "lhs": lhs,
        "rhs": rhs,
    }


def check_fe_gl1(f: FxFunction, n: int, chi: UnitCharacter, sign: int = 1) -> dict:
    """The GL(1) functional equation of f at one character (see fe_gl1_compare)."""
    return fe_gl1_compare(fe_gl1_sides(f, n, sign), n, chi, sign)
