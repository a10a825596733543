"""Shell-function model of smooth functions on F^x and its Mellin calculus.

An FxFunction holds finitely many shell values f(p^k u) (k in a window,
u running over unit cosets mod p^level) together with an asymptotic tail
for small |x| = q^-k, one geometric term per pole of its class:

    f(p^k u) = q^(-k power_shift) sum_i rows[i](u) alpha_i^k,   k >= k_tail,

    plus:  alpha in {1, +-q^-(i+1/2)}       minus: alpha in {q^-n, +-q^-i}

(i < n, in allowed_alphas order).  The Mellin transform per unit character
is then a rational function of z with simple poles at z = 1/alpha only, and
the whole dictionary FxFunction <-> MellinData is exact in both directions
(geometric summation one way, residues at z = 0 the other).  The way back,
fx_from_mellin, is also the Paley-Wiener test: a component may carry only
the poles its character's beta can carry, the first slot for unramified
chi and the +-alpha pairs for unramified chi^2.

Coset rows are in unit_group (dlog) order u = g^k, and component j belongs
to chi_j(g^k) = exp(2 pi i j k / phi).  The change of axis is owned by
abelian: character_components (an inverse DFT) gives the components
(1/phi) sum_u f(u) chi_j(u) of a row, and coset_values (the forward DFT)
gives back the values sum_j c_j chi_j(u)^{-1}.  Rows are lists of complex.
Each Mellin component is expanded at z = 0 once, as one Laurent series.

On top of that dictionary sit the kernel eta (residues of beta against
monomials), the Fourier operator on the plus space, the finite convolution
of a kernel against a compactly supported f, and the functional-equation
compare, whose two sides each build their own M(f |.|^{(2n+1)/2}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import PadicharmError
from .abelian import (UnitCharacter, beta_factor, beta_factor_inverse_argument,
                      character_components, characters, coset_values)
from .padic import unit_group, unit_order
from .ratfunc import PoleError, RationalFunctionZ, _laurent_range, _split_z_power

# a Mellin component whose numerator is this small against its denominator
# is zero: in fe-gl1 and fe-pvs runs the vanishing ones are below 1e-16 and
# the others above 1e-6
ZERO_COMPONENT_TOL = 1e-13


class FxError(PadicharmError):
    pass


@dataclass(frozen=True)
class TailSpec:
    kind: str          # "compact" | "plus" | "minus"
    rows: tuple = ()   # rows[i]: the residue at allowed_alphas(kind, n, q)[i],
                       # complex per unit coset in unit_group order

    @property
    def n(self) -> int:
        return len(self.rows) // 2

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
        idx = unit_group(self.p, self.level)[2][u]
        t = self.tail
        total = sum(row[idx] * alpha**k
                    for row, alpha in zip(t.rows, allowed_alphas(t.kind, t.n, q)))
        return q ** (-k * float(self.power_shift)) * total

    def scale_by_power(self, c) -> "FxFunction":
        """Multiply by |x|^c (c rational, half-integers allowed)."""
        c = Fraction(c)
        q, e = float(self.p), float(c)
        factor = {k: q ** (-k * e) for k in {k for k, _ in self.values}}
        vals = {(k, u): v * factor[k] for (k, u), v in self.values.items()}
        return FxFunction(self.p, self.level, self.k_min, self.k_tail, vals,
                          self.tail, self.power_shift + c)

    def reflect(self) -> dict:
        """Pointwise values of f(x^{-1}) on the shells where f is known exactly.

        Only usable for compact tails; general reflection is done at call
        sites through evaluate().
        """
        if self.tail.kind != "compact":
            raise FxError("reflect() needs compact support")
        mod = self.p**self.level
        return {(-k, pow(u, -1, mod)): v for (k, u), v in self.values.items()}

    def to_json(self) -> dict:
        t = self.tail
        tail: dict = {"kind": t.kind, "n": t.n}
        if t.kind != "compact":
            # the rows follow allowed_alphas: a0, then ap_i, am_i for each i
            pairs = [[[v.real, v.imag] for v in row] for row in t.rows]
            tail.update(a0=pairs[0], ap=pairs[1::2], am=pairs[2::2])
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
            if not len(t["ap"]) == len(t["am"]) == t["n"]:
                raise ValueError(f"a tail of n = {t['n']} needs n rows each of ap and am, "
                                 f"got {len(t['ap'])} and {len(t['am'])}")
            slots = [t["a0"]] + [row for pair in zip(t["ap"], t["am"]) for row in pair]
            tail = TailSpec(t["kind"], tuple(tuple(complex(a, b) for a, b in row)
                                             for row in slots))
        vals = {(s["k"], s["coset"]): complex(s["re"], s["im"]) for s in obj["shells"]}
        num, den = obj.get("power_shift", [0, 1])
        return cls(obj["p"], obj["level"], obj["k_min"], obj["k_tail"], vals, tail,
                   Fraction(num, den))


# ------------------------------------------------------------- Mellin data

@dataclass
class MellinData:
    p: int
    level: int
    comps: dict          # exponent j -> RationalFunctionZ

    def component(self, chi: UnitCharacter) -> RationalFunctionZ:
        chi = chi.at_level(self.level)
        return self.comps.get(chi.exponent, RationalFunctionZ.zero())


@lru_cache(maxsize=None)
def _geometric_tail(ratio: float, k_tail: int) -> RationalFunctionZ:
    """sum_{k >= k_tail} (ratio z)^k, built once and shared by every function
    whose tail has this pole and this start."""
    return RationalFunctionZ.geometric(ratio, k_tail)


def mellin_transform(f: FxFunction) -> MellinData:
    """M(f)(z, chi) = sum_k z^k (1/phi(p^N)) sum_u f(p^k u) chi(u), closed form."""
    p, N = f.p, f.level
    cosets = unit_group(p, N)[0]
    ks = range(f.k_min, f.k_tail)
    window = character_components([[f.values.get((k, u), 0.0) for u in cosets] for k in ks])
    t = f.tail
    if t.kind == "compact":
        tail, terms = [], []
    else:
        # the row of pole alpha sums to (q^-sigma alpha z)^k over k >= k_tail
        tail = character_components(t.rows)
        shift = float(p) ** -float(f.power_shift)
        terms = [_geometric_tail(shift * alpha, f.k_tail)
                 for alpha in allowed_alphas(t.kind, t.n, float(p))]
    comps = {}
    for j in range(len(cosets)):
        R = RationalFunctionZ.from_laurent(
            {k: row[j] for k, row in zip(ks, window) if row[j] != 0})
        for row, term in zip(tail, terms):
            if row[j] != 0:
                R = R + term * row[j]
        comps[j] = R
    return MellinData(p, N, comps)


def allowed_alphas(kind: str, n: int, q: float) -> list:
    """The alphas of the class's simple poles z = 1/alpha, in slot order:
    plus 1, then +-q^-(i+1/2); minus q^-n, then +-q^-i; i = 0..n-1."""
    if kind == "plus":
        first, pairs = 1.0, [q ** -(i + 0.5) for i in range(n)]
    elif kind == "minus":
        first, pairs = q ** -float(n), [q ** -float(i) for i in range(n)]
    else:
        raise FxError(f"unknown class kind {kind}")
    return [first] + [a for alpha in pairs for a in (alpha, -alpha)]


def fx_from_mellin(Z: MellinData, kind: str, n: int) -> FxFunction:
    """Materialize the shell function with the stated pole class (power shift 0).

    This is the class-membership test: each nonzero component is split by
    partial fractions against the poles its character's beta can carry, the
    first slot only for unramified chi and the +-alpha pairs only for
    unramified chi^2.  Any other pole raises FxError."""
    p, N = Z.p, Z.level
    cosets = unit_group(p, N)[0]
    order = len(cosets)
    alphas = allowed_alphas(kind, n, float(p))

    # residues b per character exponent j, in alphas order
    zero = (0j,) * len(alphas)
    columns = [zero] * len(cosets)
    laurents = {}
    for j, R in Z.comps.items():
        if R.is_zero(ZERO_COMPONENT_TOL):
            continue
        # chi_j has conductor 0 iff it is trivial, j = 0 mod phi; chi_j^2 iff 2j = 0 mod phi
        unramified = (j % order == 0, 2 * j % order == 0)
        slots = [i for i in range(len(alphas)) if unramified[i > 0]]
        try:
            laurents[j], residues = R.partial_fractions([alphas[i] for i in slots])
        except PoleError as exc:
            raise FxError(f"chi exponent {j} leaves the {kind}({n}) class: {exc}") from exc
        column = list(zero)
        for i, b in zip(slots, residues):
            column[i] = b
        columns[j] = column
    keys = [k for laurent in laurents.values() for k in laurent]
    k_min, k_tail = min(keys + [0]), max(keys + [0]) + 1

    # shell k of component j: its Laurent coefficient plus the pole terms b alpha^k
    series = []
    for k in range(k_min, k_tail):
        powers = [alpha ** k if k >= 0 else 0.0 for alpha in alphas]
        series.append([sum(map(mul, powers, col)) for col in columns])
    for j, laurent in laurents.items():
        for k, c in laurent.items():
            series[k - k_min][j] += c
    shells = coset_values(series)
    vals = {(k, u): v for k, row in zip(range(k_min, k_tail), shells)
            for u, v in zip(cosets, row) if v != 0}
    tail = TailSpec(kind, tuple(map(tuple, coset_values(list(zip(*columns))))))
    return FxFunction(p, N, k_min, k_tail, vals, tail, Fraction(0))


# ----------------------------------------------------------- eta and L-op

@lru_cache(maxsize=None)
def _beta_inv_cached(n: int, p: int, level: int, j: int, sign: int) -> RationalFunctionZ:
    return beta_factor_inverse_argument(n, UnitCharacter(p, level, j), sign)


class _Series:
    """The Laurent series of R at z = 0, held from its first term z^-v and
    grown upward on demand by ratfunc's series recursion, so each coefficient
    is computed once, and is the one a fresh laurent_coeffs gives."""

    def __init__(self, R: RationalFunctionZ):
        self.num = R.num
        self.v, self.den0 = _split_z_power(R.den)
        self.series = [0j] * (len(self.den0) - 1)

    def column(self, lo: int, hi: int) -> list:
        return _laurent_range(self.num, self.v, self.den0, self.series, lo, hi)


@lru_cache(maxsize=None)
def _eta_series(n: int, p: int, level: int, j: int, sign: int) -> _Series:
    return _Series(_beta_inv_cached(n, p, level, j, sign))


def eta_column(n: int, chi: UnitCharacter, sign: int, lo: int, hi: int) -> list:
    """eta's chi-component on the shells k = lo..hi: entry k is
    Res_{z=0} beta_psi(chi_s^{-1}) z^{-k-1}, a slice of the one Laurent
    series held per (n, chi, sign)."""
    return _eta_series(n, chi.p, chi.level, chi.exponent, sign).column(lo, hi)


def eta_components(n: int, sign: int, lo: int, hi: int, p: int, level: int) -> list:
    """Rows k = lo..hi of eta's level-N character components, the eta_column
    of each chi_j: eta_kernel on shell k is coset_values of row k."""
    return list(zip(*(eta_column(n, chi, sign, lo, hi) for chi in characters(p, level))))


@lru_cache(maxsize=None)
def _eta_values(n: int, p: int, level: int, sign: int, k: int) -> tuple:
    """eta_kernel on every coset of shell k, in unit_group order: one slice
    of each character's series and one forward transform."""
    return tuple(coset_values(eta_components(n, sign, k, k, p, level))[0])


def eta_kernel(n: int, sign: int, k: int, u: int, p: int, level: int) -> complex:
    """(eta * 1_N^v)(p^k u): eta averaged over the coset p^k u (1 + p^N Z_p),
    N = level, which is all a level-N caller ever sees of it.

    The average keeps exactly the characters of conductor <= N, so it is

        sum_{e(chi) <= N} chi(u)^{-1} Res_{z=0} beta_psi(chi_s^{-1}) z^{-k-1},

    the coset values of shell k's component vector (eta_components), one
    forward transform per shell of one slice per character's held series,
    cached, and looked up here by dlog(u).  A caller that needs the whole
    shell (fourier_n0) reads its row once, coset by coset; a caller that
    pairs eta with one chi reads eta_column, with no transform.
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

    It builds its own M(f |.|^{(2n+1)/2}), apart from fe_gl1_sides' right side.
    """
    p, N = f.p, f.level
    q = float(p)
    # a compactly supported f has Laurent-polynomial components: in every class
    if f.tail.kind != "compact":
        try:
            fx_from_mellin(mellin_transform(f.scale_by_power(2 * n)), "plus", n)
        except FxError as exc:
            raise FxError(f"input is not in the pvs plus space: {exc}") from exc
    Zg = mellin_transform(f.scale_by_power(Fraction(2 * n + 1, 2)))
    order = unit_order(p, N)
    comps = {}
    for j in range(order):
        mirror = Zg.comps.get(-j % order, RationalFunctionZ.zero())
        if mirror.is_zero(ZERO_COMPONENT_TOL):
            continue
        comps[j] = _beta_inv_cached(n, p, N, j, sign) * mirror.substitute("invert")
    # comps is M(L(f) |.|^{-(2n+1)/2}); L(f) lands in |.|^{n+1} S^-_{n,beta},
    # so shift by |.|^{-1/2} more to reach the shift-free minus class
    V = MellinData(p, N, {j: R.substitute("scale", q**0.5) for j, R in comps.items()})
    return fx_from_mellin(V, "minus", n).scale_by_power(Fraction(n + 1))


def pv_convolve(kernel_row, f: FxFunction, points) -> list:
    """The convolutions sum_shells kernel(x) f(x^{-1} t) of a compactly
    supported f, one per point t = p^k0 u0 of points ((k0, u0) pairs).

    kernel_row(k) is the kernel on shell k at f's level, a list over the
    cosets in unit_group order.  Shell k meets f's shell k0 - k, so each sum
    is finite: it runs over the kernel shells that meet a nonzero row of f,
    in the order 0, 1, -1, 2, -2, ..., and each kernel row is read once for
    all points.  For the point t = p^k0 g^b, kernel coset g^a meets f's coset
    g^(b - a), so a shell's term is the kernel row against f's row rotated
    to row[b], row[b - 1], ..., row[0], row[-1], ..., row[b + 1].
    """
    if f.tail.kind != "compact":
        raise FxError("pv_convolve needs a compactly supported f")
    p, N = f.p, f.level
    cosets, dlog = f.cosets, unit_group(p, N)[2]
    order = len(cosets)
    rows = {}
    for m in range(f.k_min, f.k_tail):
        row = [f.values.get((m, u), 0.0) for u in cosets]
        if any(row):
            rows[m] = row
    targets = [(k0, dlog[u0 % p**N]) for k0, u0 in points]
    totals = [0j] * len(targets)
    for k in sorted({k0 - m for k0, _ in targets for m in rows}, key=lambda k: (abs(k), -k)):
        kernel = kernel_row(k)
        for idx, (k0, b0) in enumerate(targets):
            row = rows.get(k0 - k)
            if row is not None:
                totals[idx] += sum(map(mul, kernel, row[b0::-1] + row[:b0:-1])) / order
    return totals


def fe_gl1_sides(f: FxFunction, n: int, sign: int = 1):
    """The character-free parts of the GL(1) functional equation, once per f:
    (M(L(f) |.|^{-(2n+1)/2}), M(f |.|^{(2n+1)/2})), each side from its own
    transform of f (fourier_L builds the left's); fe_gl1_side reads one
    character off either."""
    Lf = fourier_L(f, n, sign)
    Zg = mellin_transform(f.scale_by_power(Fraction(2 * n + 1, 2)))
    return mellin_transform(Lf.scale_by_power(Fraction(-(2 * n + 1), 2))), Zg


def fe_gl1_side(sides, i: int, n: int, chi: UnitCharacter, sign: int = 1) -> list:
    """Side i of the GL(1) functional equation at chi, as its values at five
    sample points z: M(L(f) |.|^{-(2n+1)/2})(z^{-1}, chi^{-1}) at i = 0, and
    beta_psi(chi_s) M(f |.|^{(2n+1)/2})(z, chi) at i = 1."""
    A, B = sides
    chi = chi.at_level(B.level)
    R = (A.component(chi.inverse()).substitute("invert") if i == 0
         else beta_factor(n, chi, sign) * B.component(chi))
    r = float(B.p) ** -0.5
    return [R(z) for z in (0.45 * r, 0.8 * r * 1j, (0.3 + 0.4j) * r, -0.22, 0.15 - 0.33j)]
