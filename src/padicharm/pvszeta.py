"""Finite-ring realization of the determinant-fiber zeta theory.

Test functions are finite combinations of pieces

    weight * psi(tr(X C)) * ch(B + p^r Sym_m(Z_p))

(the phase matrix C only acts on the p^{-1}-scale pieces produced by the
lattice Fourier transform).  Fiber counts over Sym_m(Z/p^k) come from a
Jordan-splitting recursion for every m.  Its state carries the Hasse
invariant, so the same recursion gives the Clifford-weighted Sym_3 bins:
counts over Sym_3(Z/p^(k+1)) by det, Clifford sign and tr(Y C) mod p, for
every piece whose mask and phase depend on Y mod p only.  The entry-wise
masks finer than Y mod p, from the diagonal action of homogeneity checks,
are count jobs; they enumerate the cells of their own coset in
Sym_3(Z/p^k) and recover the extra determinant digit by the linear
refinement

    det(Y0 + p^k Z) = det(Y0) + p^k tr(adj(Y0) Z)  (mod p^{2k})

whose value classes spread uniformly when adj(Y0) != 0 mod p and are
constant otherwise.  The shell values

    f_Phi(t) = count(det in t-class) / p^{k(d-1)},      d = m(m+1)/2

are exact on the stable range.  Summed over all depths, the recursion is
a rational generating function of det over Sym_m(Z_p), one per state, with
the known denominator prod_{s <= m} (1 - p^(-2 d_s) z^(2s)).  Summed over a
job's census cells, it gives the Mellin transform of every fiber function
the recursion serves exactly, and the depth-k shells above cross-check it.
Those are the rational functions the functional-equation verifier compares.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import PadicharmError
from .abelian import UnitCharacter, beta_factor, character_components
from .fxspace import (FxFunction, MellinData, TailSpec, fx_from_mellin,
                      mellin_transform)
from .padic import psi_frac, unit_group, unit_order, unit_part, val_p
from .quadform import legendre
from .ratfunc import RationalFunctionZ

ENUM_BUDGET = 10 ** 9      # cells of one coset of Sym_3(Z/p^k)
COSET_CHUNK = 1 << 16      # cells per vectorized block: 17 MB, about 260 bytes a cell
# rows of a fiber count table or of refined bins: count-fibers at p = 3,
# k = 12 (531,440 rows) peaks at 262 MB, about 500 bytes a row
ROW_BUDGET = 10 ** 6
SERIES_TOL = 1e-12   # exact series against the recursion's shells; rounding is ~1e-14
# the two sides of the functional equation, cross-multiplied at 20 sample
# points: both are exact series in floats, which agree to ~1e-15 for p <= 13
FE_PVS_TOL = 1e-6
# moved shells from counts against the base's exact Laurent coefficients,
# both exact up to float rounding: deviations are ~1e-16
HOMOGENEITY_TOL = 1e-8


class PvsError(PadicharmError):
    pass


def check_budget(cells: float) -> None:
    """Refuse an enumeration of more than ENUM_BUDGET cells."""
    if cells > ENUM_BUDGET:
        raise PvsError(
            f"enumeration budget exceeded: {cells:.3g} cells > {ENUM_BUDGET:.0g}")


def check_rows(rows: float) -> None:
    """Refuse a table of more than ROW_BUDGET rows."""
    if rows > ROW_BUDGET:
        raise PvsError(f"row budget exceeded: {rows:.3g} rows > {ROW_BUDGET:.0g}")


def _entry_order(m: int):
    """The entries (i, j), i <= j, of Sym_m: the diagonal first, then i < j
    row by row.  Entry-wise moduli and masks are listed in this order."""
    return ([(i, i) for i in range(m)]
            + [(i, j) for i in range(m) for j in range(i + 1, m)])


# ------------------------------------------------------------- test functions

@dataclass(frozen=True)
class LatticePiece:
    """weight * psi_sign(tr(X C)) * ch(B + p^r Sym(Z_p)), B and C integral.

    moduli, when set, replaces the scalar lattice p^r Sym(Z_p) by the
    entry-wise lattice {x_ij = B_ij mod given modulus} (used for diagonal
    dilations); such pieces stay at scale 0.
    """
    m: int
    B: tuple
    r: int
    weight: complex
    C: tuple | None = None
    moduli: tuple | None = None


def _sym_tuple(M, m):
    M = tuple(tuple(int(x) for x in row) for row in M)
    if len(M) != m or any(len(row) != m for row in M):
        raise PvsError("matrix size mismatch")
    if any(M[i][j] != M[j][i] for i in range(m) for j in range(m)):
        raise PvsError("base/phase matrices must be symmetric")
    return M


@dataclass(frozen=True)
class LatticeTestFunction:
    m: int
    pieces: tuple

    @classmethod
    def spherical(cls, m: int = 3) -> "LatticeTestFunction":
        zero = tuple(tuple(0 for _ in range(m)) for _ in range(m))
        return cls(m, (LatticePiece(m, zero, 0, 1.0 + 0.0j),))

    @classmethod
    def shifted(cls, B, r: int = 1, weight=1.0) -> "LatticeTestFunction":
        m = len(B)
        return cls(m, (LatticePiece(m, _sym_tuple(B, m), r, complex(weight)),))

    @classmethod
    def dilated(cls, m: int, r: int, weight=1.0) -> "LatticeTestFunction":
        zero = tuple(tuple(0 for _ in range(m)) for _ in range(m))
        return cls(m, (LatticePiece(m, zero, r, complex(weight)),))

    def __add__(self, other: "LatticeTestFunction") -> "LatticeTestFunction":
        if self.m != other.m:
            raise PvsError("mixed sizes")
        return LatticeTestFunction(self.m, self.pieces + other.pieces)


def act_diagonal(Phi: LatticeTestFunction, exponents, p: int) -> LatticeTestFunction:
    """(g Phi)(X) = Phi(g^{-1} X g^{-t}) for g = diag(p^{a_i}) on pure-lattice
    pieces.  Equal exponents a are a scalar rescaling p^r S -> p^{r+2a} S;
    mixed nonnegative exponents turn scale-0 pieces into entry-wise lattices
    {x_ij in p^{a_i + a_j} Z_p}."""
    m = Phi.m
    a = tuple(int(x) for x in exponents)
    if len(a) != m:
        raise PvsError("exponent count must match the size")
    pieces = []
    for q in Phi.pieces:
        if q.moduli is not None or q.C is not None:
            raise PvsError("diagonal action implemented for lattice pieces only")
        zero = tuple(tuple(0 for _ in range(m)) for _ in range(m))
        pure = not any(x for row in q.B for x in row)
        if len(set(a)) == 1 and pure:
            pieces.append(LatticePiece(m, zero, q.r + 2 * a[0], q.weight))
            continue
        if q.r < 0 or any(x < 0 for x in a):
            raise PvsError("mixed-exponent action needs nonnegative scales and a_i >= 0")
        # B + p^r S -> g B g^t + {x_ij in p^{r + a_i + a_j} Z_p}
        newB = tuple(tuple(q.B[i][j] * p ** (a[i] + a[j]) for j in range(m))
                     for i in range(m))
        moduli = tuple(p ** (q.r + a[i] + a[j]) for (i, j) in _entry_order(m))
        pieces.append(LatticePiece(m, newB, 0, q.weight, None, moduli))
    return LatticeTestFunction(m, tuple(pieces))


def lattice_fourier(Phi: LatticeTestFunction, p: int, sign: int = 1) -> LatticeTestFunction:
    """Closed-form Fourier transform piece by piece:

        (B, r, w, C)  ->  (-C, -r, w q^{-r d} psi(tr(B C) p^{min(r,0)}), B)

    with p odd (so Sym(Z_p) is self-dual for the trace pairing).  Pieces at
    negative scale normalize their integral base point into the lattice.
    """
    if p == 2:
        raise PvsError("p = 2 unsupported")
    m = Phi.m
    d = m * (m + 1) // 2
    zero = tuple(tuple(0 for _ in range(m)) for _ in range(m))
    out = []
    for piece in Phi.pieces:
        if piece.moduli is not None:
            raise PvsError("Fourier transform of entry-wise lattices is unsupported")
        B = piece.B
        C = piece.C if piece.C is not None else zero
        w = piece.weight * float(p) ** (-piece.r * d)
        if piece.r < 0:
            tr = sum(B[i][j] * C[j][i] for i in range(m) for j in range(m))
            w *= psi_frac(p, tr, -piece.r, sign)
        newB = tuple(tuple(-x for x in row) for row in C)
        newC = None if all(x == 0 for row in B for x in row) else B
        r_new = -piece.r
        if r_new < 0:
            newB = zero        # integral base points fold into p^{r_new} Sym(Z_p)
        elif r_new == 0:
            newC = None        # the phase is trivial on integral matrices
        out.append(LatticePiece(m, newB, r_new, w, newC))
    return LatticeTestFunction(m, tuple(out))


def evaluate_lattice_function(Phi: LatticeTestFunction, X, p: int, sign: int = 1) -> complex:
    """Pointwise evaluation at a rational symmetric matrix (for oracles)."""
    m = Phi.m
    total = 0.0 + 0.0j
    for piece in Phi.pieces:
        ok = True
        for idx, (i, j) in enumerate(_entry_order(m)):
            modulus = (Fraction(piece.moduli[idx]) if piece.moduli is not None
                       else Fraction(p) ** piece.r)
            diff = (Fraction(X[i][j]) - piece.B[i][j]) / modulus
            if diff.denominator % p == 0:   # not a p-adic integer
                ok = False
                break
        if not ok:
            continue
        val = piece.weight
        if piece.C is not None and piece.r < 0:
            tr = sum(Fraction(X[i][j]) * piece.C[j][i] for i in range(m) for j in range(m))
            scaled = tr * p ** (-piece.r)
            if scaled.denominator != 1:
                raise PvsError("phase argument is not p-integral")
            val *= psi_frac(p, int(scaled) % p ** (-piece.r), -piece.r, sign)
        total += val
    return total


# ------------------------------------------------------------ refined bins

# (p, k) -> {job: refined bins over Sym_3(Z/p^(k+1))}, by recursion or coset
_SWEEP_CACHE: dict = {}


def _legendre_table(p: int) -> np.ndarray:
    return np.array([legendre(a, p) for a in range(p)], dtype=np.int64)


def _first_unit_diag_leg(leg, p, d1, d2, d3):
    r1, r2, r3 = d1 % p, d2 % p, d3 % p
    pick = np.where(r1 != 0, r1, np.where(r2 != 0, r2, r3))
    return leg[pick]


def _adjugate_det(x11, x22, x33, x12, x13, x23):
    """((a11, a22, a33, a12, a13, a23), det) of the symmetric 3 x 3 matrix
    with the given entries: its adjugate entries, in `_entry_order`, and its
    determinant."""
    adj = (x22 * x33 - x23 * x23, x11 * x33 - x13 * x13, x11 * x22 - x12 * x12,
           x13 * x23 - x12 * x33, x12 * x23 - x22 * x13, x12 * x13 - x11 * x23)
    return adj, x11 * adj[0] + x12 * adj[3] + x13 * adj[4]


def _bin_shape(job, p: int):
    """(sign slots, phase slots) of a job's refined bins: one of each for a
    count job; two signs for a Clifford job, and p phases t = tr(Y C) mod p
    when it has a phase matrix."""
    if job[0] == "count":
        return 1, 1
    return 2, (1 if job[2] is None else p)


def _by_recursion(job, p: int) -> bool:
    """True when the job's mask, if any, fixes Y mod p (its phase always
    depends on Y mod p only)."""
    return job[1] is None or all(mo == p for mo in job[1][1])


def _refine_bins(raw, job, p: int, k: int):
    """Bins over Sym_3(Z/p^k), indexed by (det mod p^(k+1), adj != 0 mod p,
    sign, t), as counts over Sym_3(Z/p^(k+1)): a cell with adj = 0 mod p
    keeps its det mod p^(k+1) on all p^6 lifts, any other cell spreads its
    lifts evenly over the p residues above its det mod p^k."""
    signs, phases = _bin_shape(job, p)
    exact, spread = np.moveaxis(raw.reshape(p ** (k + 1), 2, signs, -1)[..., :phases], 1, 0)
    pooled = spread.reshape(p, p ** k, signs, phases).sum(axis=0)
    return exact * p ** 6 + np.tile(pooled, (p, 1, 1)) * p ** 5


def _coset_bins(p: int, k: int, job):
    """A count job's refined bins from the cells of Sym_3(Z/p^k) inside its
    entry-wise mask, each entry residue + modulus i for i < p^k / modulus,
    enumerated in blocks of COSET_CHUNK cells."""
    residues, moduli = job[1]
    mod4 = p ** (k + 1)
    shape = tuple(p ** k // mo for mo in moduli)
    cells = math.prod(shape)
    check_budget(cells)
    check_rows(mod4)
    raw = np.zeros(2 * mod4, dtype=np.int64)
    for start in range(0, cells, COSET_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + COSET_CHUNK, cells)), shape)
        adj, det = _adjugate_det(*(res % mo + mo * i
                                   for res, mo, i in zip(residues, moduli, index)))
        adjnz = np.any(np.stack(adj) % p != 0, axis=0)
        raw += np.bincount(det % mod4 * 2 + adjnz, minlength=2 * mod4)
    return _refine_bins(raw, job, p, k)


def precompute_jobs(p: int, k: int, jobs) -> None:
    """Cache the refined bins of the given jobs: by the Jordan-splitting
    recursion when the job depends on Y mod p only, else, for a count job
    under a finer entry-wise mask, by enumerating its coset."""
    cache = _SWEEP_CACHE.setdefault((p, k), {})
    for job in dict.fromkeys(jobs):
        if job in cache:
            continue
        if _by_recursion(job, p):
            cache[job] = _recursion_bins(p, k, job)
        elif job[0] == "count":
            cache[job] = _coset_bins(p, k, job)
        else:
            raise PvsError("Clifford-weighted pieces need a mask that fixes Y mod p")


# -------------------------------------------------------------- fiber counts

@dataclass
class FiberCountTable:
    m: int
    p: int
    k: int
    counts: dict          # (v, unit residue mod p^{k-v}) -> int
    zero_count: int
    total: int

    def rows(self):
        for (v, u), c in sorted(self.counts.items()):
            yield v, u, c


@lru_cache(maxsize=None)
def _rank_census(m: int, p: int) -> dict:
    """N_m(r, delta): the matrices in Sym_m(F_p) of rank r whose nondegenerate
    part has discriminant class delta (a Legendre symbol), by MacWilliams'
    closed form [m choose r]_p |GL_r(F_p)| / |O_r^delta(F_p)| (Amer. Math.
    Monthly 76, 1969)."""
    census = {(0, 1): 1, (0, -1): 0}
    for r in range(1, m + 1):
        binom = gl = 1
        for i in range(r):
            binom = binom * (p ** (m - i) - 1) // (p ** (i + 1) - 1)
            gl *= p ** r - p ** i
        s, odd = divmod(r, 2)
        orth = 2 * p ** (s * (s - 1 + odd))
        for i in range(1, s + odd):
            orth *= p ** (2 * i) - 1
        for delta in (1, -1):
            # O^+ when (-1)^s delta is a square; odd sizes have one group
            plus = legendre(-1, p) ** s * delta
            census[(r, delta)] = gl * binom // (orth * (1 if odd else p ** s - plus))
    return census


def _split_state(state, s: int, delta: int, ell: int):
    """The state (w, eps, c) of Z -> that of U + pZ, with U a unit block of
    class delta and Z of size s: det valuation w, Legendre class eps of the
    det's unit part, Hasse invariant c.  Hasse invariants of an orthogonal
    sum and of a scaled form (Cassels, Rational Quadratic Forms, 1978), with
    (p, p) = (p, -1) = ell and units pairing trivially at odd p:
    c(pZ) = c(Z) ell^(s(s-1)/2) (ell^w eps)^(s-1), and
    c(U + pZ) = c(pZ) (det U, p^(s+w)) = c(pZ) delta^(s+w)."""
    w, eps, c = state
    sign = (c * ell ** ((s * (s - 1) // 2 + w * (s - 1)) % 2)
            * eps ** ((s - 1) % 2) * delta ** ((s + w) % 2))
    return w + s, delta * eps, sign


@lru_cache(maxsize=None)
def _det_class_counts(m: int, p: int, k: int):
    """({(w, eps, c): count}, zero) over Sym_m(Z/p^k): det of valuation w < k,
    unit part of Legendre class eps and Hasse invariant c of any lift (all
    lifts agree when w < k), and det = 0 mod p^k.

    Jordan splitting: Y with reduction of rank r and class delta is
    GL_m(Z_p)-equivalent to U + p Z, U an r x r unit block and Z uniform over
    Sym_{m-r}(Z/p^{k-1}) (Schur complement), so det Y = det U p^{m-r} det Z,
    each reduction has p^{(k-1)(d_m - d_{m-r})} lifts per Z, and the state
    moves by `_split_state`."""
    if m == 0:
        return {(0, 1, 1): 1}, 0    # the empty matrix has det 1 at every level
    if k == 0:
        return {}, 1
    ell = legendre(-1, p)
    table: dict = {}
    zero = 0
    for (r, delta), n in _rank_census(m, p).items():
        s = m - r
        lifts = n * p ** ((k - 1) * (m * (m + 1) - s * (s + 1)) // 2)
        sub, sub_zero = _det_class_counts(s, p, k - 1)
        zero += lifts * sub_zero
        for state, c in sub.items():
            key = _split_state(state, s, delta, ell)
            if key[0] >= k:
                zero += lifts * c
            else:
                table[key] = table.get(key, 0) + lifts * c
    return table, zero


def det_fiber_counts(m: int, p: int, k: int) -> FiberCountTable:
    """Exact determinant-fiber counts over Sym_m(Z/p^k), any m >= 1, by the
    Jordan-splitting recursion of `_det_class_counts`.  Unit residues of one
    Legendre class are permuted by det(gYg^t) = det(g)^2 det(Y), so within a
    shell every residue of a class carries the same count."""
    check_rows(float(p) ** k)
    states, zero = _det_class_counts(m, p, k)
    classes: dict = {}
    for (w, eps, _), c in states.items():
        classes[(w, eps)] = classes.get((w, eps), 0) + c
    counts = {(v, u): classes.get((v, legendre(u, p)), 0) // (unit_order(p, k - v) // 2)
              for v in range(k) for u in range(1, p ** (k - v)) if u % p}
    total = p ** (k * m * (m + 1) // 2)
    if sum(counts.values()) + zero != total:
        raise PvsError("count conservation failed")
    return FiberCountTable(m, p, k, counts, zero, total)


@lru_cache(maxsize=None)
def _job_census(p: int, job) -> dict:
    """{(r, key, t): count} over the cells Y0 of Sym_3(F_p) inside the job's
    mask, by rank r, phase t = tr(Y0 C) mod p and key: the class of the
    nondegenerate part, or at full rank det Y0 mod p itself, which every
    lift keeps.  A job without mask or phase takes the closed-form census."""
    mask = job[1]
    C = job[2] if job[0] == "rho" else None
    if mask is None and C is None:
        census = _rank_census(3, p)
        out = {(r, delta, 0): n for (r, delta), n in census.items() if r < 3 and n}
        for a in range(1, p):
            out[(3, a, 0)] = census[(3, legendre(a, p))] // ((p - 1) // 2)
        return out
    if mask is not None:      # the mask fixes Y mod p: one cell
        blocks = [[np.array([x % p]) for x in mask[0]]]
    else:
        r = np.arange(p)
        rest = [a.ravel() for a in np.meshgrid(r, r, r, r, r, indexing="ij")]
        blocks = [[np.full(p ** 5, x11)] + rest for x11 in range(p)]
    leg = _legendre_table(p)
    out: dict = {}
    for x11, x22, x33, x12, x13, x23 in blocks:
        adj, det = _adjugate_det(x11, x22, x33, x12, x13, x23)
        a11, a22, a33 = adj[:3]
        det %= p
        adjnz = np.any(np.stack(adj) % p != 0, axis=0)
        nonzero = np.any(np.stack([x11, x22, x33, x12, x13, x23]) != 0, axis=0)
        rank = np.where(det != 0, 3, np.where(adjnz, 2, np.where(nonzero, 1, 0)))
        # a rank-2 adjugate is a multiple of w w^t by the nondegenerate
        # part's discriminant, a rank-1 matrix one of v v^t
        key = np.where(rank == 3, det, np.where(
            rank == 2, _first_unit_diag_leg(leg, p, a11, a22, a33),
            np.where(rank == 1, _first_unit_diag_leg(leg, p, x11, x22, x33), 1)))
        t = 0 if C is None else (x11 * C[0][0] + x22 * C[1][1] + x33 * C[2][2] + 2 * (
            x12 * C[0][1] + x13 * C[0][2] + x23 * C[1][2])) % p
        # one code per (rank, key, t), with the class -1 stored as p
        counts = np.bincount(((rank * (p + 1) + key % (p + 1)) * p + t).ravel(),
                             minlength=4 * (p + 1) * p)
        codes = np.flatnonzero(counts)
        for code, n in zip(codes.tolist(), counts[codes].tolist()):
            rest, t0 = divmod(code, p)
            r0, key0 = divmod(rest, p + 1)
            cell = (r0, -1 if key0 == p else key0, t0)
            out[cell] = out.get(cell, 0) + n
    return out


@lru_cache(maxsize=None)
def _shell_keys(p: int, K: int) -> dict:
    """{(v, eps): the residues p^v u mod p^K, u a unit of Legendre class eps}."""
    leg = _legendre_table(p)
    out = {}
    for v in range(K):
        u = np.arange(p ** (K - v))
        for eps in (1, -1):
            out[(v, eps)] = p ** v * u[leg[u % p] == eps]
    return out


def _recursion_bins(p: int, k: int, job):
    """A job's refined bins, counts over Sym_3(Z/p^(k+1)) indexed by
    (det mod p^(k+1), Clifford sign, tr(Y C) mod p), by Jordan splitting.

    Each cell Y0 of the job's census has p^((K-1)(d_3 - d_s)) lifts per Z in
    Sym_s(Z/p^(K-1)), K = k + 1 and s = 3 - rank, moved by `_split_state`;
    the Clifford sign at size 3 is rho = (-1, -1) (-1, det) c = ell^v c.  At
    full rank the lifts spread evenly over the residues of det Y0 mod p, with
    rho = +1; below it, over the unit residues of the det's class in its
    shell.  The row of det = 0 mod p^(k+1) is left empty: no shell reads it."""
    K = k + 1
    signs, phases = _bin_shape(job, p)
    check_rows(p ** K * signs * phases)
    ell = legendre(-1, p)
    per_residue = Counter()      # (v, class or det residue, sign slot, t) -> count
    for (r, key, t), n in _job_census(p, job).items():
        if r == 3:
            per_residue[(0, key, 0, t)] += n * p ** (5 * (K - 1))
            continue
        s = 3 - r
        lifts = n * p ** ((K - 1) * (6 - s * (s + 1) // 2))
        for state, c in _det_class_counts(s, p, K - 1)[0].items():
            v, eps, hasse = _split_state(state, s, key, ell)
            if v < K:
                slot = (1 - ell ** (v % 2) * hasse) // 2 if signs == 2 else 0
                per_residue[(v, eps, slot, t)] += lifts * c // (unit_order(p, K - v) // 2)
    bins = np.zeros((p ** K, signs, phases),
                    dtype=np.int64 if p ** (6 * K) < 2 ** 63 else object)
    for (v, key, slot, t), n in per_residue.items():
        rows = np.arange(key, p ** K, p) if v == 0 else _shell_keys(p, K)[(v, key)]
        bins[rows, slot, t] = n
    return bins


# ------------------------------------------- the recursion summed over depths

def _poly_add(a, b):
    out = np.zeros(max(len(a), len(b)), dtype=object)
    out[:len(a)] += a
    out[:len(b)] += b
    return out


def _shifted(c, s: int):
    """z^s times the polynomial c."""
    return np.concatenate([np.zeros(s, dtype=object), c])


def _at_pz(c, p: int) -> np.ndarray:
    """The exact polynomial c(z) as c(pz), in floats."""
    return np.array([float(x * p ** i) for i, x in enumerate(c)])


def _size_denominator(p: int, lo: int, hi: int):
    """prod_{lo < s <= hi} (1 - p^(-2 d_s) z^(2s)), exact."""
    out = np.array([Fraction(1)], dtype=object)
    for s in range(lo + 1, hi + 1):
        out = _poly_add(out, _shifted(out, 2 * s) * -Fraction(1, p ** (s * (s + 1))))
    return out


def _move_into(out: dict, series: dict, s: int, delta: int, factor, ell: int) -> None:
    """Add factor times each numerator of a size-s series to `out`, at its
    state moved by a unit block of class delta (`_split_state`)."""
    for state, num in series.items():
        w, eps, c = _split_state(state, s, delta, ell)
        out[(w % 2, eps, c)] = _poly_add(out.get((w % 2, eps, c), ()), np.convolve(factor, num))


@lru_cache(maxsize=None)
def _size_series(m: int, p: int) -> dict:
    """G_m(z) = sum_w density(w, eps, c) z^w over Sym_m(Z_p), by the state
    (w mod 2, eps, c) of `_det_class_counts`: {state: numerator over
    _size_denominator(p, 0, m)}, exact Fraction coefficients.

    The cells of rank r >= 1 of Sym_m(F_p) give A, the sum of
    N_m(r, delta) p^-d_m z^(m-r) G_{m-r} moved by the rank-r block; the zero
    cell p Sym_m(Z_p) gives a T G_m, with a = p^-d_m z^m and T the state move
    of Y -> pY.  T is an involution: it moves w by m and multiplies c by a
    sign that depends on w only through w (m - 1) mod 2, which T fixes.  So
    G_m = (A + a T A) / (1 - a^2)."""
    if m == 0:
        return {(0, 1, 1): np.array([Fraction(1)], dtype=object)}
    ell, d = legendre(-1, p), m * (m + 1) // 2
    A: dict = {}
    for (r, delta), n in _rank_census(m, p).items():
        if r and n:
            lift = _shifted(Fraction(n, p ** d) * _size_denominator(p, m - r, m - 1), m - r)
            _move_into(A, _size_series(m - r, p), m - r, delta, lift, ell)
    G = dict(A)
    _move_into(G, A, m, 1, _shifted([Fraction(1, p ** d)], m), ell)
    return G


@lru_cache(maxsize=None)
def _cell_series(p: int, s: int, delta: int) -> dict:
    """{state (w, eps, c) at size 3: numerator}: z^s G_s moved by a unit block
    of class delta (a bijection of states), the det density over the cells of
    rank 3 - s and class delta, over _size_denominator(p, 0, 3), at pz."""
    lift = _at_pz(_shifted(_size_denominator(p, s, 3), s), p)
    return {_split_state(state, s, delta, legendre(-1, p)): np.convolve(lift, _at_pz(num, p))
            for state, num in _size_series(s, p).items()}


@lru_cache(maxsize=None)
def _job_series(p: int, job, weighted: bool, sign: int) -> np.ndarray:
    """Rows j of the numerator of M(f_job)(z, chi_j) over
    _size_denominator(p, 0, 3) at pz, for the level-1 characters chi_j.

    Each census cell Y0 + p Sym_3(Z_p) has measure p^-6; a cell of rank r
    and class delta feeds `_cell_series` at s = 3 - r.  A full-rank cell
    keeps det Y0 mod p, so it sits on that coset; any other spreads evenly
    over the (p - 1)/2 cosets of each class.  Cells are weighted by psi(t),
    and by rho = ell^w c when weighted.  As f(p^v u) = p^(v+1)
    mu(det in p^v u (1 + p Z_p)), M(f)(z) is p^-5 times the sum at pz."""
    ell = legendre(-1, p)
    cosets = np.array(unit_group(p, 1)[0])
    classes = _legendre_table(p)[cosets]
    weights: Counter = Counter()      # (rank, key) -> sum of n psi(t)
    for (r, key, t), n in _job_census(p, job).items():
        weights[(r, key)] += n * psi_frac(p, t, 1, sign)
    vectors, numerators = [], []
    for (r, key), x in weights.items():
        delta = legendre(key, p) if r == 3 else key
        for (w, eps, c), num in _cell_series(p, 3 - r, delta).items():
            cells = cosets == key if r == 3 else (classes == eps) * 2 / (p - 1)
            vectors.append(x * (ell ** w * c if weighted else 1) * cells)
            numerators.append(num)
    N = np.zeros((len(numerators), max(map(len, numerators))))
    for row, num in zip(N, numerators):
        row[:len(num)] = num
    return character_components(np.array(vectors, dtype=complex)).T @ N * float(p) ** -5


# -------------------------------------------- shell values and fiber functions

def _piece_job(piece: LatticePiece, weighted: bool, p: int, k: int):
    """(job, shell shift, prefactor) realizing one piece in refined bins.

    Weighted pieces take a Clifford ("rho") job; so do unweighted pieces
    with a phase at scale -1, whose job carries tr(Y C) mod p (their sign
    is ignored at assembly)."""
    if piece.m != 3:
        raise PvsError("refined-bin jobs are for m = 3")
    mask, shift, prefactor = None, 0, 1.0
    if piece.moduli is not None:
        if max(piece.moduli) > p**k:
            raise PvsError("entry-wise moduli exceed p^k")
        residues = tuple(piece.B[i][j] % mo for (i, j), mo
                         in zip(_entry_order(3), piece.moduli))
        mask = (residues, piece.moduli)
    elif piece.r >= 0:
        if p**piece.r > p**k:
            raise PvsError("piece scale exceeds p^k")
        if piece.r > 0:
            residues = tuple(piece.B[i][j] % p**piece.r for (i, j) in _entry_order(3))
            mask = (residues, (p**piece.r,) * len(residues))
    elif piece.r == -1:
        # X = p^{-1} Y: det X = p^{-3} det Y and f picks up q^{d-3} = q^3;
        # rho(p^{-1} Y) = rho(Y) (scalars act trivially on rho at odd size)
        shift, prefactor = -3, float(p) ** 3
        if piece.C is not None:
            return ("rho", None, piece.C), shift, prefactor
    else:
        raise PvsError("pieces with r < -1 are outside the enumeration budget")
    job = ("rho", mask, None) if weighted else ("count", mask)
    return job, shift, prefactor


def piece_shell_values(piece: LatticePiece, weighted: bool, p: int, k: int, sign: int):
    """Exact fiber values of one piece on its stable shells:
    {(shell, unit coset mod p): complex}, from the job's refined bins
    weighted by Clifford sign times psi(t)."""
    if k < 2:
        raise PvsError("level-1 shell values need k >= 2")
    job, shift, prefactor = _piece_job(piece, weighted, p, k)
    precompute_jobs(p, k, (job,))
    d = 6
    # bins (det mod p^(k+1), sign, t): the sign is ignored on unweighted pieces
    arr = _SWEEP_CACHE[(p, k)][job]
    n_signs, n_phases = arr.shape[1:]
    signs = np.array([1, -1 if weighted else 1][:n_signs])
    zeta = np.array([psi_frac(p, t, 1, sign) for t in range(n_phases)])
    totals = (arr.astype(float) * np.outer(signs, zeta)).sum(axis=(1, 2))

    # the nonzero det residues p^v u mod p^(k+1), by valuation v and unit digit
    keys = np.flatnonzero(totals[1:]) + 1
    v = sum((keys % p**e == 0).astype(np.int64) for e in range(1, k + 1))
    cell = v * p + keys // p**v % p
    # a unit coset mod p holds p^(k-v) of the unit residues mod p^(k+1-v)
    norm = float(p) ** ((k + 1) * (d - 1))
    vals = complex(piece.weight) * prefactor * totals[keys] / (norm * p ** (k - v))
    re = np.bincount(cell, weights=vals.real)
    im = np.bincount(cell, weights=vals.imag)
    return {(c // p + shift, c % p): complex(re[c], im[c])
            for c in np.flatnonzero(np.bincount(cell)).tolist()}


def fiber_shell_values(Phi: LatticeTestFunction, weighted: bool, p: int, k: int,
                       sign: int = 1):
    """Stable shell values of f_Phi / f_{rho Phi}: shells known for every
    piece, -3..k-3 at scale -1 and 0..k otherwise."""
    lo = -3 if any(q.moduli is None and q.r < 0 for q in Phi.pieces) else 0
    hi = k + min(-3 if q.moduli is None and q.r < 0 else 0 for q in Phi.pieces)
    vals: dict = {}
    for piece in Phi.pieces:
        for (w, u), x in piece_shell_values(piece, weighted, p, k, sign).items():
            vals[(w, u)] = vals.get((w, u), 0.0) + x
    cosets = unit_group(p, 1)[0]
    out = {(w, u): vals.get((w, u), 0.0 + 0.0j)
           for w in range(lo, hi + 1) for u in cosets}
    return out, lo, hi


def fiber_function(Phi: LatticeTestFunction, weighted: bool, p: int, k: int,
                   sign: int = 1) -> FxFunction:
    """The fiber integration f_Phi (f_{rho Phi^} when weighted) as an exact
    FxFunction: unweighted fibers live in S_n^+, weighted ones in S_n^-.

    At m = 3 (n = 1) its Mellin transform sums the pieces' `_job_series`,
    exact for every piece whose job the recursion serves.  The depth-k
    recursion's shells (`fiber_shell_values`) cross-check it on the stable
    range, which must hold a nonzero shell."""
    m = Phi.m
    if m % 2 == 0:
        raise PvsError("even sizes are out of scope")
    if m == 1:
        return _fiber_function_m1(Phi, p, sign)
    den = np.concatenate([np.zeros(3), _at_pz(_size_denominator(p, 0, 3), p)])   # z^3 D(pz)
    num = np.zeros((p - 1, 2 * len(den)), dtype=complex)
    for piece in Phi.pieces:
        job, shift, prefactor = _piece_job(piece, weighted, p, k)
        if not _by_recursion(job, p):
            raise PvsError("no exact series for masks finer than Y mod p")
        series = _job_series(p, job, weighted, sign)
        num[:, 3 + shift:3 + shift + series.shape[1]] += piece.weight * prefactor * series
    kind = "minus" if weighted else "plus"
    Z = MellinData(p, 1, {j: RationalFunctionZ(row, den) for j, row in enumerate(num)
                          if row.any()}, (kind, 1))
    f = fx_from_mellin(Z, kind, 1)
    shells, lo, hi = fiber_shell_values(Phi, weighted, p, k, sign)
    scale = max(map(abs, shells.values()))
    if scale == 0:
        raise PvsError(f"insufficient k: the recursion's shells {lo}..{hi} are all zero")
    dev = max(abs(f.evaluate(w, u) - x) for (w, u), x in shells.items()) / scale
    if dev > SERIES_TOL:
        raise PvsError(f"exact series differs from the depth-{k} recursion by {dev:.3g}")
    if any(x for row in (f.tail.a0, *f.tail.ap, *f.tail.am) for x in row):
        return f
    return FxFunction(p, 1, f.k_min, f.k_tail, f.values, TailSpec.compact())


def _fiber_function_m1(Phi: LatticeTestFunction, p: int, sign: int) -> FxFunction:
    """m = 1: det is the identity, f_Phi = Phi pointwise and rho = 1.

    Pieces b + p^r Z_p with p^r not dividing b are single-coset windows;
    pieces with b in p^r Z_p are shifted indicators contributing a constant
    tail from shell r on; negative-scale pieces carry their psi phase on
    the window shells r..-1.
    """
    cosets = unit_group(p, 1)[0]
    window: dict = {}
    tail_a0 = {u: 0.0 + 0.0j for u in cosets}
    tail_starts = []
    k_min = 0
    for q in Phi.pieces:
        b, r, w = q.B[0][0], q.r, q.weight
        cc = q.C[0][0] if q.C is not None else 0
        if r >= 1 and b % p**r != 0:
            v = val_p(b, p)
            depth = r - v
            if depth > 1:
                raise PvsError("level 1 is too coarse for this base point")
            t = unit_part(b, p, depth)
            for u in cosets:
                if (u - t) % p**depth == 0:
                    window[(v, u)] = window.get((v, u), 0.0) + w
            k_min = min(k_min, v)
        else:
            # ch(p^r Z_p) with a phase psi(t c p^{min(r,0)}) on shells r..-1
            tail_starts.append((r, w))
            k_min = min(k_min, r)
            if r < 0:
                # on shell v the argument t c = p^v u c has fractional part u c / p^{-v}
                for v in range(r, 0):
                    for u in cosets:
                        ph = psi_frac(p, u * cc, -v, sign) if cc else 1.0
                        window[(v, u)] = window.get((v, u), 0.0) + w * ph
            for u in cosets:
                tail_a0[u] += w
    k_tail = max([0] + [(v + 1) for (v, _) in window]
                 + [r for (r, _) in tail_starts if r > 0])
    # fill window shells below k_tail that the indicator tails already cover
    for v in range(k_min, k_tail):
        for u in cosets:
            extra = sum(w for (r, w) in tail_starts if r <= v and v >= 0)
            if extra:
                window[(v, u)] = window.get((v, u), 0.0) + extra
    if all(abs(x) < 1e-15 for x in tail_a0.values()):
        tail = TailSpec.compact()
    else:
        tail = TailSpec("plus", 0, tuple(tail_a0[u] for u in cosets), (), ())
    vals = {ku: v for ku, v in window.items() if abs(v) > 1e-15}
    return FxFunction(p, 1, min(k_min, k_tail), k_tail, vals, tail)


def pvs_route_transform(Phi: LatticeTestFunction, p: int, k: int, n: int = 1,
                        sign: int = 1) -> FxFunction:
    """The prehomogeneous route to the Fourier operator on the plus space:

        L(f)(t) = |2|^{2n^2-n} |t|^{n+1} f_{rho Phi^}(2^{-2n} t),
        f = |t|^{-2n} f_Phi,

    built entirely from enumerated fibers (|2| = 1 at odd p; the 2^{-2n}
    twist is a unit rotation of the coset argument).  Cross-checks the
    Mellin-route transform."""
    fm = fiber_function(lattice_fourier(Phi, p, sign), weighted=True, p=p, k=k,
                        sign=sign)
    cosets = unit_group(p, 1)[0]
    twist = pow(pow(2, 2 * n, p), -1, p)
    vals = {(kk, u): fm.evaluate(kk, u * twist % p)
            for kk in range(fm.k_min, fm.k_tail) for u in cosets}
    t = fm.tail
    if t.kind == "compact":
        tail = t
    else:
        idx = {u: i for i, u in enumerate(cosets)}

        def tw(row):
            return tuple(row[idx[u * twist % p]] for u in cosets)

        tail = TailSpec(t.kind, t.n, tw(t.a0), tuple(tw(r) for r in t.ap),
                        tuple(tw(r) for r in t.am))
    out = FxFunction(p, 1, fm.k_min, fm.k_tail, vals, tail, fm.power_shift)
    return out.scale_by_power(n + 1)


# --------------------------------------------------------------- zeta and FE

def zeta_from_fibers(f: FxFunction, chi: UnitCharacter, shift=Fraction(0)) -> RationalFunctionZ:
    """Z(s, chi) = (1 - 1/q) M(f)(s + 1 + shift, chi) as a rational function."""
    p = f.p
    comp = mellin_transform(f).component(chi)
    return comp.substitute("scale", float(p) ** (-(1.0 + float(shift)))) * (1 - 1.0 / p)


def fe_pvs_sides(Phi: LatticeTestFunction, n: int, p: int, k: int, sign: int = 1):
    """The character-free parts of the prehomogeneous functional equation,
    once per Phi: (M(f_Phi), M(f_{rho Phi^})), each from its own counts.
    fe_pvs_compare reads one character off each."""
    if Phi.m != 2 * n + 1:
        raise PvsError("size/n mismatch")
    return (mellin_transform(fiber_function(Phi, False, p, k, sign)),
            mellin_transform(fiber_function(lattice_fourier(Phi, p, sign), True, p, k, sign)))


def fe_pvs_compare(sides, n: int, chi: UnitCharacter, sign: int = 1) -> dict:
    """The odd-p prehomogeneous functional equation at one character

        chi^{-2n}(2) Z_{rho Phi^}(-s-1/2, chi^{-1})
            = beta_psi(chi_s) Z_Phi(s+1/2-(n+1), chi)."""
    M_plus, M_minus = sides
    p, q = M_plus.p, float(M_plus.p)
    chi = chi.at_level(1)
    # Z(s',.) = (1-1/q) M(f)(s'+1): the shifts below are s' = s+1/2-(n+1)
    # on the plus side and s' = -s-1/2 on the minus side
    rhs = (beta_factor(n, chi, sign)
           * M_plus.component(chi).substitute("scale", q ** (n - 0.5)) * (1 - 1.0 / q))
    lhs = (M_minus.component(chi.inverse()).substitute("scale", q ** -0.5)
           .substitute("invert") * (1 - 1.0 / q))
    lhs = lhs * chi.inverse().value(2 % p**chi.level) ** (2 * n)
    dev = lhs.max_relative_deviation(rhs, [0.41, 0.27j, -0.35, 0.22 + 0.31j, 0.55,
                                           -0.13 - 0.4j, 0.61j, 0.18 - 0.22j, -0.52j,
                                           0.33 + 0.1j])
    return {
        "max_deviation": dev,
        "ratfunc_equal": lhs.equals(rhs, tol=FE_PVS_TOL),
        "lhs": lhs,
        "rhs": rhs,
    }


def check_fe_pvs(Phi: LatticeTestFunction, n: int, chi: UnitCharacter, p: int,
                 k: int, sign: int = 1) -> dict:
    """The prehomogeneous functional equation of Phi at one character (see
    fe_pvs_compare)."""
    return fe_pvs_compare(fe_pvs_sides(Phi, n, p, k, sign), n, chi, sign)


def homogeneity_check(Phi: LatticeTestFunction, g_exponents, chi: UnitCharacter,
                      p: int, k: int) -> dict:
    """Homogeneity of the zeta distribution under g = diag(p^{a_i}) on Sym_3.

    With (g Phi)(X) = Phi(g^{-1} X g^{-t}), the substitution X = g Y g^t
    carries |det g|^{m+1} from dX and |det g|^{-2} from the fiber variable:

        f_{g Phi}(t) = |det g|^{m-1} f_Phi(det(g)^{-2} t),

    so (chi(p) = 1) the chi component of the moved function on shell w is
    q^{-(m-1) sum a} times the base's exact one on shell w - 2 sum a.  The
    moved side comes from its own counts on its stable shells: its coset
    enumeration for an entry-wise moved piece, the recursion for the rest."""
    s_a, chi = sum(int(x) for x in g_exponents), chi.at_level(1)
    shells, lo, hi = fiber_shell_values(act_diagonal(Phi, g_exponents, p), False, p, k)
    cosets = unit_group(p, 1)[0]
    moved = character_components(
        [[shells[(w, u)] for u in cosets] for w in range(lo, hi + 1)])[:, chi.exponent]
    base = mellin_transform(fiber_function(Phi, weighted=False, p=p, k=k)).component(chi)
    predicted = base.laurent_coeffs(lo - 2 * s_a, hi - 2 * s_a) * float(p) ** ((1 - Phi.m) * s_a)
    dev = float(np.max(np.abs(moved - predicted))) / max(
        1.0, float(np.max(np.abs(predicted))), float(np.max(np.abs(moved))))
    return {
        "max_deviation": dev,
        "shells_equal": dev <= HOMOGENEITY_TOL,
        "moved": moved,
        "predicted": predicted,
    }
