"""Finite-ring realization of the determinant-fiber zeta theory.

Test functions are finite combinations of pieces

    weight * psi(tr(X C)) * ch(B + p^r Sym_m(Z_p))

(the phase matrix C only acts on the p^{-1}-scale pieces produced by the
lattice Fourier transform).  Fiber counts over Sym_m(Z/p^k) come from a
Jordan-splitting recursion for every m.  Its state carries the Hasse
invariant, so the same recursion gives the Clifford-weighted Sym_3 bins:
counts over Sym_3(Z/p^(k+1)) by det, Clifford sign and tr(Y C) mod p, for
every piece whose mask and phase depend on Y mod p only.  An exhaustive
sweep of Sym_3(Z/p^k), vectorized over the entry index space, serves the
entry-wise masks finer than Y mod p and is the recursion's oracle in tests;
it recovers the extra determinant digit by the linear refinement

    det(Y0 + p^k Z) = det(Y0) + p^k tr(adj(Y0) Z)  (mod p^{2k})

whose value classes spread uniformly when adj(Y0) != 0 mod p and are
constant otherwise.  The shell values

    f_Phi(t) = count(det in t-class) / p^{k(d-1)},      d = m(m+1)/2

are exact on the stable range.  Mellin transforms of fiber functions are
pinned down from the stable shells by their divisibility class (numerator
Laurent polynomial times the plus/minus L-product), with leftover shells
acting as residual checks; that is what turns finite counts into the exact
rational functions the functional-equation verifier compares.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import PadicharmError
from .abelian import UnitCharacter, beta_factor, character_components
from .fxspace import (FxFunction, MellinData, TailSpec, class_denominator,
                      fx_from_mellin, mellin_transform)
from .padic import psi_frac, unit_group, unit_order, unit_part, val_p
from .quadform import legendre
from .ratfunc import RationalFunctionZ

ENUM_BUDGET = 10 ** 9      # cells of one Sym_3(Z/p^k) sweep
# rows of a fiber count table or of refined bins: count-fibers at p = 3,
# k = 12 (531,440 rows) peaks at 262 MB, about 500 bytes a row
ROW_BUDGET = 10 ** 6


class PvsError(PadicharmError):
    pass


def check_budget(p: int, k: int) -> None:
    """Refuse a sweep of Sym_3(Z/p^k) past ENUM_BUDGET cells."""
    cells = float(p) ** (6 * k)
    if cells > ENUM_BUDGET:
        raise PvsError(
            f"enumeration budget exceeded: p^(kd) = {cells:.3g} > {ENUM_BUDGET:.0g}")


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


# ------------------------------------------------------------------ the sweep

# (p, k) -> {job: refined bins over Sym_3(Z/p^(k+1))}, by recursion or sweep
_SWEEP_CACHE: dict = {}


def _legendre_table(p: int) -> np.ndarray:
    return np.array([legendre(a, p) for a in range(p)], dtype=np.int64)


def _mask_vec(mask_spec, x11, x22, m12, m13, m23, m33):
    if mask_spec is None:
        return None
    residues, moduli = mask_spec
    entries = (x11, x22, m33, m12, m13, m23)
    sel = np.ones(m12.shape, dtype=bool)
    for ent, res, mo in zip(entries, residues, moduli):
        if mo > 1:
            sel &= (ent % mo) == (res % mo)
    return sel


def _first_unit_diag_leg(leg, p, d1, d2, d3):
    r1, r2, r3 = d1 % p, d2 % p, d3 % p
    pick = np.where(r1 != 0, r1, np.where(r2 != 0, r2, r3))
    return leg[pick]


def _sigma_vec(p, k, x11, x22, m12, m13, m23, m33, det, a11, a22, a33, adjnz, leg):
    """Vectorized Clifford sign of the integer lift.

    Exact cells (adj = 0 mod p, or det valuation < k) get the sign of their
    own det class; adj != 0 cells with det = 0 mod p^k get the sign of their
    valuation-k refinements, which is refinement-independent:

        v=0: +1                      v=1: L(-1) L(adj diag unit)
        v=2: rank 2 -> +1,           rank 1 -> L(-1) L(j) L(Y diag unit)
        v=3: rank 2 -> L(-1) L(adj), rank 1 -> L(-1) L(Ydiag) L(j) L(adj/p diag)
             rank 0 -> +1
    """
    lm1 = int(leg[(-1) % p])
    sigma = np.zeros(det.shape, dtype=np.int64)

    nz1 = det % p != 0
    sigma[nz1] = 1

    v1 = (~nz1) & (det % p**2 != 0)
    if np.any(v1):
        ladj = _first_unit_diag_leg(leg, p, a11, a22, a33)
        sigma[v1] = lm1 * ladj[v1]

    rank0 = ((x11 % p == 0) & (x22 % p == 0) & (m33 % p == 0)
             & (m12 % p == 0) & (m13 % p == 0) & (m23 % p == 0))
    rank1 = (~adjnz) & (~rank0)
    rank2 = adjnz & (det % p == 0)

    deep2 = det % p**2 == 0
    v2 = deep2 & (det % p**3 != 0)
    if np.any(v2):
        sigma[v2 & rank2] = 1
        sel = v2 & rank1
        if np.any(sel):
            lam1 = _first_unit_diag_leg(leg, p, x11, x22, m33)
            j2 = (det // p**2) % p
            sigma[sel] = lm1 * leg[j2[sel]] * lam1[sel]

    deep3 = det % p**3 == 0
    if k == 2:
        # spread cells target valuation-2 refinements: profile (0,0,2), +1
        sigma[deep3 & rank2] = 1
    else:
        sel = deep3 & rank2
        if np.any(sel):
            ladj = _first_unit_diag_leg(leg, p, a11, a22, a33)
            sigma[sel] = lm1 * ladj[sel]
        v3 = deep3 & (det % p**4 != 0)
        sel = v3 & rank1
        if np.any(sel):
            lam1 = _first_unit_diag_leg(leg, p, x11, x22, m33)
            j3 = (det // p**3) % p
            ladj1 = _first_unit_diag_leg(leg, p, a11 // p, a22 // p, a33 // p)
            sigma[sel] = lm1 * lam1[sel] * leg[j3[sel]] * ladj1[sel]
        sel = v3 & rank0
        if np.any(sel):
            sigma[sel] = 1
    return sigma


def _sweep3_block(p, k, jobs, x11_range):
    """One outer block of the Sym_3(Z/p^k) sweep.

    Bin layouts (key4 = integer det mod p^{k+1}, adjnz = adj(Y) != 0 mod p):
      ("count", mask):       index (key4, adjnz)                -> 2 p^{k+1}
      ("rho", mask, C):      index (key4, adjnz, rho-sign, t)   -> 2 p^{k+1} 2 p
    with t = tr(Y C) mod p; the psi orientation only enters at assembly.
    """
    mod = p**k
    mod4 = p ** (k + 1)
    leg = _legendre_table(p)
    r = np.arange(mod, dtype=np.int64)
    m12, m13, m23, m33 = (a.ravel() for a in np.meshgrid(r, r, r, r, indexing="ij"))
    out = {}
    for job in jobs:
        size = 2 * mod4 if job[0] == "count" else 2 * mod4 * 2 * p
        out[job] = np.zeros(size, dtype=np.int64)
    need_sigma = any(job[0] == "rho" for job in jobs)

    for x11 in x11_range:
        for x22 in range(mod):
            A = x11 * x22 - m12 * m12
            det = (m33 * A + 2 * m12 * m13 * m23
                   - x11 * m23 * m23 - x22 * m13 * m13)
            key4 = det % mod4
            a11 = x22 * m33 - m23 * m23
            a22 = x11 * m33 - m13 * m13
            a33 = A
            a12 = -(m12 * m33 - m23 * m13)
            a13 = m12 * m23 - x22 * m13
            a23 = -(x11 * m23 - m12 * m13)
            adjnz = ((a11 % p != 0) | (a22 % p != 0) | (a33 % p != 0)
                     | (a12 % p != 0) | (a13 % p != 0) | (a23 % p != 0))
            if need_sigma:
                sigma = _sigma_vec(p, k, x11, x22, m12, m13, m23, m33,
                                   det, a11, a22, a33, adjnz, leg)
            for job in jobs:
                sel = _mask_vec(job[1], x11, x22, m12, m13, m23, m33)
                if job[0] == "count":
                    bins = key4 * 2 + adjnz
                    if sel is None:
                        out[job] += np.bincount(bins, minlength=2 * mod4)
                    else:
                        out[job] += np.bincount(bins[sel], minlength=2 * mod4)
                else:
                    _, _, C = job
                    if (sigma == 0).any():
                        bad = (sigma == 0) & (key4 != 0)
                        if sel is not None:
                            bad &= sel
                        if bad.any():
                            raise PvsError(
                                "Clifford sign undefined on a consumed class")
                    if C is None:
                        tvals = np.zeros(det.shape, dtype=np.int64)
                    else:
                        tvals = (x11 * C[0][0] + x22 * C[1][1] + m33 * C[2][2]
                                 + 2 * (m12 * C[0][1] + m13 * C[0][2]
                                        + m23 * C[1][2])) % p
                    s01 = ((1 - sigma) // 2).astype(np.int64)
                    bins = ((key4 * 2 + adjnz) * 2 + s01) * p + tvals
                    usable = sigma != 0
                    if sel is not None:
                        usable &= sel
                    out[job] += np.bincount(bins[usable], minlength=2 * mod4 * 2 * p)
    return out


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


def _sweep_refined(raw, job, p: int, k: int):
    """A job's sweep bins as counts over Sym_3(Z/p^(k+1)): a cell with
    adj = 0 mod p keeps its det mod p^(k+1) on all p^6 lifts, any other cell
    spreads its lifts evenly over the p residues above its det mod p^k."""
    signs, phases = _bin_shape(job, p)
    exact, spread = np.moveaxis(raw.reshape(p ** (k + 1), 2, signs, -1)[..., :phases], 1, 0)
    pooled = spread.reshape(p, p ** k, signs, phases).sum(axis=0)
    return exact * p ** 6 + np.tile(pooled, (p, 1, 1)) * p ** 5


def sweep_bins(p: int, k: int, jobs) -> dict:
    """{job: refined bins} from one exhaustive sweep of Sym_3(Z/p^k).

    The recursion's oracle, and the route for masks finer than Y mod p,
    whose bins go to the cache."""
    check_budget(p, k)
    if k < 2 and any(job[0] == "rho" for job in jobs):
        raise PvsError("Clifford-weighted sweeps need k >= 2")
    raw = _sweep3_block(p, k, tuple(jobs), range(p ** k))
    out = {job: _sweep_refined(raw[job], job, p, k) for job in jobs}
    _SWEEP_CACHE.setdefault((p, k), {}).update(
        {job: b for job, b in out.items() if not _by_recursion(job, p)})
    return out


def precompute_jobs(p: int, k: int, jobs) -> None:
    """Cache the refined bins of the given jobs: by the Jordan-splitting
    recursion when the job depends on Y mod p only, else by one sweep."""
    cache = _SWEEP_CACHE.setdefault((p, k), {})
    missing = [job for job in dict.fromkeys(jobs) if job not in cache]
    cache.update({job: _recursion_bins(p, k, job)
                  for job in missing if _by_recursion(job, p)})
    swept = [job for job in missing if job not in cache]
    if swept:
        sweep_bins(p, k, swept)


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
        a11, a22, a33 = x22 * x33 - x23 * x23, x11 * x33 - x13 * x13, x11 * x22 - x12 * x12
        a12, a13, a23 = x13 * x23 - x12 * x33, x12 * x23 - x22 * x13, x12 * x13 - x11 * x23
        det = (x11 * a11 + x12 * a12 + x13 * a13) % p
        adjnz = np.any(np.stack([a11, a22, a33, a12, a13, a23]) % p != 0, axis=0)
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
        codes, counts = np.unique((rank * (p + 1) + key % (p + 1)) * p + t,
                                  return_counts=True)
        for code, n in zip(codes.tolist(), counts.tolist()):
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


# -------------------------------------------------- shell values and fitting

def _piece_job(piece: LatticePiece, weighted: bool, p: int, k: int):
    """(job, shell shift, prefactor) realizing one piece in the sweep.

    Weighted pieces take a Clifford ("rho") job; so do unweighted pieces
    with a phase at scale -1, whose job carries tr(Y C) mod p (their sign
    is ignored at assembly)."""
    if piece.m != 3:
        raise PvsError("sweep jobs are for m = 3")
    mask, shift, prefactor = None, 0, 1.0
    if piece.moduli is not None:
        if max(piece.moduli) > p**k:
            raise PvsError("entry-wise moduli exceed the sweep precision")
        residues = tuple(piece.B[i][j] % mo for (i, j), mo
                         in zip(_entry_order(3), piece.moduli))
        mask = (residues, piece.moduli)
    elif piece.r >= 0:
        if p**piece.r > p**k:
            raise PvsError("piece scale exceeds the sweep precision")
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


def stable_shell_range(piece: LatticePiece, k: int):
    """(absolute support minimum, top stable shell) for this piece."""
    if piece.moduli is not None or piece.r >= 0:
        return 0, k
    return -3, k - 3


def support_min(piece: LatticePiece, p: int) -> int:
    """A lower bound for ord(det) over the piece's lattice, sharp for pure
    lattices p^r Sym (det lands in p^{mr} Z_p) and entry-wise dilations."""
    if piece.moduli is not None:
        if any(x for row in piece.B for x in row):
            cert = _compact_shell_certificate(piece, p)
            return cert if cert is not None else 0
        # pure lattice: min over permutations of sum_i ord(moduli[i, sigma(i)])
        m = piece.m
        mods = dict(zip(_entry_order(m), piece.moduli))
        best = None
        for perm in itertools.permutations(range(m)):
            tot = 0
            for i in range(m):
                tot += val_p(mods[(min(i, perm[i]), max(i, perm[i]))], p)
            best = tot if best is None else min(best, tot)
        return best
    if piece.r >= 1 and all(x % p**piece.r == 0 for row in piece.B for x in row):
        return piece.m * piece.r
    if piece.r >= 0:
        return 0
    return -piece.m


def fiber_shell_values(Phi: LatticeTestFunction, weighted: bool, p: int, k: int,
                       sign: int = 1):
    """Stable shell values of f_Phi / f_{rho Phi}: shells known for every piece."""
    lo = min(stable_shell_range(q, k)[0] for q in Phi.pieces)
    hi = min(stable_shell_range(q, k)[1] for q in Phi.pieces)
    vals: dict = {}
    for piece in Phi.pieces:
        for (w, u), x in piece_shell_values(piece, weighted, p, k, sign).items():
            vals[(w, u)] = vals.get((w, u), 0.0) + x
    cosets = unit_group(p, 1)[0]
    out = {(w, u): vals.get((w, u), 0.0 + 0.0j)
           for w in range(lo, hi + 1) for u in cosets}
    return out, lo, hi


def _taylor_matrix(D: RationalFunctionZ, degrees, shells):
    """A[row, col] = coefficient of z^(shells[row] - degrees[col]) in D."""
    diff = np.subtract.outer(shells, degrees)
    lo = int(diff.min())
    return D.laurent_coeffs(lo, int(diff.max()))[diff - lo]


def fit_mellin_structured(shells: dict, lo: int, hi: int, kind: str, n: int,
                          p: int, level: int, fit_degree_max=None) -> MellinData:
    """Recover M(f)(z, chi) = c_chi(z) * L-product from stable shell values.

    The numerator runs from the observed support start to fit_degree_max
    (default hi - 1, leaving one residual equation per character); a fit
    residual above 1e-8 of the component's scale is refused."""
    cosets = unit_group(p, level)[0]
    comps = {}
    grid = list(range(lo, hi + 1))
    components = character_components([[shells[(v, u)] for u in cosets] for v in grid])
    for j in range(len(cosets)):
        chi = UnitCharacter(p, level, j)
        mvals = components[:, j]
        scale = float(np.max(np.abs(mvals)))
        if scale < 1e-14:
            continue
        j0 = min(v for v, x in zip(grid, mvals) if abs(x) > 1e-12 * scale)
        j1 = hi - 1 if fit_degree_max is None else fit_degree_max
        j1 = max(j1, j0)
        degrees = list(range(j0, j1 + 1))
        if len(degrees) > len(grid):
            raise PvsError(
                f"insufficient k for tail: {len(degrees)} unknowns vs {len(grid)} shells")
        D = class_denominator(chi, kind, n)
        A = _taylor_matrix(D, degrees, grid)
        sol, *_ = np.linalg.lstsq(A, mvals, rcond=None)
        resid = float(np.max(np.abs(A @ sol - mvals)))
        if resid > 1e-8 * max(1.0, scale):
            raise PvsError(f"insufficient k for tail: fit residual {resid:.3g}")
        c = RationalFunctionZ.from_laurent(
            {deg: complex(x) for deg, x in zip(degrees, sol)})
        comps[j] = c * D
    return MellinData(p, level, comps, (kind, n))


def _compact_shell_certificate(piece: LatticePiece, p: int):
    """If det is provably constant-shell over the piece's lattice, return
    that shell; else None.

    Writes det(B + l) = det(B) det(I + B^{-1} l) and certifies
    det(I + B^{-1} l) in 1 + p Z_p for every lattice element l by min-plus
    valuation bounds on the entries of B^{-1} l (trace, second elementary
    symmetric terms, determinant term all of positive valuation)."""
    from .symplectic import det, inverse
    m = piece.m
    if piece.C is not None:
        return None
    B = [[Fraction(x) for x in row] for row in piece.B]
    detB = det(B)
    if detB == 0:
        return None
    if piece.moduli is not None:
        emat = {key: val_p(mo, p) for key, mo in zip(_entry_order(m), piece.moduli)}
        e = [[emat[(min(i, j), max(i, j))] for j in range(m)] for i in range(m)]
    elif piece.r >= 1:
        e = [[piece.r] * m for _ in range(m)]
    else:
        return None
    Binv = inverse(B)
    big = 10**6
    ordinv = [[(val_p(x, p) if x != 0 else big) for x in row] for row in Binv]
    V = [[min(ordinv[i][t] + e[t][j] for t in range(m)) for j in range(m)]
         for i in range(m)]
    # trace term
    if min(V[i][i] for i in range(m)) < 1:
        return None
    # second elementary symmetric terms
    for i in range(m):
        for j in range(i + 1, m):
            if min(V[i][i] + V[j][j], V[i][j] + V[j][i]) < 1:
                return None
    # determinant term
    for perm in itertools.permutations(range(m)):
        tot = sum(V[i][perm[i]] for i in range(m))
        if tot < 1:
            return None
    return val_p(detB, p)


def fiber_function(Phi: LatticeTestFunction, weighted: bool, p: int, k: int,
                   sign: int = 1, n: int | None = None,
                   fit_degree_max=None) -> FxFunction:
    """The fiber integration f_Phi (f_{rho Phi^} when weighted) as an exact
    FxFunction: unweighted fibers live in S_n^+, weighted ones in S_n^-."""
    m = Phi.m
    if m % 2 == 0:
        raise PvsError("even sizes are out of scope")
    n = (m - 1) // 2 if n is None else n
    if m == 1:
        return _fiber_function_m1(Phi, p, sign)
    shells, lo, hi = fiber_shell_values(Phi, weighted, p, k, sign)
    smin = min(support_min(q, p) for q in Phi.pieces)
    if smin > hi:
        raise PvsError(
            f"insufficient k: support starts at shell {smin}, stable range tops at {hi}")
    if not weighted:
        certs = [_compact_shell_certificate(q, p) for q in Phi.pieces]
        if all(c is not None for c in certs):
            vmax = max(certs)
            if vmax > hi:
                raise PvsError(
                    f"insufficient k: compact support at shell {vmax} beyond {hi}")
            cosets = unit_group(p, 1)[0]
            for w in range(vmax + 1, hi + 1):
                for u in cosets:
                    if abs(shells[(w, u)]) > 1e-12:
                        raise PvsError("compact support certificate contradicted by counts")
            vals = {(w, u): shells[(w, u)] for w in range(lo, vmax + 1)
                    for u in cosets if abs(shells[(w, u)]) > 1e-15}
            return FxFunction(p, 1, lo, vmax + 1, vals, TailSpec.compact())
    kind = "minus" if weighted else "plus"
    Z = fit_mellin_structured(shells, lo, hi, kind, n, p, 1,
                              fit_degree_max=fit_degree_max)
    return fx_from_mellin(Z, kind, n)


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


def check_fe_pvs(Phi: LatticeTestFunction, n: int, chi: UnitCharacter, p: int,
                 k: int, sign: int = 1, hat_fit_degree_max=None) -> dict:
    """The odd-p prehomogeneous functional equation

        chi^{-2n}(2) Z_{rho Phi^}(-s-1/2, chi^{-1})
            = beta_psi(chi_s) Z_Phi(s+1/2-(n+1), chi)

    with both zeta functions built from their own fiber counts."""
    m = 2 * n + 1
    if Phi.m != m:
        raise PvsError("size/n mismatch")
    q = float(p)
    chi = chi.at_level(1)
    Phihat = lattice_fourier(Phi, p, sign)
    f_plus = fiber_function(Phi, weighted=False, p=p, k=k, sign=sign)
    f_minus = fiber_function(Phihat, weighted=True, p=p, k=k, sign=sign,
                             fit_degree_max=hat_fit_degree_max)
    M_plus = mellin_transform(f_plus).component(chi)
    M_minus = mellin_transform(f_minus).component(chi.inverse())
    # Z(s',.) = (1-1/q) M(f)(s'+1): the shifts below are s' = s+1/2-(n+1)
    # on the plus side and s' = -s-1/2 on the minus side
    rhs = (beta_factor(n, chi, sign)
           * M_plus.substitute("scale", q ** (n - 0.5)) * (1 - 1.0 / q))
    lhs = (M_minus.substitute("scale", q ** -0.5).substitute("invert")
           * (1 - 1.0 / q))
    lhs = lhs * chi.inverse().value(2 % p**chi.level) ** (2 * n)
    dev = lhs.max_relative_deviation(rhs, [0.41, 0.27j, -0.35, 0.22 + 0.31j, 0.55,
                                           -0.13 - 0.4j, 0.61j, 0.18 - 0.22j, -0.52j,
                                           0.33 + 0.1j])
    return {
        "max_deviation": dev,
        "ratfunc_equal": lhs.equals(rhs, tol=1e-6),
        "lhs": lhs,
        "rhs": rhs,
    }


def homogeneity_check(Phi: LatticeTestFunction, g_exponents, chi: UnitCharacter,
                      p: int, k: int) -> dict:
    """Homogeneity of the zeta distribution under g = diag(p^{a_i}).

    With (g Phi)(X) = Phi(g^{-1} X g^{-t}), the substitution X = g Y g^t
    carries |det g|^{m+1} from dX and |det g|^{-2} from the fiber variable:

        f_{g Phi}(t) = |det g|^{m-1} f_Phi(det(g)^{-2} t),

    so at the Mellin level (chi(p) = 1) the moved transform is the exact
    monomial multiple z^{2 sum a} q^{-(m-1) sum a} of the base one.  Both
    sides come from their own counts: the sweep for an entry-wise moved
    piece, the recursion for the rest."""
    m = Phi.m
    a = tuple(int(x) for x in g_exponents)
    chi = chi.at_level(1)
    gPhi = act_diagonal(Phi, a, p)
    f_base = fiber_function(Phi, weighted=False, p=p, k=k)
    f_moved = fiber_function(gPhi, weighted=False, p=p, k=k)
    Zb = mellin_transform(f_base).component(chi)
    Zm = mellin_transform(f_moved).component(chi)
    s_a = sum(a)
    factor = RationalFunctionZ.z_power(2 * s_a) * float(p) ** (-(m - 1) * s_a)
    predicted = Zb * factor
    dev = Zm.max_relative_deviation(predicted, [0.4, -0.3, 0.25j, 0.2 + 0.2j, 0.5])
    return {
        "max_deviation": dev,
        "ratfunc_equal": Zm.equals(predicted, tol=1e-8),
        "moved": Zm,
        "predicted": predicted,
    }
