"""Reference implementations the tests compare the package against.

The exhaustive Sym_3(Z/p^k) sweep is the oracle of the jobs' tallies.  It
visits every cell of Sym_3(Z/p^k), vectorized over the entry index space,
computes det mod p^(k+1), whether adj(Y) != 0 mod p and, for Clifford
("rho") jobs, the Clifford sign of the integer lift by a case analysis on
the det valuation and the rank mod p (`_sigma_vec`).  Its counts go through
an adjugate refinement (`_refine_bins`) to refined bins over
Sym_3(Z/p^(k+1)); `fold_tallies` sums them by det valuation and unit digit,
to compare with the tallies of `pvszeta._recursion_tallies` and of
`pvszeta.precompute_jobs`.

The same sweep counts the moved side of the homogeneity check
(`homogeneity_deviation`): g = diag(p^a_i) moves a lattice piece to an
entry-wise mask (`diagonal_mask`) finer than Y mod p, which the package's
one tally path, the recursion, does not serve.

The invariants of nondegenerate symmetric matrices over Q, viewed in Q_p,
are the oracle of the recursion's Hasse state and of the sweep's Clifford
signs.  Everything there is exact rational: congruence diagonalization, the
tame Hilbert symbol (cross-checked against a solvability search over
Z/p^3), the Hasse invariant prod_{i<j}(d_i, d_j)_p, and the odd-size
Clifford invariant

    rho(X) = (-1,-1)^(n(n+1)/2) ((-1)^n, det X) eps_X,   size = 2n+1,

which is constant on GL-orbits X -> g X g^t and, for p odd, invariant
under scalar rescaling X -> cX (the symbols (c,c)^3 (c,-1) collapse to
(c,-c) = 1).

Pointwise evaluation of lattice test functions and the Levi block of the
Siegel factorization are the oracles of `pvszeta.lattice_fourier` and
`diagonal_mask`, and of `symplectic.siegel_factorize`.  Gaussian and
Gauss-Jordan elimination over Fractions are the oracles of `symplectic.det`
and `symplectic.inverse`, which share one integer Bareiss pass; the Levi
block takes its inverse from the Fraction oracle.

The shell integral of eta against a character, averaged over every unit of
the shell from eta's coset values, is the oracle of the single character
component that `gdist.shell_coefficients_sum` reads.

The two functional equations, written out from the paper's statements, are
the oracles of `fxspace.fe_gl1_side` and `pvszeta.fe_pvs_side`, which the
verbs compare at a few sample points: each says whether its two sides are
equal as rational functions, at the 20 sample points of
`RationalFunctionZ.equals`.

The GL(1) shortcuts meet the longer forms they replace, which must give the
very same floats: for the batched `gdist.fourier_n0` and
`fxspace.pv_convolve`, which sum the finitely many shells of a compactly
supported function, a per-point principal-value sum (eta_kernel read coset
by coset where the reflected function is nonzero, summed outward by radius
until stable, to the oracle's own radius and tolerance); gamma built as
the product eps L(1-s, chi^-1) / L(s, chi) for every character; and the
Tate oracle with its truncated and full sums taken separately.

The roots of each Mellin component, found by numpy and cancelled against
those of its numerator, are the oracle of the Paley-Wiener verdict of
`fxspace.fx_from_mellin`, which finds no roots: every pole left must be
simple and one that the component's character can carry.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np

from padicharm import abelian
from padicharm.abelian import (L_factor, OracleError, beta_factor, character_components,
                               epsilon_factor)
from padicharm.fxspace import ZERO_COMPONENT_TOL, FxFunction, eta_kernel, mellin_transform
from padicharm.padic import legendre, psi_frac, unit_group, unit_part, val_p
from padicharm.pvszeta import (PvsError, _entry_order, _rank_census, _split_state,
                               fiber_function)
from padicharm.ratfunc import _padd, _pmul
from padicharm.symplectic import (SymplecticError, block, det, eye, mat, scale, sub,
                                  transpose, zeros)

ENUM_BUDGET = 10 ** 9      # cells of one enumeration
CELL_CHUNK = 1 << 16       # cells per block: about 150 bytes a cell at m = 3, 370 at m = 5


def check_budget(cells: float) -> None:
    """Refuse an enumeration of more than ENUM_BUDGET cells."""
    if cells > ENUM_BUDGET:
        raise PvsError(
            f"enumeration budget exceeded: {cells:.3g} cells > {ENUM_BUDGET:.0g}")


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


def _legendre_table(p):
    return np.array([legendre(a, p) for a in range(p)], dtype=np.int64)


def _first_unit_diag_leg(leg, p, d1, d2, d3):
    """The Legendre symbol of the first of d1, d2, d3 that is a unit."""
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
      ("count", mask, 3):    index (key4, adjnz)                -> 2 p^{k+1}
      ("rho", mask, C, 3):   index (key4, adjnz, rho-sign, t)   -> 2 p^{k+1} 2 p
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
                    C = job[2]
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


def _refine_bins(raw, p: int, k: int, d: int):
    """Counts over Sym_m(Z/p^k) shaped (det mod p^(k+1), adj != 0 mod p, sign,
    t), as counts over Sym_m(Z/p^(k+1)) shaped (det, sign, t): a cell with adj
    = 0 mod p keeps its det mod p^(k+1) on all p^d lifts, d = m(m+1)/2, any
    other spreads them evenly over the p residues above its det mod p^k,
    since det(Y0 + p^k Z) = det(Y0) + p^k tr(adj(Y0) Z) mod p^(2k)."""
    exact, spread = np.moveaxis(raw, 1, 0)
    pooled = spread.reshape(p, p ** k, *raw.shape[2:]).sum(axis=0)
    return exact * p ** d + np.tile(pooled, (p, 1, 1)) * p ** (d - 1)


def sweep_bins(p: int, k: int, jobs) -> dict:
    """{job: refined bins (det mod p^(k+1), sign, t)} from one exhaustive
    sweep of Sym_3(Z/p^k), the oracle of the recursion and the moved side of
    the homogeneity check."""
    check_budget(float(p) ** (6 * k))
    if k < 2 and any(job[0] == "rho" for job in jobs):
        raise PvsError("Clifford-weighted sweeps need k >= 2")
    raw = _sweep3_block(p, k, tuple(jobs), range(p ** k))
    return {job: _refine_bins(raw[job].reshape(p ** (k + 1), 2, *(
        (1, 1) if job[0] == "count" else (2, p))), p, k, 6) for job in jobs}


def fold_tallies(bins, p: int, k: int) -> dict:
    """{(v, u, slot, t): count} of refined bins over Sym_3(Z/p^(k+1)): the
    nonzero rows det = p^v u' mod p^(k+1) summed by v and the unit digit
    u = u' mod p.  The valuation counts the powers p^e, e <= k, that divide
    det, vectorized, apart from the `padic.val_p` loop of
    `pvszeta.precompute_jobs`."""
    det, slot, t = np.nonzero(bins)
    keep = det != 0
    det, slot, t = det[keep], slot[keep], t[keep]
    v = sum((det % p ** e == 0).astype(np.int64) for e in range(1, k + 1))
    u = det // p ** v % p
    out = {}
    for key, n in zip(zip(v.tolist(), u.tolist(), slot.tolist(), t.tolist()),
                      bins[det, slot, t].tolist()):
        out[key] = out.get(key, 0) + n
    return out


def _minor(at, S, p: int):
    """Leibniz' formula mod p for the minor on the index set S of the
    symmetric matrix with entries at[i, j] in [0, p), i <= j, arrays: every
    term is below m! (p - 1)^m, within int64 for m <= 5 at every p < 2000."""
    total = 0
    for perm in itertools.permutations(range(len(S))):
        term = 1
        for i, j in zip(S, perm):
            term = term * at[min(i, S[j]), max(i, S[j])]
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        total = total - term if odd else total + term
    return total % p


def _cell_chunks(m: int, residues, n: int):
    """The cells residue + i of Sym_m, i over [0, n) in each entry of
    `_entry_order`, as {(i, j): flat array} in flat-index order.  A chunk
    fixes all but the last entry and the longest tail of <= CELL_CHUNK cells."""
    d = len(residues)
    check_budget(n ** d)
    a = min((e for e in range(d) if n ** (d - e) <= CELL_CHUNK), default=d - 1)
    axes = [res + np.arange(n).reshape((n,) + (1,) * (d - 1 - e))
            for e, res in enumerate(residues)]
    for lead in itertools.product(range(n), repeat=a):
        yield dict(zip(_entry_order(m), (x.ravel() for x in np.broadcast_arrays(
            *(axes[e][i] for e, i in enumerate(lead)), *axes[a:]))))


def _cell_rank_key(m: int, at, p: int):
    """(rank, key) of cells of Sym_m(F_p) with entries at[i, j]: the size of
    the largest nonsingular principal submatrix, tried from size m down on the
    cells still open, and its minor at full rank, else the minor's Legendre
    class, that of the nondegenerate part (1 at rank 0)."""
    cells = np.arange(at[0, 0].size)
    rank, key, leg = np.zeros_like(cells), np.ones_like(cells), _legendre_table(p)
    for r in range(m, 0, -1):
        for S in itertools.combinations(range(m), r):
            minor = _minor(at, S, p)
            hit = minor != 0
            rank[cells[hit]] = r
            key[cells[hit]] = minor[hit] if r == m else leg[minor[hit]]
            if hit.any():
                cells, at = cells[~hit], {ij: x[~hit] for ij, x in at.items()}
    return rank, key


def enumerated_census(p: int, job) -> dict:
    """The census of `pvszeta._job_census` by enumerating the cells of the
    job's mask, or all p^d of Sym_m(F_p), in the same key order: by the least
    Y0[0, 0] with a cell of that key, then rank, key mod p + 1 and t."""
    m, mask = job[-1], job[1]
    C = job[2] if job[0] == "rho" else None
    d = m * (m + 1) // 2
    residues, n = ([x % p for x in mask[0]], 1) if mask is not None else ((0,) * d, p)
    # one code per (Y0[0, 0], rank, key, t), the class -1 stored as p:
    # decoded in ascending order, the keys come in the order of Y0[0, 0]
    size = p * (m + 1) * (p + 1) * p
    counts = np.zeros(size, dtype=np.int64)
    for at in _cell_chunks(m, residues, n):
        rank, key = _cell_rank_key(m, at, p)
        t = 0 if C is None else sum((1 if i == j else 2) * x * C[i][j]
                                    for (i, j), x in at.items()) % p
        code = ((at[0, 0] * (m + 1) + rank) * (p + 1) + key % (p + 1)) * p + t
        counts += np.bincount(code, minlength=size)
    out = Counter()
    for code in np.flatnonzero(counts).tolist():
        rest, t = divmod(code, p)
        r, key = divmod(rest % ((m + 1) * (p + 1)), p + 1)
        out[(r, -1 if key == p else key, t)] += int(counts[code])
    return dict(out)

def diagonal_mask(Phi, exponents, p: int) -> tuple:
    """The (residues, moduli) mask, in `_entry_order`, of g Phi for Phi one
    phaseless lattice piece ch(B + p^r Sym_m(Z_p)) and g = diag(p^a_i), a_i
    >= 0, where (g Phi)(X) = Phi(g^{-1} X g^{-t}): X = g Y g^t has x_ij =
    p^(a_i + a_j) y_ij, so g Phi is the indicator of {x_ij = p^(a_i + a_j)
    B_ij mod p^(r + a_i + a_j)}; a modulus 1 leaves its entry free."""
    (piece,), a = Phi.pieces, tuple(int(x) for x in exponents)
    if len(a) != Phi.m or min(a) < 0 or piece.r + 2 * min(a) < 0 or piece.C is not None:
        raise PvsError("the diagonal action takes a phaseless piece, a_i >= 0 and "
                       "an integral moved lattice")
    order = _entry_order(Phi.m)
    moduli = tuple(p ** (piece.r + a[i] + a[j]) for i, j in order)
    return tuple(piece.B[i][j] * p ** (a[i] + a[j]) % mo
                 for (i, j), mo in zip(order, moduli)), moduli


def homogeneity_deviation(Phi, exponents, chi, p: int, k: int, sweep=sweep_bins) -> float:
    """Homogeneity of the zeta distribution under g = diag(p^a_i) on Sym_3,
    for Phi one phaseless lattice piece.

    With (g Phi)(X) = Phi(g^{-1} X g^{-t}), the substitution X = g Y g^t
    carries |det g|^{m+1} from dX and |det g|^{-2} from the fiber variable:

        f_{g Phi}(t) = |det g|^{m-1} f_Phi(det(g)^{-2} t),

    so (chi(p) = 1) the chi component of the moved function on shell w is
    q^{-(m-1) sum a} times the base's exact one on shell w - 2 sum a.  The
    moved side is counted: `sweep` (`sweep_bins` or a cache of it) bins the
    count job of `diagonal_mask`, `fold_tallies` sums it, and shell w = 0..k
    holds weight count / p^((k+1)(d-1)+k-w), as in `pvszeta.piece_shell_values`.
    The base is the package's exact series (`fiber_function`,
    `mellin_transform`, `laurent_coeffs`).  Returns the largest deviation of
    the moved shells from the predicted ones, relative to the largest of
    either (and 1)."""
    (piece,), m = Phi.pieces, Phi.m
    d, s_a, chi = m * (m + 1) // 2, sum(exponents), chi.at_level(1)
    job = "count", diagonal_mask(Phi, exponents, p), m
    if max(job[1][1]) > p ** k:
        raise PvsError("the moved mask is finer than Sym_3(Z/p^k)")
    cosets = unit_group(p, 1)[0]
    shells = {(w, u): 0j for w in range(k + 1) for u in cosets}
    for (v, u, _, _), count in fold_tallies(sweep(p, k, [job])[job], p, k).items():
        shells[(v, u)] += count / p ** ((k + 1) * (d - 1) + k - v) * piece.weight
    moved = [row[chi.exponent] for row in character_components(
        [[shells[(w, u)] for u in cosets] for w in range(k + 1)])]
    base = mellin_transform(fiber_function(Phi, False, p, k)).component(chi)
    scale = float(p) ** ((1 - m) * s_a)
    predicted = [c * scale for c in base.laurent_coeffs(-2 * s_a, k - 2 * s_a)]
    return max(abs(x - y) for x, y in zip(moved, predicted)) / max(
        1.0, max(map(abs, predicted)), max(map(abs, moved)))


# ------------------------------------------------------ quadratic forms

class QuadFormError(ValueError):
    pass


def _as_sym(rows):
    M = mat(rows)
    m = len(M)
    if any(len(row) != m for row in M):
        raise QuadFormError("matrix is not square")
    for i in range(m):
        for j in range(m):
            if M[i][j] != M[j][i]:
                raise QuadFormError("matrix is not symmetric")
    return M


def diagonalize(rows):
    """Congruence diagonalization: returns (diag entries, P) with P X P^t diagonal."""
    A = _as_sym(rows)
    m = len(A)
    P = eye(m)
    if det(A) == 0:
        raise QuadFormError("singular matrix")

    def add_row_col(dst, src, factor):
        # simultaneous row and column operation keeps symmetry
        for t in range(m):
            A[dst][t] += factor * A[src][t]
        for t in range(m):
            A[t][dst] += factor * A[t][src]
        for t in range(m):
            P[dst][t] += factor * P[src][t]

    def swap(i, j):
        A[i], A[j] = A[j], A[i]
        for row in A:
            row[i], row[j] = row[j], row[i]
        P[i], P[j] = P[j], P[i]

    for i in range(m):
        if A[i][i] == 0:
            found = False
            for j in range(i + 1, m):
                if A[j][j] != 0:
                    swap(i, j)
                    found = True
                    break
            if not found:
                for j in range(i + 1, m):
                    if A[i][j] != 0:
                        add_row_col(i, j, Fraction(1))
                        found = True
                        break
            if not found:
                raise QuadFormError("singular matrix")
        piv = A[i][i]
        for j in range(i + 1, m):
            if A[j][i] != 0:
                add_row_col(j, i, -A[j][i] / piv)
    return [A[i][i] for i in range(m)], P


def hilbert_symbol(a, b, p: int) -> int:
    """Tame symbol for odd p: (a,b) = (-1)^(alpha beta (p-1)/2) (u|p)^beta (v|p)^alpha."""
    if p == 2:
        raise QuadFormError("p = 2 unsupported")
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise QuadFormError("Hilbert symbol needs nonzero entries")
    al, bl = val_p(a, p), val_p(b, p)
    ua, ub = unit_part(a, p, 1), unit_part(b, p, 1)
    sign = -1 if (al * bl * ((p - 1) // 2)) % 2 else 1
    return sign * legendre(ua, p) ** (bl % 2) * legendre(ub, p) ** (al % 2)


def hilbert_symbol_oracle(a, b, p: int, k: int = 3) -> int:
    """Solvability search: +1 iff z^2 = a x^2 + b y^2 has a primitive
    solution over Z/p^k (k = 3 is Hensel-sufficient for odd p after
    square-class reduction)."""
    if p == 2:
        raise QuadFormError("p = 2 unsupported")

    def reduce(c):
        c = Fraction(c)
        v = val_p(c, p) % 2
        u = unit_part(c, p, 1)
        return p**v * u % p ** k

    aa, bb = reduce(a), reduce(b)
    mod = p**k
    squares = {z * z % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % p == 0 and y % p == 0:
                continue
            if (aa * x * x + bb * y * y) % mod in squares:
                return 1
    return -1


def hasse_invariant(rows, p: int) -> int:
    """eps_X = prod_{i<j} (d_i, d_j)_p over a congruence diagonalization."""
    d, _ = diagonalize(rows)
    out = 1
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            out *= hilbert_symbol(d[i], d[j], p)
    return out


def clifford_rho(rows, p: int) -> int:
    """The Clifford invariant of an odd-size nondegenerate symmetric matrix."""
    M = _as_sym(rows)
    m = len(M)
    if m % 2 == 0:
        raise QuadFormError("clifford_rho needs odd size 2n+1")
    n = (m - 1) // 2
    d = det(M)
    if d == 0:
        raise QuadFormError("singular matrix")
    h1 = hilbert_symbol(-1, -1, p) ** ((n * (n + 1) // 2) % 2)
    h2 = hilbert_symbol(Fraction((-1) ** n), d, p)
    return h1 * h2 * hasse_invariant(M, p)


# ------------------------------------------- lattice functions, Levi block

def evaluate_lattice_function(Phi, X, p: int, sign: int = 1) -> complex:
    """Pointwise value of a `pvszeta.LatticeTestFunction` at a rational
    symmetric matrix X."""
    m = Phi.m
    total = 0.0 + 0.0j
    for piece in Phi.pieces:
        ok = True
        for i, j in _entry_order(m):
            diff = (Fraction(X[i][j]) - piece.B[i][j]) / Fraction(p) ** piece.r
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


def fraction_det(A) -> Fraction:
    """det A by Gaussian elimination over Fractions: the oracle of
    `symplectic.det`."""
    M = [row[:] for row in A]
    m = len(M)
    out = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            out = -out
        out *= M[col][col]
        inv = Fraction(1) / M[col][col]
        for r in range(col + 1, m):
            f = M[r][col] * inv
            if f:
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return out


def fraction_inverse(A):
    """A^{-1} by Gauss-Jordan elimination over Fractions: the oracle of
    `symplectic.inverse`."""
    m = len(A)
    M = [row[:] + eye(m)[i] for i, row in enumerate(mat(A))]
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col] != 0), None)
        if piv is None:
            raise SymplecticError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(m):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[m:] for row in M]


def levi_block_of_p_std(h, n: int):
    """diag((1/2)(h^t - I), 2 (h - I)^{-1}): the Levi part of p_std, its
    inverse taken by the Fraction oracle."""
    I = eye(2 * n)
    top = scale(sub(transpose(mat(h)), I), Fraction(1, 2))
    bot = scale(fraction_inverse(sub(mat(h), I)), 2)
    z = zeros(2 * n)
    return block([[top, z], [z, bot]])


def fraction_size_denominator(p: int, lo: int, hi: int) -> tuple:
    """prod_{lo < s <= hi} (1 - p^(-2 d_s) z^(2s)) in Fractions, ascending."""
    out = (Fraction(1),)
    for s in range(lo + 1, hi + 1):
        c = -Fraction(1, p ** (s * (s + 1)))
        out = _padd(out, (0,) * (2 * s) + tuple(x * c for x in out))
    return out


@lru_cache(maxsize=None)
def fraction_size_series(m: int, p: int) -> dict:
    """G_m(z) of `pvszeta._size_series` in Fractions: {state (w mod 2, eps,
    c): numerator over fraction_size_denominator(p, 0, m)}.  The cells of
    rank r >= 1 give A, the sum of N_m(r, delta) p^-d z^(m-r) G_{m-r} moved
    by the rank-r block, and G_m = A + p^-d z^m T A, T the move of Y -> pY."""
    if m == 0:
        return {(0, 1, 1): (Fraction(1),)}
    ell, d = legendre(-1, p), m * (m + 1) // 2

    def move_into(out, series, s, delta, factor):
        for state, num in series.items():
            w, eps, c = _split_state(state, s, delta, ell)
            out[(w % 2, eps, c)] = _padd(out.get((w % 2, eps, c), ()), _pmul(factor, num))

    A: dict = {}
    for (r, delta), n in _rank_census(m, p).items():
        if r and n:
            lift = (0,) * (m - r) + tuple(Fraction(n, p ** d) * x for x in
                                          fraction_size_denominator(p, m - r, m - 1))
            move_into(A, fraction_size_series(m - r, p), m - r, delta, lift)
    G = dict(A)
    move_into(G, A, m, 1, (0,) * m + (Fraction(1, p ** d),))
    return G


def fe_gl1_holds(sides, n: int, chi, sign: int = 1, tol: float = 1e-8) -> bool:
    """Whether the GL(1) functional equation holds on sides = (M(L(f) |.|^{-(2n+1)/2}),
    M(f |.|^{(2n+1)/2})) of `fxspace.fe_gl1_sides`:

        M(L(f) |.|^{-(2n+1)/2})(z^{-1}, chi^{-1}) = beta_psi(chi_s) M(f |.|^{(2n+1)/2})(z, chi).
    """
    transformed, scaled = sides
    chi = chi.at_level(scaled.level)
    lhs = transformed.component(chi.inverse()).substitute("invert")
    rhs = beta_factor(n, chi, sign) * scaled.component(chi)
    return lhs.equals(rhs, tol)


def _zeta(M, chi, shift):
    """Z(s + shift, chi) = (1 - 1/q) M(f)(s + shift + 1, chi) as a rational
    function of z = q^-s, from the Mellin transform M of a fiber function f."""
    q = float(M.p)
    return M.component(chi).substitute("scale", q ** -(shift + 1)) * (1 - 1 / q)


def fe_pvs_holds(sides, n: int, chi, sign: int = 1, tol: float = 1e-6) -> bool:
    """Whether the prehomogeneous functional equation holds on sides = (M(f_Phi),
    M(f_{rho Phi^})) of `pvszeta.fe_pvs_sides`:

        chi^{-2n}(2) Z_{rho Phi^}(-s-1/2, chi^{-1}) = beta_psi(chi_s) Z_Phi(s+1/2-(n+1), chi),

    where Z(-s-1/2) is Z(s-1/2) at z -> 1/z."""
    plus, minus = sides
    chi = chi.at_level(1)
    lhs = _zeta(minus, chi.inverse(), -0.5).substitute("invert") * chi.value(2) ** (-2 * n)
    rhs = beta_factor(n, chi, sign) * _zeta(plus, chi, 0.5 - (n + 1))
    return lhs.equals(rhs, tol)


def shell_coefficient_by_units(ell: int, chi, z: complex, sign: int = 1) -> complex:
    """f_ell(chi_s) = z^ell avg_u eta_N(p^ell u) chi(u): the shell integral of
    the level-N coset average of eta against chi_s over |a| = q^{-ell}, as a
    sum over the units of eta_kernel's coset values."""
    cosets = unit_group(chi.p, chi.level)[0]
    total = sum(eta_kernel(0, sign, ell, u, chi.p, chi.level) * chi.value(u) for u in cosets)
    return z**ell * total / len(cosets)


# pointwise_fourier_n0 sums out to radius PV_K_MAX and stops at three partial
# sums within PV_TOL of max(1, |sum|): 1e-4 of the 1e-6 at which fourier-n0
# judges its double transform
PV_K_MAX = 40
PV_TOL = 1e-10


class StabilizationError(RuntimeError):
    pass


def pointwise_pv_convolve(kernel, f, k0: int, u0: int, K_max: int, tol: float) -> complex:
    """sum_shells kernel(x) f(x^{-1} t) at t = p^k0 u0 alone, kernel(k, u)
    read coset by coset where f's target coset is nonzero, summed outward by
    radius until three partial sums agree within tol (from the radius that
    sweeps past f's window)."""
    p, N = f.p, f.level
    mod = p**N
    cosets = unit_group(p, N)[0]
    partial_sums, total = [], 0.0 + 0.0j
    K_start = max(2, abs(k0 - f.k_min), abs(k0 - (f.k_tail - 1)))
    for K in range(K_max + 1):
        for i in [K] if K == 0 else [K, -K]:
            sh = 0.0 + 0.0j
            for u in cosets:
                fv = f.evaluate(k0 - i, u0 * pow(u, -1, mod) % mod)
                if fv != 0:
                    sh += kernel(i, u) * fv
            total += sh / len(cosets)
        partial_sums.append(total)
        if K >= K_start:
            a, b, c = partial_sums[-3:]
            scale = max(1.0, abs(c))
            if abs(a - b) <= tol * scale and abs(b - c) <= tol * scale:
                return total
    raise StabilizationError(f"pv convolution did not stabilize by K={K_max}")


def pointwise_fourier_n0(phi, k0: int, u0: int, sign: int = 1) -> complex:
    """(Phi * phi^v)(p^k0 u0) at n = 0 for one point: phi reflected, and the
    pv sum of eta_kernel against it to radius PV_K_MAX at tolerance PV_TOL."""
    p, level = phi.p, phi.level
    refl = phi.reflect()
    ks = [k for k, _ in refl] or [0]
    phiv = FxFunction(p, level, min(ks), max(ks) + 1, refl)
    return pointwise_pv_convolve(lambda k, u: eta_kernel(0, sign, k, u, p, level),
                                 phiv, k0, u0, PV_K_MAX, PV_TOL)


def gamma_factor_composed(chi, sign: int = 1):
    """gamma(s, chi, psi) = eps(s, chi, psi) L(1-s, chi^{-1}) / L(s, chi) as
    that product, for ramified chi too."""
    l_dual = L_factor(chi.inverse()).substitute("scale", 1.0 / chi.p).substitute("invert")
    return epsilon_factor(chi, sign) * l_dual / L_factor(chi)


# roots of float polynomials this close, relative to their size, are one
# root: np.roots finds a double root only to about sqrt(eps) ~ 1e-8
ROOT_TOL = 1e-5


def _roots(c) -> list:
    """The roots of the polynomial c (ascending coefficients), z = 0 included."""
    return list(np.roots(np.array(c[::-1]))) if len(c) > 1 else []


def paley_wiener_by_roots(Z, kind: str, n: int) -> bool:
    """fx_from_mellin's class verdict from the poles themselves: the roots of
    each nonzero component's denominator, less those it shares with its
    numerator, must be z = 0 or simple poles z = 1/alpha at an alpha of the
    class that the character's beta can carry: plus 1 and +-q^-(i+1/2),
    minus q^-n and +-q^-i (i < n), the first for unramified chi only and
    the pairs for unramified chi^2 only."""
    q = float(Z.p)
    if kind == "plus":
        first, pairs = 1.0, [q ** -(i + 0.5) for i in range(n)]
    else:
        first, pairs = q ** -float(n), [q ** -float(i) for i in range(n)]
    for j, R in Z.comps.items():
        if R.is_zero(ZERO_COMPONENT_TOL):
            continue
        chi = abelian.UnitCharacter(Z.p, Z.level, j)
        carried = [first] if abelian.conductor(chi) == 0 else []
        if abelian.conductor(chi.square()) == 0:
            carried += [a for alpha in pairs for a in (alpha, -alpha)]
        zeros, poles = _roots(R.num), []
        for r in _roots(R.den):
            shared = [i for i, x in enumerate(zeros)
                      if abs(x - r) <= ROOT_TOL * max(abs(r), 1.0)]
            if shared:
                del zeros[shared[0]]
            elif abs(r) > ROOT_TOL:
                poles.append(r)
        for i, r in enumerate(poles):
            if any(abs(r - x) <= ROOT_TOL * abs(r) for x in poles[:i]):
                return False
            if not any(abs(r * a - 1) <= ROOT_TOL for a in carried):
                return False
    return True


def _left_sum(terms) -> complex:
    total = 0
    for t in terms:
        total = total + t
    return total


def tate_gamma_by_two_sums(chi, s: complex, sign: int = 1) -> complex:
    """tate_gamma_oracle's ratio with its truncated sum (shells k <= truncation)
    and its full sum each taken on its own, left to right from 0, as
    builtin sum() adds complex terms through CPython 3.13."""
    p, N = chi.p, chi.level
    za_pow, zb_pow = abelian._z_powers(p, N, s)
    ratios = []
    for b, a in abelian._oracle_shells(p, N, chi.exponent, sign):
        za = [x * y for x, y in zip(a, za_pow)]
        za1, za2 = _left_sum(za[:abelian._TRUNCATION + N + 1]), _left_sum(za)
        zb = _left_sum(x * y for x, y in zip(b, zb_pow))
        if abs(za1 - za2) > abelian._ORACLE_TOL * max(abs(za2), 1.0):
            raise OracleError("truncation not stabilized")
        if abs(zb) < abelian._ZETA_FLOOR:
            raise OracleError("denominator zeta integral vanished at this sample")
        ratios.append(za2 / zb)
    if abs(ratios[0] - ratios[1]) > abelian._ORACLE_TOL * max(abs(ratios[0]), 1.0):
        raise OracleError("gamma ratio depends on the test function")
    return complex(ratios[0])
