"""Finite-ring realization of the determinant-fiber zeta theory on Sym_m.

Test functions are finite combinations of pieces

    weight * psi(tr(X C)) * ch(B + p^r Sym_m(Z_p))

(the phase matrix C only acts on the p^{-1}-scale pieces produced by the
lattice Fourier transform).  Fiber counts over Sym_m(Z/p^k) come from a
Jordan-splitting recursion for every m.  Its state carries the Hasse
invariant, so at odd m = 2n + 1 the same recursion gives each job's
tallies: the cells of Sym_m(Z/p^(k+1)) whose det lies in p^v u (1 + p Z_p),
v <= k, by Clifford sign and tr(Y C) mod p, for every piece whose mask and
phase depend on Y mod p only: the pieces of scale -1, 0 and 1, the only
ones accepted.  This is the one tally path.  Homogeneity under diagonal
g = diag(p^a_i), whose moved pieces have entry-wise masks finer than Y mod
p, is checked by the test oracles against their exhaustive Sym_3 sweep
(`tests/oracles.py`), not here.  The shell values

    f_Phi(t) = count(det in t-class) / p^{k(d-1)},      d = m(m+1)/2

are exact on the stable range.  Summed over all depths, the recursion is
a rational generating function of det over Sym_m(Z_p), one per state, with
the known denominator prod_{s <= m} (1 - p^(-2 d_s) z^(2s)).  Summed over a
job's census cells, it gives the Mellin transform of every fiber function
the recursion serves exactly, and the depth-k shells above cross-check it.
fe_pvs_compare measures the functional equation of those rational functions,
and returns its deviation for the caller to judge.
At m = 1 (n = 0) det is the identity, so f_Phi = Phi, and the functional
equation is Tate's.

A job's census of Sym_m(F_p) enumerates nothing: MacWilliams' closed form,
one congruence diagonalization of a masked job's cell, or an exact
recursion over a phased job's diagonalized phase (`_diagonal_census`).  It,
the recursion and the exact series are plain Python on ints, polynomials
over Z[1/p] (int tuples over one power of p) and tuples of floats: no numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import PadicharmError
from .abelian import UnitCharacter, beta_factor, character_components
from .fxspace import (FxFunction, MellinData, TailSpec, fx_from_mellin,
                      mellin_transform)
from .padic import legendre, psi_frac, unit_group, unit_order
from .ratfunc import RationalFunctionZ, _padd, _pmul

# rows of a fiber count table: count-fibers at p = 3, k = 12 (531,440 rows)
# peaks at 262 MB, about 500 bytes a row
ROW_BUDGET = 10 ** 6
SERIES_TOL = 1e-12   # exact series against the recursion's shells; rounding is ~1e-14


class PvsError(PadicharmError):
    pass


def check_rows(rows: float) -> None:
    """Refuse a table of more than ROW_BUDGET rows."""
    if rows > ROW_BUDGET:
        raise PvsError(f"row budget exceeded: {rows:.3g} rows > {ROW_BUDGET:.0g}")


def _entry_order(m: int):
    """The entries (i, j), i <= j, of Sym_m: the diagonal first, then i < j
    row by row.  A job's mask lists its residues and moduli in this order."""
    return ([(i, i) for i in range(m)]
            + [(i, j) for i in range(m) for j in range(i + 1, m)])


# ------------------------------------------------------------- test functions

@dataclass(frozen=True)
class LatticePiece:
    """weight * psi_sign(tr(X C)) * ch(B + p^r Sym(Z_p)), B and C integral."""
    m: int
    B: tuple
    r: int
    weight: complex
    C: tuple | None = None


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


# ------------------------------------------------------------------- tallies

# (p, k) -> {job: tallies {(v, u, slot, t): count}}, by `_recursion_tallies`:
# the job's cells of Sym_m(Z/p^(k+1)) whose det lies in p^v u (1 + p Z_p),
# v <= k and u a unit digit, by Clifford sign slot and t = tr(Y C) mod p.
# A job is ("count", mask, m) or ("rho", mask, C, m): mask None or
# (residues, moduli) in `_entry_order` with every modulus p, C a phase matrix
# or None, and the size m last, so that jobs of different sizes never share
# an entry
_SWEEP_CACHE: dict = {}


def precompute_jobs(p: int, k: int, jobs) -> None:
    """Cache the tallies of the given jobs, each by the Jordan-splitting
    recursion (`_recursion_tallies`)."""
    cache = _SWEEP_CACHE.setdefault((p, k), {})
    for job in dict.fromkeys(jobs):
        if job not in cache:
            cache[job] = _recursion_tallies(p, k, job)


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


def _diagonalize(M, p: int):
    """(D, det P), D = P M P^t diagonal, of the symmetric M over F_p by
    symmetric elimination.  A zero pivot a_ii with a_ij != 0, j > i, first
    takes x_i -> x_i +- x_j (2 a_ij + a_jj and -2 a_ij + a_jj are not both 0);
    each pivot is scaled by a square to 1 or the least nonsquare."""
    A = [[x % p for x in row] for row in M]
    m, det = len(A), 1
    nonsquare = next(a for a in range(2, p) if legendre(a, p) == -1)
    for i in range(m):
        j = next((j for j in range(i + 1, m) if A[i][j]), None)
        if A[i][i] == 0 and j is not None:
            lam = 1 if (2 * A[i][j] + A[j][j]) % p else -1
            A[i] = [(x + lam * y) % p for x, y in zip(A[i], A[j])]
            for row in A:
                row[i] = (row[i] + lam * row[j]) % p
        if A[i][i]:
            for j in range(i + 1, m):
                for k in range(i + 1, m):
                    A[j][k] = (A[j][k] - A[j][i] * A[i][k] * pow(A[i][i], -1, p)) % p
            s = next(s for s in range(1, p) if s * s * A[i][i] % p in (1, nonsquare))
            A[i][i], det = s * s * A[i][i] % p, det * s % p
    return tuple(A[i][i] for i in range(m)), det


@lru_cache(maxsize=None)
def _diagonal_census(p: int, D: tuple) -> dict:
    """{(r, key, t): count} over Sym_m(F_p), m = len(D), by rank, key (as in
    `_job_census`) and t = sum_i d_i y_ii.  Split Y = [[a, b^t], [b, Y1]]:
    - a != 0: Y ~ (a) + Z, Z = Y1 - b b^t / a, and the b for each Z solve
      sum_(i>1) d_i b_i^2 = a c, c = t - d_1 a - t_Z: with e of these d_i
      nonzero, of product delta, p^(m-1-e) (p^e + p^(e/2) eta w(c)) / p of
      them, eta = ((-1)^(e/2) delta | p), w(c) = p (c | p) at odd e, else
      p [c = 0] - 1 (Lidl and Niederreiter, Finite Fields, Thms 6.26-6.27);
    - a = 0, b = 0: Y = 0 + Y1;
    - a = 0, b_j the first b_i != 0: Y ~ H + Z, H hyperbolic of det -b_j^2
      and Z over Sym_(m-2) of D without d_1, d_j; t is uniform over F_p
      unless d_j = 0 and every later d_i b_i = 0, where t = t_Z.
    Keys come by the least y_11 with a cell of the key, then r, key mod p + 1
    and t: an enumeration's order at D = I."""
    if not D:
        return {(0, 1, 0): 1}
    m, rest, ell = len(D), D[1:], legendre(-1, p)
    parts = [Counter() for _ in range(p)]        # the cells by a = y_11
    for (r, key, t), n in _diagonal_census(p, rest).items():
        parts[0][(r, legendre(key, p) if r == m - 1 else key, t)] += n
    for j in range(m - 1):
        later = rest[j + 1:]
        fixed = math.prod(p for x in later if x == 0) if rest[j] == 0 else 0  # b per b_j, t = t_Z
        for (r, key, t), n in _diagonal_census(p, rest[:j] + later).items():
            for b in range(1, p):
                x = r + 2, -b * b * key % p if r == m - 2 else ell * key
                parts[0][(*x, t)] += n * fixed * p ** (m - 1)
                for s in range(p):
                    parts[0][(*x, s)] += n * (p ** len(later) - fixed) * p ** (m - 2)
    units = [x for x in rest if x]
    e, eta = len(units), legendre((-1) ** (len(units) // 2) * math.prod(units), p)
    sols = [p ** (m - 1 - e) * (p ** e + p ** (e // 2) * eta * (
        p * legendre(c, p) if e % 2 else p * (c == 0) - 1)) // p for c in range(p)]
    for a in range(1, p):
        for (r, key, t), n in _diagonal_census(p, rest).items():
            x = r + 1, a * key % p if r == m - 1 else legendre(a, p) * key
            for c in range(p):     # c = t' - d_1 a - t_Z
                parts[a][(*x, (t + D[0] * a + c) % p)] += n * sols[a * c % p]
    first = {x: a for a in reversed(range(p)) for x, n in parts[a].items() if n}
    census = sum(parts, Counter())
    return {x: census[x] for x in sorted(
        census, key=lambda x: (first[x], x[0], x[1] % (p + 1), x[2]))}


@lru_cache(maxsize=None)
def _job_census(p: int, job) -> dict:
    """{(r, key, t): count} over the cells Y0 of Sym_m(F_p) inside the job's
    mask, by rank r, phase t = tr(Y0 C) mod p and key: the class of the
    nondegenerate part, or at full rank m det Y0 mod p itself, which every
    lift keeps.  None is enumerated: no mask or phase takes MacWilliams'
    census, a mask (never phased) diagonalizes its one cell, and a phase
    P C P^t = D reads `_diagonal_census(D)` through Y -> P^-t Y P^-1."""
    m, mask = job[-1], job[1]
    C = job[2] if job[0] == "rho" else None
    if mask is not None:
        entry = dict(zip(_entry_order(m), mask[0]))
        D, det_P = _diagonalize([[entry[min(i, j), max(i, j)] for j in range(m)]
                                 for i in range(m)], p)
        r, det = m - D.count(0), math.prod(x for x in D if x) * pow(det_P, -2, p) % p
        return {(r, det if r == m else legendre(det, p), 0): 1}
    if C is None:
        census = _rank_census(m, p)
        return {**{(r, delta, 0): n for (r, delta), n in census.items() if r < m and n},
                **{(m, a, 0): census[(m, legendre(a, p))] // ((p - 1) // 2) for a in range(1, p)}}
    D, det_P = _diagonalize(C, p)
    return {(r, key * det_P ** 2 % p if r == m else key, t): n
            for (r, key, t), n in _diagonal_census(p, D).items()}


def _recursion_tallies(p: int, k: int, job) -> dict:
    """A job's tallies {(v, u, slot, t): count}, v <= k: its cells of
    Sym_m(Z/p^(k+1)) whose det lies in p^v u (1 + p Z_p), by Clifford sign
    slot (0 for +1; always 0 on a count job) and t = tr(Y C) mod p, by
    Jordan splitting.

    Each cell Y0 of the job's census has p^((K-1)(d - d_s)) lifts per Z in
    Sym_s(Z/p^(K-1)), K = k + 1, d = d_m and s = m - rank, moved by
    `_split_state`; the Clifford sign at size m = 2n + 1 is
    rho = (-1, -1)^(n(n+1)/2) ((-1)^n, det) c = ell^(n v) c.  At full rank
    all p^(d(K-1)) lifts keep det Y0 mod p, with rho = +1; below it, the
    lifts spread evenly over the (p - 1)/2 unit digits of the det's class."""
    m = job[-1]
    n, d, K = (m - 1) // 2, m * (m + 1) // 2, k + 1
    ell = legendre(-1, p)
    digits = {eps: [u for u in range(1, p) if legendre(u, p) == eps] for eps in (1, -1)}
    tallies = Counter()
    for (r, key, t), count in _job_census(p, job).items():
        if r == m:
            tallies[(0, key, 0, t)] += count * p ** (d * (K - 1))
            continue
        s = m - r
        lifts = count * p ** ((K - 1) * (d - s * (s + 1) // 2))
        for state, c in _det_class_counts(s, p, K - 1)[0].items():
            v, eps, hasse = _split_state(state, s, key, ell)
            if v < K and c:
                slot = (1 - ell ** (n * v % 2) * hasse) // 2 if job[0] == "rho" else 0
                for u in digits[eps]:
                    tallies[(v, u, slot, t)] += lifts * c // ((p - 1) // 2)
    return dict(tallies)


# ------------------------------------------- the recursion summed over depths

# An exact polynomial is a pair (c, e) over Z[1/p]: c a tuple of ints in
# ascending order, read as c / p^e.  No gcd is taken: a product adds the
# exponents, a sum rescales the operand of smaller e by p^(difference).
# Once taken at pz it is a tuple of floats.  _padd and _pmul are ratfunc's.

def _shifted(c, s: int) -> tuple:
    """z^s times the polynomial c, a tuple."""
    return (0,) * s + tuple(c)


def _at_pz(c, p: int) -> tuple:
    """The exact polynomial (c, e) as c(pz) / p^e, in correctly rounded floats."""
    q = p ** c[1]
    return tuple(a * p ** i / q for i, a in enumerate(c[0]))


@lru_cache(maxsize=None)
def _size_denominator(p: int, lo: int, hi: int) -> tuple:
    """prod_{lo < s <= hi} (1 - p^(-2 d_s) z^(2s)) as an exact pair (c, e)."""
    x, e = (1,), 0
    for s in range(lo + 1, hi + 1):
        q, e = p ** (s * (s + 1)), e + s * (s + 1)
        x = _padd(tuple(a * q for a in x), _shifted([-a for a in x], 2 * s))
    return x, e


def _move_into(out: dict, series: dict, s: int, delta: int, factor, ell: int, p: int) -> None:
    """Add factor times each exact numerator of a size-s series to `out`, at
    its state moved by a unit block of class delta (`_split_state`)."""
    for state, (num, n) in series.items():
        w, eps, c = _split_state(state, s, delta, ell)
        key = w % 2, eps, c
        (x, e), (y, f) = out.get(key, ((), 0)), (_pmul(factor[0], num), factor[1] + n)
        if e < f:
            (x, e), (y, f) = (y, f), (x, e)
        out[key] = _padd(x, tuple(a * p ** (e - f) for a in y)), e


@lru_cache(maxsize=None)
def _size_series(m: int, p: int) -> dict:
    """G_m(z) = sum_w density(w, eps, c) z^w over Sym_m(Z_p), by the state
    (w mod 2, eps, c) of `_det_class_counts`: {state: numerator over
    _size_denominator(p, 0, m)}, each an exact pair (c, e) over Z[1/p].

    The cells of rank r >= 1 of Sym_m(F_p) give A, the sum of
    N_m(r, delta) p^-d_m z^(m-r) G_{m-r} moved by the rank-r block; the zero
    cell p Sym_m(Z_p) gives a T G_m, with a = p^-d_m z^m and T the state move
    of Y -> pY.  T is an involution: it moves w by m and multiplies c by a
    sign that depends on w only through w (m - 1) mod 2, which T fixes.  So
    G_m = (A + a T A) / (1 - a^2)."""
    if m == 0:
        return {(0, 1, 1): ((1,), 0)}
    ell, d = legendre(-1, p), m * (m + 1) // 2
    A: dict = {}
    for (r, delta), n in _rank_census(m, p).items():
        if r and n:
            x, e = _size_denominator(p, m - r, m - 1)
            lift = _shifted([n * a for a in x], m - r), e + d
            _move_into(A, _size_series(m - r, p), m - r, delta, lift, ell, p)
    G = dict(A)
    _move_into(G, A, m, 1, (_shifted((1,), m), d), ell, p)
    return G


@lru_cache(maxsize=None)
def _cell_series(p: int, m: int, s: int, delta: int) -> dict:
    """{state (w, eps, c) at size m: numerator}: z^s G_s moved by a unit block
    of class delta (a bijection of states), the det density over the cells of
    rank m - s and class delta, over _size_denominator(p, 0, m), at pz: the
    exact pairs of `_size_series` and `_size_denominator` go to floats first."""
    x, e = _size_denominator(p, s, m)
    lift = _at_pz((_shifted(x, s), e), p)
    return {_split_state(state, s, delta, legendre(-1, p)): _pmul(lift, _at_pz(num, p))
            for state, num in _size_series(s, p).items()}


@lru_cache(maxsize=None)
def _job_series(p: int, job, weighted: bool, sign: int) -> tuple:
    """Rows j of the numerator of M(f_job)(z, chi_j) over
    _size_denominator(p, 0, m) at pz, for the level-1 characters chi_j, on
    Sym_m with m = 2n + 1 and d = m(m+1)/2.

    Each census cell Y0 + p Sym_m(Z_p) has measure p^-d; a cell of rank r
    and class delta feeds `_cell_series` at s = m - r.  A full-rank cell
    keeps det Y0 mod p, so it sits on that coset; any other spreads evenly
    over the (p - 1)/2 cosets of each class.  Cells are weighted by psi(t),
    and by rho = ell^(n w) c when weighted.  As f(p^v u) = p^(v+1)
    mu(det in p^v u (1 + p Z_p)), M(f)(z) is p^-(d-1) times the sum at pz."""
    m = job[-1]
    n, d = (m - 1) // 2, m * (m + 1) // 2
    ell = legendre(-1, p)
    cosets = unit_group(p, 1)[0]
    weights: Counter = Counter()      # (rank, key) -> sum of count psi(t)
    for (r, key, t), count in _job_census(p, job).items():
        weights[(r, key)] += count * psi_frac(p, t, 1, sign)
    spread = {eps: [float(legendre(u, p) == eps) * 2 / (p - 1) for u in cosets]
              for eps in (1, -1)}
    vectors, numerators = [], []
    for (r, key), x in weights.items():
        delta = legendre(key, p) if r == m else key
        for (w, eps, c), num in _cell_series(p, m, m - r, delta).items():
            cells = [float(u == key) for u in cosets] if r == m else spread[eps]
            weight = x * (ell ** (n * w) * c if weighted else 1)
            vectors.append([weight * cell for cell in cells])
            numerators.append(num)
    width = max(map(len, numerators))
    N = [num + (0.0,) * (width - len(num)) for num in numerators]
    scale = float(p) ** (1 - d)
    return tuple(tuple(sum(map(mul, comps, column)) * scale for column in zip(*N))
                 for comps in zip(*character_components(vectors)))


# -------------------------------------------- shell values and fiber functions

def _piece_job(piece: LatticePiece, weighted: bool, p: int):
    """(job, shell shift, prefactor) realizing one piece in tallies.

    Weighted pieces take a Clifford ("rho") job; so do unweighted pieces
    with a phase at scale -1, whose job carries tr(Y C) mod p (their sign
    is ignored at assembly).  The recursion serves scales -1, 0 and 1 only:
    a piece of scale 2 or more has a mask finer than Y mod p, and one below
    -1 may carry a phase finer than it.  Both are refused here, the one
    place that refuses a piece."""
    m = piece.m
    if m % 2 == 0:
        raise PvsError("even sizes are out of scope")
    if not -1 <= piece.r <= 1:
        raise PvsError(f"a piece of scale {piece.r} is past the recursion, "
                       f"which serves scales -1, 0 and 1")
    mask, shift, prefactor = None, 0, 1.0
    if piece.r == 1:
        residues = tuple(piece.B[i][j] % p for (i, j) in _entry_order(m))
        mask = residues, (p,) * len(residues)
    elif piece.r == -1:
        # X = p^{-1} Y: det X = p^{-m} det Y and f picks up q^{d-m};
        # rho(p^{-1} Y) = rho(Y) (scalars act trivially on rho at odd size)
        shift, prefactor = -m, float(p) ** (m * (m + 1) // 2 - m)
        if piece.C is not None:
            return ("rho", None, piece.C, m), shift, prefactor
    job = ("rho", mask, None, m) if weighted else ("count", mask, m)
    return job, shift, prefactor


def piece_shell_values(piece: LatticePiece, weighted: bool, p: int, k: int, sign: int):
    """Exact fiber values of one piece on its stable shells:
    {(shell, unit coset mod p): complex}, from the job's tallies weighted by
    Clifford sign times psi(t)."""
    if k < 2:
        raise PvsError("level-1 shell values need k >= 2")
    job, shift, prefactor = _piece_job(piece, weighted, p)
    precompute_jobs(p, k, (job,))
    d = piece.m * (piece.m + 1) // 2
    phase = [complex(piece.weight) * prefactor * psi_frac(p, t, 1, sign) for t in range(p)]
    vals: dict = {}
    for (v, u, slot, t), count in _SWEEP_CACHE[(p, k)][job].items():
        # count / p^((k+1)(d-1)) over the p^(k-v) unit residues mod
        # p^(k+1-v) of the coset; the sign is ignored on unweighted pieces
        x = count / p ** ((k + 1) * (d - 1) + k - v) * phase[t]
        vals[(v + shift, u)] = vals.get((v + shift, u), 0) + (-x if weighted and slot else x)
    return vals


def fiber_shell_values(Phi: LatticeTestFunction, weighted: bool, p: int, k: int,
                       sign: int = 1):
    """Stable shell values of f_Phi / f_{rho Phi}: shells known for every
    piece, -m..k-m at scale -1 and 0..k otherwise."""
    m = Phi.m
    lo = -m if any(q.r < 0 for q in Phi.pieces) else 0
    hi = k + min(-m if q.r < 0 else 0 for q in Phi.pieces)
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

    At odd m = 2n + 1 its Mellin transform sums the pieces' `_job_series`,
    exact for every piece `_piece_job` accepts.  The depth-k
    recursion's shells (`fiber_shell_values`) cross-check it on the stable
    range, which must hold a nonzero shell."""
    m = Phi.m
    n = (m - 1) // 2
    den = _shifted(_at_pz(_size_denominator(p, 0, m), p), m)   # z^m D(pz)
    num = [[0j] * (2 * len(den)) for _ in range(p - 1)]
    for piece in Phi.pieces:
        job, shift, prefactor = _piece_job(piece, weighted, p)
        c = piece.weight * prefactor
        for row, series in zip(num, _job_series(p, job, weighted, sign)):
            for i, x in enumerate(series, m + shift):
                row[i] += c * x
    kind = "minus" if weighted else "plus"
    Z = MellinData(p, 1, {j: RationalFunctionZ(row, den) for j, row in enumerate(num)
                          if any(row)})
    f = fx_from_mellin(Z, kind, n)
    shells, lo, hi = fiber_shell_values(Phi, weighted, p, k, sign)
    scale = max(map(abs, shells.values()))
    if scale == 0:
        raise PvsError(f"insufficient k: the recursion's shells {lo}..{hi} are all zero")
    dev = max(abs(f.evaluate(w, u) - x) for (w, u), x in shells.items()) / scale
    if dev > SERIES_TOL:
        raise PvsError(f"exact series differs from the depth-{k} recursion by {dev:.3g}")
    if any(x for row in f.tail.rows for x in row):
        return f
    return FxFunction(p, 1, f.k_min, f.k_tail, f.values, TailSpec.compact())


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
    src = [cosets.index(u * twist % p) for u in cosets]
    tail = TailSpec(fm.tail.kind, tuple(tuple(row[i] for i in src) for row in fm.tail.rows))
    out = FxFunction(p, 1, fm.k_min, fm.k_tail, vals, tail, fm.power_shift)
    return out.scale_by_power(n + 1)


# --------------------------------------------------------------- zeta and FE

def fe_pvs_sides(Phi: LatticeTestFunction, n: int, p: int, k: int, sign: int = 1):
    """The character-free parts of the prehomogeneous functional equation,
    once per Phi: (M(f_Phi), M(f_{rho Phi^})), each from its own counts.
    fe_pvs_compare reads one character off each."""
    if Phi.m != 2 * n + 1:
        raise PvsError("size/n mismatch")
    return (mellin_transform(fiber_function(Phi, False, p, k, sign)),
            mellin_transform(fiber_function(lattice_fourier(Phi, p, sign), True, p, k, sign)))


def fe_pvs_compare(sides, n: int, chi: UnitCharacter, sign: int = 1) -> float:
    """The odd-p prehomogeneous functional equation at one character

        chi^{-2n}(2) Z_{rho Phi^}(-s-1/2, chi^{-1})
            = beta_psi(chi_s) Z_Phi(s+1/2-(n+1), chi),

    as the largest relative deviation of the two sides at ten sample points
    z; the caller judges it."""
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
    return lhs.max_relative_deviation(rhs, [0.41, 0.27j, -0.35, 0.22 + 0.31j, 0.55,
                                            -0.13 - 0.4j, 0.61j, 0.18 - 0.22j, -0.52j,
                                            0.33 + 0.1j])
