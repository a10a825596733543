"""Invariants of nondegenerate symmetric matrices over Q viewed in Q_p.

Everything is exact rational: congruence diagonalization, the tame Hilbert
symbol (cross-checked in tests against a solvability search over Z/p^3),
the Hasse invariant prod_{i<j}(d_i, d_j)_p, and the odd-size Clifford
invariant

    rho(X) = (-1,-1)^(n(n+1)/2) ((-1)^n, det X) eps_X,   size = 2n+1,

which is constant on GL-orbits X -> g X g^t and, for p odd, invariant
under scalar rescaling X -> cX (the symbols (c,c)^3 (c,-1) collapse to
(c,-c) = 1).
"""

from __future__ import annotations

from fractions import Fraction

from . import PadicharmError
from .padic import unit_part, val_p
from .symplectic import det, eye, mat, mul, transpose


class QuadFormError(PadicharmError):
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


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


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


def congruence_transform(g, X):
    """g X g^t with exact rational arithmetic."""
    g = mat(g)
    return mul(mul(g, mat(X)), transpose(g))
