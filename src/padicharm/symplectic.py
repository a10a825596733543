"""Exact rational matrix algebra for the doubling geometry.

All identities here are polynomial identities over Q, so everything is
exact.  Matrices hold Fractions, but the work is done in ints: a matrix
product, the form test, the determinant and the inverse each take a matrix
over its one common denominator d (`_integral`), and a Fraction is built
only once per entry returned.  `det` and `inverse` read one fraction-free
(Bareiss) elimination, `_eliminate`.  The symplectic form J_n, the
doubling embedding of Sp_2n x Sp_2n into Sp_4n, the base-change element g0
relating the standard and diagonal Siegel parabolics, the Cayley transform

    h = (2 J X + I)(2 J X - I)^{-1},   X = (1/2) J (I - h)^{-1} (I + h),

the Siegel factorization w_std n_std(X) = p_std g0 (h, I) g0^{-1}, and the
group order |Sp_2n(F_q)| = q^(n^2) prod (q^(2i) - 1) behind the Jacobian
constant c0 = prod 1/zeta_F(2i) = prod (1 - q^(-2i)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from . import PadicharmError


class SymplecticError(PadicharmError):
    pass


class CayleyPoleError(SymplecticError):
    """X or h lies on the Cayley transform's singular locus."""


Matrix = list  # list of list of Fraction


def mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def eye(m: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]


def zeros(m: int) -> Matrix:
    return [[Fraction(0) for _ in range(m)] for _ in range(m)]


def _integral(A: Matrix):
    """(the integer matrix d A, d), d the least common denominator of A."""
    d = lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in A], d


def mul(A: Matrix, B: Matrix) -> Matrix:
    """A B, each factor taken over its one common denominator, so that the
    inner products are sums of ints and each entry is reduced once."""
    a, da = _integral(A)
    b, db = _integral(B)
    d = da * db
    cols = list(zip(*b))
    return [[Fraction(sum(map(int.__mul__, row, col)), d) for col in cols] for row in a]


def add(A: Matrix, B: Matrix) -> Matrix:
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def sub(A: Matrix, B: Matrix) -> Matrix:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def scale(A: Matrix, c) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in A]


def transpose(A: Matrix) -> Matrix:
    return [[A[j][i] for j in range(len(A))] for i in range(len(A[0]))]


def mat_eq(A: Matrix, B: Matrix) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _eliminate(A: Matrix):
    """(s, D, adj, d): one fraction-free (Bareiss) Gauss-Jordan pass over
    [a | I], a = d A the integer matrix of _integral.  D is the final pivot,
    s D = det a with s = +-1 the sign of the row swaps, and adj = D a^{-1};
    D = 0 and adj = None when A is singular.  Each step sets every other row
    to (pivot * row - its entry * pivot row) / the previous pivot: an exact
    division, as every entry stays a minor of [a | I] (Bareiss, Math. Comp.
    22, 1968)."""
    a, d = _integral(A)
    m = len(a)
    M = [row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    sign = prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col]), None)
        if piv is None:
            return sign, 0, None, d
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        top = M[col]
        pivot = top[col]
        for r in range(m):
            if r != col:
                f = M[r][col]
                M[r] = [(pivot * x - f * y) // prev for x, y in zip(M[r], top)]
        prev = pivot
    return sign, prev, [row[m:] for row in M], d


def det(A: Matrix) -> Fraction:
    """det A = s D / d^m from one integer elimination; det([]) = 1."""
    sign, D, _, d = _eliminate(A)
    return Fraction(sign * D, d ** len(A))


def inverse(A: Matrix) -> Matrix:
    """A^{-1} = d adj / D from one integer elimination, each entry reduced once."""
    _, D, adj, d = _eliminate(A)
    if not D:
        raise SymplecticError("singular matrix")
    return [[Fraction(d * x, D) for x in row] for row in adj]


def block(rows_of_blocks) -> Matrix:
    out = []
    for row_blocks in rows_of_blocks:
        height = len(row_blocks[0])
        for r in range(height):
            out.append([x for blk in row_blocks for x in blk[r]])
    return out


def J(n: int) -> Matrix:
    """The form matrix [[0, I], [-I, 0]] of Sp_2n."""
    return block([[zeros(n), eye(n)], [scale(eye(n), -1), zeros(n)]])


def is_symplectic(g: Matrix, n: int) -> bool:
    """g^t J g = J, tested on a = d g as a^t J a = d^2 J, where
    (a^t J a)_ij = sum_{k < n} a_ki a_(n+k)j - a_(n+k)i a_kj."""
    g = mat(g)
    if len(g) != 2 * n or any(len(row) != 2 * n for row in g):
        raise SymplecticError(f"expected a {2*n}x{2*n} matrix")
    a, d = _integral(g)
    top, bot = list(zip(*a[:n])), list(zip(*a[n:]))   # each column's halves
    return all(sum(map(int.__mul__, top[i], bot[j])) - sum(map(int.__mul__, bot[i], top[j]))
               == d * d * ((j == i + n) - (i == j + n))
               for i in range(2 * n) for j in range(2 * n))


def _blocks(h: Matrix, n: int):
    A = [row[:n] for row in h[:n]]
    B = [row[n:] for row in h[:n]]
    C = [row[:n] for row in h[n:]]
    D = [row[n:] for row in h[n:]]
    return A, B, C, D


def doubling_embed(h1: Matrix, h2: Matrix, n: int) -> Matrix:
    """(h1, h2) in Sp_2n x Sp_2n into Sp_4n, with the sign pattern
    (A,B;C,D),(M,N;P,Q) -> [[A,,B,],[,M,,-N],[C,,D,],[,-P,,Q]]."""
    h1, h2 = mat(h1), mat(h2)
    for h in (h1, h2):
        if not is_symplectic(h, n):
            raise SymplecticError("doubling_embed needs symplectic inputs")
    A, B, C, D = _blocks(h1, n)
    M, N, P, Q = _blocks(h2, n)
    z = zeros(n)
    return block([
        [A, z, B, z],
        [z, M, z, scale(N, -1)],
        [C, z, D, z],
        [z, scale(P, -1), z, Q],
    ])


@lru_cache(maxsize=None)
def standard_elements(n: int) -> dict:
    """The fixed matrices of the doubling geometry: g0, g0^{-1}, w_Delta,
    w_std, J_{2n}; all verified symplectic (symplectic-check compares
    g0 g0^{-1} and g0^{-1} w_std g0 with I and w_Delta).  Built and verified
    once per n: every caller shares the one dict, whose matrices are tuples
    of row tuples, and must not write to it."""
    I, z = eye(n), zeros(n)
    # c I_n for c = -1, 1/2, -1/2, 2, -2
    m, h, mh, t, mt = (scale(I, c) for c in (-1, Fraction(1, 2), Fraction(-1, 2), 2, -2))
    g0 = block([[z, z, mh, mh], [h, mh, z, z], [I, I, z, z], [z, z, I, m]])
    g0_inv = block([[z, I, h, z], [z, m, h, z], [m, z, z, h], [m, z, z, mh]])
    w_delta = block([[I, z, z, z], [z, m, z, z], [z, z, I, z], [z, z, z, m]])
    w_std = block([[z, z, z, mh], [z, z, h, z], [z, t, z, z], [mt, z, z, z]])
    out = {"g0": g0, "g0_inv": g0_inv, "w_delta": w_delta, "w_std": w_std,
           "J2n": J(2 * n)}
    for name in ("g0", "w_delta", "w_std"):
        if not is_symplectic(out[name], 2 * n):
            raise SymplecticError(f"{name} is not symplectic")
    return {name: tuple(map(tuple, M)) for name, M in out.items()}


def cayley(X: Matrix, n: int) -> Matrix:
    """h = (2 J X + I)(2 J X - I)^{-1} for symmetric X of size 2n."""
    X = mat(X)
    if not mat_eq(X, transpose(X)):
        raise SymplecticError("Cayley transform needs a symmetric matrix")
    JX2 = scale(mul(J(n), X), 2)
    I = eye(2 * n)
    try:
        den_inv = inverse(sub(JX2, I))
    except SymplecticError:
        raise CayleyPoleError("Cayley pole: det(2JX - I) = 0") from None
    h = mul(add(JX2, I), den_inv)
    if not is_symplectic(h, n):
        raise SymplecticError("Cayley image failed the form identity")
    return h


def cayley_inv(h: Matrix, n: int) -> Matrix:
    """X = (1/2) J (I - h)^{-1} (I + h); inverse to cayley on its domain."""
    h = mat(h)
    I = eye(2 * n)
    try:
        den_inv = inverse(sub(I, h))
    except SymplecticError:
        raise CayleyPoleError("Cayley pole: h has eigenvalue 1") from None
    return scale(mul(mul(J(n), den_inv), add(I, h)), Fraction(1, 2))


def n_std(X: Matrix, n: int) -> Matrix:
    X = mat(X)
    I = eye(2 * n)
    return block([[I, X], [zeros(2 * n), I]])


def siegel_factorize(X: Matrix, n: int):
    """w_std n_std(X) = p_std * g0 (h, I) g0^{-1} with h = cayley(X).

    Returns (p_std, h).  p_std lies in the standard Siegel parabolic (its
    lower-left 2n x 2n block vanishes) and its Levi block is
    diag((1/2)(h^t - I), 2 (h - I)^{-1}): symplectic-check compares both.
    """
    h = cayley(X, n)
    std = standard_elements(n)
    rhs = mul(mul(std["g0"], doubling_embed(h, eye(2 * n), n)), std["g0_inv"])
    lhs = mul(std["w_std"], n_std(X, n))
    return mul(lhs, inverse(rhs)), h


def sp_order(n: int, q: int):
    """|Sp_2n(F_q)| = q^(n^2) prod (q^(2i) - 1) and c0 = |Sp_2n(F_q)| / q^dim."""
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order, Fraction(order, q ** (n * (2 * n + 1)))


def sl2_order(q: int) -> int:
    """|Sp_2(F_q)| = |SL_2(F_q)| counted directly, over all q^4 matrices."""
    return sum((a * d - b * c) % q == 1 for a, b, c, d in product(range(q), repeat=4))


def c0_constant(n: int, q: int) -> Fraction:
    """prod_{i=1..n} (1 - q^{-2i}), the Cayley Jacobian constant."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - Fraction(1, q) ** (2 * i)
    return out


ENTRY_RANGE = 3   # random symmetric matrices draw their entries from -3..3


def random_symmetric(n: int, rng) -> Matrix:
    """A random symmetric integral 2n x 2n matrix, entries in +-ENTRY_RANGE,
    drawn row by row on and above the diagonal."""
    X = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        for j in range(i, 2 * n):
            X[i][j] = X[j][i] = rng.randint(-ENTRY_RANGE, ENTRY_RANGE)
    return X


def random_symplectic(n: int, rng) -> Matrix:
    """Exact random symplectic element via the Cayley transform of a
    random_symmetric X, resampled on a Cayley pole or a singular X (as
    h + I = 4 J X (2 J X - I)^(-1), det(h + I) = 0, the singular locus of
    Phi, exactly when det X = 0); any other failure of cayley is raised."""
    while True:
        X = mat(random_symmetric(n, rng))
        try:
            if det(X):
                return cayley(X, n)
        except CayleyPoleError:
            continue
