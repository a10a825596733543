import random
from fractions import Fraction

import pytest

from padicharm.symplectic import det, mat, mul, transpose
from oracles import (QuadFormError, clifford_rho, diagonalize, hasse_invariant,
                     hilbert_symbol, hilbert_symbol_oracle)


def congruence_transform(g, X):
    """g X g^t, exactly."""
    g = mat(g)
    return mul(mul(g, mat(X)), transpose(g))


def rand_sym(rng, m=3, lo=-3, hi=3, nonsingular=True):
    while True:
        M = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                M[i][j] = M[j][i] = rng.randint(lo, hi)
        if not nonsingular or det(M) != 0:
            return M


def test_diagonalize_examples():
    d, P = diagonalize([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert d == [1, 1, 1]
    d, P = diagonalize([[0, 1], [1, 0]])
    # completing the square gives classes (1, -1) up to squares at p=3
    signs = sorted(hilbert_symbol(x, x, 3) for x in d)
    ref = sorted(hilbert_symbol(x, x, 3) for x in (1, -1))
    assert signs == ref


def test_diagonalize_reconstructs():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.choice([2, 3, 4])
        X = rand_sym(rng, m)
        d, P = diagonalize(X)
        PXPt = congruence_transform(P, X)
        for i in range(m):
            for j in range(m):
                want = d[i] if i == j else 0
                assert PXPt[i][j] == want


def test_diagonalize_rejects_singular():
    with pytest.raises(QuadFormError):
        diagonalize([[1, 1], [1, 1]])


def test_hilbert_symbol_basics():
    for p in (3, 5):
        for b in (1, 2, 3, 5, -7, Fraction(2, 3)):
            assert hilbert_symbol(1, b, p) == 1
    assert hilbert_symbol(3, 3, 3) == -1
    # units pair trivially for odd p
    rng = random.Random(7)
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        u = rng.choice([x for x in range(1, p) if x % p])
        v = rng.choice([x for x in range(1, p) if x % p])
        assert hilbert_symbol(u, v, p) == 1


def test_hilbert_symbol_against_oracle():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([3, 5])
        a = Fraction(rng.choice([1, 2, 3, 5, 6, -1, -2, -3]),
                     rng.choice([1, 2, 3]))
        b = Fraction(rng.choice([1, 2, 3, 5, 10, -1, -5, -6]),
                     rng.choice([1, 3, 5]))
        assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p)


def test_hilbert_symbol_properties():
    rng = random.Random(13)
    for _ in range(100):
        p = rng.choice([3, 5])
        nz = [1, 2, 3, 5, -1, -2, -3, -5, 6, 9, Fraction(1, 3), Fraction(2, 5)]
        a, b, c = rng.choice(nz), rng.choice(nz), rng.choice(nz)
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert (hilbert_symbol(a * c, b, p)
                == hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p))
        assert hilbert_symbol(a, -a, p) == 1


def test_hasse_invariant_examples():
    for m in (2, 3, 4):
        eye = [[int(i == j) for j in range(m)] for i in range(m)]
        assert hasse_invariant(eye, 3) == 1
    assert hasse_invariant([[3, 0], [0, 3]], 3) == hilbert_symbol(3, 3, 3) == -1


def test_hasse_diagonalization_independent():
    # value must not depend on the pivot path: compare with permuted inputs
    rng = random.Random(17)
    for _ in range(50):
        p = rng.choice([3, 5])
        X = rand_sym(rng, 3)
        base = hasse_invariant(X, p)
        perm = list(range(3))
        rng.shuffle(perm)
        Y = [[X[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        assert hasse_invariant(Y, p) == base


def test_clifford_rho_identity():
    assert clifford_rho([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 1


def test_clifford_rho_orbit_and_scaling_invariance():
    rng = random.Random(19)
    for _ in range(20):
        p = rng.choice([3, 5])
        X = rand_sym(rng, 3)
        r = clifford_rho(X, p)
        # scalar invariance (squares and, at odd size, any scalar)
        assert clifford_rho([[4 * x for x in row] for row in X], p) == r
        assert clifford_rho([[p * x for x in row] for row in X], p) == r
        # GL-orbit invariance
        for _ in range(3):
            while True:
                g = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
                if det([[sum(g[i][t] * g[j][t] for t in range(3)) for j in range(3)]
                            for i in range(3)]) != 0 and _det3(g) != 0:
                    break
            Y = congruence_transform(g, X)
            assert clifford_rho(Y, p) == r


def _det3(g):
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def test_clifford_rho_locally_constant():
    # unit determinant: rho(X) = rho(X + p^3 Y)
    rng = random.Random(23)
    p = 3
    count = 0
    while count < 25:
        X = rand_sym(rng, 3)
        d = det(X)
        if d == 0 or d.numerator % p == 0:
            continue
        count += 1
        r = clifford_rho(X, p)
        for _ in range(4):
            Y = rand_sym(rng, 3, nonsingular=False)
            Xp = [[X[i][j] + p**3 * Y[i][j] for j in range(3)] for i in range(3)]
            assert clifford_rho(Xp, p) == r


def test_clifford_rho_guards():
    with pytest.raises(QuadFormError):
        clifford_rho([[1, 0], [0, 1]], 3)
    with pytest.raises(QuadFormError):
        clifford_rho([[1, 1, 0], [1, 1, 0], [0, 0, 1]], 3)
