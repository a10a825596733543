import random
from fractions import Fraction

import pytest

from padicharm import symplectic
from padicharm.padic import val_p
from padicharm.symplectic import (J, CayleyPoleError, SymplecticError, c0_constant,
                                  cayley, cayley_inv, det, doubling_embed, eye,
                                  inverse, is_symplectic, mat, mat_eq, mul,
                                  random_symplectic, scale, siegel_factorize,
                                  sl2_order, sp_order, standard_elements, sub,
                                  transpose, zeros)
from oracles import fraction_det, fraction_inverse, levi_block_of_p_std


def test_is_symplectic_basics():
    assert is_symplectic(eye(2), 1)
    assert is_symplectic(J(1), 1)
    assert is_symplectic([[2, 0], [0, Fraction(1, 2)]], 1)
    assert not is_symplectic([[2, 0], [0, 2]], 1)
    with pytest.raises(SymplecticError):
        is_symplectic(eye(3), 1)


def test_standard_elements_identities():
    for n in (1, 2):
        std = standard_elements(n)   # construction itself asserts the identities
        w = std["w_delta"]
        assert mat_eq(mul(w, w), eye(4 * n))
        assert det(std["g0"]) in (Fraction(1), Fraction(-1))


def test_g0_entries_at_n1():
    std = standard_elements(1)
    g0 = std["g0"]
    h = Fraction(1, 2)
    expected = [
        [0, 0, -h, -h],
        [h, -h, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, -1],
    ]
    assert mat_eq(g0, mat(expected))


def test_doubling_embed():
    n = 1
    assert mat_eq(doubling_embed(eye(2), eye(2), n), eye(4))
    rng = random.Random(3)
    h = random_symplectic(n, rng)
    e = doubling_embed(h, eye(2), n)
    assert is_symplectic(e, 2 * n)
    # identity blocks in the M/Q positions
    assert e[1][1] == 1 and e[3][3] == 1 and e[1][3] == 0
    # homomorphism on random pairs
    for _ in range(20):
        h1, h2 = random_symplectic(n, rng), random_symplectic(n, rng)
        g1, g2 = random_symplectic(n, rng), random_symplectic(n, rng)
        lhs = doubling_embed(mul(h1, g1), mul(h2, g2), n)
        rhs = mul(doubling_embed(h1, h2, n), doubling_embed(g1, g2, n))
        assert mat_eq(lhs, rhs)
    with pytest.raises(SymplecticError):
        doubling_embed([[2, 0], [0, 2]], eye(2), 1)


def test_cayley_examples_and_roundtrip():
    n = 1
    h = cayley(zeros(2), n)
    assert mat_eq(h, scale(eye(2), -1))
    rng = random.Random(5)
    done = 0
    while done < 100:
        X = [[0] * 2 for _ in range(2)]
        for i in range(2):
            for j in range(i, 2):
                X[i][j] = X[j][i] = rng.randint(-3, 3)
        try:
            h = cayley(X, n)
        except CayleyPoleError:
            continue
        done += 1
        assert is_symplectic(h, n)
        assert mat_eq(cayley_inv(h, n), mat(X))


def test_cayley_pole():
    # X with det(2JX - I) = 0: for n=1, J X = [[c,d],[-a,-b]] with X=[[a,b],[b,d]]
    # choose X = [[0,1/2],[1/2,0]]: 2JX = [[1,0],[0,-1]], det(2JX - I) = 0
    with pytest.raises(CayleyPoleError, match="Cayley pole"):
        cayley([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], 1)


def test_cayley_inv_lie_algebra_relation():
    # (X J) J + J (X J)^t = 0, i.e. J X lies in sp_2n
    rng = random.Random(7)
    n = 1
    for _ in range(30):
        h = random_symplectic(n, rng)
        try:
            X = cayley_inv(h, n)
        except CayleyPoleError:
            continue
        XJ = mul(X, J(n))
        lhs = mul(XJ, J(n))
        rhs = mul(J(n), transpose(XJ))
        assert mat_eq(lhs, scale(rhs, -1))


def test_siegel_factorization():
    rng = random.Random(11)
    for n, trials in ((1, 100), (2, 20)):
        done = 0
        while done < trials:
            X = [[0] * (2 * n) for _ in range(2 * n)]
            for i in range(2 * n):
                for j in range(i, 2 * n):
                    X[i][j] = X[j][i] = rng.randint(-3, 3)
            try:
                p_std, h = siegel_factorize(X, n)
            except CayleyPoleError:
                continue
            done += 1
            # Levi part matches diag((1/2)(h^t - I), 2(h-I)^{-1})
            levi = levi_block_of_p_std(h, n)
            for i in range(2 * n):
                for j in range(2 * n):
                    assert p_std[i][j] == levi[i][j]
                    assert p_std[2 * n + i][2 * n + j] == levi[2 * n + i][2 * n + j]
                    assert p_std[2 * n + i][j] == 0
            # abelianization: det of the upper Levi block = 2^{-2n} det(h - I)
            upper = [row[:2 * n] for row in p_std[:2 * n]]
            assert det(upper) == Fraction(1, 2 ** (2 * n)) * det(sub(h, eye(2 * n)))


def test_abelianization_delta():
    # delta_P on the Levi is det A with modulus |det A|^{2n+1}, here n = 1
    assert det(eye(3)) == 1
    d = det(mat([[3, 0], [0, 1]]))
    assert d == 3 and Fraction(3) ** (-3 * val_p(d, 3)) == Fraction(1, 27)
    rng = random.Random(13)
    for _ in range(20):
        A = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        B = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if det(mat(A)) == 0 or det(mat(B)) == 0:
            continue
        assert det(mul(mat(A), mat(B))) == det(mat(A)) * det(mat(B))


def test_sp_order():
    assert sl2_order(3) == 24
    order, c0 = sp_order(1, 3)
    assert order == 24 and c0 == Fraction(24, 27)
    assert sl2_order(5) == 120
    order, c0 = sp_order(1, 5)
    assert order == 120 and c0 == Fraction(120, 125)
    order, _ = sp_order(2, 3)
    assert order == 3**4 * 8 * 80 == 51840
    # c0 = prod (1 - q^{-2i})
    for n, q in ((1, 3), (1, 5), (2, 3)):
        _, c0 = sp_order(n, q)
        assert c0 == c0_constant(n, q)
    # past the old q <= 7 guard: the direct count is bounded at the CLI only
    assert sl2_order(11) == sp_order(1, 11)[0]


DENOMINATORS = (1, 1, 1, 2, 3, 4, 7, 12)


def _rational_matrix(rng, rows, cols):
    """Entries in +-9 over mixed denominators, a third of them zero."""
    return [[Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) if rng.random() < 0.67
             else Fraction(0) for _ in range(cols)] for _ in range(rows)]


def _differential_cases(m, rng):
    """(kind, A) at size m: a sparse rational matrix; one whose leading
    column is zero above its last row, so that the first pivot needs a row
    swap, with its rows reversed as well; a rank-r product B C of an m x r
    and an r x m matrix, r < m; one whose last row sums the others; an
    integer matrix."""
    for _ in range(12):
        yield "sparse", _rational_matrix(rng, m, m)
        A = _rational_matrix(rng, m, m)
        for i in range(m - 1):
            A[i][0] = Fraction(0)
        A[-1][0] = Fraction(rng.choice((-3, -1, 1, 5)), rng.choice(DENOMINATORS))
        yield "swap", A
        yield "swap", A[::-1]
        r = rng.randrange(m)
        yield "rank", mul(_rational_matrix(rng, m, r), _rational_matrix(rng, r, m)) if r \
            else [[Fraction(0)] * m for _ in range(m)]
        A = _rational_matrix(rng, m, m)
        A[-1] = [sum((row[j] for row in A[:-1]), Fraction(0)) for j in range(m)]
        yield "sum", A
        yield "int", [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)]


@pytest.mark.parametrize("m", range(1, 9))
def test_det_and_inverse_match_the_fraction_oracle(m):
    rng = random.Random(100 + m)
    seen = {"singular": 0, "swap": 0}
    for kind, A in _differential_cases(m, rng):
        want = fraction_det(A)
        got = det(A)
        assert type(got) is Fraction and got == want, (kind, A)
        if want == 0:
            seen["singular"] += 1
            with pytest.raises(SymplecticError, match="singular matrix"):
                inverse(A)
            with pytest.raises(SymplecticError):
                fraction_inverse(A)
        else:
            seen["swap"] += kind == "swap"
            got = inverse(A)
            assert got == fraction_inverse(A), (kind, A)
            assert all(type(x) is Fraction for row in got for x in row)
    assert seen["singular"] >= 12 and seen["swap"] >= 6


def test_det_and_inverse_of_the_empty_matrix():
    # the n = 0 path of gdist.phi_rho_eval: det(h + I) of h = ()
    assert det([]) == 1 and type(det([])) is Fraction
    assert inverse([]) == []


def test_is_symplectic_matches_the_product_form():
    rng = random.Random(17)
    for n in (1, 2):
        for _ in range(20):
            g = random_symplectic(n, rng)
            g[rng.randrange(2 * n)][rng.randrange(2 * n)] += Fraction(rng.choice((0, 1)),
                                                                     rng.choice((1, 3)))
            product_form = mat_eq(mul(mul(transpose(g), J(n)), g), J(n))
            assert is_symplectic(g, n) == product_form


@pytest.mark.parametrize("n", [1, 2])
def test_cayley_and_its_inverse_eliminate_once(n, monkeypatch):
    h = random_symplectic(n, random.Random(19))
    calls, eliminate = [], symplectic._eliminate
    monkeypatch.setattr(symplectic, "_eliminate", lambda A: calls.append(len(A)) or eliminate(A))
    X = cayley_inv(h, n)
    assert calls == [2 * n]
    assert mat_eq(cayley(X, n), h)
    assert calls == [2 * n, 2 * n]
    # the poles: one elimination each, with the messages of the two sides
    with pytest.raises(CayleyPoleError, match=r"det\(2JX - I\) = 0"):
        cayley([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], 1)
    with pytest.raises(CayleyPoleError, match="h has eigenvalue 1"):
        cayley_inv(eye(2), 1)
    assert len(calls) == 4


def test_standard_elements_are_built_once_per_n():
    standard_elements.cache_clear()
    rng = random.Random(23)
    done = 0
    while done < 3:
        try:
            siegel_factorize(symplectic.random_symmetric(1, rng), 1)
        except CayleyPoleError:
            continue
        done += 1
    assert standard_elements.cache_info().misses == 1
    std = standard_elements(1)
    assert all(type(M) is tuple and all(type(row) is tuple for row in M)
               for M in std.values())
