"""The integer-row path of exact lambda maps against the oracles.

An exact omega's lambda^k goes to `linalg.rank_rows` and `linalg.solve_rows`
as sparse integer rows written from a cached pattern, and its skew matrix to
`linalg.echelon`; nothing dense is built.  Every rank, pivot column,
particular solution and kernel basis here is checked against
`lambda_matrix_oracle` (permutation signs), `rref_oracle`, `solve_oracle` and
`nullspace_oracle` (Gauss-Jordan on Fractions), which share no code with
`linalg` or `wedge_solver`.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest

from extforms import linalg
from extforms.algebra import ExtForm, make_form, wedge
from extforms.randgen import rng_for
from extforms.wedge_solver import (
    _alpha_block,
    _int_rows,
    lambda_matrix,
    rank2,
    solve_wedge,
)

from generators import random_rational
from oracles import (
    lambda_matrix_oracle,
    nullspace_oracle,
    rref_oracle,
    skew_rank_oracle,
    solve_oracle,
)


def _masks(n: int, k: int) -> list[int]:
    return [sum(1 << (i - 1) for i in c) for c in combinations(range(1, n + 1), k)]


def _oracle(omega: ExtForm, kappa: ExtForm):
    """(particular solution or None, kernel basis, pivot columns) of
    omega ^ beta = kappa, all from the oracles."""
    n, k = omega.dim, kappa.degree - 2
    cols = _masks(n, k)
    mat = lambda_matrix_oracle(omega, k)
    rhs = [kappa.coeffs.get(m, F(0)) for m in _masks(n, k + 2)]
    sol = solve_oracle(mat, rhs, len(cols))
    pivcols = rref_oracle(mat, len(cols))[1]

    def form(v):
        return ExtForm.from_masks(n, k, dict(zip(cols, v)))

    return (None if sol is None else form(sol),
            [form(v) for v in nullspace_oracle(mat, len(cols))], pivcols)


def _rational_form(rng, n: int, degree: int, density: float = 0.7) -> ExtForm:
    terms = [(c, random_rational(rng, -4, 4, max_den=6))
             for c in combinations(range(1, n + 1), degree) if rng.random() < density]
    return make_form(n, degree, terms)


def _check(omega: ExtForm, kappa: ExtForm):
    """solve_wedge, the pivot columns of lambda's integer rows and
    LambdaMatrix.rank/kernel/solve against the oracle; returns whether
    kappa was solvable."""
    particular, kernel, pivcols = _oracle(omega, kappa)
    assert solve_wedge(omega, kappa) == (particular, kernel)
    n, k = omega.dim, kappa.degree - 2
    rows = _int_rows(omega, k)
    assert linalg.echelon(rows, len(_masks(n, k)))[1] == pivcols
    lam = lambda_matrix(omega, k)
    assert lam.solve(kappa) == particular
    assert lam.kernel() == kernel
    assert lam.rank() == len(pivcols)
    return particular is not None


# (omega, kappa, solvable): n = 5 unless stated
HALF_THIRD = make_form(5, 2, [((1, 2), F(1, 2)), ((3, 4), F(-2, 3)), ((1, 5), F(5, 7))])
ONE_TERM = make_form(5, 2, [((2, 5), F(-3, 4))])
EVEN = make_form(5, 2, [((1, 2), 6), ((3, 4), 10), ((1, 5), 4)])   # content 2
NAMED_CASES = {
    "rational-consistent": (HALF_THIRD, wedge(HALF_THIRD, make_form(
        5, 1, [((1,), F(3, 5)), ((3,), F(-1, 4))])), True),
    "rational-inconsistent": (HALF_THIRD, make_form(5, 3, [((2, 3, 5), F(7, 3))]), False),
    "kappa-zero": (HALF_THIRD, ExtForm.zero(5, 3), True),
    "k0-consistent": (HALF_THIRD, HALF_THIRD.scale(F(-9, 4)), True),
    "k0-inconsistent": (HALF_THIRD, make_form(5, 2, [((1, 2), F(1, 3))]), False),
    "k-top": (HALF_THIRD, make_form(5, 5, [((1, 2, 3, 4, 5), F(2, 9))]), True),
    "one-term-consistent": (ONE_TERM, make_form(5, 4, [((1, 2, 3, 5), F(5, 6))]), True),
    "one-term-inconsistent": (ONE_TERM, make_form(5, 3, [((1, 3, 4), F(1, 2))]), False),
    "one-term-kappa-zero": (ONE_TERM, ExtForm.zero(5, 2), True),
    "content-two": (EVEN, make_form(5, 3, [((1, 2, 3), 4), ((1, 3, 4), 6)]), False),
    "content-two-consistent": (EVEN, wedge(EVEN, make_form(5, 1, [((2,), F(1, 2))])), True),
    "n2-k0": (make_form(2, 2, [((1, 2), F(-5, 3))]),
              make_form(2, 2, [((1, 2), F(7, 2))]), True),
}


@pytest.mark.parametrize("name", NAMED_CASES)
def test_named_cases_match_oracle(name):
    omega, kappa, solvable = NAMED_CASES[name]
    assert _check(omega, kappa) == solvable


@pytest.mark.parametrize("n", range(2, 8))
def test_random_rational_forms_every_degree(n):
    rng = rng_for(1300 + n)
    outcomes = set()
    for _ in range(3):
        omega = _rational_form(rng, n, 2)
        if omega.is_zero():
            continue
        for k in range(n - 1):
            beta = _rational_form(rng, n, k)
            for kappa in (wedge(omega, beta), _rational_form(rng, n, k + 2),
                          ExtForm.zero(n, k + 2)):
                outcomes.add(_check(omega, kappa))
    assert outcomes == ({True} if n == 2 else {True, False})


def test_alpha_block_pivots_match_oracle():
    """_alpha_block's pivot columns, read off `linalg.echelon` on the integer
    skew rows, are the oracle's: the block keeps omega's terms on them."""
    rng = rng_for(1310)
    # a triangle of terms has a skew matrix of rank 2, but a symmetric one
    # of the same pattern has rank 3
    forms = [make_form(n, 2, [((1, 2), F(1, 2)), ((1, 3), -2), ((2, 3), F(3, 5))])
             for n in (3, 4, 6)]
    forms += [_rational_form(rng, n, 2, density) for n in range(2, 9)
              for density in (0.3, 0.8) for _ in range(3)]
    for omega in forms:
        if omega.is_zero():
            continue
        n = omega.dim
        skew = [[F(0)] * n for _ in range(n)]
        for (i, j), c in omega.terms():
            skew[i - 1][j - 1], skew[j - 1][i - 1] = c, -c
        pivcols = rref_oracle(skew, n)[1]
        block = _alpha_block(omega)
        assert block.dim == len(pivcols) == 2 * skew_rank_oracle(omega)
        keep = {1 << c: 1 << s for s, c in enumerate(pivcols)}
        assert block.coeffs == {keep[m & -m] | keep[m & (m - 1)]: c
                                for m, c in omega.coeffs.items()
                                if m & -m in keep and m & (m - 1) in keep}
        assert rank2(omega) == block.dim // 2


# ---------------------------------------------------------------------------
# the linalg entry points on integer rows

def _dense(rows, ncols):
    return [[F(row.get(j, 0)) for j in range(ncols)] for row in rows]


INT_CASES = {
    # rows whose gcd is above 1, and a zero row
    "gcd": ([{0: 4, 2: 6}, {1: 9, 3: -3}, {}, {0: 2, 2: 3, 3: 8}], 4),
    # more rows than columns: rank_rows reduces the transpose
    "tall": ([{0: 2, 1: -4}, {1: 6}, {0: 3}, {0: -5, 1: 10}, {0: 7, 1: 1}], 2),
    # multiples of one row, most with gcd above 1
    "tall-rank-one": ([{0: 3, 2: -6}, {0: -1, 2: 2}, {}, {0: 5, 2: -10}, {0: 4, 2: -8}], 3),
    "wide": ([{0: 1, 4: 2}, {2: -3, 4: 6}], 5),
    "empty": ([], 3),
}


@pytest.mark.parametrize("name", INT_CASES)
def test_rank_and_pivots_match_oracle(name):
    rows, ncols = INT_CASES[name]
    rref, pivcols = rref_oracle(_dense(rows, ncols), ncols)
    assert linalg.rank_rows(rows, ncols) == len(pivcols)
    for reduced in (True, False):
        done, got = linalg.echelon(rows, ncols, reduced=reduced)
        assert got == pivcols
        assert all(all(type(x) is int and x for x in row.values()) for row in done)
    done, _ = linalg.echelon(rows, ncols)
    assert [[F(row.get(j, 0), row[c]) for j in range(ncols)]
            for row, c in zip(done, pivcols)] == rref


@pytest.mark.parametrize("name", INT_CASES)
def test_solve_rows_matches_oracle(name):
    rows, ncols = INT_CASES[name]
    dense = _dense(rows, ncols)
    rng = rng_for(1320 + len(rows))
    for trial in range(6):
        # trial 0: b = 0; 1 to 3: b = M x, consistent; then random b
        x = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        b = [sum((a * y for a, y in zip(r, x)), F(0)) if 0 < trial < 4 else
             F(rng.randint(-4, 4) * (trial > 0)) for r in dense]
        aug = [dict(row) for row in rows]
        for row, v in zip(aug, b):
            if v:
                row[ncols] = int(v)
        before = [dict(row) for row in aug]
        assert linalg.solve_rows(aug, ncols) == (solve_oracle(dense, b, ncols),
                                                 nullspace_oracle(dense, ncols))
        assert aug == before   # the rows are left as they were


def test_solve_rows_finds_inconsistent_systems():
    rows, ncols = INT_CASES["tall"]
    aug = [dict(row) for row in rows]
    aug[2][ncols] = 1     # 3 x0 = 1 and 2 x0 - 4 x1 = 0, 6 x1 = 0: no solution
    sol, basis = linalg.solve_rows(aug, ncols)
    assert sol is None and solve_oracle(_dense(rows, ncols), [0, 0, 1, 0, 0], ncols) is None
    assert basis == nullspace_oracle(_dense(rows, ncols), ncols) == []


def test_float_forms_keep_the_dense_path():
    """A float coefficient sends rank, kernel and solve through the float
    `linalg` calls on the dense matrix, as before."""
    omega = make_form(4, 2, [((1, 2), 0.5), ((3, 4), -1.25)])
    lam = lambda_matrix(omega, 1)
    assert lam.rank() == linalg.rank(lam.matrix, 4) == 4
    assert lam.kernel() == []
    kappa = make_form(4, 3, [((1, 2, 3), 1.0)])
    particular, kernel = solve_wedge(omega, kappa)
    assert particular == lam.solve(kappa)
    assert all(isinstance(c, float) for c in particular.coeffs.values())
    assert kernel == []
