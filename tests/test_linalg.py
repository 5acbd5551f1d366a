"""Exact linear algebra against the naive Gauss-Jordan oracle, and the two
`wedge_solver` fast paths built on it (direct lambda matrices, one
elimination per solve) against their plain constructions."""

import math
from fractions import Fraction
from math import gcd

import pytest

from extforms import linalg
from extforms.algebra import ExtForm, masks_of_size, wedge
from extforms.randgen import random_rank_p_two_form, rng_for
from extforms.wedge_solver import lambda_matrix, solve_wedge

from generators import random_form
from oracles import nullspace_oracle, rref_oracle, solve_oracle


def _entry(rng, rational: bool) -> Fraction:
    if rng.random() < 0.4:
        return Fraction(0)
    den = rng.randint(1, 6) if rational else 1
    return Fraction(rng.randint(-9, 9), den)


def _random_matrix(rng, nrows: int, ncols: int, rational: bool, rank=None):
    """Random matrix, of rank at most `rank` if given (a product of two
    random thin factors), with a zero row now and then."""
    if rank is None:
        m = [[_entry(rng, rational) for _ in range(ncols)] for _ in range(nrows)]
    else:
        a = [[_entry(rng, rational) for _ in range(rank)] for _ in range(nrows)]
        b = [[_entry(rng, rational) for _ in range(ncols)] for _ in range(rank)]
        m = [[sum((a[i][t] * b[t][j] for t in range(rank)), Fraction(0))
              for j in range(ncols)] for i in range(nrows)]
    if nrows and rng.random() < 0.3:
        m[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return m


def _cases(seed: int, count: int = 60):
    """(rows, ncols) over tall, wide, square, rank-deficient and empty shapes,
    integer and rational."""
    rng = rng_for(seed)
    cases = [([], 0), ([], 3), ([[]], 0), ([[Fraction(0)] * 4] * 3, 4)]
    for t in range(count):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        if t % 3 == 0:
            nrows = ncols + rng.randint(1, 4)        # tall
        elif t % 3 == 1:
            ncols = nrows + rng.randint(1, 4)        # wide
        rank = rng.randint(0, min(nrows, ncols)) if t % 2 else None
        cases.append((_random_matrix(rng, nrows, ncols, t % 4 >= 2, rank), ncols))
    return cases


@pytest.mark.parametrize("rows, ncols", _cases(11))
class TestAgainstOracle:
    def test_rank(self, rows, ncols):
        assert linalg.rank(rows, ncols) == len(rref_oracle(rows, ncols)[1])

    def test_nullspace(self, rows, ncols):
        assert linalg.nullspace(rows, ncols) == nullspace_oracle(rows, ncols)

    def test_row_reduce_int(self, rows, ncols):
        ints = [linalg.clear_denominators(r) for r in rows]
        rref, pivcols = rref_oracle(rows, ncols)
        m, pivots = linalg.row_reduce_int(ints, ncols)
        assert [c for _, c in pivots] == pivcols
        assert [r for r, _ in pivots] == list(range(len(pivots)))
        for (r, c), ref in zip(pivots, rref):
            assert [Fraction(x, m[r][c]) for x in m[r]] == ref
        assert all(not any(m[r]) for r in range(len(pivots), len(m)))
        # forward elimination alone: the same pivots, an echelon form
        m, pivots = linalg.row_reduce_int(ints, ncols, reduced=False)
        assert [c for _, c in pivots] == pivcols
        for r, c in pivots:
            assert not any(m[r][:c]) and m[r][c]
            assert gcd(*m[r]) == 1
        assert all(not any(m[r]) for r in range(len(pivots), len(m)))

    def test_solve_consistent(self, rows, ncols):
        rng = rng_for(len(rows) * 31 + ncols)
        x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        sol = linalg.solve(rows, rhs)
        if rows and ncols:
            assert sol == solve_oracle(rows, rhs, ncols)

    def test_solve_inconsistent(self, rows, ncols):
        rng = rng_for(len(rows) * 37 + ncols)
        rhs = [Fraction(rng.randint(-5, 5)) for _ in rows]
        expected = solve_oracle(rows, rhs, ncols)
        if rows and ncols:
            assert linalg.solve(rows, rhs) == expected


def test_inconsistent_systems_are_found():
    """The random right-hand sides above include inconsistent systems."""
    found = 0
    for rows, ncols in _cases(11):
        rng = rng_for(len(rows) * 37 + ncols)
        rhs = [Fraction(rng.randint(-5, 5)) for _ in rows]
        found += rows != [] and solve_oracle(rows, rhs, ncols) is None
    assert found >= 10


def test_invert():
    rng = rng_for(12)
    singular = 0
    for t in range(60):
        n = rng.randint(1, 7)
        rows = _random_matrix(rng, n, n, t % 2 == 1, None if t % 4 else n - 1)
        rref, pivcols = rref_oracle([r + [Fraction(int(i == j)) for j in range(n)]
                                     for i, r in enumerate(rows)], 2 * n)
        if pivcols[-1] >= n:
            singular += 1
            with pytest.raises(ValueError):
                linalg.invert(rows)
        else:
            assert linalg.invert(rows) == [row[n:] for row in rref]
    assert singular >= 10


def test_clear_denominators():
    rng = rng_for(13)
    for _ in range(100):
        row = [_entry(rng, True) for _ in range(rng.randint(0, 8))]
        ints = linalg.clear_denominators(row)
        assert all(type(x) is int for x in ints)
        assert gcd(*ints) in (0, 1)
        nz = [(x, y) for x, y in zip(row, ints) if x]
        if nz:
            scale = Fraction(nz[0][1]) / nz[0][0]
            assert scale > 0
            assert all(Fraction(y) == scale * x for x, y in zip(row, ints))
    assert linalg.clear_denominators([0.5, -0.25, 3]) == [2, -1, 12]


# ---------------------------------------------------------------------------
# wedge_solver on top of linalg

def _column_built_matrix(omega: ExtForm, k: int):
    """The lambda matrix, one `wedge` per column."""
    n = omega.dim
    cols = list(masks_of_size(n, k))
    rows = list(masks_of_size(n, k + 2)) if k + 2 <= n else []
    matrix = [[Fraction(0)] * len(cols) for _ in rows]
    for ci, cm in enumerate(cols):
        image = wedge(omega, ExtForm.from_masks(n, k, {cm: Fraction(1)}))
        for m, c in image.coeffs.items():
            matrix[rows.index(m)][ci] = c
    return rows, cols, matrix


def _two_forms(seed: int):
    rng = rng_for(seed)
    for n in range(2, 9):
        yield random_form(rng, n, 2, density=1.0, nonzero=True)
        yield random_rank_p_two_form(rng, n, rng.randint(1, n // 2))


@pytest.mark.parametrize("omega", list(_two_forms(14)), ids=lambda w: f"n{w.dim}")
def test_lambda_matrix_matches_column_wedges(omega):
    for k in range(omega.dim + 1):
        lam = lambda_matrix(omega, k)
        assert (lam.rows_index, lam.cols_index, lam.matrix) == \
            _column_built_matrix(omega, k)


def test_lambda_matrix_float_coefficients():
    omega = ExtForm.from_masks(4, 2, {0b0011: 0.5, 0b1100: -1.25, 0b0101: 2.0})
    for k in range(5):
        assert lambda_matrix(omega, k).matrix == _column_built_matrix(omega, k)[2]


@pytest.mark.parametrize("omega", [w for w in _two_forms(15) if w.dim <= 7],
                         ids=lambda w: f"n{w.dim}")
def test_one_elimination_solve_matches_separate_calls(omega):
    rng = rng_for(16 + omega.dim)
    n = omega.dim
    outcomes = set()
    for k in range(n - 1):
        lam = lambda_matrix(omega, k)
        beta = random_form(rng, n, k)
        for kappa in (wedge(omega, beta), random_form(rng, n, k + 2, nonzero=True)):
            particular, kernel = solve_wedge(omega, kappa)
            assert particular == lam.solve(kappa)
            assert kernel == lam.kernel()
            outcomes.add(particular is None)
    assert outcomes == {True, False} or n < 4


def test_one_elimination_solve_float_path_unchanged():
    omega = ExtForm.from_masks(4, 2, {0b0011: 0.5, 0b1100: -1.25})
    lam = lambda_matrix(omega, 1)
    for kappa in (ExtForm.from_masks(4, 3, {0b0111: 1.0}),
                  ExtForm.from_masks(4, 3, {0b0111: Fraction(2), 0b1011: 0.25})):
        particular, kernel = solve_wedge(omega, kappa)
        assert particular == lam.solve(kappa)
        assert kernel == lam.kernel()


def _bits(values):
    """Nested lists of floats as their hex strings, so == is bit for bit."""
    if values is None:
        return None
    return [_bits(v) if isinstance(v, list) else float(v).hex() for v in values]


def _cols(lam, form):
    """form's coefficients in lam's column order, 0 where it has no term."""
    return None if form is None else [form.coeffs.get(m, 0) for m in lam.cols_index]


@pytest.mark.parametrize("n", [4, 6])
def test_float_solve_system_matches_separate_calls_bit_for_bit(n):
    # solve_wedge's float branch against separate linalg.solve and
    # linalg.nullspace calls, on e^q * omega_0 and e^q * kappa, as `lee
    # --grid` evaluates them where the exponent is not 0: every entry of the
    # lambda matrix is a float or an exact zero
    rng = rng_for(18 + n)
    seen = set()
    for trial in range(8):
        p = n // 2 if trial % 2 else rng.randint(1, n // 2 - 1)   # rank-deficient
        omega0 = random_rank_p_two_form(rng, n, p)
        e = math.exp(rng.choice([-2.5, -0.75, 0.5, 1.25]))
        omega = ExtForm.from_masks(n, 2, {m: float(c) * e for m, c in omega0.coeffs.items()})
        beta = random_form(rng, n, 1, nonzero=True)
        for kappa0 in (wedge(omega0, beta), random_form(rng, n, 3, nonzero=True)):
            kappa = ExtForm.from_masks(n, 3, {m: float(c) * e for m, c in kappa0.coeffs.items()})
            lam = lambda_matrix(omega, 1)
            rhs = lam._rhs(kappa)
            particular, kernel = solve_wedge(omega, kappa)
            sol = linalg.solve(lam.matrix, rhs)
            assert _bits(_cols(lam, particular)) == \
                _bits(_cols(lam, None if sol is None else lam._col_form(sol)))
            assert [_bits(_cols(lam, b)) for b in kernel] == \
                [_bits(_cols(lam, lam._col_form(v))) for v in linalg.nullspace(lam.matrix, n)]
            seen.add((particular is None, len(kernel) > 0))
    # consistent and inconsistent, with and without a kernel
    assert {s for s, _ in seen} == {True, False} and {k for _, k in seen} == {True, False}
