"""Linear algebra for the package: every rank, nullspace, solve, determinant
and inverse goes through here.

Rational matrices are reduced by fraction-free integer elimination
(`row_reduce_int`, after `clear_denominators`), so exact rank decisions
never depend on floating point.  A matrix with any float entry takes the
one float path instead, an SVD through numpy (imported there, on first
use), under one policy:

- rank and kernel count the singular values above `RANK_RTOL` (1e-10)
  times the largest one;
- `solve` takes the least-squares solution and accepts it when every
  residual entry is at most `SOLVE_RTOL` (1e-9) times max(1, |b|_inf).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Mat = list[list[Fraction]]

RANK_RTOL = 1e-10
SOLVE_RTOL = 1e-9


def clear_denominators(row: list[Fraction]) -> list[int]:
    """Scale a rational row to a primitive integer row."""
    d = 1
    for x in row:
        d = lcm(d, Fraction(x).denominator)
    ints = [int(x * d) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def row_reduce_int(rows: list[list[int]], ncols: int):
    """Fraction-free reduced row echelon over the integers.

    Returns (reduced rows, pivots) where pivots is a list of (row, col).
    Pivot rows have zero entries in every other pivot column.
    """
    m = [r[:] for r in rows]
    pivots: list[tuple[int, int]] = []
    pr = 0
    for c in range(ncols):
        pivot = None
        for r in range(pr, len(m)):
            if m[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        pv = m[pr][c]
        for r in range(len(m)):
            if r == pr or not m[r][c]:
                continue
            a = m[r][c]
            g = gcd(pv, a)
            f1, f2 = pv // g, a // g
            row, prow = m[r], m[pr]
            for j in range(ncols):
                row[j] = row[j] * f1 - prow[j] * f2
            g2 = 0
            for j in range(ncols):
                g2 = gcd(g2, row[j])
            if g2 > 1:
                for j in range(ncols):
                    row[j] //= g2
        pivots.append((pr, c))
        pr += 1
        if pr == len(m):
            break
    return m, pivots


def _reduce(rows: Mat, ncols: int):
    return row_reduce_int([clear_denominators(r) for r in rows], ncols)


def _has_float(rows) -> bool:
    return any(isinstance(x, float) for row in rows for x in row)


def _float_array(rows):
    import numpy as np

    return np.array([[float(x) for x in row] for row in rows])


def rank(rows: Mat, ncols: int) -> int:
    if _has_float(rows):
        import numpy as np

        s = np.linalg.svd(_float_array(rows), compute_uv=False)
        return int((s > RANK_RTOL * s[0]).sum())
    return len(_reduce(rows, ncols)[1])


def nullspace(rows: Mat, ncols: int) -> list[list[Fraction]]:
    """Basis of the right null space; exact input gives one vector per free
    column (a 1 there, 0 in the other free columns), float input gives the
    orthonormal right singular vectors of the negligible singular values.
    With no rows the basis is the identity."""
    if _has_float(rows):
        import numpy as np

        _, s, vt = np.linalg.svd(_float_array(rows))
        r = int((s > RANK_RTOL * s[0]).sum())
        return [list(map(float, vt[i])) for i in range(r, ncols)]
    m, pivots = _reduce(rows, ncols)
    pivcols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivcols:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in pivots:
            if m[r][fc]:
                vec[pc] = Fraction(-m[r][fc], m[r][pc])
        basis.append(vec)
    return basis


def solve(rows: Mat, rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of rows @ x = rhs, or None if inconsistent.

    Exact input: free variables are set to zero and pivots are chosen in
    column order, so the returned solution is deterministic.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if _has_float(rows) or _has_float([rhs]):
        import numpy as np

        a = _float_array(rows)
        b = np.array([float(x) for x in rhs])
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        scale = max(1.0, float(np.abs(b).max()))
        if float(np.abs(a @ sol - b).max()) > SOLVE_RTOL * scale:
            return None
        return list(map(float, sol))
    aug = [list(rows[r]) + [rhs[r]] for r in range(nrows)]
    m, pivots = _reduce(aug, ncols + 1)
    sol = [Fraction(0)] * ncols
    for r, c in pivots:
        if c == ncols:
            return None  # pivot in the rhs column: inconsistent
        sol[c] = Fraction(m[r][ncols], m[r][c])
    return sol


def invert(rows: Mat) -> Mat:
    """Inverse of a square rational matrix; raises on singular input.

    Reduces [M | I]: M is invertible iff every pivot lies in M's columns,
    and then each pivot row, divided by its pivot, is a row of [I | M^-1].
    """
    n = len(rows)
    aug = [list(rows[r]) + [int(i == r) for i in range(n)] for r in range(n)]
    m, pivots = _reduce(aug, 2 * n)
    if any(c >= n for _, c in pivots):
        raise ValueError("matrix is singular")
    return [[Fraction(x, m[r][c]) for x in m[r][n:]] for r, c in pivots]


def det(rows: Mat) -> Fraction:
    """Determinant by elimination; exact for rational entries."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    acc = Fraction(1)
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if m[r][c]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        pv = m[c][c]
        acc *= pv
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return acc * sign
