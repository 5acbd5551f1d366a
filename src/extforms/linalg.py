"""Linear algebra for the package: every rank, nullspace, solve, determinant
and inverse goes through here.

Rational matrices are reduced by fraction-free integer elimination.
`clear_denominators` scales each row to a primitive integer row straight
from each entry's `as_integer_ratio()` (ints, Fractions and floats all
have it), so no `Fraction` is built on the way in.  `row_reduce_int` then
eliminates with primitive integer rows held sparse, as {column: value} of
their nonzeros.  Pivot columns come in column order; at each one the pivot
row is the candidate with the fewest nonzeros (Markowitz's rule; the first
among equals), and only the rows holding that column are updated, over
their nonzeros.  The reduced echelon form is unique, so the row choice
changes neither the pivot columns nor any rank, solve, kernel or inverse.
Back substitution (skipped with `reduced=False`) clears above each pivot;
rank and pivot searches stop at the echelon form.  `solve_system` reads a
particular solution and a kernel basis off one reduction of `[M | b]`;
restricted to M's columns that is M's reduced form, so `solve` and
`nullspace` are its two halves.  Exact rank decisions thus never depend on
floating point.  A matrix with any float entry takes the one float path
instead, an SVD through numpy (imported there, on first use), under one
policy:

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


def clear_denominators(row) -> list[int]:
    """Scale a rational row to a primitive integer row (a float entry counts
    at its exact binary value)."""
    ratios = [x.as_integer_ratio() for x in row]
    d = lcm(*[q for _, q in ratios])
    ints = [p * (d // q) for p, q in ratios]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """row minus the multiple of pivot row prow that zeroes column c, made
    primitive; both rows, and the result, hold only their nonzeros."""
    a, pv = row[c], prow[c]
    g = gcd(pv, a)
    f1, f2 = pv // g, a // g
    out = {j: x * f1 for j, x in row.items()} if f1 != 1 else dict(row)
    for j, y in prow.items():
        x = out.get(j, 0) - y * f2
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    if g > 1:
        out = {j: x // g for j, x in out.items()}
    return out


def row_reduce_int(rows: list[list[int]], ncols: int, *, reduced: bool = True):
    """Fraction-free row echelon form over the integers, with primitive rows.

    Returns (rows, pivots) where pivots is a list of (row, col), one per
    leading entry, in column order; the pivot rows come first, in that
    order, and the zero rows last.  With `reduced` (the default) pivot rows
    also have zero entries in every other pivot column; without it the
    elimination stops at the echelon form, which fixes the same pivots.
    """
    todo = [row for row in ({j: x for j, x in enumerate(r) if x} for r in rows) if row]
    done: list[dict[int, int]] = []
    pivcols: list[int] = []
    for c in range(ncols):
        if not todo:
            break
        # every row left is zero in the earlier pivot columns; the sparsest
        # one holding column c (the first among equals) becomes its pivot row
        best = None
        for i, row in enumerate(todo):
            if c in row and (best is None or len(row) < len(todo[best])):
                best = i
        if best is None:
            continue
        prow = todo.pop(best)
        todo = [row for row in (_eliminate(row, prow, c) if c in row else row
                                for row in todo) if row]
        done.append(prow)
        pivcols.append(c)
    if reduced:
        # back substitution, last pivot first: each pivot row is clear of
        # the later pivot columns by the time it clears its own above it
        for i in range(len(done) - 1, 0, -1):
            prow, c = done[i], pivcols[i]
            for r in range(i):
                if c in done[r]:
                    done[r] = _eliminate(done[r], prow, c)
    width = len(rows[0]) if rows else ncols
    m = [[row.get(j, 0) for j in range(width)] for row in done]
    m += [[0] * width for _ in range(len(rows) - len(done))]
    return m, list(enumerate(pivcols))


def _reduce(rows: Mat, ncols: int, reduced: bool = True):
    return row_reduce_int([clear_denominators(r) for r in rows], ncols,
                          reduced=reduced)


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
    return len(_reduce(rows, ncols, reduced=False)[1])


def _solve_exact(rows: Mat, ncols: int, rhs=None):
    """(solution, kernel basis) of rows @ x = rhs from one reduction of
    [rows | rhs]; the solution is None when inconsistent or without rhs."""
    if rhs is not None:
        rows = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = _reduce(rows, ncols + (rhs is not None))
    sol = None
    if rhs is not None and all(c < ncols for _, c in pivots):
        sol = [Fraction(0)] * ncols
        for r, c in pivots:
            sol[c] = Fraction(m[r][ncols], m[r][c])
    # a pivot in the rhs column is the last one and has zeros in M's columns
    pivots = [(r, c) for r, c in pivots if c < ncols]
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
    return sol, basis


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
    return _solve_exact(rows, ncols)[1]


def solve(rows: Mat, rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of rows @ x = rhs, or None if inconsistent.

    Exact input: free variables are set to zero and pivots are chosen in
    column order, so the returned solution is deterministic.
    """
    ncols = len(rows[0]) if rows else 0
    if _has_float(rows) or _has_float([rhs]):
        import numpy as np

        a = _float_array(rows)
        b = np.array([float(x) for x in rhs])
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        scale = max(1.0, float(np.abs(b).max()))
        if float(np.abs(a @ sol - b).max()) > SOLVE_RTOL * scale:
            return None
        return list(map(float, sol))
    return _solve_exact(rows, ncols, rhs)[0]


def solve_system(rows: Mat, ncols: int, rhs: list[Fraction]):
    """(`solve(rows, rhs)`, `nullspace(rows, ncols)`); exact input takes one
    elimination for both, and float input takes each one's float path."""
    if _has_float(rows) or _has_float([rhs]):
        return solve(rows, rhs), nullspace(rows, ncols)
    return _solve_exact(rows, ncols, rhs)


def invert(rows: Mat) -> Mat:
    """Inverse of a square rational matrix; raises on singular input.

    Reduces [M | I]: M is invertible iff every pivot lies in M's columns,
    and then each pivot row, divided by its pivot, is a row of [I | M^-1].
    No caller is left in the package; `bench/run.py --trace 1` still reports
    its `linalg.invert.self_s`, listed in BENCHMARK.json.
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
