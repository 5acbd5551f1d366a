"""Linear algebra for the package: every rank, nullspace, solve, determinant
and inverse goes through here.

Exact matrices are reduced by one fraction-free integer elimination,
`echelon`, on integer rows held sparse, as {column: value} of their
nonzeros.  Pivot columns come in column order; at each one the pivot row is
the candidate with the fewest nonzeros (Markowitz's rule; the first among
equals), and only the rows holding that column are updated, over their
nonzeros, and made primitive.  The reduced echelon form is unique, so
neither the row choice nor a positive scale of a row changes the pivot
columns or any rank, solve, kernel or inverse.  Back substitution (skipped
with `reduced=False`) clears above each pivot.  Callers with integer rows
use `rank_rows`, which reduces the transpose of a matrix with more rows
than columns (rank M = rank M^T; only the count is returned), and
`solve_rows`, which reads a particular solution and a kernel basis off the
sparse reduced rows of [M | b]; restricted to M's columns that is M's
reduced form, so b = 0 gives M's kernel.  The dense entry points take
rational rows, which `clear_denominators` scales to primitive integer rows
straight from each entry's `as_integer_ratio()` (ints, Fractions and floats
all have it), so no `Fraction` is built on the way in.  Exact rank
decisions thus never depend on floating point.  A matrix with any float
entry takes the one float path instead, an SVD through numpy (imported
there, on first use), on one float array per call.  One policy holds:

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


def echelon(rows: list[dict[int, int]], ncols: int, *, reduced: bool = True):
    """(pivot rows, pivot columns) of the echelon form of integer rows
    {column: value}, which are left as they are.

    Both come in column order.  With `reduced` (the default) pivot rows
    also have zero entries in every other pivot column; without it the
    elimination stops at the echelon form, which fixes the same pivots.
    """
    todo = [row for row in rows if row]
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
    return done, pivcols


def row_reduce_int(rows: list[list[int]], ncols: int, *, reduced: bool = True):
    """`echelon` of dense integer rows, written back out dense: (rows,
    pivots), pivots a list of (row, col) in column order; the pivot rows
    come first, in that order, and the zero rows last."""
    done, pivcols = echelon([{j: x for j, x in enumerate(r) if x} for r in rows], ncols,
                            reduced=reduced)
    width = len(rows[0]) if rows else ncols
    m = [[row.get(j, 0) for j in range(width)] for row in done]
    m += [[0] * width for _ in range(len(rows) - len(done))]
    return m, list(enumerate(pivcols))


def rank_rows(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank of integer rows {column: value}; fewer rows make fewer
    eliminations, so a matrix with more rows than columns is transposed."""
    if len(rows) > ncols:
        cols: list[dict[int, int]] = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                cols[j][i] = x
        rows, ncols = cols, len(rows)
    return len(echelon(rows, ncols, reduced=False)[1])


def solve_rows(rows: list[dict[int, int]], ncols: int):
    """(solution, kernel basis) of M @ x = b from the integer rows
    {column: value} of [M | b], b in column ncols (absent where b is 0).

    Free variables are zero in the solution, which is None when b is not in
    the image; the basis has one vector per free column, 1 there and 0 in
    the other free columns.  Both are read off the reduced pivot rows.
    """
    done, pivcols = echelon(rows, ncols + 1)
    pivset = set(pivcols)
    # a pivot in b's column, the last one, puts b outside the image; its row is b's entry alone
    sol = None if ncols in pivset else [Fraction(0)] * ncols
    free = {fc: [Fraction(0)] * ncols for fc in range(ncols) if fc not in pivset}
    for fc, vec in free.items():
        vec[fc] = Fraction(1)
    # every other column that a reduced pivot row holds is free, or b's
    for row, pc in zip(done, pivcols):
        for j, x in row.items():
            if j in free:
                free[j][pc] = Fraction(-x, row[pc])
            elif j == ncols and sol is not None:
                sol[pc] = Fraction(x, row[pc])
    return sol, list(free.values())


def _sparse(rows: Mat, rhs=None) -> list[dict[int, int]]:
    """The primitive integer rows {column: value} of rows, or of [rows | rhs]."""
    if rhs is not None:
        rows = [[*row, b] for row, b in zip(rows, rhs)]
    return [{j: x for j, x in enumerate(clear_denominators(r)) if x} for r in rows]


def _has_float(rows) -> bool:
    return any(isinstance(x, float) for row in rows for x in row)


def _float_array(rows, ncols: int):
    import numpy as np

    return np.array(rows, dtype=float).reshape(len(rows), ncols)


def rank(rows: Mat, ncols: int) -> int:
    if _has_float(rows):
        import numpy as np

        s = np.linalg.svd(_float_array(rows, ncols), compute_uv=False)
        return int((s > RANK_RTOL * s[0]).sum())
    return rank_rows(_sparse(rows), ncols)


def nullspace(rows: Mat, ncols: int) -> list[list[Fraction]]:
    """Basis of the right null space; exact input gives one vector per free
    column (a 1 there, 0 in the other free columns), float input gives the
    orthonormal right singular vectors of the negligible singular values.
    With no rows the basis is the identity."""
    if _has_float(rows):
        import numpy as np

        _, s, vt = np.linalg.svd(_float_array(rows, ncols))
        r = int((s > RANK_RTOL * s[0]).sum())
        return [list(map(float, vt[i])) for i in range(r, ncols)]
    return solve_rows(_sparse(rows), ncols)[1]


def solve(rows: Mat, rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of rows @ x = rhs, or None if inconsistent.

    Exact input: free variables are set to zero and pivots are chosen in
    column order, so the returned solution is deterministic.
    """
    ncols = len(rows[0]) if rows else 0
    if _has_float(rows) or _has_float([rhs]):
        import numpy as np

        a, b = _float_array(rows, ncols), np.array([float(x) for x in rhs])
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        if float(np.abs(a @ sol - b).max()) > SOLVE_RTOL * max(1.0, float(np.abs(b).max())):
            return None
        return list(map(float, sol))
    return solve_rows(_sparse(rows, rhs), ncols)[0]


def invert(rows: Mat) -> Mat:
    """Inverse of a square rational matrix; raises on singular input.

    Reduces [M | I]: M is invertible iff every pivot lies in M's columns,
    and then each pivot row, divided by its pivot, is a row of [I | M^-1].
    No caller is left in the package; `bench/run.py --trace 1` still reports
    its `linalg.invert.self_s`, listed in BENCHMARK.json.
    """
    n = len(rows)
    aug = [list(rows[r]) + [int(i == r) for i in range(n)] for r in range(n)]
    m, pivots = row_reduce_int([clear_denominators(r) for r in aug], 2 * n)
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
