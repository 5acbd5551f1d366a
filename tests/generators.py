"""Seeded random instances for the tests: rationals, vectors, forms,
invertible matrices, congruences and subspaces.

Everything is driven by the `random.Random` passed in, so identical seeds
give identical instance streams; `random_invertible` draws its matrix
through `extforms.randgen._invertible_rows`, the stream of
`random_rank_p_two_form`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from extforms import linalg
from extforms.algebra import ExtForm, Vector, covector, indices_of, make_form, masks_of_size, pullback
from extforms.randgen import _invertible_rows
from extforms.subspace import Subspace


def random_rational(rng: random.Random, lo: int = -3, hi: int = 3,
                    max_den: int = 1) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.randint(1, max_den) if max_den > 1 else 1
    return Fraction(num, den)


def random_vector(rng: random.Random, dim: int, nonzero: bool = False) -> Vector:
    while True:
        v = Vector(dim, tuple(random_rational(rng) for _ in range(dim)))
        if not nonzero or not v.is_zero():
            return v


def random_form(rng: random.Random, dim: int, degree: int,
                density: float = 0.6, nonzero: bool = False) -> ExtForm:
    while True:
        terms = []
        for mask in masks_of_size(dim, degree):
            if rng.random() < density:
                c = random_rational(rng)
                if c:
                    terms.append((indices_of(mask), c))
        f = make_form(dim, degree, terms)
        if not nonzero or not f.is_zero():
            return f


def random_invertible(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Random invertible n x n matrix with entries in -2..2."""
    return [[Fraction(x) for x in row] for row in _invertible_rows(rng, n)]


def congruence(omega: ExtForm, a: list[list[Fraction]]) -> ExtForm:
    """Pullback of omega by alpha_i -> sum_j A[i][j] alpha_j; for a 2-form
    the coefficient matrix becomes A^T B A, and the rank is preserved
    exactly when A is invertible."""
    return pullback(omega, [covector(row) for row in a])


def random_subspace(rng: random.Random, n: int, p: int) -> Subspace:
    """Random p-dimensional subspace of an n-dimensional space, p < n."""
    if not 0 <= p < n:
        raise ValueError("need 0 <= p < n")
    while True:
        vecs = [random_vector(rng, n) for _ in range(p)]
        rows = [list(v.components) for v in vecs]
        if p == 0 or linalg.rank(rows, n) == p:
            return Subspace(n, tuple(vecs))
