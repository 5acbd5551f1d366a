"""Seeded random instances for property checks and the lemma driver.

Everything is driven by `random.Random(seed)`, so identical seeds give
identical instance streams.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .algebra import ExtForm, Vector, covector, indices_of, make_form, masks_of_size, pullback
from .subspace import Subspace


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


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
    while True:
        m = [[random_rational(rng, -2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.rank(m, n) == n:
            return m


def standard_rank_p(n: int, p: int) -> ExtForm:
    """alpha_1^alpha_2 + ... + alpha_{2p-1}^alpha_{2p} on dimension n."""
    return make_form(n, 2, [((2 * i - 1, 2 * i), 1) for i in range(1, p + 1)])


def congruence(omega: ExtForm, a: list[list[Fraction]]) -> ExtForm:
    """Pullback of omega by alpha_i -> sum_j A[i][j] alpha_j; for a 2-form
    the coefficient matrix becomes A^T B A, and the rank is preserved
    exactly when A is invertible."""
    return pullback(omega, [covector(row) for row in a])


def random_rank_p_two_form(rng: random.Random, n: int, p: int) -> ExtForm:
    """Random 2-form of exact rank p via congruence of the standard one."""
    if 2 * p > n:
        raise ValueError("rank p needs dimension >= 2p")
    return congruence(standard_rank_p(n, p), random_invertible(rng, n))


def random_subspace(rng: random.Random, n: int, p: int) -> Subspace:
    """Random p-dimensional subspace of an n-dimensional space, p < n."""
    if not 0 <= p < n:
        raise ValueError("need 0 <= p < n")
    while True:
        vecs = [random_vector(rng, n) for _ in range(p)]
        rows = [list(v.components) for v in vecs]
        if p == 0 or linalg.rank(rows, n) == p:
            return Subspace(n, tuple(vecs))
