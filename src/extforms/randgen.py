"""Seeded random instances for the lemma driver.

Everything is driven by `random.Random(seed)`, so identical seeds give
identical instance streams.  The integer matrices of `_invertible_rows`,
and so of `random_rank_p_two_form`, are drawn in bulk, as the same stream
as one `randint(-2, 2)` call per entry, row by row: on CPython 3.10-3.13
that call is getrandbits(3) - 2, drawn again when the bits are 5, 6 or 7,
and getrandbits(3) is the top 3 bits of one 32-bit Mersenne Twister word,
which getrandbits(32 * m) returns m at a time, the first in the lowest
bits.  Exactly as many words are read as those calls would read, never
more, so the stream after each matrix is the one the calls leave.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .algebra import ExtForm


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


# a word's top byte -> its top 3 bits
_TOP3 = bytes(b >> 5 for b in range(256))
# top bytes 160..255 (bits 5, 6 or 7) are the draws randint(-2, 2) rejects
_REJECTED = bytes(range(160, 256))


def _top3_draws(rng: random.Random, words: int, rejected: bytes) -> bytes:
    """getrandbits(3) of each of the next `words` 32-bit words of rng, one
    byte each, less the words whose top byte is in `rejected`."""
    return rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(
        _TOP3, rejected)


def _invertible_rows(rng: random.Random, n: int) -> list[list[int]]:
    """The next n x n draws of rng.randint(-2, 2), row by row, drawn again
    until the matrix is invertible.  Each read takes one word per draw
    still missing, so no word past the last draw is read."""
    while True:
        draws = b""
        while len(draws) < n * n:
            draws += _top3_draws(rng, n * n - len(draws), _REJECTED)
        rows = [[x - 2 for x in draws[i * n:i * n + n]] for i in range(n)]
        if linalg.rank_rows([{j: x for j, x in enumerate(row) if x} for row in rows], n) == n:
            return rows


def random_rank_p_two_form(rng: random.Random, n: int, p: int) -> ExtForm:
    """Random 2-form of exact rank p: A^T J_p A for the standard
    J_p = alpha_1^alpha_2 + ... + alpha_{2p-1}^alpha_{2p} and the matrix A
    that `_invertible_rows` draws.  A is read off exactly the words
    that one randint(-2, 2) call per entry reads on CPython 3.10-3.13 (see
    the module docstring), so the stream goes on as those calls leave it.
    The coefficient on alpha_j^alpha_k is the sum over the planes i < p of
    the integer 2x2 minors A[2i][j] A[2i+1][k] - A[2i][k] A[2i+1][j], as a
    Fraction."""
    if 2 * p > n:
        raise ValueError("rank p needs dimension >= 2p")
    a = _invertible_rows(rng, n)
    planes = list(zip(a[0:2 * p:2], a[1:2 * p:2]))
    coeffs = {}
    for j in range(n):
        for k in range(j + 1, n):
            c = sum(u[j] * v[k] - u[k] * v[j] for u, v in planes)
            if c:
                coeffs[1 << j | 1 << k] = Fraction(c)
    return ExtForm(n, 2, coeffs)
