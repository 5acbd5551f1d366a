"""Forms relative to a subspace pair (V, C): annihilators, adapted frames,
the grouping of a form by its annihilator-block factor count, main parts,
and derivative extraction.

An adapted frame lists the C basis first among vectors and the annihilator
covectors (the "alpha block") first among covectors; the two lists are dual
to each other up to the block swap spelled out in `AdaptedFrame`.  Rewriting
a form in a frame's dual base, and back, is a change of basis by
`algebra.pullback`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from . import linalg
from .algebra import (
    ExtForm,
    Vector,
    alpha,
    basis_vector,
    covector,
    iterated_interior,
    pullback,
)


class Subspace(namedtuple("Subspace", "dim_ambient basis")):
    """Proper subspace C of the ambient space, given by an independent basis
    (a tuple of `Vector`s)."""

    __slots__ = ()

    def __new__(cls, dim_ambient: int, basis) -> Subspace:
        basis = tuple(basis)
        for v in basis:
            if v.dim != dim_ambient:
                raise ValueError("basis vector dimension mismatch")
        if len(basis) >= dim_ambient:
            raise ValueError("subspace must be proper (dim C < n)")
        if basis:
            rows = [list(v.components) for v in basis]
            if linalg.rank(rows, dim_ambient) != len(basis):
                raise ValueError("subspace basis is linearly dependent")
        return tuple.__new__(cls, (dim_ambient, basis))

    @classmethod
    def of_independent(cls, dim_ambient: int, basis: tuple[Vector, ...]) -> Subspace:
        """The subspace on a basis that is independent, proper and of the
        ambient dimension by construction, taken without the rank check."""
        return tuple.__new__(cls, (dim_ambient, basis))

    @property
    def dim(self) -> int:
        return len(self.basis)


def span(dim_ambient: int, vectors) -> Subspace:
    return Subspace(dim_ambient, tuple(vectors))


def annihilator(c: Subspace) -> list[ExtForm]:
    """Basis of C^0, the covectors vanishing on C; n - dim C of them."""
    n = c.dim_ambient
    if not c.basis:
        return [alpha(i, n) for i in range(1, n + 1)]
    rows = [list(v.components) for v in c.basis]
    return [covector(vec, n) for vec in linalg.nullspace(rows, n)]


class AdaptedFrame(namedtuple("AdaptedFrame", "dim p vectors covectors")):
    """Dual pair of ordered bases for (V, C) and (V*, C^0), p = dim C.

    vectors  = (c_1, ..., c_p, w_1, ..., w_k)  with the c's spanning C;
    covectors = (a_1, ..., a_k, b_1, ..., b_p)  with the a's spanning C^0,
    a_i(w_j) = delta_ij, b_i(c_j) = delta_ij, and the cross blocks vanish.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        """dim C^0 = n - p."""
        return self.dim - self.p

    @property
    def alpha_block(self) -> tuple[ExtForm, ...]:
        return self.covectors[: self.k]

    @property
    def beta_block(self) -> tuple[ExtForm, ...]:
        return self.covectors[self.k:]

    def dual_vector(self, t: int) -> Vector:
        """Frame vector pairing to 1 with covector position t (0-based)."""
        if t < self.k:
            return self.vectors[self.p + t]
        return self.vectors[t - self.k]


def adapted_cobase(c: Subspace) -> AdaptedFrame:
    """Deterministic adapted frame: C's basis completed by standard basis
    vectors, with the dual covectors, all read off one reduction.

    Reduce [C's basis with columns reversed | I_p], pivots searched in C's
    columns only.  A pivot in reversed column n - s puts s in the skipped
    set S, and the completion is e_i for i not in S: the greedy pass over
    e_1, ..., e_n skips e_i exactly when some vector of C has its last
    nonzero component at i.  The pivot row of s, divided by its pivot, is
    r_s, the vector of C with 1 at s and 0 at the rest of S, then its
    coefficients t_s, r_s = sum_j t_s[j] c_j.  The dual covectors are

        a_i = alpha_i - sum_s r_s[i] alpha_s    (i not in S; they span C^0),
        b_j = sum_s t_s[j] alpha_s              (dual to c_j).

    For C = 0 nothing is reduced and the frame is the standard one.
    """
    n, p = c.dim_ambient, c.dim
    rows = [linalg.clear_denominators(list(v.components[::-1]) + [int(j == r) for j in range(p)])
            for r, v in enumerate(c.basis)]
    m, pivots = linalg.row_reduce_int(rows, n)
    # s in S -> (pivot row, pivot); the row is r_s reversed, then t_s, times the pivot
    red = {n - col: (m[r], m[r][col]) for r, col in pivots}
    rest = [i for i in range(1, n + 1) if i not in red]
    a = [covector([Fraction(-red[s][0][n - i], red[s][1]) if s in red else int(s == i)
                   for s in range(1, n + 1)], n) for i in rest]
    b = [covector([Fraction(red[s][0][n + j], red[s][1]) if s in red else 0
                   for s in range(1, n + 1)], n) for j in range(p)]
    vectors = list(c.basis) + [basis_vector(i, n) for i in rest]
    return AdaptedFrame(n, p, tuple(vectors), tuple(a + b))


class Decomposition(namedtuple("Decomposition", "parts")):
    """Grouping of a form by the number s of alpha-block factors per term:
    parts is a tuple of (s, part), s strictly increasing."""

    __slots__ = ()

    @property
    def main_degree(self) -> int:
        return self.parts[0][0]

    @property
    def main_part(self) -> ExtForm:
        return self.parts[0][1]

    def reconstruct(self) -> ExtForm:
        acc = self.parts[0][1]
        for _, part in self.parts[1:]:
            acc = acc + part
        return acc


def frame_coefficients(omega: ExtForm, frame: AdaptedFrame) -> dict[int, Fraction]:
    """Coefficients of omega over the frame's dual base, keyed by a bitmask
    over covector positions (alpha block = low bits).

    A change of basis by pullback: alpha_i = sum_t v_t[i] a_t, where v_t is
    the frame vector dual to covector position t.
    """
    vs = [frame.dual_vector(t) for t in range(frame.dim)]
    images = [covector([v[i] for v in vs]) for i in range(1, frame.dim + 1)]
    return pullback(omega, images).coeffs


def decompose(omega: ExtForm, frame: AdaptedFrame) -> Decomposition:
    """Rewrite omega in the frame's dual base and group terms by alpha count."""
    if omega.dim != frame.dim:
        raise ValueError("ambient dimension mismatch")
    if omega.is_zero():
        raise ValueError("the zero form has no decomposition")
    alpha_mask = (1 << frame.k) - 1
    groups: dict[int, dict] = {}
    for mask, c in frame_coefficients(omega, frame).items():
        groups.setdefault((mask & alpha_mask).bit_count(), {})[mask] = c
    return Decomposition(tuple(
        (s, pullback(ExtForm(frame.dim, omega.degree, groups[s]), frame.covectors))
        for s in sorted(groups)))


def main_part(omega: ExtForm, c: Subspace) -> tuple[ExtForm, int]:
    """Main part and its alpha count |omega*| in the canonical adapted frame.

    The integer is frame-independent; the form itself is not.
    """
    frame = adapted_cobase(c)
    dec = decompose(omega, frame)
    return dec.main_part, dec.main_degree


def in_annihilator_algebra(tau: ExtForm, c: Subspace) -> bool:
    """Whether tau lies in the subalgebra generated by C^0."""
    from .algebra import interior
    return all(interior(v, tau).is_zero() for v in c.basis)


def extract_derivative(omega: ExtForm, c: Subspace) -> tuple[list[Vector], ExtForm]:
    """Vectors v_1..v_j in C with i_{[v_1...v_j]} omega nonzero and lying in
    the annihilator subalgebra, j = deg omega - |omega*|.

    Searches j-subsets of the C basis in lexicographic order; existence is
    guaranteed for genuine adapted decompositions.
    """
    if omega.is_zero():
        raise ValueError("the zero form has no main part")
    _, s = main_part(omega, c)
    j = omega.degree - s
    if j == 0:
        if not in_annihilator_algebra(omega, c):
            raise AssertionError("main degree equals the form degree yet the form leaves the annihilator algebra")
        return [], omega
    if j > c.dim:
        raise ValueError(f"required derivative order {j} exceeds dim C = {c.dim}")
    for combo in combinations(c.basis, j):
        contracted = iterated_interior(list(combo), omega)
        if not contracted.is_zero():
            return list(combo), contracted
    raise AssertionError("no basis tuple yields a nonzero derivative; adapted structure violated")
