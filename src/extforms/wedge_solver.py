"""Linear algebra of the maps lambda^k: beta -> Omega ^ beta for a 2-form.

Rank and kernel of 2-forms, solving Omega ^ beta = kappa, kernel main-part
profiles, rank-2 pair kernels, and lambda rank tables.

Profiles, kernel elements and rank tables work on omega's block.  In a
frame adapted to ker omega, omega is a 2-form omega_a in the 2p alpha
covectors, which span the annihilator A of ker omega, and has no component
on the nb = n - 2p beta covectors, which span a complement B.  Since
Lambda(V*) = Lambda(A) (x) Lambda(B) and wedging with omega acts on the
first factor alone, rank lambda^k = sum_s r_s * C(nb, k - s), r_s the rank
of lambda^s of omega_a, so only the small block matrices are eliminated.
Each kernel vector ends at a free column of omega's skew matrix, so the
frame of `subspace.adapted_cobase` completes ker omega by e_P, P the pivot
columns, and omega_a is omega's terms on two indices of P; a nondegenerate
or float omega is its own block (P = 1..n, nb = 0).  Only
`construct_kernel_element`, which needs covectors, builds the frame.

Every rank, kernel and solve goes through `linalg`: exact rational
elimination for rational forms, and for forms with float coefficients the
one SVD path, where rank and kernel use rtol 1e-10 of the largest singular
value and a solve is accepted when its residual is at most
1e-9 * max(1, |kappa|_inf).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .algebra import (
    ExtForm,
    Vector,
    indices_of,
    masks_of_size,
    pullback,
    shuffle_sign,
    wedge,
    wedge_all,
)
from .subspace import Subspace, adapted_cobase


class LemmaViolation(ArithmeticError):
    """A kernel element of lambda^l whose main-part degree is below the rank.

    `omega` and `min_s` name the 2-form and the main-part degree found,
    when the raiser knows them.
    """

    def __init__(self, message: str, *, omega: ExtForm | None = None,
                 min_s: int | None = None):
        super().__init__(message)
        self.omega = omega
        self.min_s = min_s


def rank2(omega: ExtForm) -> int:
    """Largest p with the p-fold wedge power nonzero; 0 iff omega = 0.

    This is half the rank of the skew coefficient matrix.
    """
    if omega.degree != 2:
        raise ValueError("rank2 expects a 2-form")
    return linalg.rank(skew_matrix(omega), omega.dim) // 2


def skew_matrix(omega: ExtForm) -> list[list[Fraction]]:
    """Coefficient matrix A with A[i][j] the coefficient on alpha_i ^ alpha_j;
    its zero entries are int 0."""
    if omega.degree != 2:
        raise ValueError("expects a 2-form")
    n = omega.dim
    m = [[0] * n for _ in range(n)]
    for mask, c in omega.coeffs.items():
        i, j = indices_of(mask)
        m[i - 1][j - 1] = c
        m[j - 1][i - 1] = -c
    return m


def kernel2(omega: ExtForm) -> Subspace:
    """Kernel {x | i_x omega = 0} as a subspace; omega must be nonzero."""
    if omega.degree != 2:
        raise ValueError("kernel2 expects a 2-form")
    if omega.is_zero():
        raise ValueError("kernel of the zero 2-form is the whole space")
    n = omega.dim
    null = linalg.nullspace(skew_matrix(omega), n)
    return Subspace(n, tuple(Vector(n, tuple(v)) for v in null))


@dataclass
class LambdaMatrix:
    """Matrix of beta -> Omega ^ beta from degree k to degree k+2.

    Rows and columns are indexed by multi-index masks in lexicographic
    order; `matrix[r][c]` is exact rational (or float in float mode), and
    its zero entries are int 0.
    """

    omega: ExtForm
    k: int
    rows_index: list[int]
    cols_index: list[int]
    matrix: list[list]

    @property
    def n(self) -> int:
        return self.omega.dim

    def rank(self) -> int:
        return linalg.rank(self.matrix, len(self.cols_index))

    def kernel(self) -> list[ExtForm]:
        """Basis of {beta | Omega ^ beta = 0} as k-forms."""
        return [self._col_form(v)
                for v in linalg.nullspace(self.matrix, len(self.cols_index))]

    def _col_form(self, coords) -> ExtForm:
        return ExtForm.from_masks(self.n, self.k, dict(zip(self.cols_index, coords)))

    def _rhs(self, kappa: ExtForm) -> list:
        """kappa's coefficients in row order, int 0 where kappa has no term."""
        if kappa.dim != self.n or kappa.degree != self.k + 2:
            raise ValueError("right-hand side degree/dimension mismatch")
        return [kappa.coeffs.get(m, 0) for m in self.rows_index]

    def solve(self, kappa: ExtForm) -> ExtForm | None:
        """A beta with Omega ^ beta = kappa, or None if kappa is not in the image.

        Deterministic: pivots in lexicographic column order, free variables
        zero (minimal-support particular solution).
        """
        sol = linalg.solve(self.matrix, self._rhs(kappa))
        return None if sol is None else self._col_form(sol)


def lambda_matrix(omega: ExtForm, k: int) -> LambdaMatrix:
    if omega.degree != 2:
        raise ValueError("expects a 2-form")
    n = omega.dim
    if k < 0 or k > n:
        raise ValueError(f"source degree {k} out of range 0..{n}")
    cols = list(masks_of_size(n, k))
    rows = list(masks_of_size(n, k + 2)) if k + 2 <= n else []
    row_pos = {m: i for i, m in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    # column cm is Omega ^ alpha_cm: each term c alpha_om of Omega disjoint
    # from cm puts the entry shuffle_sign(om, cm) * c in row om | cm
    terms = list(omega.coeffs.items())
    for ci, cm in enumerate(cols):
        for om, c in terms:
            if not om & cm:
                matrix[row_pos[om | cm]][ci] = c if shuffle_sign(om, cm) > 0 else -c
    return LambdaMatrix(omega, k, rows, cols, matrix)


def solve_wedge(omega: ExtForm, kappa: ExtForm) -> tuple[ExtForm | None, list[ExtForm]]:
    """Particular solution of Omega ^ beta = kappa plus the full kernel basis,
    read off one elimination for exact input."""
    if omega.degree != 2:
        raise ValueError("expects a 2-form")
    if kappa.degree < 2:
        raise ValueError("right-hand side must have degree >= 2")
    lam = lambda_matrix(omega, kappa.degree - 2)
    sol, kernel = linalg.solve_system(lam.matrix, len(lam.cols_index), lam._rhs(kappa))
    return (None if sol is None else lam._col_form(sol)), [lam._col_form(v) for v in kernel]


# ---------------------------------------------------------------------------
# kernel main-part profiles (the emptiness/existence dichotomy for K_{l,s})

def _is_float(omega: ExtForm) -> bool:
    return any(isinstance(c, float) for c in omega.coeffs.values())


def _alpha_block(omega: ExtForm) -> ExtForm:
    """omega_a, omega over its alpha block.

    P, increasing, is the pivot columns of omega's skew matrix, the indices
    of the completion vectors e_P of the frame adapted to ker omega, so
    omega_a(s, t) = omega(e_{P_s}, e_{P_t}): omega_a is omega's terms on two
    indices of P, renumbered 1..|P| in increasing order.  A float omega has
    no exact kernel and is its own block, as in the frame adapted to C = 0.
    """
    if _is_float(omega):
        return omega
    _, pivots = linalg.row_reduce_int(
        [linalg.clear_denominators(row) for row in skew_matrix(omega)], omega.dim,
        reduced=False)
    # mask bit of index P_s -> mask bit of index s in the block; a term's
    # two bits are m & -m and m & (m - 1)
    bits = {1 << col: 1 << s for s, (_, col) in enumerate(pivots)}
    return ExtForm(len(pivots), 2, {
        bits[m & -m] | bits[m & (m - 1)]: c for m, c in omega.coeffs.items()
        if m & -m in bits and m & (m - 1) in bits})


def _layer_nullities(omega_a: ExtForm, degrees) -> dict[int, int]:
    """The nonzero nullities of lambda^s of the block form, for s in degrees."""
    out = {}
    for s in degrees:
        nullity = comb(omega_a.dim, s) - lambda_matrix(omega_a, s).rank()
        if nullity:
            out[s] = nullity
    return out


def _kernel_count(layer_nullity: dict[int, int], nb: int, l: int) -> int:
    """dim ker lambda^l of omega, sum_s nullity_s * C(nb, l - s), from its
    block's layer nullities (the tensor count of the module docstring)."""
    return sum(v * comb(nb, l - s) for s, v in layer_nullity.items() if s <= l)


@dataclass
class KernelProfile:
    """Main-part degree statistics of ker(lambda^l) for a fixed 2-form."""

    l: int
    p: int
    entries: list[tuple[int, int]]  # (s, count) over sampled kernel elements
    min_s: int | None
    kernel_dim: int


def kernel_main_profile(omega: ExtForm, l: int, n_combos: int = 20,
                        seed: int = 0) -> KernelProfile:
    """Main-part degrees of ker(lambda^l) elements w.r.t. C = kernel2(omega).

    In an adapted frame of (V, ker omega) the 2-form has no components on
    the complementary (beta) covectors, so wedging with it acts block by
    block over the beta multi-indices: the kernel is the direct sum, over
    alpha degrees s and beta index sets of size l - s, of the kernel of the
    wedge map restricted to the s-th layer of the annihilator block.  The
    alpha count of every term can then be read off directly; basis elements
    plus random rational combinations are sampled.  Raises LemmaViolation
    if any sampled element violates the rank lower bound min_s >= p.
    """
    if omega.is_zero():
        raise ValueError("profile undefined for the zero form")
    n = omega.dim
    if l < 1 or l > n - 2:
        raise ValueError(f"degree {l} out of range 1..{n - 2}")
    p = rank2(omega)
    omega_a = _alpha_block(omega)
    na = omega_a.dim      # alpha block size (= 2p), low bit positions
    nb = n - na           # beta block size (= dim ker omega)
    layer_nullity = _layer_nullities(omega_a, range(max(0, l - nb), min(l, na) + 1))
    kernel_dim = _kernel_count(layer_nullity, nb, l)
    # blocks: C(nb, l - s) per degree s, one per beta index set; each holds an
    # independent copy of the layer kernel, so degrees and combinations can be
    # sampled per block.  The histogram starts from the basis elements.
    hist = {s: v * comb(nb, l - s) for s, v in layer_nullity.items()}
    if hist:
        rng = random.Random(seed)
        for _ in range(n_combos):
            combo_min = None
            while combo_min is None:
                for s in sorted(layer_nullity):
                    for _ in range(comb(nb, l - s)):
                        # a combination of the layer's nullspace basis (each
                        # vector 1 in its own free column, 0 in the other free
                        # columns) is nonzero iff a weight is
                        weights = [rng.randint(-3, 3) for _ in range(layer_nullity[s])]
                        if combo_min is None and any(weights):
                            combo_min = s
            hist[combo_min] += 1
    min_s = min(hist, default=None)
    if min_s is not None and min_s < p:
        raise LemmaViolation(
            f"kernel element with main-part degree {min_s} < rank {p}",
            omega=omega, min_s=min_s)
    return KernelProfile(l=l, p=p, entries=sorted(hist.items()),
                         min_s=min_s, kernel_dim=kernel_dim)


def construct_kernel_element(omega: ExtForm, l: int, s: int) -> ExtForm:
    """A nonzero beta with Omega ^ beta = 0 and main-part degree exactly s.

    Take beta' != 0 in the s-th wedge layer of the annihilator algebra with
    Omega ^ beta' = 0, then wedge on l - s complementary covectors.  Requires
    p <= s <= min(2p, l) and l - s <= dim ker(omega).
    """
    if omega.degree != 2:
        raise ValueError("expects a 2-form")
    if omega.is_zero():
        raise ValueError("undefined for the zero form")
    p = rank2(omega)
    if not (p <= s <= min(2 * p, l)):
        raise ValueError(f"main degree {s} outside [{p}, {min(2 * p, l)}]")
    frame = adapted_cobase(Subspace(omega.dim, ()) if _is_float(omega) else kernel2(omega))
    if l - s > frame.p:
        raise ValueError(
            f"l - s = {l - s} exceeds the {frame.p} available complementary covectors")
    # columns: s-subsets of the alpha block (2p covectors spanning C^0)
    kernel = lambda_matrix(_alpha_block(omega), s).kernel()
    if not kernel:
        raise AssertionError(f"no annihilator-layer kernel element at s={s}; "
                             "existence argument violated")
    beta_prime = pullback(kernel[0], frame.alpha_block)
    if l == s:
        return beta_prime
    tau = wedge_all(list(frame.beta_block[: l - s]))
    return wedge(tau, beta_prime)


def rank2_pair_kernel(omega1: ExtForm) -> list[ExtForm]:
    """Basis of the 2-forms omega2 with omega1 ^ omega2 = 0."""
    if omega1.degree != 2:
        raise ValueError("expects a 2-form")
    if omega1.is_zero():
        raise ValueError("undefined for the zero form")
    return lambda_matrix(omega1, 2).kernel()


@dataclass
class LambdaRow:
    k: int
    dim_domain: int
    dim_codomain: int
    rank: int
    dim_kernel: int
    dim_cokernel: int
    injective: bool
    surjective: bool


def lambda_report(omega: ExtForm) -> list[LambdaRow]:
    """Rank table of all lambda^k, 0 <= k <= n-2.

    Only omega's block form omega_a is eliminated, once per degree s, and
    rank lambda^k = sum_s r_s * C(nb, k - s) with r_s = rank lambda^s of
    omega_a and nb = dim ker omega, read as C(n, k) minus the kernel count.
    """
    if omega.degree != 2:
        raise ValueError("expects a 2-form")
    if omega.is_zero():
        raise ValueError("undefined for the zero form")
    n = omega.dim
    omega_a = _alpha_block(omega)
    nb = n - omega_a.dim
    layer_nullity = _layer_nullities(omega_a, range(min(omega_a.dim, n - 2) + 1))
    rows = []
    for k in range(0, n - 1):
        dom, cod = comb(n, k), comb(n, k + 2)
        r = dom - _kernel_count(layer_nullity, nb, k)
        rows.append(LambdaRow(
            k=k, dim_domain=dom, dim_codomain=cod, rank=r,
            dim_kernel=dom - r, dim_cokernel=cod - r,
            injective=(r == dom), surjective=(r == cod)))
    return rows
