"""Linear algebra of lambda^k: beta -> Omega ^ beta, degree k to k + deg Omega.

Rank and kernel of 2-forms, solving Omega ^ beta = kappa for any Omega,
kernel main-part profiles, rank-2 pair kernels, and lambda rank tables.

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

Every rank, kernel and solve goes through `linalg`.  An exact omega's
terms, scaled to integers, are written by their cached entries of lambda^k
into the sparse rows of `linalg.rank_rows` and `linalg.solve_rows`.  Float
forms take the SVD path on the dense `LambdaMatrix.matrix`, with rank rtol
1e-10 and solves accepted at residual <= 1e-9 * max(1, |kappa|_inf).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
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
from .randgen import _top3_draws
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
    """Kernel {x | i_x omega = 0} as a subspace; omega must be nonzero.  The
    nullspace basis is independent by construction (exact: 1 at its own free
    column, 0 at the others; float: orthonormal) and has at most n - 2
    vectors, so the subspace skips the rank check of its basis."""
    if omega.degree != 2:
        raise ValueError("kernel2 expects a 2-form")
    if omega.is_zero():
        raise ValueError("kernel of the zero 2-form is the whole space")
    n = omega.dim
    null = linalg.nullspace(skew_matrix(omega), n)
    return Subspace.of_independent(n, tuple(Vector(n, tuple(v)) for v in null))


@lru_cache(maxsize=128)
def _positions(n: int, k: int) -> dict[int, int]:
    """Each k-mask of n, in lexicographic order, mapped to its index."""
    return {m: i for i, m in enumerate(masks_of_size(n, k))}


@lru_cache(maxsize=1024)
def _term_entries(n: int, k: int, om: int):
    """(plus, minus), the (row, column) entries of lambda^k where a term c alpha_om
    puts shuffle_sign(om, cm) * c: row om | cm of each column cm disjoint from om."""
    rows, signed = _positions(n, k + om.bit_count()), ([], [])
    for cm, ci in _positions(n, k).items():
        if not om & cm:
            signed[shuffle_sign(om, cm) < 0].append((rows[om | cm], ci))
    return tuple(map(tuple, signed))


def _fill(out: list, coeffs: dict, n: int, k: int) -> list:
    """out, blank rows (lists or dicts), with lambda^k's entries written in."""
    for om, c in coeffs.items():
        plus, minus = _term_entries(n, k, om)
        for r, col in plus:
            out[r][col] = c
        c = -c
        for r, col in minus:
            out[r][col] = c
    return out


def _int_rows(omega: ExtForm, k: int, rhs=()) -> list[dict[int, int]]:
    """lambda^k's rows as {column: value}, with rhs (kappa in row order) in
    column C(n, k), omega and rhs scaled together to coprime integers."""
    n, ints = omega.dim, linalg.clear_denominators([*omega.coeffs.values(), *rhs])
    b = ints[len(omega.coeffs):] or [0] * comb(n, k + omega.degree)
    return _fill([{comb(n, k): x} if x else {} for x in b], dict(zip(omega.coeffs, ints)), n, k)


class LambdaMatrix:
    """Matrix of beta -> Omega ^ beta from degree k to degree k + deg Omega.

    Rows and columns are indexed by multi-index masks in lexicographic
    order; `matrix[r][c]` is exact rational (or float in float mode), and
    its zero entries are int 0; only float forms' rank, kernel and solve use it.
    """

    def __init__(self, omega: ExtForm, k: int, rows_index: list[int], cols_index: list[int]):
        self.omega = omega
        self.k = k
        self.rows_index = rows_index
        self.cols_index = cols_index

    @property
    def n(self) -> int:
        return self.omega.dim

    @cached_property
    def matrix(self) -> list[list]:
        return _fill([[0] * len(self.cols_index) for _ in self.rows_index],
                     self.omega.coeffs, self.n, self.k)

    def rank(self) -> int:
        if _is_float(self.omega):
            return linalg.rank(self.matrix, len(self.cols_index))
        return linalg.rank_rows(_int_rows(self.omega, self.k), len(self.cols_index))

    def kernel(self) -> list[ExtForm]:
        """Basis of {beta | Omega ^ beta = 0} as k-forms."""
        ncols = len(self.cols_index)
        null = (linalg.nullspace(self.matrix, ncols) if _is_float(self.omega)
                else linalg.solve_rows(_int_rows(self.omega, self.k), ncols)[1])
        return [self._col_form(v) for v in null]

    def _col_form(self, coords) -> ExtForm:
        return ExtForm.from_masks(self.n, self.k, dict(zip(self.cols_index, coords)))

    def _rhs(self, kappa: ExtForm) -> list:
        """kappa's coefficients in row order, int 0 where kappa has no term."""
        if kappa.dim != self.n or kappa.degree != self.k + self.omega.degree:
            raise ValueError("right-hand side degree/dimension mismatch")
        return [kappa.coeffs.get(m, 0) for m in self.rows_index]

    def solve(self, kappa: ExtForm) -> ExtForm | None:
        """A beta with Omega ^ beta = kappa, or None if kappa is not in the image.

        Deterministic: pivots in lexicographic column order, free variables
        zero (a basic solution).
        """
        self._rhs(kappa)   # raises unless kappa has degree k + deg Omega
        return solve_wedge(self.omega, kappa)[0]


def lambda_matrix(omega: ExtForm, k: int) -> LambdaMatrix:
    n = omega.dim
    if k < 0 or k > n:
        raise ValueError(f"source degree {k} out of range 0..{n}")
    return LambdaMatrix(omega, k, list(_positions(n, k + omega.degree)), list(_positions(n, k)))


def solve_wedge(omega: ExtForm, kappa: ExtForm) -> tuple[ExtForm | None, list[ExtForm]]:
    """Particular solution of Omega ^ beta = kappa plus the full kernel basis,
    read off one elimination for exact input; beta has degree
    deg kappa - deg Omega."""
    if kappa.degree < omega.degree:
        raise ValueError(f"right-hand side must have degree >= {omega.degree}")
    lam = lambda_matrix(omega, kappa.degree - omega.degree)
    ncols, rhs = len(lam.cols_index), lam._rhs(kappa)
    sol, kernel = ((linalg.solve(lam.matrix, rhs), linalg.nullspace(lam.matrix, ncols))
                   if _is_float(omega, kappa)
                   else linalg.solve_rows(_int_rows(omega, lam.k, rhs), ncols))
    return (None if sol is None else lam._col_form(sol)), [lam._col_form(v) for v in kernel]


# ---------------------------------------------------------------------------
# kernel main-part profiles (the emptiness/existence dichotomy for K_{l,s})

def _is_float(*forms: ExtForm) -> bool:
    return any(isinstance(c, float) for f in forms for c in f.coeffs.values())


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
    # the skew matrix's integer rows; the term on bits i < j is row i, column j
    rows: list[dict[int, int]] = [{} for _ in range(omega.dim)]
    for m, a in zip(omega.coeffs, linalg.clear_denominators(omega.coeffs.values())):
        i, j = (m & -m).bit_length() - 1, m.bit_length() - 1
        rows[i][j], rows[j][i] = a, -a
    _, pivcols = linalg.echelon(rows, omega.dim, reduced=False)
    # mask bit of index P_s -> mask bit of index s in the block; a term's
    # two bits are m & -m and m & (m - 1)
    bits = {1 << col: 1 << s for s, col in enumerate(pivcols)}
    return ExtForm(len(pivcols), 2, {
        bits[m & -m] | bits[m & (m - 1)]: c for m, c in omega.coeffs.items()
        if m & -m in bits and m & (m - 1) in bits})


def block_and_rank(omega: ExtForm) -> tuple[ExtForm, int]:
    """(omega_a, p) from one reduction of omega's skew matrix: an exact
    omega_a is nondegenerate, so p = omega_a.dim // 2; a float omega is its
    own block, and only its p needs `rank2`."""
    omega_a = _alpha_block(omega)
    return omega_a, rank2(omega) if _is_float(omega) else omega_a.dim // 2


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


# top bytes 224..255 (bits 7) are the draws randint(-3, 3) rejects, and the
# byte of weight 0 is 3
_REJECTED = bytes(range(224, 256))
_ZERO_WEIGHT = b"\x03"


def _weight_draws(rng: random.Random, count: int) -> bytes:
    """The next draws of rng.randint(-3, 3), each as the byte weight + 3,
    read off count + count // 7 + 8 words; 7 in 8 words are accepted on
    average, so that is about count draws, now and then fewer."""
    return _top3_draws(rng, count + count // 7 + 8, _REJECTED)


# main-part degree statistics of ker(lambda^l) for a fixed 2-form: entries
# lists (s, count) over the sampled kernel elements
KernelProfile = namedtuple("KernelProfile", "l p entries min_s kernel_dim")


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

    Each combination weighs the kernel_dim basis vectors, block by block in
    increasing s, with draws of `random.Random(seed).randint(-3, 3)`, and
    counts at the s of its first nonzero weight (a combination of a layer's
    nullspace basis, each vector 1 in its own free column, is nonzero iff a
    weight is); one whose weights are all zero is drawn again.  The draws
    are read in bulk, as the same stream: on CPython, randint(-3, 3) is
    getrandbits(3) - 3, drawn again when the bits are 7, and getrandbits(3)
    is the top 3 bits of one 32-bit Mersenne Twister word, which
    getrandbits(32 * m) returns m at a time, the first in the lowest bits.
    """
    if omega.is_zero():
        raise ValueError("profile undefined for the zero form")
    n = omega.dim
    if l < 1 or l > n - 2:
        raise ValueError(f"degree {l} out of range 1..{n - 2}")
    omega_a, p = block_and_rank(omega)
    na = omega_a.dim      # alpha block size (= 2p), low bit positions
    nb = n - na           # beta block size (= dim ker omega)
    layer_nullity = _layer_nullities(omega_a, range(max(0, l - nb), min(l, na) + 1))
    kernel_dim = _kernel_count(layer_nullity, nb, l)
    # blocks: C(nb, l - s) per degree s, one per beta index set; each holds an
    # independent copy of the layer kernel, so degrees and combinations can be
    # sampled per block.  The histogram starts from the basis elements.
    hist = {s: v * comb(nb, l - s) for s, v in layer_nullity.items()}
    if hist:
        degrees = sorted(hist)
        ends = list(accumulate(hist[s] for s in degrees))  # past each degree's weights
        rng = random.Random(seed)
        draws, pos = b"", 0
        for _ in range(n_combos):
            rest = b""
            while not rest:
                while pos + kernel_dim > len(draws):
                    draws = draws[pos:] + _weight_draws(rng, n_combos * kernel_dim)
                    pos = 0
                rest = draws[pos:pos + kernel_dim].lstrip(_ZERO_WEIGHT)
                pos += kernel_dim
            hist[degrees[bisect_right(ends, kernel_dim - len(rest))]] += 1
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
    omega_a, p = block_and_rank(omega)
    if not (p <= s <= min(2 * p, l)):
        raise ValueError(f"main degree {s} outside [{p}, {min(2 * p, l)}]")
    frame = adapted_cobase(Subspace(omega.dim, ()) if _is_float(omega) else kernel2(omega))
    if l - s > frame.p:
        raise ValueError(
            f"l - s = {l - s} exceeds the {frame.p} available complementary covectors")
    # columns: s-subsets of the alpha block (2p covectors spanning C^0)
    kernel = lambda_matrix(omega_a, s).kernel()
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


LambdaRow = namedtuple("LambdaRow", "k dim_domain dim_codomain rank dim_kernel "
                                    "dim_cokernel injective surjective")


def lambda_report(omega: ExtForm, omega_a: ExtForm | None = None) -> list[LambdaRow]:
    """Rank table of all lambda^k, 0 <= k <= n-2.

    Only omega's block form omega_a is eliminated, once per degree s, and
    rank lambda^k = sum_s r_s * C(nb, k - s) with r_s = rank lambda^s of
    omega_a and nb = dim ker omega, read as C(n, k) minus the kernel count.
    A caller that holds omega_a from `block_and_rank` passes it in.
    """
    if omega.degree != 2:
        raise ValueError("expects a 2-form")
    if omega.is_zero():
        raise ValueError("undefined for the zero form")
    n = omega.dim
    omega_a = _alpha_block(omega) if omega_a is None else omega_a
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
