"""Independent reference computations used by the test suite.

Each oracle is deliberately naive (permutation sums, exhaustive searches)
and shares no code path with the operation it checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

from extforms.algebra import ExtForm, Vector, indices_of, interior, iterated_interior


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def evaluate_oracle(theta: ExtForm, args) -> Fraction:
    """Explicit antisymmetrization: for each term alpha_I, the normalized
    alternating sum (1/k!) sum_sigma sign(sigma) prod_r alpha_{i_r}(x_{sigma(r)})."""
    args = list(args)
    k = theta.degree
    if k == 0:
        return theta.coeffs.get(0, Fraction(0))
    total = Fraction(0)
    for mask, c in theta.coeffs.items():
        idx = indices_of(mask)
        for perm in permutations(range(k)):
            prod = c * perm_sign(perm)
            for r in range(k):
                prod *= args[perm[r]][idx[r]]
            total += prod
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    return total / fact


def pullback_oracle(theta: ExtForm, images) -> dict:
    """Coefficients of theta with each alpha_i replaced by the 1-form
    images[i-1], from evaluation alone: the pulled-back form takes on the
    target basis vectors e_T the value of theta on the columns T of the image
    matrix, so its coefficient on alpha_T is k! times evaluate_oracle there.
    No wedge product is taken."""
    k = theta.degree
    dim = images[0].dim
    columns = [Vector(theta.dim, tuple(img.coeffs.get(1 << (t - 1), Fraction(0))
                                       for img in images))
               for t in range(1, dim + 1)]
    out = {}
    for combo in combinations(range(1, dim + 1), k):
        c = factorial(k) * evaluate_oracle(theta, [columns[t - 1] for t in combo])
        if c:
            out[sum(1 << (t - 1) for t in combo)] = c
    return out


def congruence_oracle(omega: ExtForm, a) -> dict:
    """Coefficients of the 2-form with matrix A^T B A, B the skew matrix of
    omega, by plain dense products over Fractions."""
    n = len(a)
    b = [[Fraction(0)] * n for _ in range(n)]
    for mask, c in omega.coeffs.items():
        i, j = indices_of(mask)
        b[i - 1][j - 1], b[j - 1][i - 1] = c, -c
    atba = [[sum(a[r][i] * b[r][s] * a[s][j] for r in range(n) for s in range(n))
             for j in range(n)] for i in range(n)]
    return {(1 << i) | (1 << j): atba[i][j]
            for i in range(n) for j in range(i + 1, n) if atba[i][j]}


def interior_oracle(v: Vector, theta: ExtForm) -> dict:
    """i_v theta via the defining identity (deg theta) * theta(v, ...):
    coefficients recovered by pairing against basis vectors through
    evaluate_oracle, so this path never touches the bitmask contraction."""
    from extforms.algebra import basis_vector, mask_of

    k = theta.degree
    if k == 0:
        return {}
    n = theta.dim
    out = {}
    fact = 1
    for i in range(2, k):
        fact *= i  # (k-1)!
    for combo in combinations(range(1, n + 1), k - 1):
        vecs = [v] + [basis_vector(i, n) for i in combo]
        val = Fraction(k) * evaluate_oracle(theta, vecs)
        # the result is a (k-1)-form; its coefficient on alpha_combo is
        # (k-1)! * value on the basis tuple, by the det/(k-1)! convention
        coeff = val * fact
        if coeff:
            out[mask_of(combo, n)] = coeff
    return out


def stepwise_iterated_interior(vs, theta: ExtForm) -> ExtForm:
    """Fold of single contractions, right to left (independent of the
    library's own loop only in the sense of being explicit)."""
    acc = theta
    for v in reversed(list(vs)):
        acc = interior(v, acc)
    return acc


def exhaustive_derivative_search(omega: ExtForm, basis, j: int):
    """All j-tuples from the subspace basis whose contraction is nonzero."""
    hits = []
    for combo in combinations(basis, j):
        contracted = iterated_interior(list(combo), omega)
        if not contracted.is_zero():
            hits.append((combo, contracted))
    return hits


def lefschetz_kernel_dim(n: int, p: int, l: int) -> int:
    """dim ker(beta -> omega ^ beta) on l-forms, for a 2-form omega of rank
    p on an n-dimensional space, by counting alone.

    In a frame split into a nondegenerate 2p-dimensional block and ker
    omega, the map acts on the block's s-forms and leaves the l - s kernel
    covectors alone.  On the block, wedging with omega has nullity
    max(0, C(2p, s) - C(2p, s + 2)) (linear hard Lefschetz: injective below
    the middle degree, surjective from it on), so
    dim ker = sum_s max(0, C(2p, s) - C(2p, s + 2)) * C(n - 2p, l - s).
    """
    return sum(max(0, comb(2 * p, s) - comb(2 * p, s + 2)) * comb(n - 2 * p, l - s)
               for s in range(l + 1))


def sampled_histogram_oracle(nullity: dict[int, int], nb: int, l: int,
                             n_combos: int, seed: int):
    """(entries, redrawn) of a kernel main-part profile: the histogram over
    the basis elements and n_combos sampled combinations, by one
    `randint(-3, 3)` call per weight, as the plain loop it replaces drew.

    `nullity[s]` is the nullity of wedging on the block's s-forms, and each
    degree s has C(nb, l - s) blocks of that many basis vectors.  A
    combination draws every block's weights in increasing s and counts at
    the degree of its first nonzero weight; one of all zero weights is drawn
    again, and `redrawn` counts those.
    """
    hist = {s: v * comb(nb, l - s) for s, v in nullity.items()}
    redrawn = 0
    if hist:
        rng = random.Random(seed)
        for _ in range(n_combos):
            combo_min = None
            while combo_min is None:
                for s in sorted(nullity):
                    for _ in range(comb(nb, l - s)):
                        weights = [rng.randint(-3, 3) for _ in range(nullity[s])]
                        if combo_min is None and any(weights):
                            combo_min = s
                if combo_min is None:
                    redrawn += 1
            hist[combo_min] += 1
    return sorted(hist.items()), redrawn


def rref_oracle(rows, ncols: int):
    """Reduced row echelon form over Q by textbook Gauss-Jordan on Fractions.

    Returns (nonzero rows of the RREF, each scaled to a leading 1, and their
    pivot columns).  Divides as it goes, no integer scaling and no gcds, so
    it shares no step with `extforms.linalg`.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivcols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivcols.append(c)
        r += 1
    return m[:r], pivcols


def rank_p_form_oracle(rng: random.Random, n: int, p: int):
    """(coefficients, redrawn) of a random 2-form of rank p: A^T J_p A for
    J_p = alpha_1^alpha_2 + ... + alpha_{2p-1}^alpha_{2p}, with A drawn by
    one `rng.randint(-2, 2)` call per entry, row by row, and drawn again
    while rref_oracle finds it singular; `redrawn` counts those."""
    redrawn = 0
    while True:
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if len(rref_oracle(a, n)[1]) == n:
            break
        redrawn += 1
    j_p = ExtForm(n, 2, {0b11 << 2 * i: Fraction(1) for i in range(p)})
    return congruence_oracle(j_p, a), redrawn


def nullspace_oracle(rows, ncols: int) -> list[list[Fraction]]:
    """One kernel vector per free column of the RREF: 1 there, 0 in the
    other free columns."""
    rref, pivcols = rref_oracle(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivcols:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rref, pivcols):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def solve_oracle(rows, rhs, ncols: int):
    """The solution of rows @ x = rhs with every free variable zero, or None
    when the RREF of [rows | rhs] has a pivot in the rhs column."""
    rref, pivcols = rref_oracle([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivcols:
        return None
    sol = [Fraction(0)] * ncols
    for row, pc in zip(rref, pivcols):
        sol[pc] = row[ncols]
    return sol


def adapted_frame_oracle(basis, n: int):
    """(frame vectors, dual covectors) of the frame adapted to the span of
    `basis`, each a list of n-component lists, covectors in frame order
    (duals of the completion first, then of the basis).

    The basis is completed greedily: e_1, ..., e_n in turn joins when it
    raises the rank (from rref_oracle) of the vectors taken so far.  The
    Gauss-Jordan form of [M | I], M's rows the frame vectors, is
    [I | M^-1], and covector r is column r of M^-1.
    """
    vectors = [[Fraction(x) for x in v] for v in basis]
    completion = []
    for i in range(n):
        e = [Fraction(int(j == i)) for j in range(n)]
        rows = vectors + completion + [e]
        if len(rref_oracle(rows, n)[1]) == len(rows):
            completion.append(e)
    vectors += completion
    rref, _ = rref_oracle([v + [Fraction(int(j == r)) for j in range(n)]
                           for r, v in enumerate(vectors)], n)
    duals = [[row[n + r] for row in rref] for r in range(n)]
    p = len(basis)
    return vectors, duals[p:] + duals[:p]


def eval_groups_oracle(terms, point) -> dict:
    """Exact value of sum c * x^a * e^{P(x)} over `terms` ({(a, P): c}, the
    layout of `ScalarExpr.terms`) at `point`, grouped as {P(point): sum of c *
    x^a}, zero groups dropped.

    Each term is evaluated from scratch by repeated Fraction multiplication
    and division, with no cache and nothing shared across terms or with
    `extforms.symbolic`; a negative power of a zero coordinate raises
    ZeroDivisionError.
    """
    point = [Fraction(x) for x in point]
    groups = {}
    for (mono, poly), c in terms.items():
        value = Fraction(c)
        for e, x in zip(mono, point):
            for _ in range(abs(e)):
                value = value * x if e > 0 else value / x
        q = exponent_oracle(poly, point)
        groups[q] = groups.get(q, Fraction(0)) + value
    return {q: v for q, v in groups.items() if v}


def exponent_oracle(poly, point) -> Fraction:
    """P(point) for P as ((monomial, coefficient), ...), by repeated
    multiplication."""
    q = Fraction(0)
    for mono, c in poly:
        t = Fraction(c)
        for e, x in zip(mono, point):
            for _ in range(e):
                t *= Fraction(x)
        q += t
    return q


def rank_scan_oracle(powers, point) -> int:
    """Largest m with powers[m-1] nonzero at `point`, scanning every power
    from the bottom up and evaluating every coefficient with
    eval_groups_oracle (so a pole anywhere raises ZeroDivisionError)."""
    rank = 0
    for m, power in enumerate(powers, start=1):
        values = [eval_groups_oracle(c.terms, point) for c in power.coeffs.values()]
        if any(values):
            rank = m
    return rank


def lambda_matrix_oracle(omega: ExtForm, k: int) -> list[list[Fraction]]:
    """Matrix of beta -> omega ^ beta from k-forms to (k+2)-forms, rows and
    columns indexed by increasing index tuples in lexicographic order.

    Each term c alpha_i ^ alpha_j of omega sends alpha_I, I disjoint from
    {i, j}, to c times the sign of the permutation sorting (i, j) + I,
    times alpha of the sorted tuple; signs come from perm_sign alone.
    """
    n = omega.dim
    cols = list(combinations(range(1, n + 1), k))
    rows = list(combinations(range(1, n + 1), k + 2))
    row_pos = {r: i for i, r in enumerate(rows)}
    m = [[Fraction(0)] * len(cols) for _ in rows]
    for pair, c in omega.terms():
        for ci, idx in enumerate(cols):
            seq = pair + idx
            if len(set(seq)) < len(seq):
                continue
            order = sorted(range(len(seq)), key=seq.__getitem__)
            m[row_pos[tuple(seq[i] for i in order)]][ci] += c * perm_sign(order)
    return m


def skew_rank_oracle(omega: ExtForm) -> int:
    """Half the rank of omega's skew coefficient matrix, by rref_oracle."""
    n = omega.dim
    b = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in omega.terms():
        b[i - 1][j - 1], b[j - 1][i - 1] = c, -c
    return len(rref_oracle(b, n)[1]) // 2


def wedge_oracle(a: dict, b: dict) -> dict:
    """a ^ b for forms given as {increasing index tuple: coefficient}: each
    pair of terms on disjoint indices contributes the product of their
    coefficients times the sign of the permutation that sorts the joined
    index tuple, from perm_sign alone."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            seq = ia + ib
            if len(set(seq)) < len(seq):
                continue
            order = sorted(range(len(seq)), key=seq.__getitem__)
            key = tuple(seq[i] for i in order)
            out[key] = out.get(key, 0) + ca * cb * perm_sign(order)
    return {k: v for k, v in out.items() if v}


def _partial_at(poly: dict, i: int, point) -> Fraction:
    """d poly / d x_i at `point`, term by term, by repeated multiplication."""
    total = Fraction(0)
    for mono, c in poly.items():
        if mono[i]:
            t = Fraction(c) * mono[i]
            for j, (e, x) in enumerate(zip(mono, point)):
                for _ in range(e - (j == i)):
                    t *= x
            total += t
    return total


def _differential_at(poly: dict, point) -> dict:
    """d poly at `point` as {(i,): coefficient}, zeros dropped."""
    dp = {(i + 1,): _partial_at(poly, i, point) for i in range(len(point))}
    return {k: v for k, v in dp.items() if v}


def conformal_point_oracle(g: dict, theta: list, point):
    """omega = e^g d(theta) at `point`, for g and each component theta_i of
    the 1-form theta as polynomials {exponent tuple: coefficient}.

    Returns (rho_omega, rho_kappa, dg_p, rank) with omega_p = e^{g(p)}
    rho_omega and (d omega)_p = e^{g(p)} rho_kappa, as {index tuple:
    Fraction}: rho_omega_ij = d_i theta_j - d_j theta_i at p and, since
    d omega = e^g dg ^ d(theta), rho_kappa = dg_p ^ rho_omega by
    wedge_oracle; rank is half the rank of rho_omega's skew matrix by
    rref_oracle.  Each partial derivative is evaluated term by term from
    the exponents, by repeated multiplication.
    """
    n = len(point)
    point = [Fraction(x) for x in point]
    dg = _differential_at(g, point)
    rho = {(i + 1, j + 1): _partial_at(theta[j], i, point) - _partial_at(theta[i], j, point)
           for i, j in combinations(range(n), 2)}
    rho = {k: v for k, v in rho.items() if v}
    skew = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in rho.items():
        skew[i - 1][j - 1], skew[j - 1][i - 1] = c, -c
    return rho, wedge_oracle(dg, rho), dg, len(rref_oracle(skew, n)[1]) // 2


def split_point_oracle(blocks, point):
    """omega = sum over blocks of e^{g_j} c_j dx_a ^ dx_b at `point`, for
    blocks [(g_j, (a, b), c_j)] on disjoint 1-based index pairs, g_j and c_j
    polynomials {exponent tuple: coefficient}, c_j in x_a and x_b alone, so
    that each rho_j = c_j dx_a ^ dx_b is closed and d omega = sum of e^{g_j}
    dg_j ^ rho_j.

    Returns ({q: (omega_q, kappa_q)}, rank): omega_p = sum over q of e^q
    omega_q and (d omega)_p = sum of e^q kappa_q, each as {index tuple:
    Fraction}, where omega_q and kappa_q sum rho_j(p) and dg_j(p) ^ rho_j(p)
    (wedge_oracle) over the blocks with g_j(p) = q; rank counts the blocks
    with c_j(p) != 0, as the pairs are disjoint.
    """
    point = [Fraction(x) for x in point]
    parts: dict = {}
    rank = 0
    for g, pair, c in blocks:
        value = exponent_oracle(tuple(c.items()), point)
        if not value:
            continue
        rank += 1
        rho = {pair: value}
        omega_q, kappa_q = parts.setdefault(exponent_oracle(tuple(g.items()), point), ({}, {}))
        omega_q[pair] = value
        for k, v in wedge_oracle(_differential_at(g, point), rho).items():
            kappa_q[k] = kappa_q.get(k, 0) + v
    return {q: (o, {k: v for k, v in kap.items() if v}) for q, (o, kap) in parts.items()}, rank
