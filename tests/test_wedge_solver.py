"""Linear theory of wedge multiplication by a 2-form."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from extforms import linalg, wedge_solver
from extforms import (
    construct_kernel_element,
    kernel2,
    kernel_main_profile,
    lambda_matrix,
    lambda_report,
    main_part,
    make_form,
    rank2,
    rank2_pair_kernel,
    solve_wedge,
    wedge,
)
from extforms.algebra import ExtForm, basis_vector, masks_of_size
from extforms.randgen import random_rank_p_two_form, rng_for
from extforms.subspace import Subspace, adapted_cobase, frame_coefficients
from extforms.wedge_solver import _alpha_block, _weight_draws

from generators import random_form, random_rational
from oracles import (
    lambda_matrix_oracle,
    lefschetz_kernel_dim,
    rank_p_form_oracle,
    rref_oracle,
    sampled_histogram_oracle,
    skew_rank_oracle,
)


def std(n, p):
    return make_form(n, 2, [((2 * i - 1, 2 * i), 1) for i in range(1, p + 1)])


class TestRank2:
    def test_symplectic_r6(self):
        assert rank2(std(6, 3)) == 3

    def test_single_plane(self):
        assert rank2(std(4, 1)) == 1

    def test_zero(self):
        assert rank2(make_form(4, 2, [])) == 0

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            rank2(make_form(4, 1, [((1,), 1)]))

    def test_consistency_with_kernel_random(self):
        rng = rng_for(301)
        for _ in range(40):
            n = rng.randint(2, 8)
            omega = random_form(rng, n, 2, nonzero=True)
            p = rank2(omega)
            assert 2 * p + kernel2(omega).dim == n

    def test_prescribed_rank_random(self):
        rng = rng_for(302)
        for _ in range(30):
            n = rng.randint(2, 8)
            p = rng.randint(1, n // 2)
            omega = random_rank_p_two_form(rng, n, p)
            assert rank2(omega) == p

    def test_float_form_with_small_coefficients(self):
        # omega^3 has coefficient 6e-12 here, yet omega is nondegenerate
        omega = make_form(6, 2, [((1, 2), 1e-4), ((3, 4), 1e-4), ((5, 6), 1e-4)])
        assert rank2(omega) == 3
        assert kernel2(omega).dim == 0


class TestKernel2:
    def test_r5_example(self):
        ker = kernel2(std(5, 2))
        assert [v.components for v in ker.basis] == [basis_vector(5, 5).components]

    def test_nondegenerate_trivial(self):
        assert kernel2(std(4, 2)).dim == 0

    def test_single_plane_r4(self):
        ker = kernel2(std(4, 1))
        assert {v.components for v in ker.basis} == {
            basis_vector(3, 4).components, basis_vector(4, 4).components}

    def test_contraction_vanishes_random(self):
        from extforms.algebra import interior

        rng = rng_for(303)
        for _ in range(20):
            n = rng.randint(3, 7)
            omega = random_form(rng, n, 2, nonzero=True)
            for v in kernel2(omega).basis:
                assert interior(v, omega).is_zero()


class TestLambdaMatrix:
    def test_nondegenerate_r4_isomorphism(self):
        lam = lambda_matrix(std(4, 2), 1)
        assert len(lam.rows_index) == 4 and len(lam.cols_index) == 4
        assert lam.rank() == 4
        assert lam.kernel() == []

    def test_top_degrees_are_zero_maps(self):
        omega = std(4, 2)
        assert lambda_matrix(omega, 3).rows_index == []
        lam = lambda_matrix(omega, 2)
        # k = n-2: target is the top degree; rank can still be positive
        assert len(lam.rows_index) == 1

    def test_degenerate_kernel(self):
        lam = lambda_matrix(std(4, 1), 1)
        kernel = lam.kernel()
        from extforms.algebra import alpha
        assert kernel == [alpha(1, 4), alpha(2, 4)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_matrix(std(4, 2), 5)

    def test_columns_are_wedges(self):
        rng = rng_for(304)
        omega = random_form(rng, 5, 2, nonzero=True)
        k = 1
        lam = lambda_matrix(omega, k)
        for ci, mask in enumerate(lam.cols_index):
            image = wedge(omega, ExtForm.from_masks(5, k, {mask: Fraction(1)}))
            col = {lam.rows_index[r]: lam.matrix[r][ci]
                   for r in range(len(lam.rows_index)) if lam.matrix[r][ci]}
            assert col == image.coeffs


class TestSolveWedge:
    def test_unique_solution_r4(self):
        omega = std(4, 2)
        kappa = make_form(4, 3, [((1, 2, 3), 1)])
        beta, kernel = solve_wedge(omega, kappa)
        from extforms.algebra import alpha
        assert beta == alpha(3, 4)
        assert kernel == []

    def test_unsolvable_reports_kernel(self):
        omega = std(4, 1)
        kappa = make_form(4, 3, [((1, 3, 4), 1)])
        beta, kernel = solve_wedge(omega, kappa)
        assert beta is None
        from extforms.algebra import alpha
        assert kernel == [alpha(1, 4), alpha(2, 4)]

    def test_zero_rhs(self):
        omega = std(4, 1)
        kappa = make_form(4, 3, [])
        beta, kernel = solve_wedge(omega, kappa)
        assert beta is not None and beta.is_zero()
        assert len(kernel) == 2

    def test_degree_too_low(self):
        with pytest.raises(ValueError):
            solve_wedge(std(4, 2), make_form(4, 1, [((1,), 1)]))

    def test_residual_exact_random(self):
        rng = rng_for(305)
        solved = 0
        for _ in range(40):
            n = rng.randint(4, 7)
            omega = random_form(rng, n, 2, nonzero=True)
            deg = rng.randint(2, min(n, 5))
            beta_true = random_form(rng, n, deg - 2)
            kappa = wedge(omega, beta_true)  # guaranteed solvable
            beta, kernel = solve_wedge(omega, kappa)
            assert beta is not None
            assert wedge(omega, beta) == kappa
            for b in kernel:
                assert wedge(omega, b).is_zero()
            solved += 1
        assert solved == 40

    def test_float_mode_residual(self):
        omega = make_form(4, 2, [((1, 2), 1.0), ((3, 4), 0.5)])
        kappa = make_form(4, 3, [((1, 2, 3), 1.0)])
        beta, kernel = solve_wedge(omega, kappa)
        assert beta is not None and kernel == []
        resid = wedge(omega, beta) - kappa
        assert all(abs(c) <= 1e-9 for c in resid.coeffs.values())


class TestKernelMainProfile:
    def test_single_plane_r4(self):
        profile = kernel_main_profile(std(4, 1), 1)
        assert profile.p == 1
        assert profile.min_s == 1
        assert profile.kernel_dim == 2

    def test_r5_rank2_l2(self):
        profile = kernel_main_profile(std(5, 2), 2)
        assert profile.p == 2 and profile.min_s == 2

    def test_nondegenerate_r6_l2_trivial(self):
        profile = kernel_main_profile(std(6, 3), 2)
        assert profile.kernel_dim == 0 and profile.min_s is None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            kernel_main_profile(make_form(4, 2, []), 1)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_main_profile(std(4, 2), 3)

    def test_kernel_dim_matches_direct_nullity(self):
        rng = rng_for(310)
        for _ in range(10):
            n = rng.randint(4, 6)
            p = rng.randint(1, n // 2)
            omega = random_rank_p_two_form(rng, n, p)
            for l in range(1, n - 1):
                profile = kernel_main_profile(omega, l, n_combos=5)
                lam = lambda_matrix(omega, l)
                assert profile.kernel_dim == len(lam.cols_index) - lam.rank()

    def test_kernel_dim_matches_lefschetz_count(self):
        rng = rng_for(311)
        for n in range(3, 9):
            for p in range(1, n // 2 + 1):
                omega = random_rank_p_two_form(rng, n, p)
                for l in range(1, n - 1):
                    profile = kernel_main_profile(omega, l, n_combos=0)
                    assert profile.kernel_dim == lefschetz_kernel_dim(n, p, l), (n, p, l)

    def test_lower_bound_random(self):
        rng = rng_for(306)
        for _ in range(25):
            n = rng.randint(4, 7)
            p = rng.randint(1, n // 2)
            omega = random_rank_p_two_form(rng, n, p)
            for l in range(1, n - 1):
                profile = kernel_main_profile(omega, l, n_combos=10,
                                              seed=rng.randint(0, 10**6))
                if l < p:
                    assert profile.kernel_dim == 0
                if profile.min_s is not None:
                    assert profile.min_s >= p


class TestSamplerOracle:
    """The profile's bulk weight draws against `sampled_histogram_oracle`, a
    plain loop of randint(-3, 3) calls that shares no code with them."""

    @pytest.mark.parametrize("n_combos", [0, 1, 20])
    def test_every_layer_shape(self, n_combos):
        rng = rng_for(1200 + n_combos)
        for n in range(3, 10):
            for p in range(1, n // 2 + 1):
                omega = random_rank_p_two_form(rng, n, p)
                na, nb = 2 * p, n - 2 * p
                for l in range(1, n - 1):
                    # the Lefschetz count of each block layer's nullity
                    nullity = {s: comb(na, s) - comb(na, s + 2)
                               for s in range(max(0, l - nb), min(l, na) + 1)
                               if comb(na, s) > comb(na, s + 2)}
                    seed = rng.randint(0, 10 ** 6)
                    profile = kernel_main_profile(omega, l, n_combos=n_combos, seed=seed)
                    entries, _ = sampled_histogram_oracle(nullity, nb, l, n_combos, seed)
                    assert profile.entries == entries, (n, p, l, seed)

    @pytest.mark.parametrize("omega, l, nullity", [
        (std(4, 1), 2, {2: 1}),         # kernel_dim 1: one weight per combination
        (std(5, 2), 3, {2: 1, 3: 1}),   # two one-vector layers, nb = 1
    ])
    def test_all_zero_combinations_drawn_again(self, monkeypatch, omega, l, nullity):
        # no nonzero 2-form has kernel_dim 1 at an admissible l (the top
        # block layers s = 2p - 1 and 2p come together), so the layer
        # nullities are set; a weight is 0 with probability 1/7, and 200
        # combinations outrun the first bulk draw at some seeds
        monkeypatch.setattr(wedge_solver, "_layer_nullities",
                            lambda omega_a, degrees: dict(nullity))
        nb = omega.dim - 2 * rank2(omega)
        redrawn = 0
        for seed in range(40):
            profile = kernel_main_profile(omega, l, n_combos=200, seed=seed)
            entries, r = sampled_histogram_oracle(nullity, nb, l, 200, seed)
            assert profile.entries == entries, seed
            redrawn += r
        assert redrawn  # the path is taken: 1,382 and 184 times at these seeds

    def test_bulk_draws_continue_the_randint_stream(self):
        for seed in (0, 1, 77, 2 ** 40):
            rng = random.Random(seed)
            draws = _weight_draws(rng, 300) + _weight_draws(rng, 7)
            ref = random.Random(seed)
            assert list(draws) == [ref.randint(-3, 3) + 3 for _ in draws]


class TestRankPGeneratorOracle:
    """random_rank_p_two_form against the literal randint(-2, 2) loop and
    congruence_oracle: the same coefficients, all Fractions, and the same
    rng state after every form, so the shared lemma-check stream goes on
    as before."""

    def _check_stream(self, seed, shapes):
        rng, ref = rng_for(seed), rng_for(seed)
        redrawn = 0
        for n, p in shapes:
            omega = random_rank_p_two_form(rng, n, p)
            coeffs, r = rank_p_form_oracle(ref, n, p)
            redrawn += r
            assert (omega.dim, omega.degree) == (n, 2)
            assert omega.coeffs == coeffs
            assert all(type(c) is Fraction for c in omega.coeffs.values())
            assert rng.getstate() == ref.getstate()
            assert rank2(omega) == p
        return redrawn

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_rank(self, n):
        # two passes over p = 0 .. n // 2 from one rng per seed
        shapes = [(n, p) for p in range(n // 2 + 1)] * 2
        for seed in range(3):
            self._check_stream(1200 + 10 * n + seed, shapes)

    def test_mixed_dimensions_from_one_rng(self):
        shapes = [(n, p) for n in range(2, 10) for p in (n // 2, n // 4)]
        for seed in range(3):
            self._check_stream(1300 + seed, shapes)

    def test_singular_draws_are_redrawn(self):
        # a 3x3 matrix over -2..2 is often singular: the corpus must redraw
        redrawn = sum(self._check_stream(seed, [(3, 1)] * 3) for seed in range(60))
        assert redrawn > 0

    def test_rank_above_half_dimension_rejected(self):
        rng = rng_for(1400)
        state = rng.getstate()
        with pytest.raises(ValueError):
            random_rank_p_two_form(rng, 5, 3)
        assert rng.getstate() == state


class TestConstructKernelElement:
    def test_r5_l2_s2(self):
        omega = std(5, 2)
        beta = construct_kernel_element(omega, 2, 2)
        assert not beta.is_zero()
        assert wedge(omega, beta).is_zero()
        assert main_part(beta, kernel2(omega))[1] == 2

    def test_r4_single_plane_l2_s1(self):
        omega = std(4, 1)
        beta = construct_kernel_element(omega, 2, 1)
        assert wedge(omega, beta).is_zero()
        assert main_part(beta, kernel2(omega))[1] == 1

    def test_below_rank_rejected(self):
        with pytest.raises(ValueError):
            construct_kernel_element(std(4, 2), 2, 1)

    def test_insufficient_complement_rejected(self):
        # l - s covectors outside the annihilator must exist
        with pytest.raises(ValueError):
            construct_kernel_element(std(4, 1), 4, 1)

    def test_all_admissible_random(self):
        rng = rng_for(307)
        for _ in range(15):
            n = rng.randint(4, 7)
            p = rng.randint(1, n // 2)
            omega = random_rank_p_two_form(rng, n, p)
            ker_dim = n - 2 * p
            c = kernel2(omega)
            for l in range(1, n - 1):
                for s in range(p, min(2 * p, l) + 1):
                    if l - s > ker_dim:
                        continue
                    beta = construct_kernel_element(omega, l, s)
                    assert not beta.is_zero()
                    assert wedge(omega, beta).is_zero()
                    assert main_part(beta, c)[1] == s


class TestRank2PairKernel:
    def test_five_families_r4(self):
        omega1 = std(4, 2)  # eta1^eta2 + beta1^beta2 with c = 1
        kernel = rank2_pair_kernel(omega1)
        assert len(kernel) == 5
        candidates = [
            make_form(4, 2, [((1, 2), 1), ((3, 4), -1)]),
            make_form(4, 2, [((1, 3), 1)]),
            make_form(4, 2, [((1, 4), 1)]),
            make_form(4, 2, [((2, 3), 1)]),
            make_form(4, 2, [((2, 4), 1)]),
        ]
        for cand in candidates:
            assert wedge(omega1, cand).is_zero()
            # and the candidate is in the span of the returned basis
            from extforms import linalg
            masks = list(masks_of_size(4, 2))
            rows = [[b.coeffs.get(m, Fraction(0)) for b in kernel] + [cand.coeffs.get(m, Fraction(0))]
                    for m in masks]
            assert linalg.rank([r[:-1] for r in rows], 5) == \
                linalg.rank(rows, 6)

    def test_rank3_r6_trivial(self):
        rng = rng_for(308)
        omega1 = random_rank_p_two_form(rng, 6, 3)
        assert rank2_pair_kernel(omega1) == []

    def test_rank1_r4_dimension(self):
        kernel = rank2_pair_kernel(std(4, 1))
        assert len(kernel) == 5  # only the beta1^beta2 coefficient is constrained

    def test_rank_bound_on_combinations(self):
        rng = rng_for(309)
        for _ in range(20):
            n = rng.choice([4, 5])
            omega1 = random_rank_p_two_form(rng, n, 2)
            kernel = rank2_pair_kernel(omega1)
            for _ in range(10):
                combo = ExtForm.zero(n, 2)
                for b in kernel:
                    combo = combo + b.scale(random_rational(rng))
                if combo.is_zero():
                    continue
                assert wedge(omega1, combo).is_zero()
                assert rank2(combo) <= 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rank2_pair_kernel(make_form(4, 2, []))


class TestLambdaReport:
    def test_nondegenerate_r4(self):
        rows = lambda_report(std(4, 2))
        row1 = rows[1]
        assert row1.k == 1 and row1.dim_kernel == 0 and row1.dim_cokernel == 0

    def test_nondegenerate_r6_injective_below_rank(self):
        rows = lambda_report(std(6, 3))
        for k in (0, 1, 2):
            assert rows[k].injective

    def test_surjectivity_expectation_r6(self):
        # empirical evidence for epimorphy at k >= p
        rows = lambda_report(std(6, 3))
        for k in (3, 4):
            assert rows[k].surjective

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lambda_report(make_form(4, 2, []))


BLOCK_DIMS = range(3, 9)
# two cases per (n, p), counted without drawing them, so that a generator
# that raises fails the tests that use the cases, not the collection
N_BLOCK_CASES = sum(2 * (n // 2) for n in BLOCK_DIMS)


@lru_cache(maxsize=None)
def _seeded_two_forms(seed: int):
    """(omega, p) for n in 3..8 and every rank 1 <= p <= n/2: a dense form
    congruent to the standard one, and a sparse one (p basis planes at
    random positions with random coefficients, plus one more term inside
    their span, rank by the oracle)."""
    rng = rng_for(seed)
    cases = []
    for n in BLOCK_DIMS:
        for p in range(1, n // 2 + 1):
            cases.append((random_rank_p_two_form(rng, n, p), p))
            idx = rng.sample(range(1, n + 1), 2 * p)
            terms = [(tuple(sorted(idx[2 * i:2 * i + 2])), rng.choice([1, 2, 3, 5]))
                     for i in range(p)]
            terms.append((tuple(sorted(rng.sample(idx, 2))), rng.choice([-7, 4, 6])))
            sparse = make_form(n, 2, terms)
            cases.append((sparse, skew_rank_oracle(sparse)))
    assert len(cases) == N_BLOCK_CASES
    return cases


def _block_case(case: int):
    return _seeded_two_forms(606)[case]


@lru_cache(maxsize=None)
def _lambda_oracle(case: int, k: int):
    """(oracle lambda^k matrix, its RREF rows, pivot columns) of a case."""
    omega = _block_case(case)[0]
    mat = lambda_matrix_oracle(omega, k)
    return (mat, *rref_oracle(mat, comb(omega.dim, k)))


@pytest.mark.parametrize("case", range(N_BLOCK_CASES))
class TestBlockReduction:
    """lambda_report reads every rank off the block form; row_reduce_int
    picks the sparsest candidate pivot row.  Both against the full lambda
    matrices of the permutation-sign oracle, reduced by Gauss-Jordan."""

    def test_lambda_report_matches_oracle(self, case):
        omega, p = _block_case(case)
        assert p >= 1 and rank2(omega) == p
        for row in lambda_report(omega):
            assert row.rank == len(_lambda_oracle(case, row.k)[2])
            assert row.dim_kernel == lefschetz_kernel_dim(omega.dim, p, row.k)

    def test_row_reduce_int_on_lambda_matrices(self, case):
        n = _block_case(case)[0].dim
        for k in range(n - 1):
            mat, rref, pivcols = _lambda_oracle(case, k)
            ints = [linalg.clear_denominators(r) for r in mat]
            m, pivots = linalg.row_reduce_int(ints, comb(n, k))
            assert pivots == list(enumerate(pivcols))
            for (r, c), ref in zip(pivots, rref):
                assert [Fraction(x, m[r][c]) for x in m[r]] == ref
            assert not any(any(r) for r in m[len(pivots):])
            _, pivots = linalg.row_reduce_int(ints, comb(n, k), reduced=False)
            assert pivots == list(enumerate(pivcols))


class TestAlphaBlockShortcut:
    """omega's block, read off the pivot columns of its skew matrix, is
    omega rewritten in the frame adapted to its kernel (to C = 0 for a float
    omega), whose terms all lie on the alpha block."""

    @staticmethod
    def _check(omega, is_float=False):
        c = Subspace(omega.dim, ()) if is_float else kernel2(omega)
        block = _alpha_block(omega)
        frame = adapted_cobase(c)
        coeffs = frame_coefficients(omega, frame)
        assert all(m >> frame.k == 0 for m in coeffs)
        assert block == ExtForm.from_masks(frame.k, 2, coeffs)
        assert all(isinstance(x, float) == is_float for x in block.coeffs.values())
        if not is_float:
            assert block.dim == 2 * rank2(omega)
        return c

    def test_nondegenerate_exact(self):
        rng = rng_for(7401)
        cases = [std(4, 2), std(6, 3)] + [random_rank_p_two_form(rng, 2 * p, p)
                                          for p in (1, 2, 3, 4)]
        for omega in cases:
            assert not self._check(omega).basis

    def test_degenerate_exact(self):
        rng = rng_for(7402)
        cases = [std(5, 1), std(7, 2)] + [random_rank_p_two_form(rng, n, p)
                                          for n in range(3, 10)
                                          for p in range(1, (n + 1) // 2)]
        for omega in cases:
            assert self._check(omega).basis

    def test_float(self):
        for omega in (make_form(4, 2, [((1, 2), 0.5), ((3, 4), -2.25)]),
                      make_form(5, 2, [((1, 3), 1e-3), ((2, 5), 7.0)])):
            self._check(omega, is_float=True)
