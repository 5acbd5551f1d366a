"""Subspace machinery: annihilators, adapted frames, decomposition, main
parts, derivative extraction."""

from fractions import Fraction

import pytest

from extforms import (
    Subspace,
    Vector,
    adapted_cobase,
    annihilator,
    basis_vector,
    decompose,
    extract_derivative,
    main_part,
    make_form,
    span,
)
from extforms.algebra import ExtForm, alpha, evaluate, interior, pullback, scalar_of
from extforms.randgen import (
    random_form,
    random_invertible,
    random_rank_p_two_form,
    random_rational,
    random_subspace,
    rng_for,
)
from extforms.subspace import frame_coefficients, in_annihilator_algebra
from extforms.wedge_solver import kernel2

from oracles import adapted_frame_oracle, exhaustive_derivative_search


def e(i, n):
    return basis_vector(i, n)


class TestSubspace:
    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            span(4, [e(1, 4), e(1, 4)])

    def test_full_space_rejected(self):
        with pytest.raises(ValueError):
            span(2, [e(1, 2), e(2, 2)])


class TestAnnihilator:
    def test_coordinate_subspace(self):
        c = span(4, [e(1, 4), e(2, 4)])
        assert annihilator(c) == [alpha(3, 4), alpha(4, 4)]

    def test_diagonal_line(self):
        c = span(3, [Vector(3, (1, 1, 0))])
        covs = annihilator(c)
        assert len(covs) == 2
        for cov in covs:
            for v in c.basis:
                assert evaluate(cov, [v]) == 0
        # the two covectors are independent
        from extforms.linalg import rank
        rows = [[cov.coefficient((i,)) for i in range(1, 4)] for cov in covs]
        assert rank(rows, 3) == 2

    def test_zero_subspace_gives_all_duals(self):
        c = span(3, [])
        assert annihilator(c) == [alpha(i, 3) for i in range(1, 4)]

    def test_random_vanishing_on_C(self):
        rng = rng_for(201)
        for _ in range(20):
            n = rng.randint(2, 6)
            p = rng.randint(0, n - 1)
            c = random_subspace(rng, n, p)
            covs = annihilator(c)
            assert len(covs) == n - p
            for cov in covs:
                for v in c.basis:
                    assert evaluate(cov, [v]) == 0


class TestAdaptedCobase:
    def test_coordinate_case(self):
        c = span(4, [e(3, 4), e(4, 4)])
        frame = adapted_cobase(c)
        assert frame.vectors[:2] == (e(3, 4), e(4, 4))
        assert frame.alpha_block == (alpha(1, 4), alpha(2, 4))
        assert frame.beta_block == (alpha(3, 4), alpha(4, 4))

    def test_zero_subspace(self):
        frame = adapted_cobase(span(3, []))
        assert frame.k == 3 and frame.p == 0
        assert frame.alpha_block == tuple(alpha(i, 3) for i in range(1, 4))
        assert frame.beta_block == ()

    def test_duality_random(self):
        rng = rng_for(202)
        for _ in range(20):
            n = rng.randint(2, 6)
            p = rng.randint(0, n - 1)
            c = random_subspace(rng, n, p)
            frame = adapted_cobase(c)
            for t in range(n):
                cov = frame.covectors[t]
                dual = frame.dual_vector(t)
                for vec in frame.vectors:
                    assert evaluate(cov, [vec]) == (1 if vec == dual else 0)
            # alpha block annihilates C
            for cov in frame.alpha_block:
                for v in c.basis:
                    assert evaluate(cov, [v]) == 0

    def test_matches_oracle(self):
        """Dense and sparse rational bases, and the kernels of degenerate
        2-forms, against the greedy completion inverted by Gauss-Jordan."""
        rng = rng_for(207)
        cases = []
        while len(cases) < 300:
            n = rng.randint(1, 9)
            p = rng.randint(0, n - 1)
            if len(cases) % 3:
                cases.append(random_subspace(rng, n, p))
                continue
            vecs = [Vector(n, tuple(random_rational(rng, -4, 4, 3) if rng.random() < 0.4
                                    else Fraction(0) for _ in range(n)))
                    for _ in range(p)]
            try:
                cases.append(Subspace(n, tuple(vecs)))
            except ValueError:
                pass  # dependent or zero vectors
        for n in range(3, 10):
            for p in range(1, (n + 1) // 2):
                cases += [kernel2(random_rank_p_two_form(rng, n, p)) for _ in range(3)]
        for c in cases:
            n = c.dim_ambient
            frame = adapted_cobase(c)
            vectors, covectors = adapted_frame_oracle([v.components for v in c.basis], n)
            assert [list(v.components) for v in frame.vectors] == vectors
            assert [[cov.coeffs.get(1 << i, 0) for i in range(n)]
                    for cov in frame.covectors] == covectors


class TestDecompose:
    def test_single_term_one_alpha(self):
        c = span(4, [e(1, 4), e(2, 4)])  # C0 = {a3, a4}
        w = make_form(4, 2, [((1, 3), 1)])
        dec = decompose(w, adapted_cobase(c))
        assert [s for s, _ in dec.parts] == [1]
        assert dec.reconstruct() == w

    def test_two_groups(self):
        c = span(4, [e(1, 4), e(2, 4)])
        w = make_form(4, 2, [((3, 4), 1), ((1, 2), 1)])
        dec = decompose(w, adapted_cobase(c))
        assert [s for s, _ in dec.parts] == [0, 2]
        assert dec.parts[0][1] == make_form(4, 2, [((1, 2), 1)])
        assert dec.parts[1][1] == make_form(4, 2, [((3, 4), 1)])

    def test_zero_rejected(self):
        c = span(4, [e(1, 4)])
        with pytest.raises(ValueError):
            decompose(make_form(4, 2, []), adapted_cobase(c))

    def test_reconstruction_random(self):
        rng = rng_for(203)
        for _ in range(30):
            n = rng.randint(2, 7)
            k = rng.randint(0, n)
            w = random_form(rng, n, k, nonzero=True)
            c = random_subspace(rng, n, rng.randint(0, n - 1))
            dec = decompose(w, adapted_cobase(c))
            assert dec.reconstruct() == w
            # degrees strictly increasing, parts nonzero
            ss = [s for s, part in dec.parts]
            assert ss == sorted(set(ss))
            assert all(not part.is_zero() for _, part in dec.parts)


class TestFrameCoefficients:
    def test_pullback_round_trip(self):
        # coefficients over the dual base, pulled back along the covectors,
        # give the form back
        rng = rng_for(206)
        for _ in range(40):
            n = rng.randint(1, 7)
            k = rng.randint(0, n)
            w = random_form(rng, n, k)
            frame = adapted_cobase(random_subspace(rng, n, rng.randint(0, n - 1)))
            coeffs = frame_coefficients(w, frame)
            assert pullback(ExtForm(n, k, coeffs), frame.covectors) == w


class TestMainPart:
    def test_single_annihilator_covector(self):
        c = span(4, [e(1, 4), e(2, 4)])
        mp, s = main_part(alpha(3, 4), c)
        assert (mp, s) == (alpha(3, 4), 1)

    def test_no_annihilator_factor(self):
        c = span(4, [e(1, 4), e(2, 4)])
        w = make_form(4, 2, [((1, 2), 1)])
        assert main_part(w, c) == (w, 0)

    def test_trivial_subspace_gives_full_degree(self):
        w = make_form(4, 2, [((1, 2), 1), ((3, 4), 1)])
        _, s = main_part(w, span(4, []))
        assert s == 2

    def test_degree_invariant_under_frame_changes(self):
        # a change of basis preserving C must preserve |omega*|
        rng = rng_for(204)
        for _ in range(100):
            n = rng.randint(3, 6)
            p = rng.randint(1, n - 1)
            c = random_subspace(rng, n, p)
            w = random_form(rng, n, rng.randint(1, min(3, n)), nonzero=True)
            _, s = main_part(w, c)
            # new basis of C = C-basis times a random invertible p x p matrix,
            # possibly plus nothing outside C (block-triangular change)
            m = random_invertible(rng, p)
            new_basis = []
            for i in range(p):
                comps = [Fraction(0)] * n
                for j in range(p):
                    if m[i][j]:
                        for t in range(n):
                            comps[t] += m[i][j] * c.basis[j].components[t]
                new_basis.append(Vector(n, tuple(comps)))
            c2 = Subspace(n, tuple(new_basis))
            _, s2 = main_part(w, c2)
            assert s2 == s


class TestExtractDerivative:
    def test_one_alpha_factor(self):
        c = span(4, [e(1, 4), e(2, 4)])
        w = make_form(4, 2, [((1, 3), 1)])
        vs, rem = extract_derivative(w, c)
        assert [v.components for v in vs] == [e(1, 4).components]
        assert rem == alpha(3, 4)

    def test_main_degree_zero_gives_constant(self):
        c = span(4, [e(1, 4), e(2, 4)])
        w = make_form(4, 2, [((1, 2), 1)])
        vs, rem = extract_derivative(w, c)
        assert len(vs) == 2
        assert rem.degree == 0 and scalar_of(rem) != 0

    def test_already_in_annihilator_algebra(self):
        c = span(4, [e(1, 4), e(2, 4)])
        w = make_form(4, 2, [((3, 4), 1)])
        assert extract_derivative(w, c) == ([], w)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            extract_derivative(make_form(4, 2, []), span(4, [e(1, 4)]))

    def test_postconditions_random(self):
        rng = rng_for(205)
        for _ in range(60):
            n = rng.randint(3, 7)
            p = rng.randint(1, n - 1)
            c = random_subspace(rng, n, p)
            w = random_form(rng, n, rng.randint(1, min(4, n)), nonzero=True)
            _, s = main_part(w, c)
            vs, rem = extract_derivative(w, c)
            assert len(vs) == w.degree - s
            assert not rem.is_zero()
            assert rem.degree == s
            assert in_annihilator_algebra(rem, c)
            # any further contraction by C vanishes
            for v in c.basis:
                assert interior(v, rem).is_zero()

    def test_matches_exhaustive_search(self):
        rng = rng_for(206)
        for _ in range(40):
            n = rng.randint(3, 6)
            p = rng.randint(1, n - 1)
            c = random_subspace(rng, n, p)
            w = random_form(rng, n, rng.randint(1, min(3, n)), nonzero=True)
            _, s = main_part(w, c)
            j = w.degree - s
            vs, rem = extract_derivative(w, c)
            hits = exhaustive_derivative_search(w, c.basis, j)
            if j == 0:
                assert vs == []
            else:
                assert hits  # the operation succeeded, so the search must too
                assert (tuple(vs), rem) in [(tuple(h), r) for h, r in hits]
