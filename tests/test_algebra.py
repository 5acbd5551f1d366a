"""Core exterior algebra: construction, wedge, evaluation, contraction."""

from fractions import Fraction

import pytest

from extforms import (
    Vector,
    alpha,
    basis_vector,
    evaluate,
    interior,
    interior_division,
    iterated_interior,
    make_form,
    pairing,
    scalar_of,
    wedge,
)
from extforms.algebra import ExtForm, covector, pullback, reverse_sign
from extforms.randgen import rng_for

from generators import congruence, random_form, random_invertible, random_vector
from oracles import (
    congruence_oracle,
    det_oracle,
    evaluate_oracle,
    interior_oracle,
    pullback_oracle,
    stepwise_iterated_interior,
)


def e(i, n=4):
    return basis_vector(i, n)


class TestMakeForm:
    def test_direct_construction(self):
        f = make_form(4, 2, [((1, 2), 1), ((3, 4), 1)])
        assert list(f.terms()) == [((1, 2), 1), ((3, 4), 1)]

    def test_cancellation(self):
        f = make_form(4, 2, [((1, 2), 1), ((1, 2), -1)])
        assert f.is_zero()

    def test_degree_exceeding_dimension(self):
        with pytest.raises(ValueError):
            make_form(3, 4, [((1, 2, 3, 4), 1)])

    def test_zero_form_of_high_degree_allowed(self):
        assert make_form(3, 4, []).is_zero()

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            make_form(4, 2, [((2, 1), 1)])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            make_form(3, 2, [((1, 4), 1)])

    def test_duplicates_summed(self):
        f = make_form(4, 1, [((1,), 2), ((1,), 3)])
        assert f.coefficient((1,)) == 5


class TestWedge:
    def test_sorted_concatenation(self):
        a = make_form(4, 2, [((1, 2), 1)])
        b = make_form(4, 2, [((3, 4), 1)])
        assert list(wedge(a, b).terms()) == [((1, 2, 3, 4), 1)]

    def test_two_transpositions(self):
        a = make_form(3, 1, [((3,), 1)])
        b = make_form(3, 2, [((1, 2), 1)])
        assert list(wedge(a, b).terms()) == [((1, 2, 3), 1)]

    def test_cross_terms_double(self):
        omega = make_form(4, 2, [((1, 2), 1), ((3, 4), 1)])
        assert list(wedge(omega, omega).terms()) == [((1, 2, 3, 4), 2)]

    def test_scalar_wedge_scales(self):
        c = make_form(4, 0, [((), Fraction(3, 2))])
        w = make_form(4, 2, [((1, 3), 2)])
        assert wedge(c, w) == w.scale(Fraction(3, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(make_form(3, 1, [((1,), 1)]), make_form(4, 1, [((1,), 1)]))

    def test_graded_anticommutativity_random(self):
        rng = rng_for(101)
        for _ in range(60):
            n = rng.randint(2, 6)
            da = rng.randint(0, n)
            db = rng.randint(0, n - da)
            a = random_form(rng, n, da)
            b = random_form(rng, n, db)
            sign = -1 if (da * db) % 2 else 1
            assert wedge(a, b) == wedge(b, a).scale(sign)

    def test_associativity_random(self):
        rng = rng_for(102)
        for _ in range(40):
            n = rng.randint(2, 6)
            degs = [rng.randint(0, 2) for _ in range(3)]
            a, b, c = (random_form(rng, n, d) for d in degs)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_bilinearity_random(self):
        rng = rng_for(103)
        for _ in range(30):
            n = rng.randint(2, 5)
            d = rng.randint(1, 2)
            a1 = random_form(rng, n, d)
            a2 = random_form(rng, n, d)
            b = random_form(rng, n, rng.randint(0, n - d))
            assert wedge(a1 + a2, b) == wedge(a1, b) + wedge(a2, b)


class TestEvaluate:
    def test_half_on_basis_pair(self):
        f = make_form(4, 2, [((1, 2), 1)])
        expected = evaluate_oracle(f, [e(1), e(2)])
        assert expected == Fraction(1, 2)
        assert evaluate(f, [e(1), e(2)]) == expected

    def test_alternating(self):
        f = make_form(4, 2, [((1, 2), 1)])
        assert evaluate(f, [e(1), e(1)]) == 0

    def test_dual_basis(self):
        assert evaluate(alpha(1, 4), [e(1)]) == 1
        assert evaluate(alpha(1, 4), [e(2)]) == 0

    def test_argument_count(self):
        with pytest.raises(ValueError):
            evaluate(make_form(4, 2, [((1, 2), 1)]), [e(1)])

    def test_matches_antisymmetrization_oracle(self):
        rng = rng_for(104)
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(0, min(3, n))
            f = random_form(rng, n, k)
            args = [random_vector(rng, n) for _ in range(k)]
            assert evaluate(f, args) == evaluate_oracle(f, args)

    def test_multilinearity(self):
        rng = rng_for(105)
        for _ in range(20):
            n = 4
            f = random_form(rng, n, 2)
            u, v, w = (random_vector(rng, n) for _ in range(3))
            c = Fraction(rng.randint(-3, 3))
            uv = Vector(n, tuple(a + c * b for a, b in zip(u.components, v.components)))
            assert evaluate(f, [uv, w]) == evaluate(f, [u, w]) + c * evaluate(f, [v, w])


class TestInterior:
    def test_basis_contraction(self):
        f = make_form(4, 2, [((1, 2), 1)])
        assert list(interior(e(1), f).terms()) == [((2,), 1)]

    def test_unrelated_vector(self):
        f = make_form(4, 2, [((1, 2), 1)])
        assert interior(e(3), f).is_zero()

    def test_degree_one_gives_value(self):
        r = interior(e(1), alpha(1, 4))
        assert r.degree == 0 and scalar_of(r) == 1

    def test_degree_zero_gives_zero(self):
        f = make_form(4, 0, [((), 5)])
        assert interior(e(1), f).is_zero()

    def test_matches_evaluation_oracle(self):
        rng = rng_for(106)
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(1, min(3, n))
            f = random_form(rng, n, k)
            v = random_vector(rng, n)
            got = interior(v, f)
            assert got.coeffs == interior_oracle(v, f)

    def test_antiderivation_identity(self):
        rng = rng_for(107)
        for _ in range(50):
            n = rng.randint(2, 6)
            dm = rng.randint(1, 2)
            dn = rng.randint(1, 2)
            mu = random_form(rng, n, dm)
            nu = random_form(rng, n, dn)
            v = random_vector(rng, n)
            lhs = interior(v, wedge(mu, nu))
            sign = -1 if dm % 2 else 1
            rhs = wedge(interior(v, mu), nu) + wedge(mu, interior(v, nu)).scale(sign)
            assert lhs == rhs

    def test_constant_factor_pulls_out(self):
        rng = rng_for(120)
        for _ in range(10):
            n = rng.randint(2, 5)
            c = make_form(n, 0, [((), Fraction(rng.randint(-3, 3)))])
            nu = random_form(rng, n, rng.randint(1, 2))
            v = random_vector(rng, n)
            assert interior(v, wedge(c, nu)) == wedge(c, interior(v, nu))

    def test_square_zero(self):
        rng = rng_for(108)
        for _ in range(40):
            n = rng.randint(2, 6)
            k = rng.randint(2, min(4, n))
            f = random_form(rng, n, k)
            v = random_vector(rng, n)
            assert interior(v, interior(v, f)).is_zero()


class TestIteratedInterior:
    def test_pair_contraction_order(self):
        f = make_form(4, 2, [((1, 2), 1)])
        assert scalar_of(iterated_interior([e(1), e(2)], f)) == -1
        assert scalar_of(iterated_interior([e(2), e(1)], f)) == 1

    def test_repeated_vector_kills(self):
        rng = rng_for(109)
        f = random_form(rng, 4, 3)
        assert iterated_interior([e(1), e(1)], f).is_zero()

    def test_overcontraction_is_zero_constant(self):
        f = make_form(4, 1, [((1,), 1)])
        r = iterated_interior([e(1), e(2)], f)
        assert r.degree == 0 and r.is_zero()

    def test_permutation_sign(self):
        rng = rng_for(110)
        for _ in range(20):
            n = 5
            k = 3
            f = random_form(rng, n, k)
            vs = [random_vector(rng, n) for _ in range(k)]
            base = iterated_interior(vs, f)
            swapped = iterated_interior([vs[1], vs[0], vs[2]], f)
            assert swapped == base.scale(-1)

    def test_matches_stepwise_oracle(self):
        rng = rng_for(111)
        for _ in range(20):
            n = rng.randint(3, 6)
            k = rng.randint(1, 3)
            f = random_form(rng, n, min(k + 1, n))
            vs = [random_vector(rng, n) for _ in range(k)]
            assert iterated_interior(vs, f) == stepwise_iterated_interior(vs, f)


class TestPairing:
    def test_basis_pair_value(self):
        f = make_form(4, 2, [((1, 2), 1)])
        assert pairing([e(1), e(2)], f) == -1
        assert pairing([e(2), e(1)], f) == 1

    def test_triple(self):
        f = make_form(4, 3, [((1, 2, 3), 1)])
        assert pairing([e(1), e(2), e(3)], f) == -1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairing([e(1)], make_form(4, 2, [((1, 2), 1)]))

    def test_factorial_relation(self):
        # pairing = sign(reverse) * k! * evaluation, exactly; evaluate is
        # read off the pairing, so the evaluation here is the oracle's
        rng = rng_for(112)
        for _ in range(40):
            n = rng.randint(2, 6)
            k = rng.randint(1, min(4, n))
            f = random_form(rng, n, k)
            vs = [random_vector(rng, n) for _ in range(k)]
            fact = 1
            for i in range(2, k + 1):
                fact *= i
            assert pairing(vs, f) == reverse_sign(k) * fact * evaluate_oracle(f, vs)

    def test_determinant_on_decomposables(self):
        from generators import random_rational

        rng = rng_for(113)
        for _ in range(30):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            etas = [random_vector(rng, n) for _ in range(k)]
            covs = [make_form(n, 1, [((i,), random_rational(rng)) for i in range(1, n + 1)])
                    for _ in range(k)]
            theta = covs[0]
            for c in covs[1:]:
                theta = wedge(theta, c)
            rows = [[evaluate(covs[i], [etas[j]]) for j in range(k)] for i in range(k)]
            assert pairing(etas, theta) == reverse_sign(k) * det_oracle(rows)

    def test_nondegeneracy_by_reconstruction(self):
        # coefficients are recoverable from pairings against basis tuples,
        # so all-zero pairings force the zero form
        from itertools import combinations

        rng = rng_for(114)
        for _ in range(20):
            n = rng.randint(2, 5)
            k = rng.randint(1, min(3, n))
            f = random_form(rng, n, k)
            rebuilt = {}
            for combo in combinations(range(1, n + 1), k):
                vs = [e(i, n) for i in combo]
                c = reverse_sign(k) * pairing(vs, f)
                if c:
                    from extforms.algebra import mask_of
                    rebuilt[mask_of(combo, n)] = c
            assert rebuilt == f.coeffs


class TestInteriorDivision:
    def test_basic(self):
        nu = interior_division(e(1), alpha(2, 4))
        assert list(nu.terms()) == [((1, 2), 1)]
        assert interior(e(1), nu) == alpha(2, 4)

    def test_zero_form(self):
        nu = interior_division(e(1), ExtForm.zero(4, 1))
        assert nu.degree == 2 and nu.is_zero()

    def test_precondition_violated(self):
        with pytest.raises(ValueError):
            interior_division(e(1), alpha(1, 4))

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            interior_division(Vector(4, (0, 0, 0, 0)), alpha(2, 4))

    def test_round_trip_random(self):
        rng = rng_for(115)
        count = 0
        while count < 25:
            n = rng.randint(2, 6)
            k = rng.randint(0, n - 1)
            v = random_vector(rng, n, nonzero=True)
            mu = interior(v, random_form(rng, n, k + 1))  # in the image => i_v mu = 0
            if mu.is_zero():
                continue
            nu = interior_division(v, mu)
            assert interior(v, nu) == mu
            count += 1


class TestPullback:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_oracle(self, n):
        # every degree, into a target space smaller, equal and larger
        rng = rng_for(116 + n)
        for k in range(n + 1):
            for dim in sorted({max(1, n - 2), n, n + 1}):
                f = random_form(rng, n, k, density=0.8)
                images = [random_form(rng, dim, 1) for _ in range(n)]
                g = pullback(f, images)
                assert (g.dim, g.degree) == (dim, k)
                assert g.coeffs == pullback_oracle(f, images)

    def test_image_count_checked(self):
        f = make_form(3, 1, [((1,), 1)])
        with pytest.raises(ValueError):
            pullback(f, [alpha(1, 3), alpha(2, 3)])

    def test_congruence_is_atba(self):
        rng = rng_for(117)
        for _ in range(30):
            n = rng.randint(2, 7)
            w = random_form(rng, n, 2)
            a = random_invertible(rng, n) if rng.random() < 0.5 else \
                [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            assert congruence(w, a).coeffs == congruence_oracle(w, a)
            assert congruence(w, a) == pullback(w, [covector(row) for row in a])

    def test_random_invertible_is_invertible(self):
        rng = rng_for(118)
        for n in range(1, 6):
            for _ in range(5):
                assert det_oracle(random_invertible(rng, n)) != 0
