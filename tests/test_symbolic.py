"""Symbolic differential forms: scalar ring, exterior derivative, the
equation d(omega) = beta ^ omega, pointwise classification, structure
checks, and the built-in worked examples."""

import math
from fractions import Fraction
from itertools import product

import pytest

from extforms.symbolic import (
    DiffForm,
    PoleError,
    ScalarExpr,
    classify_theorem_sets,
    cosymplectic_check,
    eval_at,
    example_catalog,
    exterior_derivative,
    frobenius_residual,
    is_zero_at,
    lee_solve,
    lee_verify,
    rank_at,
    try_divide,
    wedge_d,
    wedge_d_all,
    wedge_powers,
)
from extforms.dsl import parse_form
from extforms.randgen import rng_for
from extforms.symbolic import _Plan, _PointValues  # compiled forms, per-point table

from oracles import eval_groups_oracle, exponent_oracle, rank_scan_oracle


def random_scalar(rng, n, allow_exp=True, allow_laurent=False):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lo = -1 if allow_laurent else 0
        mono = tuple(rng.randint(lo, 2) for _ in range(n))
        if allow_exp and rng.random() < 0.5:
            pm = tuple(rng.randint(0, 1) for _ in range(n))
            poly = ((pm, Fraction(rng.randint(1, 2))),) if any(pm) else ()
        else:
            poly = ()
        c = Fraction(rng.randint(-3, 3))
        if c:
            terms[(mono, poly)] = terms.get((mono, poly), Fraction(0)) + c
    return ScalarExpr(n, terms)


def random_diff_form(rng, coords, degree, **kw):
    from extforms.algebra import masks_of_size

    n = len(coords)
    masks = list(masks_of_size(n, degree))
    coeffs = {}
    for m in rng.sample(masks, k=min(len(masks), rng.randint(1, 3))):
        coeffs[m] = random_scalar(rng, n, **kw)
    return DiffForm(coords, degree, coeffs)


class TestScalarExpr:
    def test_arithmetic(self):
        x = ScalarExpr.var(0, 2)
        y = ScalarExpr.var(1, 2)
        two = ScalarExpr.const(2, 2)
        assert (x + y) * (x - y) == x * x - y * y
        assert (two * x).eval_at((3, 0)) == Fraction(6)

    def test_diff_product_rule_random(self):
        rng = rng_for(401)
        for _ in range(30):
            n = rng.randint(1, 3)
            a = random_scalar(rng, n)
            b = random_scalar(rng, n)
            for i in range(n):
                lhs = (a * b).diff(i)
                rhs = a.diff(i) * b + a * b.diff(i)
                assert lhs == rhs

    def test_diff_of_exponential(self):
        # d/dx exp(x*y) = y * exp(x*y)
        x = ScalarExpr.var(0, 2)
        y = ScalarExpr.var(1, 2)
        f = ScalarExpr.exp(x * y)
        assert f.diff(0) == y * f

    def test_eval_exact_without_exponential(self):
        x = ScalarExpr.var(0, 1)
        f = x * x + ScalarExpr.const(Fraction(1, 2), 1)
        v = f.eval_at((Fraction(1, 3),))
        assert isinstance(v, Fraction) and v == Fraction(11, 18)

    def test_eval_float_with_exponential(self):
        f = ScalarExpr.exp(ScalarExpr.var(0, 1))
        v = f.eval_at((1,))
        assert isinstance(v, float)
        assert abs(v - math.e) < 1e-12

    def test_exponential_groups_do_not_cancel(self):
        x = ScalarExpr.var(0, 1)
        f = ScalarExpr.exp(x) - ScalarExpr.const(1, 1)
        assert not f.is_zero()
        assert f.is_zero_at((0,))       # e^0 - 1 = 0, exactly
        assert not f.is_zero_at((1,))   # e - 1, known nonzero

    def test_pole_error(self):
        f = ScalarExpr.var(0, 1, power=-1)
        with pytest.raises(PoleError):
            f.eval_at((0,))
        assert f.eval_at((2,)) == Fraction(1, 2)

    def test_finite_difference_matches_diff(self):
        rng = rng_for(402)
        h = 1e-6
        for _ in range(20):
            n = rng.randint(1, 3)
            f = random_scalar(rng, n)
            point = [rng.choice([-1, 1]) * (1 + rng.random()) for _ in range(n)]
            for i in range(n):
                exact = f.diff(i).eval_at(point)
                up = list(point)
                dn = list(point)
                up[i] += h
                dn[i] -= h
                fd = (float(f.eval_at(up)) - float(f.eval_at(dn))) / (2 * h)
                scale = max(1.0, abs(float(exact)))
                assert abs(float(exact) - fd) <= 1e-6 * scale


class TestTryDivide:
    def test_monomial_divisor(self):
        x = ScalarExpr.var(0, 2)
        y = ScalarExpr.var(1, 2)
        q = try_divide(x * y + y * y, y)
        assert q == x + y

    def test_laurent_quotient(self):
        x = ScalarExpr.var(0, 1)
        q = try_divide(ScalarExpr.const(1, 1), x)
        assert q == ScalarExpr.var(0, 1, power=-1)

    def test_inexact_returns_none(self):
        x = ScalarExpr.var(0, 2)
        y = ScalarExpr.var(1, 2)
        one = ScalarExpr.const(1, 2)
        q = try_divide(x, x + y)
        assert q is None or not (q * (x + y) - x).is_zero()
        assert try_divide(x, ScalarExpr.zero(2)) is None
        assert try_divide(ScalarExpr.zero(2), one).is_zero()

    def test_round_trip_random(self):
        rng = rng_for(403)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = random_scalar(rng, n)
            b = random_scalar(rng, n)
            if b.is_zero():
                continue
            q = try_divide(a * b, b)
            assert q is not None
            assert (q * b - a * b * try_divide(b, b)).is_zero() or (q * b) == a * b


class TestExteriorDerivative:
    COORDS3 = ("x", "y", "z")

    def test_d_of_function(self):
        n = 3
        f = ScalarExpr.var(0, n) * ScalarExpr.var(1, n)   # x*y
        df = exterior_derivative(DiffForm.from_scalar(f, self.COORDS3))
        dx = DiffForm.differential(0, self.COORDS3)
        dy = DiffForm.differential(1, self.COORDS3)
        assert df == dx.scale(ScalarExpr.var(1, n)) + dy.scale(ScalarExpr.var(0, n))

    def test_dd_zero_random(self):
        rng = rng_for(404)
        for _ in range(30):
            n = rng.randint(2, 4)
            coords = tuple(f"u{i}" for i in range(n))
            deg = rng.randint(0, n - 2)
            w = random_diff_form(rng, coords, deg)
            assert exterior_derivative(exterior_derivative(w)).is_zero()

    def test_leibniz_random(self):
        rng = rng_for(405)
        for _ in range(25):
            n = rng.randint(2, 4)
            coords = tuple(f"u{i}" for i in range(n))
            da = rng.randint(0, 2)
            db = rng.randint(0, 2)
            a = random_diff_form(rng, coords, da)
            b = random_diff_form(rng, coords, db)
            lhs = exterior_derivative(wedge_d(a, b))
            rhs = wedge_d(exterior_derivative(a), b)
            term = wedge_d(a, exterior_derivative(b))
            rhs = rhs + (term if da % 2 == 0 else -term)
            assert lhs == rhs

    def test_wedge_anticommutes_on_one_forms(self):
        coords = ("x", "y")
        dx = DiffForm.differential(0, coords)
        dy = DiffForm.differential(1, coords)
        assert wedge_d(dx, dy) == -wedge_d(dy, dx)
        assert wedge_d(dx, dx).is_zero()

    def test_eval_at_pole(self):
        coords = ("t", "x")
        tinv = ScalarExpr.var(0, 2, power=-1)
        g = DiffForm.differential(0, coords).scale(tinv)
        with pytest.raises(PoleError):
            eval_at(g, (0, 1))
        got = eval_at(g, (Fraction(1, 2), 1))
        assert got.coefficient((1,)) == 2


class TestRankAt:
    def test_constant_symplectic(self):
        coords = ("x1", "x2", "y1", "y2")
        dx1, dx2, dy1, dy2 = (DiffForm.differential(i, coords) for i in range(4))
        w = wedge_d(dx1, dy1) + wedge_d(dx2, dy2)
        assert rank_at(w, (0, 0, 0, 0)) == 2
        assert len(wedge_powers(w)) == 2

    def test_rank_drop_locus(self):
        coords = ("x", "y", "z", "w")
        dx, dy, dz, dw = (DiffForm.differential(i, coords) for i in range(4))
        x = ScalarExpr.var(0, 4)
        form = wedge_d(dx, dy) + wedge_d(dz, dw).scale(x)
        assert rank_at(form, (1, 0, 0, 0)) == 2
        assert rank_at(form, (0, 0, 0, 0)) == 1


def _unit(i, n):
    return tuple(int(j == i) for j in range(n))


def random_pointwise_expr(rng, n):
    """Random ScalarExpr for the pointwise-evaluation oracle: exponents drawn
    from a small pool, so several terms share one; Laurent monomials; and,
    half the time, a pair c*x^a*(e^{x_i} - e^{x_j}) that vanishes exactly
    where x_i = x_j although its two exponents differ."""
    zero = (0,) * n
    pool = [(), ((_unit(0, n), Fraction(1)),), ((_unit(0, n), Fraction(1)), (zero, Fraction(-1))),
            ((_unit(n - 1, n), Fraction(1, 2)), (zero, Fraction(-1)))]
    for _ in range(2):
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        if any(mono):
            pool.append(((mono, Fraction(rng.choice([-2, -1, 1, 3])),),))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.randint(-1, 2) for _ in range(n))
        key = (mono, rng.choice(pool))
        terms[key] = terms.get(key, Fraction(0)) + rng.choice([-3, -1, 1, Fraction(1, 2), 2])
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        mono = tuple(rng.randint(0, 1) for _ in range(n))
        c = Fraction(rng.choice([-2, 1, 3]))
        for k, sign in ((i, 1), (j, -1)):
            key = (mono, ((_unit(k, n), Fraction(1)),))
            terms[key] = terms.get(key, Fraction(0)) + sign * c
    return ScalarExpr(n, terms)


def random_point(rng, n):
    values = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    point = [rng.choice(values) for _ in range(n)]
    if rng.random() < 0.5:          # equal coordinates: e^{x_i} = e^{x_j} there
        i, j = rng.sample(range(n), 2)
        point[i] = point[j]
    return tuple(point)


class TestPointwiseEvaluationOracle:
    """eval_groups, eval_at, is_zero_at and rank_at against oracles that
    evaluate every term from scratch and share no code with symbolic."""

    @staticmethod
    def check_expr(se, point, groups_of):
        try:
            want = eval_groups_oracle(se.terms, point)
        except ZeroDivisionError:
            for fn in (groups_of, se.is_zero_at, se.eval_at):
                with pytest.raises(PoleError):
                    fn(point)
            return "pole"
        assert groups_of(point) == want
        assert se.is_zero_at(point) == (not want)
        got = se.eval_at(point)
        if not want:
            assert got == 0 and isinstance(got, Fraction)
        elif set(want) == {0}:
            assert isinstance(got, Fraction) and got == want[0]
        else:
            expected = sum(float(c) * math.exp(float(q)) for q, c in want.items())
            assert isinstance(got, float)
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)
        # a zero group made of terms with distinct exponent polynomials
        polys_at = {}
        for (_, p) in se.terms:
            polys_at.setdefault(exponent_oracle(p, point), set()).add(p)
        if any(len(ps) > 1 and q not in want for q, ps in polys_at.items()):
            return "cross-cancel"
        return "zero" if not want else "value"

    def test_random_expressions_match_oracle(self):
        rng = rng_for(4101)
        seen = {"pole": 0, "cross-cancel": 0, "zero": 0, "value": 0}
        for _ in range(400):
            n = rng.randint(2, 4)
            se = random_pointwise_expr(rng, n)
            point = random_point(rng, n)
            seen[self.check_expr(se, point, se.eval_groups)] += 1
        assert all(seen.values()), seen

    def test_shared_table_matches_oracle(self):
        # one value table per point, reused across many expressions, as
        # lee_solve and classify_theorem_sets do at each grid point
        rng = rng_for(4102)
        for _ in range(40):
            n = rng.randint(2, 4)
            point = random_point(rng, n)
            table = _PointValues(point)
            for _ in range(8):
                se = random_pointwise_expr(rng, n)
                self.check_expr(se, point, lambda pt: se.eval_groups(table))

    @staticmethod
    def plan_cases():
        """{label: (expressions, point, forms to compile into one plan)}."""
        def e(mono, c):
            return ((mono, Fraction(c)),)

        # the q = 0 group cancels (x - x^2 at x = 1) and y re-enters it after
        # the e^37 and e^36 groups: groups [37, 36, 0], summed in that order
        reentry = ScalarExpr(2, {((1, 0), ()): Fraction(1), ((2, 0), ()): Fraction(-1),
                                 ((0, 0), e((0, 1), 37)): Fraction(1),
                                 ((0, 0), e((1, 0), 36)): Fraction(-27, 10),
                                 ((0, 1), ()): Fraction(1)})
        multi = ScalarExpr(2, {((1, 1), e((1, 0), 1)): Fraction(3),
                               ((0, 2), e((0, 1), -1)): Fraction(-1, 2),
                               ((2, 0), ()): Fraction(5), ((1, 0), e((1, 0), 1)): Fraction(1, 7)})
        # x^-2*y is a monomial of d(omega) only
        coords = ("x", "y", "z", "w")
        omega = parse_form("x^-1*y*dz/\\dw + exp(x*z)*z*dx/\\dy", coords)
        d_omega = exterior_derivative(omega)
        return {"reentry": ([reentry], (1, 1), []),
                "multi-group": ([multi], (Fraction(1, 2), 2), []),
                "pole-via-d-omega": (list(d_omega.coeffs.values()), (0, 1, 1, 1),
                                     [omega, d_omega])}

    @pytest.mark.parametrize("label", ["reentry", "multi-group", "pole-via-d-omega"])
    def test_plan_cases_match_oracle(self, label):
        exprs, point, forms = self.plan_cases()[label]
        n = len(point)
        table = _PointValues(point, _Plan(n, forms))
        outcomes = set()
        for se in exprs:
            outcomes.add(self.check_expr(se, point, se.eval_groups))
            outcomes.add(self.check_expr(se, point, lambda pt: se.eval_groups(table)))
        if label == "reentry":
            groups = exprs[0].eval_groups(point)
            assert list(groups) == [37, 36, 0]
            in_order = sum(float(c) * math.exp(float(q)) for q, c in groups.items())
            oracle_order = sum(float(c) * math.exp(float(q)) for q, c in
                               eval_groups_oracle(exprs[0].terms, point).items())
            assert exprs[0].eval_at(point) == exprs[0].eval_at(table) == in_order
            assert in_order != oracle_order      # the order is what is pinned
        elif label == "multi-group":
            assert outcomes == {"value"} and len(exprs[0].eval_groups(table)) == 3
            assert isinstance(exprs[0].eval_at(table), float)
        else:
            omega, d_omega = forms
            def monos(form):
                return {m for c in form.coeffs.values() for m, _ in c.terms}
            assert (-2, 1, 0, 0) in monos(d_omega) - monos(omega)
            assert "pole" in outcomes
            for fn in (eval_at, is_zero_at):
                with pytest.raises(PoleError):
                    fn(d_omega, table)

    def test_cancellation_across_distinct_exponents(self):
        x, y = ScalarExpr.var(0, 2), ScalarExpr.var(1, 2)
        f = ScalarExpr.exp(x) - ScalarExpr.exp(y)
        assert f.is_zero_at((Fraction(1, 3), Fraction(1, 3)))
        assert f.eval_groups((2, 2)) == {}
        assert f.eval_at((0, 0)) == 0
        assert not f.is_zero_at((1, 2))

    def test_point_dimension_checked(self):
        with pytest.raises(ValueError):
            ScalarExpr.var(0, 2).eval_groups((1, 2, 3))

    def test_rank_matches_bottom_up_oracle_scan(self):
        rng = rng_for(4103)
        ranks, poles = set(), 0
        for _ in range(150):
            n = rng.choice([4, 5, 6])
            coords = tuple(f"x{i}" for i in range(n))
            form = random_diff_form(rng, coords, 2, allow_laurent=rng.random() < 0.3)
            if rng.random() < 0.5:
                form = form.scale(ScalarExpr.exp(ScalarExpr.var(rng.randrange(n), n)))
            powers = wedge_powers(form)
            for _ in range(3):
                point = random_point(rng, n)
                try:
                    want = rank_scan_oracle(powers, point)
                except ZeroDivisionError:
                    poles += 1
                    with pytest.raises(PoleError):
                        rank_at(form, point, powers)
                    continue
                assert rank_at(form, point, powers) == want
                assert rank_at(form, point) == want
                ranks.add(want)
        assert ranks >= {0, 1, 2} and poles

    def test_rank_drop_where_exponentials_cancel(self):
        # Pf = e^x - e^y: rank 1 on the diagonal x = y, rank 2 off it
        coords = ("x", "y", "z", "w")
        dx, dy, dz, dw = (DiffForm.differential(i, coords) for i in range(4))
        ex = ScalarExpr.exp(ScalarExpr.var(0, 4))
        ey = ScalarExpr.exp(ScalarExpr.var(1, 4))
        form = wedge_d(dx, dy).scale(ex) + wedge_d(dz, dw) + \
            wedge_d(dx, dz).scale(ey) + wedge_d(dy, dw)
        powers = wedge_powers(form)
        for point in product([-1, 0, Fraction(1, 2)], repeat=4):
            want = rank_scan_oracle(powers, point)
            assert want == (1 if point[0] == point[1] else 2)
            assert rank_at(form, point) == want

    @pytest.mark.parametrize("text", ["dx/\\dy + x^-1*dz/\\dw",
                                      "x^-1*dx/\\dy + dz/\\dw"])
    def test_is_zero_at_raises_at_a_pole_in_either_term_order(self, text):
        form = parse_form(text, ("x", "y", "z", "w"))
        with pytest.raises(PoleError):
            is_zero_at(form, (0, 1, 1, 1))
        assert not is_zero_at(form, (1, 1, 1, 1))

    def test_pole_that_cancels_in_top_power(self):
        # omega^2 = (x^-1 * x) dx^dy^dz^dw has no pole, omega does: a scan
        # that stops at the top power would report rank 2 at x = 0
        coords = ("x", "y", "z", "w")
        dx, dy, dz, dw = (DiffForm.differential(i, coords) for i in range(4))
        form = wedge_d(dx, dy).scale(ScalarExpr.var(0, 4, power=-1)) + \
            wedge_d(dz, dw).scale(ScalarExpr.var(0, 4))
        top = wedge_powers(form)[-1]
        assert not is_zero_at(top, (0, 1, 1, 1))
        with pytest.raises(PoleError):
            rank_at(form, (0, 1, 1, 1))
        assert rank_at(form, (2, 0, 0, 0)) == 2


class TestLeeEquation:
    def test_verify_catalog_instance(self):
        entry = example_catalog()["omega_f"]
        ver = lee_verify(entry.forms["omega0"], entry.forms["beta0"])
        assert ver.holds
        assert not ver.d_beta.is_zero()
        assert ver.dbeta_wedge_omega.is_zero()

    def test_verify_detects_failure(self):
        coords = ("x", "y", "z", "w")
        dx, dy = DiffForm.differential(0, coords), DiffForm.differential(1, coords)
        dz = DiffForm.differential(2, coords)
        x = ScalarExpr.var(0, 4)
        w = wedge_d(dy, dz).scale(x)      # dw = dx^dy^dz
        beta = dx                         # dx ^ w = x dx^dy^dz, not dw for x != 1
        assert not lee_verify(w, beta).holds

    def test_exact_log_derivative_chain(self):
        # omega = e^P sigma with sigma constant and closed: d omega = dP ^ omega
        coords = ("x", "y", "z", "w")
        n = 4
        p = ScalarExpr.var(0, n) * ScalarExpr.var(1, n) + ScalarExpr.var(2, n)
        sigma = wedge_d(DiffForm.differential(0, coords),
                        DiffForm.differential(1, coords)) + \
            wedge_d(DiffForm.differential(2, coords),
                    DiffForm.differential(3, coords))
        omega = sigma.scale(ScalarExpr.exp(p))
        beta = exterior_derivative(DiffForm.from_scalar(p, coords))
        ver = lee_verify(omega, beta)
        assert ver.holds
        assert ver.d_beta.is_zero()

    def test_solve_grid_consistent(self):
        entry = example_catalog()["omega_f"]
        omega0, beta0 = entry.forms["omega0"], entry.forms["beta0"]
        grid = list(product([-1, 0, 1], repeat=4))
        res = lee_solve(omega0, grid)
        assert res.consistent
        for sol in res.points:
            assert sol.rank_omega == 2
            assert sol.kernel_dim == 0
            # the pointwise solution is unique, so it matches beta0 there
            expected = eval_at(beta0, sol.point)
            diff = sol.beta - expected
            assert all(abs(float(c)) <= 1e-9 for c in diff.coeffs.values())

    def test_solve_detects_inconsistency(self):
        # d omega has no solution anywhere on x != 1 for this pairing
        coords = ("x", "y", "z", "w")
        dy, dz = DiffForm.differential(1, coords), DiffForm.differential(2, coords)
        x = ScalarExpr.var(0, 4)
        w = wedge_d(dy, dz).scale(x * x)
        # rank 1 everywhere off x=0, kernel positive: never unique but solvable
        res = lee_solve(w, [(1, 0, 0, 0)])
        assert res.points[0].beta is not None
        assert res.points[0].kernel_dim > 0
        assert res.consistent  # rank < 2, nonuniqueness is allowed

    def test_solve_zero_point(self):
        coords = ("x", "y", "z", "w")
        dy, dz = DiffForm.differential(1, coords), DiffForm.differential(2, coords)
        x = ScalarExpr.var(0, 4)
        w = wedge_d(dy, dz).scale(x * x)   # w = 0 and dw = 0 at x=0
        res = lee_solve(w, [(0, 0, 0, 0)])
        sol = res.points[0]
        assert sol.beta is not None and sol.beta.is_zero()
        assert sol.rank_omega == 0


class TestClassification:
    def test_catalog_grid(self):
        entry = example_catalog()["omega_f"]
        grid = list(product([-1, 0, 1], repeat=4))
        rows, verdict = classify_theorem_sets(
            entry.forms["omega0"], entry.forms["beta0"], grid)
        assert verdict.passed
        assert verdict.a_points == 0
        assert verdict.b_points == len(grid)
        assert verdict.c_points == 0
        for row in rows:
            assert row.r_omega == 2 and row.in_B and not row.in_A and not row.in_C
            assert row.d_beta_rank == 2

    def test_requires_symbolic_hypothesis(self):
        coords = ("x", "y", "z", "w")
        dx, dy = DiffForm.differential(0, coords), DiffForm.differential(1, coords)
        w = wedge_d(dx, dy).scale(ScalarExpr.var(2, 4))
        with pytest.raises(ValueError):
            classify_theorem_sets(w, dx, [(0, 0, 0, 0)])

    def test_closed_beta_gives_empty_B(self):
        coords = ("x", "y", "z", "w")
        n = 4
        p = ScalarExpr.var(0, n)
        sigma = wedge_d(DiffForm.differential(0, coords),
                        DiffForm.differential(1, coords)) + \
            wedge_d(DiffForm.differential(2, coords),
                    DiffForm.differential(3, coords))
        omega = sigma.scale(ScalarExpr.exp(p))
        beta = exterior_derivative(DiffForm.from_scalar(p, coords))
        grid = list(product([0, 1], repeat=4))
        _, verdict = classify_theorem_sets(omega, beta, grid)
        assert verdict.passed and verdict.b_points == 0


def _cosymplectic_instance(alpha_kind):
    """Dimension 7: eta = dt, Phi = g(t, x1) * (dx1^dy1 + dx2^dy2 + dx3^dy3)."""
    coords = ("t", "x1", "x2", "x3", "y1", "y2", "y3")
    n = len(coords)
    t = ScalarExpr.var(0, n)
    diffs = [DiffForm.differential(i, coords) for i in range(n)]
    sigma = wedge_d_all([diffs[1], diffs[4]]) + \
        wedge_d_all([diffs[2], diffs[5]]) + wedge_d_all([diffs[3], diffs[6]])
    eta = diffs[0]
    if alpha_kind == "const":
        alpha = ScalarExpr.const(1, n)
        phi = sigma.scale(ScalarExpr.exp(t.scale(2)))
    elif alpha_kind == "linear":
        alpha = t
        phi = sigma.scale(ScalarExpr.exp(t * t))
    else:  # alpha depending on a horizontal coordinate
        alpha = ScalarExpr.var(1, n)
        phi = sigma.scale(ScalarExpr.exp(t.scale(2) * alpha))
    return phi, eta, alpha


class TestCosymplectic:
    def test_constant_alpha_passes(self):
        report = cosymplectic_check(*_cosymplectic_instance("const"))
        assert report.passed
        assert report.d_eta_zero and report.structure_equation_holds
        assert report.dalpha_wedge_eta_zero
        assert report.f_factor is not None
        assert report.f_factor.is_zero()   # d(const) = 0 = 0 * eta

    def test_time_dependent_alpha_passes(self):
        report = cosymplectic_check(*_cosymplectic_instance("linear"))
        assert report.passed
        assert report.dalpha_wedge_eta_zero
        # d(t) = 1 * dt, so the recovered factor is the constant 1
        assert report.f_factor == ScalarExpr.const(1, 7)

    def test_horizontal_alpha_fails(self):
        report = cosymplectic_check(*_cosymplectic_instance("horizontal"))
        assert not report.passed
        assert not report.structure_equation_holds
        assert not report.structure_residual.is_zero()

    def test_wrong_degrees_rejected(self):
        coords = ("t", "x")
        dt = DiffForm.differential(0, coords)
        with pytest.raises(ValueError):
            cosymplectic_check(dt, dt, ScalarExpr.const(1, 2))


class TestFrobenius:
    def test_closed_one_form_involutive(self):
        coords = ("x", "y", "z")
        p = ScalarExpr.var(0, 3) * ScalarExpr.var(1, 3)
        beta = exterior_derivative(DiffForm.from_scalar(p, coords))
        assert frobenius_residual(beta).is_zero()

    def test_catalog_beta0_not_involutive(self):
        entry = example_catalog()["omega_f"]
        assert not frobenius_residual(entry.forms["beta0"]).is_zero()

    def test_contact_form_not_involutive(self):
        entry = example_catalog()["contact_R5"]
        assert not frobenius_residual(entry.forms["gamma"]).is_zero()

    def test_degree_rejected(self):
        coords = ("x", "y")
        w = wedge_d(DiffForm.differential(0, coords),
                    DiffForm.differential(1, coords))
        with pytest.raises(ValueError):
            frobenius_residual(w)


class TestCatalog:
    def test_all_identities_hold(self):
        catalog = example_catalog()
        assert set(catalog) == {"omega_f", "contact_R5"}
        for entry in catalog.values():
            for ident in entry.identities:
                assert ident.holds, f"{entry.name}: {ident.name}"
            assert entry.passed

    def test_contact_pole_at_t_zero(self):
        gamma = example_catalog()["contact_R5"].forms["gamma"]
        with pytest.raises(PoleError):
            eval_at(gamma, (0, 1, 1, 1, 1))
        got = eval_at(gamma, (2, 0, 0, 0, 0))
        assert got.coefficient((1,)) == Fraction(1, 2)

    def test_is_zero_at_on_scaled_form(self):
        coords = ("x", "y")
        x = ScalarExpr.var(0, 2)
        w = wedge_d(DiffForm.differential(0, coords),
                    DiffForm.differential(1, coords)).scale(x)
        assert is_zero_at(w, (0, 5))
        assert not is_zero_at(w, (1, 0))
