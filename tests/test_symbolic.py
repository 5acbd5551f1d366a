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
    eval_factored,
    eval_scaled,
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
from extforms import symbolic, wedge_solver
from extforms.algebra import ExtForm, mask_of
from extforms.dsl import parse_form
from extforms.randgen import rng_for
from extforms.symbolic import _Plan, _PointValues  # compiled forms, per-point table
from extforms.symbolic import _lee_form  # the certified Lee form of lee_solve

from oracles import (
    conformal_point_oracle,
    eval_groups_oracle,
    exponent_oracle,
    lefschetz_kernel_dim,
    rank_scan_oracle,
    split_point_oracle,
    wedge_oracle,
)


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


def random_poly(rng, n, constant=True) -> dict:
    """{exponent tuple: coefficient} of total degree at most 2."""
    poly = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * n
        for _ in range(rng.randint(0 if constant else 1, 2)):
            mono[rng.randrange(n)] += 1
        poly[tuple(mono)] = poly.get(tuple(mono), 0) + rng.randint(-2, 2)
    return {m: c for m, c in poly.items() if c}


def poly_scalar(poly: dict, n: int) -> ScalarExpr:
    return ScalarExpr(n, {(m, ()): Fraction(c) for m, c in poly.items()})


def conformal_instance(rng, n):
    """(g, theta, omega = e^g d(theta)) with g free of constant terms and
    g, d(theta) nonzero."""
    coords = tuple(f"x{i + 1}" for i in range(n))
    while True:
        g = random_poly(rng, n, constant=False)
        theta = [random_poly(rng, n) for _ in range(n)]
        dtheta = exterior_derivative(DiffForm(
            coords, 1, {1 << i: poly_scalar(t, n) for i, t in enumerate(theta)}))
        if g and not dtheta.is_zero():
            return g, theta, dtheta.scale(ScalarExpr.exp(poly_scalar(g, n)))


class TestEvalFactored:
    def test_against_the_groups_oracle(self):
        """Where every coefficient's groups (eval_groups_oracle) share one
        exponent q, eval_factored returns q and each coefficient's sum; where
        two exponents appear, it returns None."""
        rng = rng_for(15)
        coords = ("x", "y", "z")
        factored = mixed = 0
        for _ in range(300):
            form = random_diff_form(rng, coords, rng.randint(1, 2))
            point = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in coords)
            groups = {m: eval_groups_oracle(c.terms, point) for m, c in form.coeffs.items()}
            qs = {q for g in groups.values() for q in g}
            got = eval_factored(form, point)
            if len(qs) > 1:
                assert got is None
                mixed += 1
                continue
            q, rho = got
            assert q == (qs.pop() if qs else 0)
            assert rho.degree == form.degree
            assert rho.coeffs == {m: v for m, g in groups.items() for v in g.values()}
            assert all(type(c) is Fraction for c in rho.coeffs.values())
            factored += 1
        assert factored > 50 and mixed > 50

    def test_cancelled_coefficient_is_skipped(self):
        # x*e^(3y) vanishes at x = 0 and does not count as a second exponent
        w = parse_form(r"exp(y)*dx/\dy + x*exp(3*y)*dy/\dz", ("x", "y", "z"))
        q, rho = eval_factored(w, (0, 2, 5))
        assert q == 2 and rho.coeffs == {0b011: Fraction(1)}
        assert eval_factored(w, (1, 2, 5)) is None

    def test_far_past_the_float_range(self):
        w = parse_form(r"exp(800*x)*dx/\dy", ("x", "y"))
        assert eval_factored(w, (1, 0)) == (800, eval_factored(w, (0, 0))[1])
        with pytest.raises(OverflowError):
            eval_at(w, (1, 0))


def _check_scaled(forms, point):
    """eval_scaled's (q, values), with e^q times each value equal to eval_at's
    (bit for bit where eval_at is exact, else to 1e-12)."""
    q, values = eval_scaled(forms, point)
    for form, value in zip(forms, values):
        at = eval_at(form, point)
        assert value.degree == form.degree and set(value.coeffs) == set(at.coeffs)
        for m, c in value.coeffs.items():
            if isinstance(at.coeffs[m], float):
                assert math.isclose(float(c) * math.exp(q), at.coeffs[m], rel_tol=1e-12)
            else:
                assert q == 0 and c == at.coeffs[m]
    return q, values


class TestEvalScaled:
    coords = ("x", "y", "z")

    def forms(self, *texts):
        return [parse_form(t, self.coords) for t in texts]

    def test_one_shared_exponent_gives_exact_rhos(self):
        forms = self.forms(r"exp(x*y)*dx/\dy + x*exp(x*y)*dy/\dz",
                           r"y*exp(x*y)*dx/\dy/\dz")
        q, (rho, kappa) = _check_scaled(forms, (1, 2, 5))
        assert q == 2
        assert rho.coeffs == {0b011: 1, 0b110: 1} and kappa.coeffs == {0b111: 2}
        assert all(type(c) is Fraction for f in (rho, kappa) for c in f.coeffs.values())

    @pytest.mark.parametrize("texts, q", [
        # x*exp(3*y) and the whole second form vanish at x = 0
        ((r"exp(y)*dx/\dy + x*exp(3*y)*dy/\dz", r"x*exp(5*y)*dz"), 2),
        # the first form vanishes, and the second sets q
        ((r"x*exp(y)*dx/\dy", r"exp(3*y)*dz"), 6),
    ])
    def test_form_zero_at_the_point_does_not_block(self, texts, q):
        forms = self.forms(*texts)
        got, values = _check_scaled(forms, (0, 2, 5))
        assert got == q
        assert any(f.is_zero() for f in values) and not all(f.is_zero() for f in values)
        assert all(type(c) is Fraction for f in values for c in f.coeffs.values())

    @pytest.mark.parametrize("texts", [
        (r"exp(y)*dx/\dy", r"exp(3*y)*dy/\dz"),          # two forms, two exponents
        (r"exp(y)*dx/\dy + exp(3*y)*dy/\dz",),           # two coefficients
        (r"(exp(x) + exp(2*x))*dx/\dy", r"exp(x)*dz"),     # two in one coefficient
    ])
    def test_two_exponents_fall_back_to_eval_at(self, texts):
        forms = self.forms(*texts)
        q, values = _check_scaled(forms, (1, 1, 1))
        assert q == 0
        assert values == [eval_at(f, (1, 1, 1)) for f in forms]
        assert any(isinstance(c, float) for f in values for c in f.coeffs.values())

    def test_random_forms_against_the_groups_oracle(self):
        """Exact, with q the one exponent, where the nonzero groups
        (eval_groups_oracle) of both forms share at most one exponent."""
        rng = rng_for(19)
        exact = mixed = 0
        for _ in range(200):
            forms = [random_diff_form(rng, self.coords, rng.randint(1, 2)) for _ in range(2)]
            point = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in self.coords)
            qs = {q for f in forms for c in f.coeffs.values()
                  for q in eval_groups_oracle(c.terms, point)}
            q, values = _check_scaled(forms, point)
            if len(qs) <= 1:
                assert q == (qs.pop() if qs else 0)
                assert all(type(c) is Fraction for f in values for c in f.coeffs.values())
                exact += 1
            else:
                assert q == 0 and values == [eval_at(f, point) for f in forms]
                mixed += 1
        assert exact > 40 and mixed > 40


class TestExactConformalSolve:
    """lee_solve on omega = e^g d(theta), n 2..6, at points where g is mostly
    nonzero, against conformal_point_oracle."""

    def test_exact_beta_against_the_oracle(self):
        rng = rng_for(1515)
        values = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
        nonzero_exponents = high_rank = 0
        for n in range(2, 7):
            for _ in range(3):
                g, theta, omega = conformal_instance(rng, n)
                points = [tuple(rng.choice(values) for _ in range(n)) for _ in range(4)]
                res = lee_solve(omega, points)
                assert res.consistent
                for sol, point in zip(res.points, points):
                    rho, rho_kappa, dg_p, r = conformal_point_oracle(g, theta, point)
                    nonzero_exponents += exponent_oracle(tuple(g.items()), point) != 0
                    assert sol.rank_omega == r
                    assert sol.kernel_dim == lefschetz_kernel_dim(n, r, 1)
                    beta = dict(sol.beta.terms())
                    assert all(type(c) is Fraction for c in beta.values())
                    assert wedge_oracle(beta, rho) == rho_kappa
                    if r >= 2:
                        high_rank += 1
                        assert beta == dg_p
        assert nonzero_exponents > 30 and high_rank > 10

    def test_beta_exact_where_the_float_path_rounds(self):
        # the float solve leaves terms of about 1e-16 and 1e-32 on dx3 and dx5
        omega = parse_form(r"exp(x1 - 9)*dx1/\dx2 + exp(x1 - 9)*dx3/\dx4"
                           r" + exp(x1 - 9)*dx5/\dx6",
                           ("x1", "x2", "x3", "x4", "x5", "x6"))
        sol = lee_solve(omega, [(1, 0, 0, 0, 0, 0)]).points[0]
        assert dict(sol.beta.terms()) == {(1,): Fraction(1)}
        assert (sol.kernel_dim, sol.rank_omega) == (0, 3)

    def test_beta_exact_past_the_float_range(self):
        omega = parse_form(r"exp(800*x1)*dx1/\dx2 + x2*exp(800*x1)*dx3/\dx4",
                           ("x1", "x2", "x3", "x4"))
        res = lee_solve(omega, [(1, 1, 0, 0)])
        assert res.consistent
        assert dict(res.points[0].beta.terms()) == {(1,): Fraction(800), (2,): Fraction(1)}

    def test_mixed_exponents_get_the_exact_beta(self):
        # omega0 = e^(x1*y1 + x2*y2) dx1^dx2 + dy1^dy2 has the exponents 1 and
        # 0 at (1, 0, 1, 0): beta = dy1, read off the certified x1 dy1 + x2 dy2
        omega0 = example_catalog()["omega_f"].forms["omega0"]
        sol = lee_solve(omega0, [(1, 0, 1, 0)]).points[0]
        assert dict(sol.beta.terms()) == {(3,): Fraction(1)}
        assert all(type(c) is Fraction for c in sol.beta.coeffs.values())
        assert (sol.kernel_dim, sol.rank_omega) == (0, 2)

    def test_kappa_with_another_exponent_stays_on_the_float_path(self):
        # omega_p = e dx^dy, since (y - 1) e^(2x) vanishes at (1, 1, 0, 0), but
        # d omega_p = -e^2 dx^dy^dz: beta_p = -e dz + ker, in floats
        omega = parse_form(r"exp(x)*dx/\dy + (y - 1)*exp(2*x)*dx/\dz",
                           ("x", "y", "z", "w"))
        sol = lee_solve(omega, [(1, 1, 0, 0)]).points[0]
        assert sol.beta is not None and sol.kernel_dim == 2
        assert all(isinstance(c, float) for c in sol.beta.coeffs.values())
        assert sol.beta.coefficient((3,)) == pytest.approx(-math.e)

    def test_certified_points_skip_the_elimination(self, monkeypatch):
        # beta = dg is certified once per call; a point of rank >= 2 reads
        # beta_p = dg(p) without solve_wedge, a rank-1 point is solved once,
        # and a rank-0 point (omega_p = 0) needs no solve at all
        calls = []
        real = wedge_solver.solve_wedge
        monkeypatch.setattr(wedge_solver, "solve_wedge",
                            lambda omega, kappa: calls.append(1) or real(omega, kappa))
        rng = rng_for(1616)
        values = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]
        seen = set()
        for n in range(2, 7):
            for _ in range(3):
                g, theta, omega = conformal_instance(rng, n)
                assert _lee_form(omega, exterior_derivative(omega)) is not None
                for _ in range(4):
                    point = tuple(rng.choice(values) for _ in range(n))
                    r = conformal_point_oracle(g, theta, point)[3]
                    calls.clear()
                    assert lee_solve(omega, [point]).points[0].rank_omega == r
                    assert len(calls) == (r == 1)
                    seen.add(min(r, 2))
        assert seen == {0, 1, 2}

    def test_every_point_equals_the_exact_solve(self):
        # beta_p, kernel_dim and rank_omega at each point, against solve_wedge
        # on rho_omega and rho_kappa from conformal_point_oracle
        rng = rng_for(1617)
        values = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1)]
        ranks = set()
        for n in range(2, 7):
            for _ in range(3):
                g, theta, omega = conformal_instance(rng, n)
                points = [tuple(rng.choice(values) for _ in range(n)) for _ in range(5)]
                res = lee_solve(omega, points)
                for sol, point in zip(res.points, points):
                    rho, rho_kappa, _, r = conformal_point_oracle(g, theta, point)
                    beta, kernel = wedge_solver.solve_wedge(
                        ExtForm.from_masks(n, 2, {mask_of(i, n): c for i, c in rho.items()}),
                        ExtForm.from_masks(n, 3, {mask_of(i, n): c for i, c in rho_kappa.items()}))
                    assert dict(sol.beta.terms()) == dict(beta.terms())
                    assert all(type(c) is Fraction for _, c in sol.beta.terms())
                    assert (sol.kernel_dim, sol.rank_omega) == (len(kernel), r)
                    ranks.add(min(r, 2))
        assert ranks == {0, 1, 2}

    def test_closed_rational_form_is_certified_with_zero_beta(self):
        # d(dx1^dx2 + x3 dx3^dx4) = 0, so beta = 0; the rank is 1 on x3 = 0
        omega = parse_form(r"dx1/\dx2 + x3*dx3/\dx4", ("x1", "x2", "x3", "x4"))
        assert _lee_form(omega, exterior_derivative(omega)).is_zero()
        res = lee_solve(omega, [(0, 0, 1, 0), (0, 0, 0, 0)])
        assert [(p.beta.is_zero(), p.kernel_dim, p.rank_omega) for p in res.points] == [
            (True, 0, 2), (True, 2, 1)]

    def test_one_exponent_with_rho_not_closed_is_solved_as_before(self):
        # omega = e^(800 x1) rho with d rho = dx2^dx3^dx4: dg is no Lee form,
        # and each point is solved by solve_wedge on the exact rho and kappa
        omega = parse_form(r"exp(800*x1)*dx1/\dx2 + x2*exp(800*x1)*dx3/\dx4",
                           ("x1", "x2", "x3", "x4"))
        d_omega = exterior_derivative(omega)
        assert _lee_form(omega, d_omega) is None
        points = [(1, 1, 0, 0), (0, 2, 1, 1), (Fraction(1, 2), -1, 0, 3)]
        for sol, point in zip(lee_solve(omega, points).points, points):
            (_, rho), (_, kappa) = eval_factored(omega, point), eval_factored(d_omega, point)
            beta, kernel = wedge_solver.solve_wedge(rho, kappa)
            assert dict(sol.beta.terms()) == dict(beta.terms())
            assert sol.kernel_dim == len(kernel) == 0 and sol.rank_omega == 2
        assert dict(lee_solve(omega, points[:1]).points[0].beta.terms()) == {
            (1,): Fraction(800), (2,): Fraction(1)}

    def test_mixed_exponents_get_a_certificate(self):
        # d omega = 0 here, and omega has the exponents x1 and 0: the Cramer
        # determinant is the unit e^(2 x1), so beta = 0 is derived and certified
        omega = parse_form(r"exp(x1)*dx1/\dx2 + dx3/\dx4", ("x1", "x2", "x3", "x4"))
        assert exterior_derivative(omega).is_zero()
        assert _lee_form(omega, exterior_derivative(omega)).is_zero()
        entry = example_catalog()["omega_f"]
        omega0, beta0 = entry.forms["omega0"], entry.forms["beta0"]
        assert _lee_form(omega0, exterior_derivative(omega0)) == beta0
        beta = lee_solve(omega0, [(1, 1, 1, 1)]).points[0].beta
        assert dict(beta.terms()) == {(3,): Fraction(1), (4,): Fraction(1)}


def split_instance(rng, n, constant=False):
    """(blocks, omega, beta): omega = sum of e^{g_j} c_j dx_a ^ dx_b over a
    random pairing of the n coordinates, each c_j a nonzero rational times a
    monomial in x_a and x_b (1 with `constant`), with at least two distinct
    g_j, and the Lee form beta, known from the construction.  Each
    rho_j = c_j dx_a ^ dx_b is closed, so beta is a Lee form iff
    beta - dg_j lies in span(dx_a, dx_b) for every j: with two pairs A, B
    and any g_1, g_2, beta is d g_2 on A and d g_1 on B; with more,
    g_j = h + u_j(x_a, x_b) and beta = dh."""
    coords = tuple(f"x{i + 1}" for i in range(n))
    order = list(range(n))
    rng.shuffle(order)
    pairs = [tuple(sorted(order[k:k + 2])) for k in range(0, n, 2)]

    def in_pair(pair, poly):
        return {tuple(e if i in pair else 0 for i, e in enumerate(m)): c
                for m, c in poly.items()}

    while True:
        if len(pairs) == 2:
            gs = [random_poly(rng, n, constant=False) for _ in pairs]
            beta = {1 << i: poly_scalar(gs[1 - j], n).diff(i)
                    for j, pair in enumerate(pairs) for i in pair}
        else:
            h = random_poly(rng, n, constant=False)
            us = [in_pair(pair, random_poly(rng, n, constant=False)) for pair in pairs]
            gs = [dict(h) for _ in pairs]
            for g, u in zip(gs, us):
                for m, c in u.items():
                    g[m] = g.get(m, 0) + c
            gs = [{m: c for m, c in g.items() if c} for g in gs]
            beta = {1 << i: poly_scalar(h, n).diff(i) for i in range(n)}
        if len({tuple(sorted(g.items())) for g in gs}) > 1:
            break
    blocks, coeffs = [], {}
    for g, (a, b) in zip(gs, pairs):
        mono = tuple(rng.randint(0, 1) if i in (a, b) and not constant else 0
                     for i in range(n))
        c = {mono: rng.choice([-2, -1, 1, 3])}
        blocks.append((g, (a + 1, b + 1), c))
        coeffs[(1 << a) | (1 << b)] = poly_scalar(c, n) * ScalarExpr.exp(poly_scalar(g, n))
    return blocks, DiffForm(coords, 2, coeffs), DiffForm(coords, 1, beta)


def linear_pullback(form, a):
    """form under the change of coordinates x = a y, a an integer matrix:
    each x_i in a coefficient, and in an exponent, becomes sum_j a_ij y_j,
    and dx_i becomes sum_j a_ij dy_j."""
    n = form.dim
    ys = [ScalarExpr(n, {(tuple(int(k == j) for k in range(n)), ()): Fraction(x)
                         for j, x in enumerate(row) if x}) for row in a]

    def polynomial(mono, c):
        out = ScalarExpr.const(c, n)
        for y, e in zip(ys, mono):
            for _ in range(e):
                out = out * y
        return out

    def substitute(se):
        out = ScalarExpr.zero(n)
        for (mono, p), c in se.terms.items():
            term = polynomial(mono, c)
            if p:
                arg = ScalarExpr.zero(n)
                for m, pc in p:
                    arg = arg + polynomial(m, pc)
                term = term * ScalarExpr.exp(arg)
            out = out + term
        return out

    dxs = [DiffForm(form.coords, 1, {1 << j: ScalarExpr.const(x, n) for j, x in enumerate(row)})
           for row in a]
    out = DiffForm.zero(form.coords, form.degree)
    for mask, c in form.coeffs.items():
        idx = [i for i in range(n) if mask >> i & 1]
        out = out + wedge_d_all([dxs[i] for i in idx]).scale(substitute(c))
    return out


def unimodular(rng, n):
    """A random integer matrix of determinant 1: unit upper times unit lower
    triangular, the entries of the factors off the diagonal in {-1, 1}."""
    lower = [[1 if i == j else rng.choice((-1, 1)) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.choice((-1, 1)) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return [[sum(upper[i][k] * lower[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


class TestCramerLeeForm:
    """Forms with several exponentials: beta derived once by Cramer's rule
    on n rows of lambda^1, certified, and read off at every point of rank
    >= 2."""

    def test_split_forms_against_the_oracle(self, monkeypatch):
        # beta_p ^ omega_p = kappa_p holds iff it holds for each exponential
        # value e^q apart (distinct rational q give independent e^q)
        calls = []
        real = wedge_solver.solve_wedge
        monkeypatch.setattr(wedge_solver, "solve_wedge",
                            lambda omega, kappa: calls.append(1) or real(omega, kappa))
        rng = rng_for(1717)
        values = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
        ranks = []
        for n in (4, 6, 8):
            for _ in range(5):
                blocks, omega, beta = split_instance(rng, n)
                assert _lee_form(omega, exterior_derivative(omega)) == beta
                points = [tuple(rng.choice(values) for _ in range(n)) for _ in range(5)]
                calls.clear()
                res = lee_solve(omega, points)
                assert res.consistent
                for sol, point in zip(res.points, points):
                    parts, r = split_point_oracle(blocks, point)
                    assert (sol.rank_omega, sol.kernel_dim) == (r, lefschetz_kernel_dim(n, r, 1))
                    beta_p = dict(sol.beta.terms())
                    assert all(type(c) is Fraction for c in beta_p.values())
                    for omega_q, kappa_q in parts.values():
                        assert wedge_oracle(beta_p, omega_q) == kappa_q
                    ranks.append(min(r, 2))
                # only the points of rank 1 are solved
                assert len(calls) == sum(p.rank_omega == 1 for p in res.points)
        assert set(ranks) == {0, 1, 2} and ranks.count(2) > 30

    def test_dense_rows_after_a_linear_change_of_coordinates(self):
        # x = a y with det a = 1 turns the one-entry rows of lambda^1 of a
        # split form with constant c_j into rows of two or three entries,
        # each a sum of exponentials, and keeps the 4 x 4 determinant a unit;
        # the Lee form must come out as the pullback of the known one
        rng = rng_for(1718)
        entry = example_catalog()["omega_f"]
        cases = [(entry.forms["omega0"], entry.forms["beta0"])]
        cases += [split_instance(rng, 4, constant=True)[1:] for _ in range(8)]
        for omega, beta in cases:
            a = unimodular(rng, 4)
            pulled = linear_pullback(omega, a)
            # five of the six coefficients leave every row two entries or more
            assert len(pulled.coeffs) >= 5
            assert _lee_form(pulled, exterior_derivative(pulled)) == linear_pullback(beta, a)

    def test_omega0_points_skip_the_elimination(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wedge_solver, "solve_wedge",
                            lambda omega, kappa: calls.append(1))
        omega0 = example_catalog()["omega_f"].forms["omega0"]
        grid = list(product([-1, 0, Fraction(1, 2), 1], repeat=4))
        res = lee_solve(omega0, grid)
        assert res.consistent and not calls
        for sol, (x1, x2, _, _) in zip(res.points, grid):
            assert (sol.kernel_dim, sol.rank_omega) == (0, 2)
            assert dict(sol.beta.terms()) == {k: Fraction(v) for k, v in
                                              (((3,), x1), ((4,), x2)) if v}

    def test_non_unit_determinant_stays_on_the_float_path(self):
        # lambda^1 of omega has the determinant e^(2f) (1 + x1^2)^2 (up to
        # sign), which is no unit: no certificate, and floats at (1, 0, 1, 0)
        omega = parse_form(r"exp(x1*y1 + x2*y2)*dx1/\dx2 + (1 + x1^2)*dy1/\dy2",
                           ("x1", "x2", "y1", "y2"))
        assert _lee_form(omega, exterior_derivative(omega)) is None
        sol = lee_solve(omega, [(1, 0, 1, 0)]).points[0]
        assert all(isinstance(c, float) for c in sol.beta.coeffs.values())
        assert sol.beta.coefficient((3,)) == pytest.approx(1)

    def test_pole_of_beta_falls_back_to_the_point_solve(self, monkeypatch):
        # a stand-in for a certified beta with a pole at x1 = 0 (omega0's is
        # beta0): it is read off elsewhere, and at the pole the point is
        # solved as without a certificate, here exactly, since f = 0 there
        omega0 = example_catalog()["omega_f"].forms["omega0"]
        laurent = parse_form(r"x1^-1*dx1", omega0.coords)
        monkeypatch.setattr(symbolic, "_lee_form", lambda omega, d_omega: laurent)
        off, at = lee_solve(omega0, [(2, 0, 0, 0), (0, 1, 1, 0)]).points
        assert dict(off.beta.terms()) == {(1,): Fraction(1, 2)}
        assert dict(at.beta.terms()) == {(4,): Fraction(1)} and at.kernel_dim == 0


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
