"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line with its runtime against the stated limit.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines live.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from extforms import (
    Subspace,
    Vector,
    construct_kernel_element,
    extract_derivative,
    kernel2,
    kernel_main_profile,
    lambda_matrix,
    main_part,
    rank2,
    rank2_pair_kernel,
    solve_wedge,
    wedge,
)
from extforms.algebra import (
    covector,
    evaluate,
    interior,
    pairing,
    reverse_sign,
    wedge_all,
)
from extforms.cli import run_command
from extforms.randgen import random_rank_p_two_form, rng_for
from extforms.subspace import in_annihilator_algebra
from extforms.symbolic import (
    DiffForm,
    ScalarExpr,
    classify_theorem_sets,
    cosymplectic_check,
    example_catalog,
    exterior_derivative,
    wedge_d,
    wedge_d_all,
)

from generators import (
    random_form,
    random_invertible,
    random_rational,
    random_subspace,
    random_vector,
)
from oracles import exhaustive_derivative_search


class _Gate:
    """Times one criterion and prints its pass/fail line."""

    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit_s
        verdict = "PASS" if ok else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.name} "
              f"({elapsed:.2f}s, limit {self.limit_s:g}s)")
        if exc_type is None and elapsed >= self.limit_s:
            raise AssertionError(
                f"criterion {self.number} exceeded {self.limit_s}s: {elapsed:.2f}s")
        return False


def test_criterion_1_dim4_unique_solve():
    """100 nondegenerate 2-forms on R^4: the degree-1 wedge map is invertible
    and the wedge equation has a unique exact solution."""
    with _Gate(1, "dim-4 unique wedge solve", 5.0):
        rng = rng_for(1001)
        for _ in range(100):
            omega = random_rank_p_two_form(rng, 4, 2)
            lam = lambda_matrix(omega, 1)
            assert lam.rank() == 4
            assert lam.kernel() == []
            kappa = random_form(rng, 4, 3)
            beta, kernel = solve_wedge(omega, kappa)
            assert beta is not None and kernel == []
            assert wedge(omega, beta) == kappa


def test_criterion_2_closedness_dichotomy():
    """dim 4 admits d(beta) != 0 with d(beta)^omega = 0, while every
    conformally scaled nondegenerate form on R^6 forces d(beta) = 0 and
    puts every sample point in the high-rank set."""
    with _Gate(2, "closedness dichotomy dim 4 vs dim 6", 10.0):
        entry = example_catalog()["omega_f"]
        omega0, beta0 = entry.forms["omega0"], entry.forms["beta0"]
        d_beta0 = exterior_derivative(beta0)
        assert not d_beta0.is_zero()
        assert wedge_d(d_beta0, omega0).is_zero()
        assert (exterior_derivative(omega0) - wedge_d(beta0, omega0)).is_zero()

        rng = rng_for(1002)
        coords = tuple(f"u{i}" for i in range(6))
        n = 6
        diffs = [DiffForm.differential(i, coords) for i in range(n)]
        sigma = wedge_d_all([diffs[0], diffs[1]]) + \
            wedge_d_all([diffs[2], diffs[3]]) + wedge_d_all([diffs[4], diffs[5]])
        grid = list(product([-1, 1], repeat=6))
        for _ in range(5):
            g = ScalarExpr.zero(n)
            for _t in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 1) for _ in range(n))
                g = g + ScalarExpr(n, {(mono, ()): Fraction(rng.randint(-2, 2))})
            omega = sigma.scale(ScalarExpr.exp(g))
            beta = exterior_derivative(DiffForm.from_scalar(g, coords))
            assert exterior_derivative(beta).is_zero()
            rows, verdict = classify_theorem_sets(omega, beta, grid)
            assert verdict.passed
            assert verdict.a_points == len(grid)
            assert verdict.b_points == 0
            assert all(r.r_omega == 3 for r in rows)


def test_criterion_3_kernel_main_degree_bound():
    """200 forms per rank p in {1,2,3}: kernels vanish below the rank, every
    sampled kernel element has main-part degree >= p, and prescribed-degree
    kernel elements can be constructed for all admissible (l, s)."""
    with _Gate(3, "kernel main-degree bound sweep", 60.0):
        rng = rng_for(1003)
        for p in (1, 2, 3):
            dims = [n for n in range(4, 9) if n >= 2 * p]
            for i in range(200):
                n = dims[i % len(dims)]
                omega = random_rank_p_two_form(rng, n, p)
                for l in range(1, min(6, n - 2) + 1):
                    profile = kernel_main_profile(
                        omega, l, n_combos=20, seed=rng.randint(0, 10 ** 6))
                    if l < p:
                        assert profile.kernel_dim == 0
                    if profile.min_s is not None:
                        assert profile.min_s >= p
                if i < 3:
                    ker = kernel2(omega)
                    for l in range(1, min(6, n - 2) + 1):
                        for s in range(p, min(2 * p, l) + 1):
                            if l - s > ker.dim:
                                continue
                            beta = construct_kernel_element(omega, l, s)
                            assert not beta.is_zero()
                            assert wedge(omega, beta).is_zero()
                            assert main_part(beta, ker)[1] == s


def test_criterion_4_derivative_extraction():
    """500 random (omega, C): extraction postconditions plus agreement with
    an exhaustive search over basis tuples."""
    with _Gate(4, "derivative extraction vs exhaustive search", 30.0):
        rng = rng_for(1004)
        for _ in range(500):
            n = rng.randint(3, 7)
            p = rng.randint(1, n - 1)
            c = random_subspace(rng, n, p)
            omega = random_form(rng, n, rng.randint(1, min(4, n)), nonzero=True)
            _, s = main_part(omega, c)
            j = omega.degree - s
            vs, rem = extract_derivative(omega, c)
            assert len(vs) == j
            assert not rem.is_zero() and rem.degree == s
            assert in_annihilator_algebra(rem, c)
            if j == 0:
                assert rem == omega
            else:
                hits = exhaustive_derivative_search(omega, c.basis, j)
                assert (tuple(vs), rem) in [(tuple(h), r) for h, r in hits]


def test_criterion_5_rank2_pair_kernel_families():
    """Kernels against a rank-2 form: the five expected generators appear,
    arbitrary kernel combinations stay at rank <= 2, and rank-3 forms on R^6
    have trivial kernel in degree 2."""
    with _Gate(5, "rank-2 pair kernel families", 20.0):
        rng = rng_for(1005)
        for _ in range(50):
            n = rng.choice([4, 5])
            # random coframe: first four rows of a random invertible matrix
            m = random_invertible(rng, n)
            eta1, eta2, b1, b2 = (covector(m[i], n) for i in range(4))
            while True:
                c = random_rational(rng)
                if c:
                    break
            omega1 = wedge(eta1, eta2) + wedge(b1, b2).scale(c)
            assert rank2(omega1) == 2
            kernel = rank2_pair_kernel(omega1)
            assert len(kernel) >= 5
            expected = [
                wedge(eta1, eta2) - wedge(b1, b2).scale(c),
                wedge(eta1, b1), wedge(eta1, b2),
                wedge(eta2, b1), wedge(eta2, b2),
            ]
            for form in expected:
                assert wedge(omega1, form).is_zero()
            for _c in range(5):
                combo = kernel[0].scale(0)
                for b in kernel:
                    combo = combo + b.scale(Fraction(rng.randint(-3, 3)))
                if not combo.is_zero():
                    assert wedge(omega1, combo).is_zero()
                    assert rank2(combo) <= 2
        for _ in range(50):
            omega = random_rank_p_two_form(rng, 6, 3)
            assert rank2_pair_kernel(omega) == []


def test_criterion_6_worked_examples_command():
    """The verify-paper command replays every built-in identity and exits 0."""
    with _Gate(6, "worked-example verification command", 2.0):
        report, code = run_command(["verify-paper"])
        assert code == 0
        assert report["status"] == "pass"
        lines = report["results"]["identities"]
        assert len(lines) == 8 and all(line["holds"] for line in lines)


def _cosymplectic_instance(alpha_kind):
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
    else:
        alpha = ScalarExpr.var(1, n)
        phi = sigma.scale(ScalarExpr.exp(t.scale(2) * alpha))
    return phi, eta, alpha


def test_criterion_7_cosymplectic_structure():
    """Dimension-7 structure checks: two passing instances derive the
    closedness consequence; the negative instance leaves a residual."""
    with _Gate(7, "cosymplectic structure equation", 2.0):
        for kind in ("const", "linear"):
            report = cosymplectic_check(*_cosymplectic_instance(kind))
            assert report.passed
            assert report.d_eta_zero and report.structure_equation_holds
            assert report.dalpha_wedge_eta_zero
            assert report.f_factor is not None
        bad = cosymplectic_check(*_cosymplectic_instance("horizontal"))
        assert not bad.passed
        assert not bad.structure_residual.is_zero()


def test_criterion_8_core_identities():
    """1000 randomized instances of the core algebraic identities."""
    with _Gate(8, "randomized core identities", 30.0):
        cases = 0
        rng = rng_for(1008)

        # pairing vs evaluation vs determinant (250 cases)
        for _ in range(250):
            n = rng.randint(2, 6)
            k = rng.randint(1, min(3, n))
            theta = random_form(rng, n, k, nonzero=True)
            xs = [random_vector(rng, n) for _ in range(k)]
            fact = 1
            for i in range(2, k + 1):
                fact *= i
            lhs = pairing(xs, theta)
            assert lhs == reverse_sign(k) * fact * evaluate(theta, xs)
            covs = [covector([random_rational(rng) for _ in range(n)], n)
                    for _ in range(k)]
            dec = wedge_all(covs)
            det_rows = [[evaluate(cv, [x]) for x in xs] for cv in covs]
            from extforms.linalg import det as _det
            assert pairing(xs, dec) == reverse_sign(k) * _det(det_rows)
            cases += 1

        # interior product: antiderivation and square zero (250 cases)
        for _ in range(250):
            n = rng.randint(2, 6)
            dm = rng.randint(1, 2)
            dn = rng.randint(1, min(2, n - dm)) if n - dm >= 1 else 1
            mu = random_form(rng, n, dm)
            nu = random_form(rng, n, dn)
            v = random_vector(rng, n)
            lhs = interior(v, wedge(mu, nu))
            rhs = wedge(interior(v, mu), nu) + \
                wedge(mu, interior(v, nu)).scale((-1) ** dm)
            assert lhs == rhs
            assert interior(v, interior(v, wedge(mu, nu))).is_zero() \
                or dm + dn < 2
            cases += 1

        # exterior derivative: square zero and Leibniz (250 cases)
        for _ in range(250):
            n = rng.randint(2, 4)
            coords = tuple(f"u{i}" for i in range(n))
            from test_symbolic import random_diff_form
            da = rng.randint(0, 2)
            a = random_diff_form(rng, coords, da)
            b = random_diff_form(rng, coords, rng.randint(0, 2))
            assert exterior_derivative(exterior_derivative(a)).is_zero()
            lhs = exterior_derivative(wedge_d(a, b))
            term = wedge_d(a, exterior_derivative(b))
            rhs = wedge_d(exterior_derivative(a), b) + \
                (term if da % 2 == 0 else -term)
            assert lhs == rhs
            cases += 1

        # main-part degree invariance under frame changes (100 cases)
        for _ in range(100):
            n = rng.randint(3, 6)
            p = rng.randint(1, n - 1)
            c = random_subspace(rng, n, p)
            w = random_form(rng, n, rng.randint(1, min(3, n)), nonzero=True)
            _, s = main_part(w, c)
            m = random_invertible(rng, p)
            new_basis = []
            for i in range(p):
                comps = [Fraction(0)] * n
                for j in range(p):
                    for t in range(n):
                        comps[t] += m[i][j] * c.basis[j].components[t]
                new_basis.append(Vector(n, tuple(comps)))
            assert main_part(w, Subspace(n, tuple(new_basis)))[1] == s
            cases += 1

        # wedge bilinearity, anticommutativity, associativity (150 cases)
        for _ in range(150):
            n = rng.randint(2, 6)
            da = rng.randint(0, 2)
            db = rng.randint(0, 2)
            a = random_form(rng, n, da)
            b = random_form(rng, n, db)
            g = random_form(rng, n, rng.randint(0, 2))
            assert wedge(a, b) == wedge(b, a).scale((-1) ** (da * db))
            assert wedge(wedge(a, b), g) == wedge(a, wedge(b, g))
            cases += 1

        assert cases >= 1000


CLI_SAMPLE = """\
coords: x1, x2, y1, y2
omega0 = exp(x1*y1 + x2*y2)*dx1/\\dx2 + dy1/\\dy2
beta0 = x1*dy1 + x2*dy2
Omega4 = dx1/\\dx2 + dy1/\\dy2
kappa123 = dx1/\\dx2/\\dy1
"""


def test_criterion_9_cli_determinism(tmp_path):
    """Every subcommand, run twice with identical arguments, emits
    byte-identical JSON."""
    with _Gate(9, "byte-identical command reports", 60.0):
        sample = tmp_path / "sample.form"
        sample.write_text(CLI_SAMPLE, encoding="utf-8")
        ref = str(sample)
        commands = [
            ["rank", f"{ref}#Omega4"],
            ["solve", f"{ref}#Omega4", f"{ref}#kappa123"],
            ["lee", f"{ref}#omega0", "--beta", f"{ref}#beta0"],
            ["lee", f"{ref}#omega0", "--grid", "x1=0:1:2"],
            ["classify", f"{ref}#omega0", f"{ref}#beta0"],
            ["lemma-check", "--dim", "5", "--rank", "2", "--deg", "2",
             "--trials", "5", "--seed", "3"],
            ["lambda-report", f"{ref}#Omega4"],
            ["verify-paper"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "extforms.cli", *argv],
                    capture_output=True)
                assert proc.returncode == 0, proc.stderr.decode()
                runs.append(proc.stdout)
            assert runs[0] == runs[1], f"nondeterministic output: {argv}"
