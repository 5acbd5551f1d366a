"""Command-line interface: subcommands, JSON report shape, exit codes."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import extforms
from extforms import linalg, wedge_solver
from extforms.cli import EXIT_BROKEN_PIPE, _as_constant, _write_json, main, run_command
from extforms.dsl import load_form_file, parse_form
from extforms.randgen import random_rank_p_two_form, rng_for
from extforms.symbolic import eval_at
from extforms.wedge_solver import lambda_matrix

from golden_reports import DEMOS, GOLDEN, demo_digest, report_digest, ROOT as GOLDEN_ROOT

SAMPLE = """\
coords: x1, x2, y1, y2
omega0 = exp(x1*y1 + x2*y2)*dx1/\\dx2 + dy1/\\dy2
beta0 = x1*dy1 + x2*dy2
Omega4 = dx1/\\dx2 + dy1/\\dy2
kappa123 = dx1/\\dx2/\\dy1
plane = dx1/\\dx2
bad_rhs = dx1/\\dy1/\\dy2
# two exponents, and a Cramer determinant e^(2f) (1 + x1^2)^2 that is no unit
omega_float = exp(x1*y1 + x2*y2)*dx1/\\dx2 + (1 + x1^2)*dy1/\\dy2
"""


@pytest.fixture()
def sample(tmp_path):
    path = tmp_path / "sample.form"
    path.write_text(SAMPLE, encoding="utf-8")
    return str(path)


def check_shape(report, command):
    assert set(report) == {"command", "inputs", "results", "status"}
    assert report["command"] == command
    assert report["status"] in {"pass", "fail"}


class TestRank:
    def test_constant_form(self, sample):
        report, code = run_command(["rank", f"{sample}#Omega4"])
        assert code == 0
        check_shape(report, "rank")
        assert report["results"]["rank"] == 2
        assert report["results"]["kernel_dim"] == 0

    def test_symbolic_needs_point(self, sample):
        report, code = run_command(["rank", f"{sample}#omega0"])
        assert report is None and code == 2

    def test_symbolic_at_point(self, sample):
        report, code = run_command(
            ["rank", f"{sample}#omega0", "--point", "x1=0,x2=0,y1=0,y2=0"])
        assert code == 0
        assert report["results"]["rank"] == 2

    def test_small_float_coefficients_at_point(self, tmp_path):
        path = tmp_path / "small.form"
        path.write_text(
            "coords: x1, x2, x3, x4, x5, x6\n"
            "omega = exp(-9)*dx1/\\dx2 + exp(-9)*dx3/\\dx4 + exp(-9)*dx5/\\dx6\n",
            encoding="utf-8")
        origin = ",".join(f"x{i}=0" for i in range(1, 7))
        report, code = run_command(["rank", f"{path}#omega", "--point", origin])
        assert code == 0
        assert report["results"]["rank"] == 3
        assert report["results"]["kernel_dim"] == 0

    def test_degenerate_kernel_reported(self, sample):
        report, code = run_command(["rank", f"{sample}#plane"])
        assert code == 0
        assert report["results"]["rank"] == 1
        assert report["results"]["kernel_dim"] == 2

    def test_missing_form_name(self, sample):
        report, code = run_command(["rank", f"{sample}#nothere"])
        assert report is None and code == 2

    def test_kernel_takes_one_reduction(self, sample, monkeypatch):
        # the kernel basis is independent by construction: no second rank
        # check of it in a Subspace
        calls = []
        echelon = linalg.echelon
        monkeypatch.setattr(linalg, "echelon",
                            lambda rows, ncols, **kw: calls.append(ncols) or echelon(rows, ncols, **kw))
        report, code = run_command(["rank", f"{sample}#plane"])
        assert code == 0 and report["results"]["kernel_dim"] == 2
        assert len(calls) == 1

    def test_bad_reference(self):
        report, code = run_command(["rank", "noseparator"])
        assert report is None and code == 2

    def test_missing_file(self, tmp_path):
        report, code = run_command(["rank", f"{tmp_path}/absent.form#x"])
        assert report is None and code == 2


class TestSolve:
    def test_solvable(self, sample):
        report, code = run_command(
            ["solve", f"{sample}#Omega4", f"{sample}#kappa123"])
        assert code == 0
        check_shape(report, "solve")
        assert report["results"]["solvable"]
        assert report["results"]["kernel_dim"] == 0
        assert report["results"]["particular"] == [
            {"index": [3], "coeff": "1"}]

    def test_unsolvable_exits_one(self, sample):
        report, code = run_command(
            ["solve", f"{sample}#plane", f"{sample}#bad_rhs"])
        assert code == 1
        assert report["status"] == "fail"
        assert not report["results"]["solvable"]
        assert report["results"]["kernel_dim"] == 2


class TestLee:
    def test_verify_mode(self, sample):
        report, code = run_command(
            ["lee", f"{sample}#omega0", "--beta", f"{sample}#beta0"])
        assert code == 0
        check_shape(report, "lee")
        assert report["results"]["holds"]
        assert report["results"]["residual"] == "0"
        assert report["results"]["dbeta_wedge_omega"] == "0"

    def test_verify_failure(self, sample):
        report, code = run_command(
            ["lee", f"{sample}#Omega4", "--beta", f"{sample}#beta0"])
        assert code == 1
        assert not report["results"]["holds"]

    def test_grid_mode(self, sample):
        report, code = run_command(
            ["lee", f"{sample}#omega0", "--grid", "x1=0:1:2"])
        assert code == 0
        assert report["results"]["consistent"]
        assert report["inputs"]["grid_points"] == 2 * 3 * 3 * 3
        for row in report["results"]["points"]:
            assert row["solvable"] and row["kernel_dim"] == 0

    def test_bad_grid_spec(self, sample):
        report, code = run_command(
            ["lee", f"{sample}#omega0", "--grid", "x1=0:1"])
        assert report is None and code == 2

    def test_beta_and_grid_together_rejected(self, sample, capsys):
        report, code = run_command(["lee", f"{sample}#omega0", "--beta", f"{sample}#beta0",
                                    "--grid", "x1=0:1:2"])
        assert report is None and code == 2
        assert "--beta or --grid" in capsys.readouterr().err


class TestClassify:
    def test_catalog_pair(self, sample):
        report, code = run_command(
            ["classify", f"{sample}#omega0", f"{sample}#beta0"])
        assert code == 0
        check_shape(report, "classify")
        verdict = report["results"]["verdict"]
        assert verdict["a_points"] == 0
        assert verdict["b_points"] == report["inputs"]["grid_points"]
        assert verdict["dbeta_zero_on_A"] and verdict["rank_bounds_on_B"]

    def test_hypothesis_violation_fails(self, sample):
        report, code = run_command(
            ["classify", f"{sample}#Omega4", f"{sample}#beta0"])
        assert code == 1
        assert "error" in report["results"]


def _random_constant_text(rng, coords, degree):
    """Constant form text: signed int and rational literals, 0, bare and
    reordered differentials, and a term repeated with the opposite sign."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        diffs = "/\\".join("d" + c for c in rng.sample(coords, degree))
        lit = rng.choice(["", "0*", "1*", "2*", "7/3*", "1/2*", "10/4*", "(1 - 3)*"])
        terms.append((rng.choice(["+", "-"]), lit + diffs))
    if rng.random() < 0.5:
        sign, body = rng.choice(terms)
        terms.append(("-" if sign == "+" else "+", body))
    return " ".join(f"{sign} {body}" for sign, body in terms).lstrip("+ ")


class TestAsConstant:
    """`_as_constant` reads each coefficient's one constant term; it must
    give what evaluating the form gives, at the origin or anywhere."""

    COORDS = ("x", "y", "z", "t", "u")

    @pytest.mark.parametrize("text", [
        "0*dx", "dx - dx", "3/4*dx/\\dy - 3/4*dx/\\dy", "1/2*dx + dx - dy",
        "-2*dy/\\dx + 2*dx/\\dy", "(1 - 1)*dx/\\dy + 5/10*dz/\\dt", "-7/3", "0"])
    def test_matches_eval_at(self, text):
        form = parse_form(text, self.COORDS)
        origin = tuple(Fraction(0) for _ in self.COORDS)
        assert _as_constant(form) == eval_at(form, origin)

    def test_matches_eval_at_on_random_constant_forms(self):
        rng = rng_for(1414)
        origin = tuple(Fraction(0) for _ in self.COORDS)
        for _ in range(200):
            form = parse_form(_random_constant_text(rng, self.COORDS, rng.randint(1, 4)),
                              self.COORDS)
            got = _as_constant(form)
            point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in self.COORDS)
            assert got == eval_at(form, origin) == eval_at(form, point)
            assert all(type(c) is Fraction for c in got.coeffs.values())

    @pytest.mark.parametrize("argv", [
        ["rank", "{s}#omega0"], ["lambda-report", "{s}#omega0"],
        ["solve", "{s}#Omega4", "{s}#omega0"], ["solve", "{s}#omega0", "{s}#kappa123"]])
    def test_non_constant_form_exits_2(self, sample, argv, capsys):
        report, code = run_command([a.format(s=sample) for a in argv])
        assert report is None and code == 2
        assert capsys.readouterr().err == \
            "error: form has non-constant coefficients; pass --point to evaluate\n"


class TestLemmaCheck:
    def test_basic_run(self):
        report, code = run_command(
            ["lemma-check", "--dim", "5", "--rank", "2", "--deg", "2",
             "--trials", "5", "--seed", "7"])
        assert code == 0
        check_shape(report, "lemma-check")
        assert report["results"]["all_bounds_hold"]
        assert len(report["results"]["trials"]) == 5
        for row in report["results"]["trials"]:
            if row["min_main_degree"] is not None:
                assert row["min_main_degree"] >= 2

    def test_trivial_kernel_below_rank(self):
        report, code = run_command(
            ["lemma-check", "--dim", "6", "--rank", "3", "--deg", "2",
             "--trials", "3"])
        assert code == 0
        for row in report["results"]["trials"]:
            assert row["kernel_dim"] == 0

    def test_bad_rank(self):
        report, code = run_command(
            ["lemma-check", "--dim", "4", "--rank", "3", "--deg", "1",
             "--trials", "1"])
        assert report is None and code == 2

    def test_bad_degree(self):
        report, code = run_command(
            ["lemma-check", "--dim", "4", "--rank", "1", "--deg", "3",
             "--trials", "1"])
        assert report is None and code == 2

    def test_zero_rank_rejected(self, capsys):
        report, code = run_command(
            ["lemma-check", "--dim", "4", "--rank", "0", "--deg", "1",
             "--trials", "1"])
        assert report is None and code == 2
        assert "rank must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_vacuous_trials_rejected(self, trials, capsys):
        report, code = run_command(
            ["lemma-check", "--dim", "4", "--rank", "1", "--deg", "1",
             "--trials", trials])
        assert report is None and code == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_violation_reported(self, monkeypatch):
        def violate(*args, **kwargs):
            raise wedge_solver.LemmaViolation("main-part degree 0 < rank 1")

        monkeypatch.setattr(wedge_solver, "kernel_main_profile", violate)
        report, code = run_command(
            ["lemma-check", "--dim", "4", "--rank", "1", "--deg", "1",
             "--trials", "2"])
        assert code == 1
        assert not report["results"]["all_bounds_hold"]
        assert report["results"]["trials"] == [
            {"trial": 0, "violation": True}, {"trial": 1, "violation": True}]

    def test_violation_carries_a_witness(self, monkeypatch):
        # take each generated rank-1 form in dimension 4 as its own block, as
        # if nondegenerate: the profile then reads its rank as 4 // 2 = 2, and
        # the real degree-1 layer kernel of the block falls below it
        monkeypatch.setattr(wedge_solver, "_alpha_block", lambda omega: omega)
        report, code = run_command(
            ["lemma-check", "--dim", "4", "--rank", "1", "--deg", "1",
             "--trials", "1", "--seed", "3"])
        assert code == 1
        omega = random_rank_p_two_form(rng_for(3), 4, 1)
        assert report["results"]["trials"] == [{
            "trial": 0, "violation": True, "min_main_degree": 1,
            "omega": [{"index": list(idx), "coeff": str(c)} for idx, c in omega.terms()],
        }]

    def test_internal_assertion_is_not_a_violation(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("frame check failed")

        monkeypatch.setattr(wedge_solver, "kernel_main_profile", broken)
        with pytest.raises(AssertionError):
            run_command(["lemma-check", "--dim", "4", "--rank", "1", "--deg", "1",
                         "--trials", "1"])


class TestLambdaReport:
    def test_table(self, sample):
        report, code = run_command(["lambda-report", f"{sample}#Omega4"])
        assert code == 0
        check_shape(report, "lambda-report")
        assert report["results"]["rank"] == 2
        rows = report["results"]["rows"]
        assert [r["k"] for r in rows] == [0, 1, 2]
        assert rows[1]["injective"] and rows[1]["surjective"]

    def test_zero_form_rejected(self, tmp_path):
        path = tmp_path / "z.form"
        path.write_text("coords: x, y\nz = dx/\\dy - dx/\\dy\n", encoding="utf-8")
        report, code = run_command(["lambda-report", f"{path}#z"])
        assert report is None and code == 2

    def test_float_degenerate_point(self, tmp_path):
        # a rank-2 form in dimension 5 with exp coefficients: float at the
        # point, and degenerate, so its block is the form itself
        path = tmp_path / "float.form"
        path.write_text(
            "coords: x, y, z, w, v\n"
            "om2 = exp(x)*dx/\\dy + 7*dz/\\dw + exp(x+y)*dx/\\dv + dy/\\dz\n",
            encoding="utf-8")
        point = (Fraction(1, 3), Fraction(1, 7), 1, 2, 1)
        report, code = run_command(["lambda-report", f"{path}#om2",
                                    "--point", "x=1/3,y=1/7,z=1,w=2,v=1"])
        assert code == 0
        assert report["results"]["rank"] == 2
        omega = eval_at(load_form_file(path)["om2"], point)
        assert any(isinstance(c, float) for c in omega.coeffs.values())
        # each row's rank is the SVD rank of the full lambda^k matrix
        assert [r["rank"] for r in report["results"]["rows"]] == [
            lambda_matrix(omega, k).rank() for k in range(4)]


class TestPoles:
    """A point where a Laurent pole meets a zero coordinate is a usage error
    (exit 2) naming the coordinate and the point, not a traceback."""

    POLE_FORMS = ("coords: x, y, z, w\n"
                  "omega = x^-1*dx/\\dy + dz/\\dw\n"
                  "beta = 0*dx\n")

    @pytest.fixture()
    def poles(self, tmp_path):
        path = tmp_path / "poles.form"
        path.write_text(self.POLE_FORMS, encoding="utf-8")
        return str(path)

    @staticmethod
    def check_rejected(argv, capsys, point):
        report, code = run_command(argv)
        assert report is None and code == 2
        err = capsys.readouterr().err
        assert "pole" in err and "'x'" in err and point in err

    def test_lee_grid(self, poles, capsys):
        self.check_rejected(["lee", f"{poles}#omega", "--grid", "x=-1:1:3"],
                            capsys, "x=0,y=-1,z=-1,w=-1")

    def test_classify_grid(self, poles, capsys):
        self.check_rejected(["classify", f"{poles}#omega", f"{poles}#beta",
                             "--grid", "x=-1:1:3"], capsys, "x=0,y=-1,z=-1,w=-1")

    def test_rank_point(self, poles, capsys):
        self.check_rejected(["rank", f"{poles}#omega", "--point", "x=0,y=0,z=0,w=0"],
                            capsys, "x=0,y=0,z=0,w=0")

    def test_lambda_report_point(self, poles, capsys):
        self.check_rejected(["lambda-report", f"{poles}#omega",
                             "--point", "x=0,y=1,z=0,w=1/2"], capsys, "x=0,y=1,z=0,w=1/2")

    def test_off_the_pole(self, poles):
        report, code = run_command(["rank", f"{poles}#omega", "--point", "x=2,y=0,z=0,w=0"])
        assert code == 0 and report["results"]["rank"] == 2
        report, code = run_command(["classify", f"{poles}#omega", f"{poles}#beta"])
        assert code == 0 and report["inputs"]["grid_points"] == 81


class TestZeroDenominator:
    """A point or grid value with a zero denominator is a usage error that
    quotes the value, not a ZeroDivisionError."""

    def test_rank_point(self, sample, capsys):
        report, code = run_command(["rank", f"{sample}#omega0",
                                    "--point", "x1=1/0,x2=0,y1=0,y2=0"])
        assert report is None and code == 2
        assert "'1/0'" in capsys.readouterr().err

    def test_lee_grid(self, sample, capsys):
        report, code = run_command(["lee", f"{sample}#omega0", "--grid", "x1=1/0:1:2"])
        assert report is None and code == 2
        assert "x1=1/0:1:2" in capsys.readouterr().err


class TestFloatRange:
    """A point where an exponential, or a value built from one, leaves the
    float range is a usage error naming the point, not an OverflowError or a
    report of nan."""

    @staticmethod
    def check_rejected(argv, capsys, point):
        report, code = run_command(argv)
        assert report is None and code == 2
        err = capsys.readouterr().err
        assert "float range" in err and f"point {point}\n" in err

    def test_rank_point(self, sample, capsys):
        point = "x1=100000,x2=100000,y1=100000,y2=100000"
        self.check_rejected(["rank", f"{sample}#omega0", "--point", point], capsys, point)

    def test_lambda_report_point(self, sample, capsys):
        point = "x1=1000,x2=0,y1=1,y2=0"
        self.check_rejected(["lambda-report", f"{sample}#omega0", "--point", point],
                            capsys, point)

    def test_lee_grid_names_the_first_point(self, sample, capsys):
        # e^(x1*y1 + x2*y2) is e^-999 at the first point and e^1001 at the next;
        # omega_float has no certified beta, so its points are solved in floats
        argv = ["lee", f"{sample}#omega_float", "--grid", "x1=1000:1001:2"]
        self.check_rejected(argv, capsys, "x1=1000,x2=-1,y1=1,y2=-1")
        # omega0's certified beta = x1 dy1 + x2 dy2 is read off exactly there
        report, code = run_command(["lee", f"{sample}#omega0", "--grid", "x1=1000:1001:2"])
        assert code == 0 and report["results"]["consistent"]
        for row in report["results"]["points"]:
            x1, x2 = (Fraction(x) for x in row["point"][:2])
            want = [{"index": [i], "coeff": str(c)} for i, c in ((3, x1), (4, x2)) if c]
            assert (row["beta"], row["kernel_dim"], row["rank_omega"]) == (want, 0, 2)

    def test_lee_grid_product_past_the_range(self, sample, capsys):
        # e^700 is a float, but the coefficient x1 * e^700 of d omega is not
        grid = ["x1=100000:100000:1", "x2=0:0:1", "y1=7/1000:7/1000:1", "y2=0:0:1"]
        specs = [a for g in grid for a in ("--grid", g)]
        self.check_rejected(["lee", f"{sample}#omega_float"] + specs,
                            capsys, "x1=100000,x2=0,y1=7/1000,y2=0")
        report, code = run_command(["lee", f"{sample}#omega0"] + specs)
        assert code == 0
        [row] = report["results"]["points"]
        assert row["beta"] == [{"index": [3], "coeff": "100000"}]

    def test_lee_grid_overflow_derives_the_lee_form_once(self, sample, capsys, monkeypatch):
        from extforms import symbolic

        calls = []
        lee_form = symbolic._lee_form

        def counting_lee_form(*args):
            calls.append(args)
            return lee_form(*args)

        monkeypatch.setattr(symbolic, "_lee_form", counting_lee_form)
        argv = ["lee", f"{sample}#omega_float", "--grid", "x1=1000:1001:2"]
        self.check_rejected(argv, capsys, "x1=1000,x2=-1,y1=1,y2=-1")
        assert len(calls) == 1

    def test_classify_stays_exact(self, sample):
        report, code = run_command(["classify", f"{sample}#omega0", f"{sample}#beta0",
                                    "--grid", "x1=1000:1001:2"])
        assert code == 0 and report["status"] == "pass"


CONFORMAL = """\
coords: x1, x2, x3, x4, x5, x6
w = exp(x1 - 9)*dx1/\\dx2 + exp(x1 - 9)*dx3/\\dx4 + exp(x1 - 9)*dx5/\\dx6
big = exp(800*x1)*dx1/\\dx2 + x2*exp(800*x1)*dx3/\\dx4
u = exp(x1)*dx1/\\dx2 + exp(x1)*dx2/\\dx3
"""


class TestExactExponentialPoints:
    """Where every coefficient is e^q times a rational, rank, kernel and the
    pointwise beta come from the rational part, exactly."""

    @pytest.fixture()
    def conformal(self, tmp_path):
        path = tmp_path / "conformal.form"
        path.write_text(CONFORMAL, encoding="utf-8")
        return str(path)

    @staticmethod
    def grid(point):
        return [a for i, x in enumerate(point, 1) for a in ("--grid", f"x{i}={x}:{x}:1")]

    def test_lee_grid_beta_exact(self, conformal):
        report, code = run_command(["lee", f"{conformal}#w"] + self.grid([1, 0, 0, 0, 0, 0]))
        assert code == 0
        [row] = report["results"]["points"]
        assert row["beta"] == [{"index": [1], "coeff": "1"}]
        assert (row["kernel_dim"], row["rank_omega"]) == (0, 3)

    def test_lee_grid_past_the_float_range(self, conformal):
        report, code = run_command(["lee", f"{conformal}#big"] + self.grid([1, 1, 0, 0, 0, 0]))
        assert code == 0
        [row] = report["results"]["points"]
        assert row["beta"] == [{"index": [1], "coeff": "800"}, {"index": [2], "coeff": "1"}]

    def test_rank_past_the_float_range(self, conformal):
        report, code = run_command(["rank", f"{conformal}#big",
                                    "--point", "x1=1,x2=1,x3=0,x4=0,x5=0,x6=0"])
        assert code == 0
        assert (report["results"]["rank"], report["results"]["kernel_dim"]) == (2, 2)

    def test_rank_kernel_basis_exact(self, conformal):
        report, code = run_command(["rank", f"{conformal}#u",
                                    "--point", "x1=1,x2=0,x3=0,x4=0,x5=0,x6=0"])
        assert code == 0
        res = report["results"]
        assert (res["rank"], res["kernel_dim"]) == (1, 4)
        assert res["kernel_basis"][0] == ["1", "0", "1", "0", "0", "0"]
        assert all("." not in c for v in res["kernel_basis"] for c in v)

    def test_lambda_report_past_the_float_range(self, conformal):
        report, code = run_command(["lambda-report", f"{conformal}#big",
                                    "--point", "x1=1,x2=1,x3=0,x4=0,x5=0,x6=0"])
        assert code == 0 and report["results"]["rank"] == 2


class TestGridSpecs:
    def test_repeated_coordinate_rejected(self, sample, capsys):
        report, code = run_command(["lee", f"{sample}#omega0", "--grid", "x1=0:1:2",
                                    "--grid", "x1=5:6:3"])
        assert report is None and code == 2
        assert "'x1'" in capsys.readouterr().err


class TestPointSpecs:
    @pytest.mark.parametrize("command", ["rank", "lambda-report"])
    def test_repeated_coordinate_rejected(self, sample, command, capsys):
        report, code = run_command([command, f"{sample}#omega0", "--point",
                                    "x1=1,x2=2,y1=0,y2=0,x1=3"])
        assert report is None and code == 2
        assert "'x1' given more than once" in capsys.readouterr().err


class TestVerifyPaper:
    def test_all_pass(self):
        report, code = run_command(["verify-paper"])
        assert code == 0
        check_shape(report, "verify-paper")
        lines = report["results"]["identities"]
        assert len(lines) == 8
        assert all(line["holds"] for line in lines)


class TestTopLevel:
    def test_unknown_command(self):
        report, code = run_command(["frobnicate"])
        assert report is None and code == 2

    def test_no_arguments(self):
        report, code = run_command([])
        assert report is None and code == 2

    def test_main_prints_json(self, sample, capsys):
        code = main(["rank", f"{sample}#Omega4"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["command"] == "rank"

    def test_reports_are_deterministic(self, sample, capsys):
        main(["lemma-check", "--dim", "5", "--rank", "2", "--deg", "2",
              "--trials", "4", "--seed", "11"])
        first = capsys.readouterr().out
        main(["lemma-check", "--dim", "5", "--rank", "2", "--deg", "2",
              "--trials", "4", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second
        main(["classify", f"{sample}#omega0", f"{sample}#beta0"])
        first = capsys.readouterr().out
        main(["classify", f"{sample}#omega0", f"{sample}#beta0"])
        second = capsys.readouterr().out
        assert first == second


class TestFormFileLoading:
    def test_each_file_parsed_once_per_command(self, sample, monkeypatch):
        from extforms import cli

        loads = []

        def counting_load(path):
            loads.append(path)
            return load_form_file(path)

        monkeypatch.setattr(cli, "load_form_file", counting_load)
        _, code = run_command(["solve", f"{sample}#Omega4", f"{sample}#kappa123"])
        assert code == 0 and loads == [sample]
        # nothing is kept from one command to the next
        run_command(["classify", f"{sample}#omega0", f"{sample}#beta0"])
        run_command(["lee", f"{sample}#omega0", "--beta", f"{sample}#beta0"])
        assert loads == [sample] * 3

    def test_file_edited_between_commands_is_reread(self, tmp_path):
        path = tmp_path / "f.form"
        path.write_text("coords: x, y\nw = dx/\\dy\n", encoding="utf-8")
        first, _ = run_command(["rank", f"{path}#w"])
        path.write_text("coords: x, y\nw = 0*dx/\\dy\n", encoding="utf-8")
        second, _ = run_command(["rank", f"{path}#w"])
        assert first["results"]["rank"] == 1 and second["results"]["rank"] == 0

    @pytest.mark.parametrize("text,message", [
        ("coords: x, x\na = dx\n", "duplicate coordinate 'x' (line 1, column 1)"),
        ("coords: 1x, y\na = dy\n", "invalid coordinate name '1x' (line 1, column 1)"),
        ("coords: x, y\na = 1/0*dx\n", "in form 'a': zero denominator (line 2, column 5)"),
    ])
    def test_bad_file_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "f.form"
        path.write_text(text, encoding="utf-8")
        report, code = run_command(["rank", f"{path}#a"])
        assert report is None and code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


LIBRARY = """\
coords: x, y, z, w
W = dx/\\dy + 2*dz/\\dw
"""
BAD_K = "K = dx/\\dy/\\dz + 1/0*dy/\\dz/\\dw\n"
BAD_B = "B = dx/\\dq\n"


class TestNamedFormsOnly:
    """A command parses only the forms it names; every line still gets the
    structural check."""

    def test_unnamed_form_error_is_not_raised(self, tmp_path, capsys):
        path = tmp_path / "f.form"
        path.write_text(LIBRARY, encoding="utf-8")
        assert main(["lambda-report", f"{path}#W"]) == 0
        without_k = capsys.readouterr().out
        path.write_text(LIBRARY + BAD_K, encoding="utf-8")
        assert main(["lambda-report", f"{path}#W"]) == 0
        assert capsys.readouterr().out == without_k

    def test_named_form_error_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "f.form"
        path.write_text(LIBRARY + BAD_K, encoding="utf-8")
        report, code = run_command(["solve", f"{path}#W", f"{path}#K"])
        assert report is None and code == 2
        assert capsys.readouterr().err == \
            "error: in form 'K': zero denominator (line 3, column 18)\n"

    def test_errors_come_in_ref_order(self, tmp_path, capsys):
        path = tmp_path / "f.form"
        path.write_text(LIBRARY + BAD_K + BAD_B, encoding="utf-8")
        report, code = run_command(["solve", f"{path}#B", f"{path}#K"])
        assert report is None and code == 2
        assert capsys.readouterr().err == \
            "error: in form 'B': expected a coordinate differential (line 4, column 9)\n"

    @pytest.mark.parametrize("text,message", [
        (LIBRARY + "K = dx\nK = dy\n", "duplicate form name 'K' (line 4, column 1)"),
        ("coords: x, 1y\n" + LIBRARY.split("\n", 1)[1],
         "invalid coordinate name '1y' (line 1, column 1)"),
        (LIBRARY + "dx/\\dy\n", "expected '<name> = <expr>' (line 3, column 1)"),
        (LIBRARY + "2K = dx\n", "invalid form name '2K' (line 3, column 1)"),
    ], ids=["duplicate_name", "bad_coords", "no_equals", "bad_name"])
    def test_structural_error_fails_every_command(self, tmp_path, capsys, text, message):
        path = tmp_path / "f.form"
        path.write_text(text, encoding="utf-8")
        report, code = run_command(["lambda-report", f"{path}#W"])
        assert report is None and code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_one_form_body_parsed(self, tmp_path, monkeypatch):
        from extforms import dsl

        parsed = []
        parse_form = dsl._Parser.parse_form

        def counting_parse_form(self):
            parsed.append(self.src)
            return parse_form(self)

        monkeypatch.setattr(dsl._Parser, "parse_form", counting_parse_form)
        path = tmp_path / "f.form"
        path.write_text(LIBRARY + "K = dx/\\dy/\\dz + dy/\\dz/\\dw\n", encoding="utf-8")
        _, code = run_command(["lambda-report", f"{path}#W"])
        assert code == 0 and parsed == [" dx/\\dy + 2*dz/\\dw"]


class TestBrokenPipe:
    def test_closed_stdout_ends_without_traceback(self):
        """`extforms lee ... | head -1`, with the reader gone before the
        first write so that the write fails every time."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "extforms.cli", "lee",
                 "demos/sample_library.form#omega0", "--grid", "x1=0:1:2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                cwd=root, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == EXIT_BROKEN_PIPE


class TestImports:
    def test_cli_import_leaves_numpy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, extforms.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_exact_commands_leave_numpy_unloaded(self):
        """Exact lemma-check, solve and lambda-report, run through cli.main
        in a fresh interpreter, never import numpy."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        lib = "demos/sample_library.form"
        argvs = [["lemma-check", "--dim", "7", "--rank", "2", "--deg", "3",
                  "--trials", "2", "--seed", "3"],
                 ["solve", f"{lib}#Omega4", f"{lib}#kappa123"],
                 ["solve", f"{lib}#plane", f"{lib}#Omega4"],
                 ["lambda-report", f"{lib}#Omega4"],
                 ["lambda-report", f"{lib}#plane"]]
        script = ("import contextlib, io, sys\n"
                  "from extforms.cli import main\n"
                  "codes = []\n"
                  f"for argv in {argvs!r}:\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        codes.append(main(argv))\n"
                  "print(codes, 'numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, cwd=root, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 1, 0, 0] False"

    @staticmethod
    def lee_grid_in_fresh_interpreter(ref) -> str:
        """'exit code, numpy imported, any float beta' of `lee ref --grid
        x1=0:1:2` run through cli.main in a fresh interpreter."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        argv = ["lee", ref, "--grid", "x1=0:1:2"]
        script = ("import contextlib, io, json, sys\n"
                  "from extforms.cli import main\n"
                  "out = io.StringIO()\n"
                  "with contextlib.redirect_stdout(out):\n"
                  f"    code = main({argv!r})\n"
                  "rows = json.loads(out.getvalue())['results']['points']\n"
                  "floats = any('.' in t['coeff'] for r in rows for t in r['beta'])\n"
                  "print(code, 'numpy' in sys.modules, floats)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, cwd=root, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_exact_lee_grid_leaves_numpy_unloaded(self):
        """lee --grid on e^g * d(theta), at points where g is nonzero, solves
        every point exactly and never imports numpy."""
        assert self.lee_grid_in_fresh_interpreter("demos/conformal_grid.form#omega") == \
            "0 False False"

    def test_lee_grid_with_two_exponentials_leaves_numpy_unloaded(self):
        """lee --grid on the demo omega0, whose coefficients carry e^f and
        e^0, reads its certified beta off at every point and never imports
        numpy."""
        assert self.lee_grid_in_fresh_interpreter("demos/sample_library.form#omega0") == \
            "0 False False"

    def test_numpy_imported_only_inside_linalg_functions(self):
        for path in sorted(Path(extforms.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            funcs = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            inside = {id(n) for f in funcs for n in ast.walk(f)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "numpy" for name in names):
                    assert path.name == "linalg.py", path.name
                    assert id(node) in inside, f"{path.name}:{node.lineno}"


class TestDegreeChecks:
    """A form of the wrong degree is a usage error (exit 2), caught before
    the library is called; a failed check of d omega = beta ^ omega still
    exits 1 with its report (TestClassify.test_hypothesis_violation_fails)."""

    def _usage_error(self, argv, message, capsys):
        report, code = run_command(argv)
        assert report is None and code == 2
        assert message in capsys.readouterr().err

    def test_solve_omega_of_degree_three(self, sample, capsys):
        self._usage_error(["solve", f"{sample}#kappa123", f"{sample}#kappa123"],
                          "solve expects a 2-form omega", capsys)

    def test_solve_kappa_of_degree_one(self, tmp_path, capsys):
        path = tmp_path / "f.form"
        path.write_text("coords: x1, x2, y1, y2\nOmega4 = dx1/\\dx2 + dy1/\\dy2\n"
                        "kappa = 2*dx1 - dy2\n", encoding="utf-8")
        self._usage_error(["solve", f"{path}#Omega4", f"{path}#kappa"],
                          "solve expects kappa of degree 2 to 6", capsys)

    def test_solve_kappa_of_degree_above_dim_plus_two(self, tmp_path, capsys):
        path = tmp_path / "f.form"
        path.write_text("coords: x, y\nw = dx/\\dy\nk = dx/\\dx/\\dx/\\dy/\\dy\n",
                        encoding="utf-8")
        self._usage_error(["solve", f"{path}#w", f"{path}#k"],
                          "solve expects kappa of degree 2 to 4", capsys)

    def test_lee_beta_of_degree_two(self, sample, capsys):
        self._usage_error(["lee", f"{sample}#omega0", "--beta", f"{sample}#omega0"],
                          "lee expects a 1-form beta", capsys)

    def test_classify_beta_of_degree_two(self, sample, capsys):
        self._usage_error(["classify", f"{sample}#omega0", f"{sample}#omega0"],
                          "classify expects a 1-form beta", capsys)

    def test_classify_omega_of_degree_one(self, sample, capsys):
        self._usage_error(["classify", f"{sample}#beta0", f"{sample}#beta0"],
                          "classify expects a 2-form omega", capsys)


class TestArgumentParser:
    def test_built_once_per_process(self):
        from extforms import cli

        assert cli._build_parser() is cli._build_parser()

    def test_parses_leave_no_trace(self, sample):
        first, _ = run_command(["lee", f"{sample}#omega0", "--grid", "x1=0:1:2"])
        second, _ = run_command(["lee", f"{sample}#omega0", "--grid", "x2=0:1:2"])
        third, _ = run_command(["lee", f"{sample}#omega0"])
        assert first["inputs"]["grid_points"] == second["inputs"]["grid_points"] == 54
        assert third["inputs"]["grid_points"] == 81


_TEXT_PIECES = ["a", "Z", "0", " ", "_", '"', "\\", "/", "\n", "\t", "\r", "\x00",
                "\x1f", "\x7f", "é", "∧", " ", "\U0001F600", "dx1/\\dx2"]


def _random_text(rng):
    return "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(0, 6)))


def _random_report_value(rng, depth=0):
    """A report-shaped value: str-keyed dicts, lists and tuples of str,
    int (big ones too), bool and None."""
    r = rng.random()
    if depth < 4 and r < 0.25:
        return {_random_text(rng): _random_report_value(rng, depth + 1)
                for _ in range(rng.randint(0, 4))}
    if depth < 4 and r < 0.45:
        items = [_random_report_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.3 else items
    return rng.choice([
        _random_text(rng), rng.randint(-5, 5), rng.randint(-10**40, 10**40),
        -2**70, True, False, None, {}, [], ()])


def _written(obj) -> str:
    pieces = []
    _write_json(obj, pieces.append)
    return "".join(pieces)


class TestReportWriter:
    def test_matches_json_dumps_on_random_values(self):
        rng = rng_for(9101)
        for _ in range(400):
            value = _random_report_value(rng)
            assert _written(value) == json.dumps(value, sort_keys=True, indent=2)
        # flat arrays: all leaves (written in one join), or leaves mixed
        # with empty containers
        leaves = [True, False, 0, 1, -1, 10**30, None, "", "true", "é\n"]
        for _ in range(400):
            value = [rng.choice(leaves + ([{}, [], ()] if rng.random() < 0.5 else []))
                     for _ in range(rng.randint(1, 6))]
            value = tuple(value) if rng.random() < 0.3 else value
            assert _written(value) == json.dumps(value, sort_keys=True, indent=2)
        assert _written([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]"
        for value in ([1, "a", 1.5], (True, None, 0.5), [float("nan")]):
            with pytest.raises(TypeError):
                _written(value)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], [{}]],
        {"z": 1, "a": True, "m": [False, 0, 1, None]},
        {"é": "∧ \x00\x1f\"\\", "\U0001F600": "\t\r\n"},
        [10**100, -10**100, 2**63, -2**63 - 1],
        "plain", 0, None, True,
    ])
    def test_edge_values(self, value):
        assert _written(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1: "a"}, {"a": {2}},
                                       Fraction(1, 2)])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            _written(value)

    def test_main_writes_the_report_as_json_dump_would(self, sample, capsys):
        report, _ = run_command(["lee", f"{sample}#omega0", "--grid", "x1=0:1:2"])
        main(["lee", f"{sample}#omega0", "--grid", "x1=0:1:2"])
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestGoldenReports:
    @pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
    def test_report_bytes_pinned(self, argv, monkeypatch):
        monkeypatch.chdir(GOLDEN_ROOT)
        assert report_digest(argv) == GOLDEN[argv]

    @pytest.mark.parametrize("path", list(DEMOS))
    def test_demo_bytes_pinned(self, path):
        assert demo_digest(path) == DEMOS[path]

    def test_omega0_grid_agrees_with_the_float_solve(self, monkeypatch):
        """The exact beta of the pinned omega0 grid report, against the float
        beta that the per-point float solve gave at each point before beta0
        was derived (recorded in tests/omega0_grid_float_beta.json)."""
        monkeypatch.chdir(GOLDEN_ROOT)
        report, code = run_command(["lee", "demos/sample_library.form#omega0",
                                    "--grid", "x1=0:1:2"])
        assert code == 0
        recorded = json.loads((GOLDEN_ROOT / "tests" / "omega0_grid_float_beta.json")
                              .read_text(encoding="utf-8"))
        rows = report["results"]["points"]
        assert [",".join(row["point"]) for row in rows] == [point for point, _ in recorded]
        for row, (_, floats) in zip(rows, recorded):
            exact = {str(t["index"][0]): Fraction(t["coeff"]) for t in row["beta"]}
            assert exact == pytest.approx(floats, rel=1e-12, abs=0)
