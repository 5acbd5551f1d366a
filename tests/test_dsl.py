"""Text syntax for symbolic forms: parser, canonical printer, .form files."""

import hashlib
from fractions import Fraction

import pytest

from extforms.dsl import (
    DslError,
    FormSource,
    load_form_file,
    parse_form,
    parse_form_file,
    print_form,
    print_scalar,
)
from extforms.randgen import rng_for
from extforms.symbolic import DiffForm, ScalarExpr, wedge_d

from test_symbolic import random_diff_form

COORDS4 = ("x1", "x2", "y1", "y2")


class TestParse:
    def test_conformal_two_form(self):
        w = parse_form("exp(x1*y1 + x2*y2)*dx1/\\dx2 + dy1/\\dy2", COORDS4)
        n = 4
        f = ScalarExpr.var(0, n) * ScalarExpr.var(2, n) + \
            ScalarExpr.var(1, n) * ScalarExpr.var(3, n)
        dx1, dx2, dy1, dy2 = (DiffForm.differential(i, COORDS4) for i in range(4))
        expected = wedge_d(dx1, dx2).scale(ScalarExpr.exp(f)) + wedge_d(dy1, dy2)
        assert w == expected

    def test_one_form_with_coefficients(self):
        w = parse_form("x1*dy1 + x2*dy2", COORDS4)
        assert w.degree == 1
        assert w.coeffs[1 << 2] == ScalarExpr.var(0, 4)
        assert w.coeffs[1 << 3] == ScalarExpr.var(1, 4)

    def test_negative_power(self):
        w = parse_form("t^-1*dt", ("t", "x"))
        assert w.coeffs[1] == ScalarExpr.var(0, 2, power=-1)

    def test_bare_scalar_is_zero_form(self):
        w = parse_form("3/2 + t", ("t",))
        assert w.degree == 0
        assert w.coeffs[0] == ScalarExpr.const(Fraction(3, 2), 1) + ScalarExpr.var(0, 1)

    def test_unicode_wedge_accepted(self):
        a = parse_form("dx1∧dx2", COORDS4)
        b = parse_form("dx1/\\dx2", COORDS4)
        assert a == b
        assert "∧" not in print_form(a)

    def test_leading_minus(self):
        w = parse_form("-dx1/\\dx2", COORDS4)
        assert w == -parse_form("dx1/\\dx2", COORDS4)

    def test_repeated_differential_is_zero(self):
        w = parse_form("dx1/\\dx1", COORDS4)
        assert w.is_zero() and w.degree == 2

    def test_reordered_differentials_pick_up_sign(self):
        assert parse_form("dx2/\\dx1", COORDS4) == parse_form("-dx1/\\dx2", COORDS4)

    def test_parenthesized_coefficient(self):
        w = parse_form("(x1 + 2*x2)*dy1", COORDS4)
        expected = ScalarExpr.var(0, 4) + ScalarExpr.var(1, 4).scale(2)
        assert w.coeffs[1 << 2] == expected

    def test_form_source_wrapper(self):
        src = FormSource(COORDS4, "dx1/\\dy1")
        assert parse_form(src) == parse_form("dx1/\\dy1", COORDS4)

    def test_coords_required_for_bare_string(self):
        with pytest.raises(TypeError):
            parse_form("dx1/\\dy1")

    def test_invalid_coordinate_names(self):
        with pytest.raises(ValueError):
            parse_form("dx", ("x", "x"))
        with pytest.raises(ValueError):
            parse_form("1", ("exp",))


class TestSignAfterOperator:
    def test_plus_minus_number(self):
        assert parse_form("dx1 + -3*dx2", COORDS4) == \
            parse_form("dx1 - 3*dx2", COORDS4)

    def test_minus_minus_number(self):
        assert parse_form("x1*dx1 - -2*dx2", COORDS4) == \
            parse_form("x1*dx1 + 2*dx2", COORDS4)

    def test_sign_before_differential(self):
        assert parse_form("dx1/\\dy1 + -dx2/\\dy2", COORDS4) == \
            parse_form("dx1/\\dy1 - dx2/\\dy2", COORDS4)
        assert parse_form("dx1 - +dx2", COORDS4) == parse_form("dx1 - dx2", COORDS4)

    def test_inside_scalar_sums(self):
        assert parse_form("(x1 + -x2)*dy1", COORDS4) == \
            parse_form("(x1 - x2)*dy1", COORDS4)
        assert parse_form("exp(x1 - -y1)*dx1", COORDS4) == \
            parse_form("exp(x1 + y1)*dx1", COORDS4)

    def test_printer_keeps_old_spelling(self):
        text = "x1*dx1 - 2*dx2 + dy1"
        w = parse_form(text, COORDS4)
        assert print_form(w) == text
        assert parse_form(print_form(w), COORDS4) == w
        assert parse_form("x1*dx1 + -2*dx2 - -dy1", COORDS4) == w

    def test_leading_double_sign_still_rejected(self):
        with pytest.raises(DslError):
            parse_form("- -dx1", COORDS4)

    def test_third_sign_rejected(self):
        with pytest.raises(DslError):
            parse_form("dx1 + - -dx2", COORDS4)


class TestParseErrors:
    def test_undeclared_coordinate_position(self):
        with pytest.raises(DslError) as ei:
            parse_form("x1*dy1 + z*dy2", COORDS4)
        assert ei.value.line == 1 and ei.value.col == 10

    def test_mixed_degrees(self):
        with pytest.raises(DslError) as ei:
            parse_form("dx1 + dx1/\\dx2", COORDS4)
        assert "mixed degrees" in ei.value.message

    def test_exp_argument_must_be_polynomial(self):
        with pytest.raises(DslError) as ei:
            parse_form("exp(x1^-1)*dx1", COORDS4)
        assert "polynomial" in ei.value.message

    def test_fractional_exponent(self):
        with pytest.raises(DslError) as ei:
            parse_form("x1^1/2*dx1", COORDS4)
        assert "integer" in ei.value.message

    def test_unexpected_character(self):
        with pytest.raises(DslError):
            parse_form("dx1 @ dx2", COORDS4)

    def test_unbalanced_paren(self):
        with pytest.raises(DslError):
            parse_form("(x1 + x2", COORDS4)

    def test_trailing_garbage(self):
        with pytest.raises(DslError):
            parse_form("dx1/\\dx2 dx1", COORDS4)

    def test_differential_inside_scalar(self):
        with pytest.raises(DslError):
            parse_form("exp(dx1)", COORDS4)


class TestPrint:
    def test_canonical_conformal_form(self):
        text = "exp(x1*y1 + x2*y2)*dx1/\\dx2 + dy1/\\dy2"
        assert print_form(parse_form(text, COORDS4)) == text

    def test_zero(self):
        assert print_form(DiffForm.zero(COORDS4, 2)) == "0"
        assert print_scalar(ScalarExpr.zero(4), COORDS4) == "0"

    def test_multi_term_coefficient_parenthesized(self):
        w = parse_form("(x1 + x2)*dy1", COORDS4)
        assert print_form(w) == "(x1 + x2)*dy1"

    def test_round_trip_random(self):
        rng = rng_for(501)
        for _ in range(60):
            n = rng.randint(1, 4)
            coords = tuple(f"u{i}" for i in range(n))
            deg = rng.randint(0, n)
            w = random_diff_form(rng, coords, deg)
            text = print_form(w)
            back = parse_form(text, coords)
            if w.is_zero():
                # the text "0" cannot carry a degree
                assert back.is_zero()
            else:
                assert back == w

    def test_printing_idempotent_random(self):
        rng = rng_for(502)
        for _ in range(40):
            n = rng.randint(1, 4)
            coords = tuple(f"u{i}" for i in range(n))
            w = random_diff_form(rng, coords, rng.randint(0, n),
                                 allow_laurent=True)
            text = print_form(w)
            assert print_form(parse_form(text, coords)) == text

    def test_fuzz_parser_never_crashes(self):
        rng = rng_for(503)
        pieces = ["dx1", "dy1", "/\\", "+", "-", "*", "^", "(", ")",
                  "x1", "2", "1/2", "exp", "z", "@"]
        for _ in range(300):
            text = " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 8)))
            try:
                parse_form(text, COORDS4)
            except DslError:
                pass  # any rejection must be a positioned DslError


# (text, message, line, column) for every DslError raise site, pinned
PARSE_ERRORS = [
    ('dx1 @ dx2', "unexpected character '@'", 1, 5),
    ('(x1 + x2', "expected ')', found 'end of input'", 1, 9),
    ('dx1/\\dx2 dx1', "expected 'end', found 'dx1'", 1, 10),
    ('exp(dx1)', "differential 'dx1' not allowed inside a scalar", 1, 5),
    ('x1*dy1 + z*dy2', "undeclared coordinate 'z'", 1, 10),
    ('dx1 + dx1/\\dx2', 'mixed degrees [1, 2] in one form', 1, 1),
    ('exp(x1^-1)*dx1', 'exp argument must be polynomial: expression has negative exponents', 1, 5),
    ('exp(exp(x1))*dx1', 'exp argument must be polynomial: expression contains an exponential factor', 1, 5),
    ('x1^1/2*dx1', 'exponent must be an integer', 1, 4),
    ('dx1/\\x1', 'expected a coordinate differential', 1, 6),
    ('x1 * )', "unexpected ')'", 1, 6),
    ('', "unexpected 'end of input'", 1, 1),
    ('   ', "unexpected 'end of input'", 1, 4),
    ('x1^', "expected 'num', found 'end of input'", 1, 4),
    ('x1^y1', "expected 'num', found 'y1'", 1, 4),
    ('exp x1', "expected '(', found 'x1'", 1, 5),
    ('exp(x1', "expected ')', found 'end of input'", 1, 7),
    ('x1 + + + x2', "unexpected '+'", 1, 8),
    ('+-dx1', "unexpected '-'", 1, 2),
    ('dx1 - -  - dx2', "unexpected '-'", 1, 10),
    ('x1*dx1\n  + y1*dy1\n  + @', "unexpected character '@'", 3, 5),
    ('\n\n   dx1 +\n dx1/\\dx2', 'mixed degrees [1, 2] in one form', 3, 4),
    ('dx1 +\n exp(\n  x1^-2 )*dx2', 'exp argument must be polynomial: expression has negative exponents', 3, 3),
    ('dx1 +\r\n\t@', "unexpected character '@'", 2, 2),
    ('dx1∧ $', "unexpected character '$'", 1, 6),
    ('2*dx1/\\\n\n  3', 'expected a coordinate differential', 3, 3),
    ('(x1 +\n y1\n', "expected ')', found 'end of input'", 3, 1),
    ('x1 /\n2', "unexpected character '/'", 1, 4),
    ('2*dx1 + 3/0*dx2', 'zero denominator', 1, 9),
    ('exp(x1 -\n  0/0)*dx1', 'zero denominator', 2, 3),
]

FILE_ERRORS = [
    ('omega = dx1/\\dx2\n', "first line must declare 'coords: <comma list>'", 1, 1),
    ('coords: \n', 'empty coordinate list', 1, 1),
    ('coords: , ,\n', 'empty coordinate list', 1, 1),
    ('# nothing here\n', 'empty file: missing coords declaration', 1, 1),
    ('', 'empty file: missing coords declaration', 1, 1),
    ('coords: x\njust an expression\n', "expected '<name> = <expr>'", 2, 1),
    ('coords: x\n1a = dx\n', "invalid form name '1a'", 2, 1),
    ('coords: x\n = dx\n', "invalid form name ''", 2, 1),
    ('coords: x, y\na = dx\na = dy\n', "duplicate form name 'a'", 3, 1),
    ('coords: x, y\ngood = dx\nbad = dz\n', "in form 'bad': undeclared coordinate 'dz'", 3, 2),
    ('coords: x, y\n\n# c\nf =   dx +\t@\n', "in form 'f': unexpected character '@'", 4, 9),
    ('\n\ncoords: x, y\nf = dx/\\dy + dx\n', "in form 'f': mixed degrees [1, 2] in one form", 4, 2),
    ('coords: x, y\nf = dx # fine\ng = (x + y  # open\n', "in form 'g': expected ')', found 'end of input'", 3, 8),
    ('coords: x, x\na = dx\n', "duplicate coordinate 'x'", 1, 1),
    ('coords: 1x, y\na = dy\n', "invalid coordinate name '1x'", 1, 1),
    ('# lib\ncoords: x, exp\n', "invalid coordinate name 'exp'", 2, 1),
    ('coords: x, y\na = 1/0*dx\n', "in form 'a': zero denominator", 2, 2),
]


class TestErrorPositions:
    @pytest.mark.parametrize("text,message,line,col", PARSE_ERRORS)
    def test_parse_form(self, text, message, line, col):
        with pytest.raises(DslError) as ei:
            parse_form(text, COORDS4)
        assert (ei.value.message, ei.value.line, ei.value.col) == (message, line, col)

    @pytest.mark.parametrize("text,message,line,col", FILE_ERRORS)
    def test_parse_form_file(self, text, message, line, col):
        with pytest.raises(DslError) as ei:
            parse_form_file(text)
        assert (ei.value.message, ei.value.line, ei.value.col) == (message, line, col)


def _fuzz_ws(rng):
    return rng.choice(["", "", " ", "  ", "\n", "\t"])


def _fuzz_product(rng, depth, poly=False):
    """A random product of numbers, powers, exp(...) and (...) factors."""
    factors = []
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        if r < 0.3:
            factors.append(rng.choice(["2", "1/2", "3", "5/3", "0"]))
        elif r < 0.7 or depth >= 2:
            powers = ["", "", "^2", "^3"] + ([] if poly else ["^-1"])
            factors.append(rng.choice(COORDS4) + rng.choice(powers))
        elif r < 0.85 and not poly:
            factors.append(f"exp({_fuzz_sum(rng, depth + 1, poly=True)})")
        else:
            factors.append(f"({_fuzz_sum(rng, depth + 1, poly)})")
    return (_fuzz_ws(rng) + "*" + _fuzz_ws(rng)).join(factors)


def _fuzz_sum(rng, depth, poly=False):
    text = rng.choice(["", "", "-"]) + _fuzz_product(rng, depth, poly)
    for _ in range(rng.randint(0, 2)):
        text += (_fuzz_ws(rng) + rng.choice(["+", "-", "+ -", "- -"]) + _fuzz_ws(rng)
                 + _fuzz_product(rng, depth, poly))
    return text


def _fuzz_text(rng):
    """A random form text, with one random insertion or deletion half the time."""
    degree = rng.randint(0, 3)

    def term():
        deg = degree if rng.random() < 0.95 else rng.randint(0, 3)
        if deg == 0:
            return _fuzz_product(rng, 0)
        wedge = "/\\" if rng.random() < 0.8 else "∧"
        diffs = wedge.join("d" + rng.choice(COORDS4) for _ in range(deg))
        if rng.random() < 0.4:
            return diffs
        return _fuzz_product(rng, 0) + _fuzz_ws(rng) + "*" + _fuzz_ws(rng) + diffs

    text = rng.choice(["", "-"]) + term()
    for _ in range(rng.randint(0, 4)):
        text += _fuzz_ws(rng) + rng.choice(["+", "-", "+ -"]) + _fuzz_ws(rng) + term()
    if rng.random() < 0.5:
        i = rng.randint(0, len(text))
        if rng.random() < 0.5:
            piece = rng.choice(["dx1", "dy2", "/\\", "+", "-", "*", "^", "(", ")",
                                "x1", "2", "1/0", "exp", "z", "@", "\n", " "])
            text = text[:i] + piece + text[i:]
        else:
            text = text[:i] + text[i + rng.randint(1, 3):]
    return text


def _outcome(text):
    """The degree and printed form, the DslError triple, or another exception."""
    try:
        w = parse_form(text, COORDS4)
    except DslError as e:
        return f"error {e.message!r} {e.line} {e.col}"
    except Exception as e:  # pinned as well: any other exception
        return f"raise {type(e).__name__} {e}"
    return f"form {w.degree} {print_form(w)}"


class TestFuzzCorpus:
    def test_outcomes_pinned(self):
        rng = rng_for(7007)
        outcomes = [_outcome(_fuzz_text(rng)) for _ in range(1500)]
        kinds = {}
        for o in outcomes:
            kinds[o.split()[0]] = kinds.get(o.split()[0], 0) + 1
        digest = hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()
        assert (kinds, digest) == (FUZZ_KINDS, FUZZ_SHA256)


FUZZ_KINDS = {"error": 717, "form": 783}
FUZZ_SHA256 = "d6d988392fbea0bb3b251103f1de594445036fc695b05bf6d47259b22067a9ef"


GOOD_FILE = """\
# sample library
coords: x1, x2, y1, y2

omega0 = exp(x1*y1 + x2*y2)*dx1/\\dx2 + dy1/\\dy2
beta0 = x1*dy1 + x2*dy2   # trailing comment
"""


class TestFormFiles:
    def test_parse_good_file(self):
        ff = parse_form_file(GOOD_FILE)
        assert ff.coords == COORDS4
        assert set(ff.forms) == {"omega0", "beta0"}
        assert ff["omega0"].degree == 2
        assert ff["beta0"] == parse_form("x1*dy1 + x2*dy2", COORDS4)

    def test_missing_coords_header(self):
        with pytest.raises(DslError) as ei:
            parse_form_file("omega = dx1/\\dx2\n")
        assert "coords" in ei.value.message

    def test_empty_file(self):
        with pytest.raises(DslError):
            parse_form_file("# nothing here\n")

    def test_duplicate_name(self):
        text = "coords: x, y\na = dx\na = dy\n"
        with pytest.raises(DslError) as ei:
            parse_form_file(text)
        assert "duplicate" in ei.value.message and ei.value.line == 3

    def test_bad_expression_reports_line(self):
        text = "coords: x, y\ngood = dx\nbad = dz\n"
        with pytest.raises(DslError) as ei:
            parse_form_file(text)
        assert ei.value.line == 3

    def test_missing_equals(self):
        with pytest.raises(DslError):
            parse_form_file("coords: x\njust an expression\n")

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "sample.form"
        path.write_text(GOOD_FILE, encoding="utf-8")
        ff = load_form_file(path)
        assert set(ff.forms) == {"omega0", "beta0"}
