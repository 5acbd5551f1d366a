r"""Text syntax for symbolic forms.

Grammar (whitespace insensitive)::

    form      := [sign] term (sign [sign] term)*
    term      := (sfactor '*')* wedgeprod | scalar
    wedgeprod := dsym ('/\' dsym)*
    dsym      := 'd' IDENT          -- IDENT a declared coordinate
    scalar    := [sign] sterm (sign [sign] sterm)*
    sterm     := sfactor ('*' sfactor)*
    sfactor   := NUMBER | IDENT ['^' ['-'] INT] | 'exp' '(' scalar ')'
               | '(' scalar ')'
    sign      := '+' | '-'
    NUMBER    := INT ['/' INT]      -- rational literal

``/\`` is the wedge so ``^`` stays free for powers; the unicode wedge is
accepted on input, never emitted.  ``exp`` arguments must be polynomial
(no negative powers, no nested exp).  A bare scalar is a degree-0 form.
A sign may follow a binary '+' or '-', as in ``dx + -3*dy``; the printer
never writes one there.

Tokens are read as their texts alone, from one ``findall`` that skips
whitespace, then "" for the end; the grammar reads a token's kind (num,
ident, wedge, op, end) off its first character.  A text with a character
that no token covers goes to the ``finditer`` tokenizer `_tokenize`, which
raises the DslError for it.  A differential ``d<coord>`` is one dict lookup
of its text, and each term is read as (degree, mask, coefficient) straight
into the form's one coefficient dict.  No offset is kept per token:
`_tokenize` computes them only when a `DslError` is raised.

File format (.form): first line ``coords: <comma list>``, then one named
form per non-empty line as ``<name> = <expr>``; ``#`` starts a comment.
One scan checks that structure on every line; `parse_form_file` parses
each form as the scan reaches it, while `load_form_file`, which the
command line uses, parses a form only when it is first looked up.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .algebra import _acc, shuffle_sign
from .symbolic import DiffForm, ScalarExpr


class DslError(ValueError):
    """Syntax or semantic error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class FormSource(namedtuple("FormSource", "coords body")):
    """A form text (body) over its coordinate names (coords)."""

    __slots__ = ()


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# a token: num, ident, wedge or op, in this order
_TEXT_RE = re.compile(r"\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|/\\|∧|[-+*^()]")
# one match per token, leading whitespace skipped; the last group catches an
# unexpected character, or the empty end of the input
_TOKEN_RE = re.compile(r"\s*(?:(" + _TEXT_RE.pattern + r")|(.|\Z))")


def _position(src: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset into src."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


def _tokenize(src: str) -> list[tuple[str, int]]:
    """(text, offset) of each token, then ("", len(src)) for the end; raises
    the DslError of the first unexpected character."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastindex == 1:
            tokens.append((m.group(1), m.start(1)))
        elif m.group(2):
            raise DslError(f"unexpected character {m.group(2)!r}",
                           *_position(src, m.start(2)))
    tokens.append(("", len(src)))
    return tokens


def _check_coords(coords: tuple[str, ...]) -> None:
    """Raise ValueError unless the names are valid, distinct and not exp."""
    seen = set()
    for c in coords:
        if not _NAME_RE.fullmatch(c) or c == "exp":
            raise ValueError(f"invalid coordinate name {c!r}")
        if c in seen:
            raise ValueError(f"duplicate coordinate {c!r}")
        seen.add(c)


class _Parser:
    """Recursive descent over the token texts of one form text.  Literals
    and negations are built by `ScalarExpr.canonical`, with no zero filter;
    a differential written after all earlier ones of its term needs no
    shuffle sign."""

    def __init__(self, coords: tuple[str, ...], src: str):
        n = len(coords)
        self.coords = coords
        self.n = n
        self.src = src
        self.index = {c: i for i, c in enumerate(coords)}
        self.dbits = {"d" + c: 1 << i for i, c in enumerate(coords)}
        self.zero = (0,) * n
        self.const = (self.zero, ())
        self.texts = _TEXT_RE.findall(src)
        self.texts.append("")
        if "".join(self.texts) != "".join(src.split()):
            # a non-space character that no token covers: _tokenize raises for it
            self.texts = [text for text, _ in _tokenize(src)]
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def error(self, message: str, at: int | None = None) -> DslError:
        """The DslError to raise, at token index `at` or else at the current one."""
        offset = _tokenize(self.src)[self.pos if at is None else at][1]
        return DslError(message, *_position(self.src, offset))

    def expect(self, want: str) -> str:
        """Consume a number for 'num', the end of the input for 'end', else
        the op `want`."""
        t = self.texts[self.pos]
        if not (t[:1].isdecimal() if want == "num" else t == ("" if want == "end" else want)):
            raise self.error(f"expected {want!r}, found {t or 'end of input'!r}")
        self.pos += 1
        return t

    def sign(self) -> int:
        """Consume an optional '+' or '-'; -1 for '-', else 1."""
        text = self.texts[self.pos]
        if text == "+" or text == "-":
            self.pos += 1
            return -1 if text == "-" else 1
        return 1

    def at_sign(self) -> bool:
        text = self.texts[self.pos]
        return text == "+" or text == "-"

    # -- grammar -------------------------------------------------------------

    def parse_form(self) -> DiffForm:
        coeffs: dict = {}
        degrees = set()
        sign = self.sign()
        while True:
            degree, mask, coeff = self.term(sign)
            degrees.add(degree)
            if coeff is not None:
                _acc(coeffs, mask, coeff)
            if not self.at_sign():
                break
            sign = self.sign() * self.sign()  # the binary operator, then a sign after it
        self.expect("end")
        if len(degrees) > 1:
            raise self.error(f"mixed degrees {sorted(degrees)} in one form", 0)
        return DiffForm(self.coords, degrees.pop(), coeffs)

    def term(self, sign: int) -> tuple[int, int, ScalarExpr | None]:
        """(written degree, mask, coefficient) of one term, times sign; the
        degree counts differentials as written, before cancellation, and the
        coefficient is None for a repeated differential."""
        texts, dbits = self.texts, self.dbits
        scalar = None
        while texts[self.pos] not in dbits:
            factor = self.sfactor()
            scalar = factor if scalar is None else scalar * factor
            if texts[self.pos] == "*":
                self.pos += 1
                continue
            # no '*' after a scalar factor: term is scalar-only
            return 0, 0, scalar if sign > 0 else -scalar
        # wedge product of differentials
        mask = 0
        count = 0
        while True:
            bit = dbits.get(texts[self.pos])
            if bit is None:
                raise self.error("expected a coordinate differential")
            self.pos += 1
            count += 1
            if bit > mask:
                mask |= bit
            elif sign:
                sign *= shuffle_sign(mask, bit)
                mask |= bit
            if texts[self.pos] not in ("/\\", "∧"):
                break
            self.pos += 1
        if not sign:
            return count, mask, None
        if scalar is None:
            return count, mask, ScalarExpr.canonical(self.n, {self.const: Fraction(sign)})
        return count, mask, scalar if sign > 0 else -scalar

    def scalar_sum(self) -> ScalarExpr:
        sign = self.sign()
        acc = self.sterm()
        if sign < 0:
            acc = -acc
        while self.at_sign():
            sign = self.sign() * self.sign()  # the binary operator, then a sign after it
            t = self.sterm()
            acc = acc + (t if sign > 0 else -t)
        return acc

    def sterm(self) -> ScalarExpr:
        texts = self.texts
        acc = self.sfactor()
        while texts[self.pos] == "*":
            if texts[self.pos + 1] in self.dbits:
                # differential belongs to the enclosing form term
                break
            self.pos += 1
            acc = acc * self.sfactor()
        return acc

    def sfactor(self) -> ScalarExpr:
        n = self.n
        text = self.texts[self.pos]
        if text[:1].isdecimal():
            num, _, den = text.partition("/")
            if den and not int(den):
                raise self.error("zero denominator")
            self.pos += 1
            value = Fraction(int(num), int(den or 1))
            return ScalarExpr.canonical(n, {self.const: value} if value else {})
        if text == "(":
            self.pos += 1
            inner = self.scalar_sum()
            self.expect(")")
            return inner
        if text[:1] == "_" or text[:1].isalpha():  # an identifier
            if text == "exp":
                self.pos += 1
                self.expect("(")
                arg_at = self.pos
                arg = self.scalar_sum()
                self.expect(")")
                try:
                    poly = arg.as_polynomial()
                except ValueError as e:
                    raise self.error(f"exp argument must be polynomial: {e}",
                                     arg_at) from None
                return ScalarExpr(n, {(self.zero, poly): Fraction(1)})
            i = self.index.get(text)
            if i is not None:
                self.pos += 1
                power = 1
                if self.texts[self.pos] == "^":
                    self.pos += 1
                    neg = self.texts[self.pos] == "-"
                    if neg:
                        self.pos += 1
                    ptext = self.expect("num")
                    if "/" in ptext:
                        raise self.error("exponent must be an integer", self.pos - 1)
                    power = -int(ptext) if neg else int(ptext)
                mono = self.zero[:i] + (power,) + self.zero[i + 1:]
                return ScalarExpr(n, {(mono, ()): Fraction(1)})
            if text in self.dbits:
                raise self.error(f"differential {text!r} not allowed inside a scalar")
            raise self.error(f"undeclared coordinate {text!r}")
        raise self.error(f"unexpected {text or 'end of input'!r}")


def parse_form(source: FormSource | str, coords=None) -> DiffForm:
    """Parse a single form expression against declared coordinates."""
    if isinstance(source, FormSource):
        coords = tuple(source.coords)
        body = source.body
    else:
        if coords is None:
            raise TypeError("coords required when passing a bare string")
        coords = tuple(coords)
        body = source
    _check_coords(coords)
    return _Parser(coords, body).parse_form()


# ---------------------------------------------------------------------------
# canonical printing

def _print_mono_factors(mono, coords) -> list[str]:
    out = []
    for name, e in zip(coords, mono):
        if e == 1:
            out.append(name)
        elif e != 0:
            out.append(f"{name}^{e}")
    return out


def _join(pieces) -> str:
    """Sum text from (sign, body) pieces: a leading '-' only, then
    ' {sign} {body}' for each further piece; "0" when there are none."""
    if not pieces:
        return "0"
    (sign, first), rest = pieces[0], pieces[1:]
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {b}" for s, b in rest)


def _term(c: Fraction, factors: list[str]) -> tuple[str, str]:
    """(sign, body) for c times the product of the factors."""
    if not factors:
        body = str(abs(c))
    elif abs(c) == 1:
        body = "*".join(factors)
    else:
        body = "*".join([str(abs(c))] + factors)
    return ("-" if c < 0 else "+", body)


def _print_poly(p: Poly, coords) -> str:
    return _join([_term(c, _print_mono_factors(mono, coords)) for mono, c in p])


def _scalar_term_str(key, c: Fraction, coords) -> tuple[str, str]:
    """(sign, body) for one ScalarExpr term."""
    mono, p = key
    factors = _print_mono_factors(mono, coords)
    if p:
        factors.append(f"exp({_print_poly(p, coords)})")
    return _term(c, factors)


def print_scalar(se: ScalarExpr, coords) -> str:
    return _join([_scalar_term_str(k, se.terms[k], coords)
                  for k in sorted(se.terms, reverse=True)])


def print_form(omega: DiffForm) -> str:
    r"""Canonical text: multi-indices lexicographic, scalar terms sorted;
    round-trips through parse_form, except that a zero form of positive
    degree prints as "0", which parses back as a 0-form."""
    coords = omega.coords
    chunks = []
    for idx, se in omega.terms():
        wedge_txt = "/\\".join(f"d{coords[i - 1]}" for i in idx)
        keys = sorted(se.terms, reverse=True)
        if not idx:
            chunks.append(("+", print_scalar(se, coords) if len(keys) == 1
                           else f"({print_scalar(se, coords)})"))
            continue
        if len(keys) == 1:
            k = keys[0]
            sign, body = _scalar_term_str(k, se.terms[k], coords)
            text = wedge_txt if body == "1" else f"{body}*{wedge_txt}"
            chunks.append((sign, text))
        else:
            chunks.append(("+", f"({print_scalar(se, coords)})*{wedge_txt}"))
    return _join(chunks)


# ---------------------------------------------------------------------------
# .form files

class _LazyForms(Mapping):
    """name -> DiffForm over the lines `_scan` yields, name -> (line number,
    expr, offset); a form is parsed the first time it is looked up."""

    def __init__(self, coords: tuple[str, ...], lines: dict[str, tuple[int, str, int]]):
        self._coords = coords
        self._lines = lines
        self._parsed: dict[str, DiffForm] = {}

    def __getitem__(self, name: str) -> DiffForm:
        form = self._parsed.get(name)
        if form is None:
            form = self._parsed[name] = _parse_line(self._coords, name, *self._lines[name])
        return form

    def __contains__(self, name) -> bool:
        return name in self._lines

    def __iter__(self):
        return iter(self._lines)

    def __len__(self) -> int:
        return len(self._lines)


class FormFile(namedtuple("FormFile", "coords forms")):
    """The coordinate names of a .form file and its forms by name."""

    __slots__ = ()

    def __getitem__(self, name: str) -> DiffForm:
        return self.forms[name]


def _scan(text: str):
    """The structural check of a .form text, line by line: the coords line,
    then `name = expr` lines with valid, distinct names.  Yields the coords,
    then (name, (line number, expr, offset)) per form line, where expr is
    the text after '=' and offset the file column of the '='; no expr is
    parsed."""
    coords = None
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if coords is None:
            if not line.startswith("coords:"):
                raise DslError("first line must declare 'coords: <comma list>'",
                               lineno, 1)
            coords = tuple(c.strip() for c in line[len("coords:"):].split(",") if c.strip())
            if not coords:
                raise DslError("empty coordinate list", lineno, 1)
            try:
                _check_coords(coords)
            except ValueError as e:
                raise DslError(str(e), lineno, 1) from None
            yield coords
            continue
        if "=" not in line:
            raise DslError("expected '<name> = <expr>'", lineno, 1)
        name, expr = line.split("=", 1)
        name = name.strip()
        if not _NAME_RE.fullmatch(name):
            raise DslError(f"invalid form name {name!r}", lineno, 1)
        if name in names:
            raise DslError(f"duplicate form name {name!r}", lineno, 1)
        names.add(name)
        # the indent and everything up to and including '='
        yield name, (lineno, expr, len(raw) - len(raw.lstrip()) + line.index("=") + 1)
    if coords is None:
        raise DslError("empty file: missing coords declaration", 1, 1)


def _parse_line(coords, name: str, lineno: int, expr: str, offset: int) -> DiffForm:
    """The form of one scanned line; coords were checked by the scan."""
    try:
        return _Parser(coords, expr).parse_form()
    except DslError as e:
        # e.col counts from the character after '='
        raise DslError(f"in form {name!r}: {e.message}", lineno, e.col + offset) from None


def parse_form_file(text: str) -> FormFile:
    """Parse the .form file format into named forms, every form as its
    line is reached, so the first error in the file is the one raised.
    `load_form_file` parses a form only when it is looked up."""
    scan = _scan(text)
    coords = next(scan)
    return FormFile(coords, {name: _parse_line(coords, name, *line) for name, line in scan})


def load_form_file(path) -> FormFile:
    """The .form file at path, structurally checked in full, with each form
    parsed the first time it is looked up: its DslError, the one
    `parse_form_file` raises, comes then, and never for a form not looked up."""
    with open(path, encoding="utf-8") as fh:
        scan = _scan(fh.read())
    coords = next(scan)
    return FormFile(coords, _LazyForms(coords, dict(scan)))
