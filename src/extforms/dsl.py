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

File format (.form): first line ``coords: <comma list>``, then one named
form per non-empty line as ``<name> = <expr>``; ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import _acc, shuffle_sign
from .symbolic import DiffForm, Poly, ScalarExpr


class DslError(ValueError):
    """Syntax or semantic error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class FormSource:
    coords: tuple[str, ...]
    body: str


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<wedge>/\\|∧)"
    r"|(?P<op>[-+*^()])"
)


@dataclass
class _Token:
    kind: str   # num | ident | wedge | op | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise DslError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            # a number like 3/ followed by non-digit: regex already refuses
            tokens.append(_Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, coords: tuple[str, ...], tokens: list[_Token]):
        self.coords = coords
        self.index = {c: i for i, c in enumerate(coords)}
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise DslError(f"expected {want!r}, found {t.text or 'end of input'!r}",
                           t.line, t.col)
        return self.next()

    def error(self, message: str):
        t = self.peek()
        raise DslError(message, t.line, t.col)

    def sign(self) -> int:
        """Consume an optional '+' or '-'; -1 for '-', else 1."""
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.next()
            return -1 if t.text == "-" else 1
        return 1

    def _is_dsym(self, t: _Token) -> bool:
        return t.kind == "ident" and len(t.text) > 1 and t.text[0] == "d" \
            and t.text[1:] in self.index

    # -- grammar -------------------------------------------------------------

    def parse_form(self) -> DiffForm:
        first_tok = self.peek()
        terms = [(self.sign(), self.term())]
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = self.sign()   # the binary operator
            sign *= self.sign()  # and a sign after it
            terms.append((sign, self.term()))
        self.expect("end")
        degrees = {deg for _, (deg, _) in terms}
        if len(degrees) > 1:
            raise DslError(f"mixed degrees {sorted(degrees)} in one form",
                           first_tok.line, first_tok.col)
        coeffs: dict = {}
        for s, (_, form) in terms:
            for m, c in form.coeffs.items():
                _acc(coeffs, m, c if s > 0 else -c)
        return DiffForm(self.coords, degrees.pop(), coeffs)

    def term(self) -> tuple[int, DiffForm]:
        """Returns (written degree, form); the degree counts differentials
        as written, before cancellation."""
        n = len(self.coords)
        scalar = ScalarExpr.const(1, n)
        while not self._is_dsym(self.peek()):
            scalar = scalar * self.sfactor()
            if self.peek().kind == "op" and self.peek().text == "*":
                self.next()
                continue
            # no '*' after a scalar factor: term is scalar-only
            return 0, DiffForm.from_scalar(scalar, self.coords)
        # wedge product of differentials
        mask = 0
        sign = 1
        count = 0
        while True:
            t = self.peek()
            if not self._is_dsym(t):
                self.error("expected a coordinate differential")
            self.next()
            bit = 1 << self.index[t.text[1:]]
            if sign != 0:
                sign *= shuffle_sign(mask, bit)
                mask |= bit
            count += 1
            if self.peek().kind == "wedge":
                self.next()
                continue
            break
        if sign == 0:
            return count, DiffForm.zero(self.coords, count)
        se = scalar if sign > 0 else -scalar
        return count, DiffForm(self.coords, count, {mask: se})

    def scalar_sum(self) -> ScalarExpr:
        sign = self.sign()
        acc = self.sterm()
        if sign < 0:
            acc = -acc
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = self.sign()   # the binary operator
            sign *= self.sign()  # and a sign after it
            t = self.sterm()
            acc = acc + (t if sign > 0 else -t)
        return acc

    def sterm(self) -> ScalarExpr:
        acc = self.sfactor()
        while self.peek().kind == "op" and self.peek().text == "*":
            save = self.pos
            self.next()
            if self._is_dsym(self.peek()):
                # differential belongs to the enclosing form term
                self.pos = save
                break
            acc = acc * self.sfactor()
        return acc

    def sfactor(self) -> ScalarExpr:
        n = len(self.coords)
        t = self.peek()
        if t.kind == "num":
            self.next()
            return ScalarExpr.const(Fraction(t.text), n)
        if t.kind == "op" and t.text == "(":
            self.next()
            inner = self.scalar_sum()
            self.expect("op", ")")
            return inner
        if t.kind == "ident":
            if t.text == "exp":
                self.next()
                self.expect("op", "(")
                arg_tok = self.peek()
                arg = self.scalar_sum()
                self.expect("op", ")")
                try:
                    poly = arg.as_polynomial()
                except ValueError as e:
                    raise DslError(f"exp argument must be polynomial: {e}",
                                   arg_tok.line, arg_tok.col) from None
                return ScalarExpr(n, {((0,) * n, poly): Fraction(1)})
            if t.text in self.index:
                self.next()
                power = 1
                if self.peek().kind == "op" and self.peek().text == "^":
                    self.next()
                    neg = False
                    if self.peek().kind == "op" and self.peek().text == "-":
                        self.next()
                        neg = True
                    ptok = self.expect("num")
                    if "/" in ptok.text:
                        raise DslError("exponent must be an integer",
                                       ptok.line, ptok.col)
                    power = -int(ptok.text) if neg else int(ptok.text)
                return ScalarExpr.var(self.index[t.text], n, power)
            if self._is_dsym(t):
                self.error(f"differential {t.text!r} not allowed inside a scalar")
            raise DslError(f"undeclared coordinate {t.text!r}", t.line, t.col)
        self.error(f"unexpected {t.text or 'end of input'!r}")


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
    seen = set()
    for c in coords:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", c) or c == "exp":
            raise ValueError(f"invalid coordinate name {c!r}")
        if c in seen:
            raise ValueError(f"duplicate coordinate {c!r}")
        seen.add(c)
    return _Parser(coords, _tokenize(body)).parse_form()


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

@dataclass(frozen=True)
class FormFile:
    coords: tuple[str, ...]
    forms: dict[str, DiffForm]

    def __getitem__(self, name: str) -> DiffForm:
        return self.forms[name]


def parse_form_file(text: str) -> FormFile:
    """Parse the .form file format into named forms."""
    lines = text.splitlines()
    coords = None
    forms: dict[str, DiffForm] = {}
    for lineno, raw in enumerate(lines, start=1):
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
            continue
        if "=" not in line:
            raise DslError("expected '<name> = <expr>'", lineno, 1)
        name, expr = line.split("=", 1)
        name = name.strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise DslError(f"invalid form name {name!r}", lineno, 1)
        if name in forms:
            raise DslError(f"duplicate form name {name!r}", lineno, 1)
        try:
            forms[name] = parse_form(expr, coords)
        except DslError as e:
            raise DslError(f"in form {name!r}: {e.message}", lineno, e.col) from None
    if coords is None:
        raise DslError("empty file: missing coords declaration", 1, 1)
    return FormFile(coords, forms)


def load_form_file(path) -> FormFile:
    with open(path, encoding="utf-8") as fh:
        return parse_form_file(fh.read())
