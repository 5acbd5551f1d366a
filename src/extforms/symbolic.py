"""Symbolic differential forms with exact coefficients.

Coefficients live in the ring of finite sums  c * x^a * exp(P(x))  where c
is rational, x^a is a Laurent monomial in the named coordinates, and P is a
polynomial with rational coefficients.  The ring is closed under sums,
products and partial derivatives, and terms with distinct (monomial, P)
keys are linearly independent, so zero testing is canonical-form comparison
with no heuristics.

Pointwise evaluation goes through a plan, compiled once per command:
each Laurent monomial and each exponent polynomial is interned to an index,
and each coefficient is stored as (c, monomial id, exponent id) triples.
`lee_solve` compiles omega and the wedge powers, and d omega and the Lee
form at the first point that needs them, and `classify_theorem_sets` the
powers of omega and of d beta, once per call;
a one-off evaluation compiles the one form or scalar it is given.  At each
point a table holds every monomial as an integer numerator and
denominator and every exponent as a Fraction.  A coefficient whose terms
share one exponent (every coefficient of e^g * theta) is an integer sum
with one Fraction at the end; a coefficient with several is grouped by the
exponent's value, in the order its terms first make each group nonzero,
which is the order of the float sum.  Values stay exact.  `eval_scaled`
reads forms at a point divided by one common e^q, exactly, where every
nonzero one has that one exponential value there, else as `eval_at`'s
floats.  `rank_at` scans the wedge powers from the top down and stops at
the first one that is nonzero at the point (omega^(m+1) = omega^m ^
omega), after checking omega itself for a pole, which the top power may
have cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import exp as _math_exp
from math import isfinite
from random import Random

from .algebra import ExtForm, _acc, _Form, _wedge, shuffle_sign
from .linalg import clear_denominators, echelon

Mono = tuple[int, ...]             # Laurent exponents, one per coordinate
Poly = tuple[tuple[Mono, Fraction], ...]  # canonical: sorted desc, no zeros
Key = tuple[Mono, Poly]


class PoleError(ArithmeticError):
    """Negative Laurent exponent evaluated at a zero coordinate."""


def _poly_add(a: Poly, b: Poly) -> Poly:
    acc = dict(a)
    for m, c in b:
        _acc(acc, m, c)
    return tuple(sorted(acc.items(), reverse=True))


def _poly_scale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return ()
    return tuple((m, c * v) for m, v in a)


def _poly_diff(a: Poly, i: int) -> Poly:
    out = {}
    for m, c in a:
        if m[i]:
            _acc(out, m[:i] + (m[i] - 1,) + m[i + 1:], c * m[i])
    return tuple(sorted(out.items(), reverse=True))


class _Plan:
    """Forms and coefficients compiled for pointwise evaluation.

    Each Laurent monomial and each exponent polynomial is interned to an
    index, and each coefficient is compiled once into (neg, exp, terms): neg
    has bit i set when a term divides by coordinate i, and terms are
    (numerator, denominator, mono id) triples of integers when every term
    shares the one exponent `exp`, else (numerator, denominator, mono id,
    exp id) with exp None.  Compiled objects are memoised by identity (and
    kept alive here), so a plan built once per command serves every point.
    """

    __slots__ = ("ncoords", "monos", "mono_pairs", "mono_neg", "exps", "exp_terms",
                 "_done")

    def __init__(self, ncoords: int, forms=()):
        self.ncoords = ncoords
        self.monos: dict[Mono, int] = {}
        self.mono_pairs: list[list[tuple[int, int]]] = []   # (coord, exponent)
        self.mono_neg: list[int] = []
        self.exps: dict[tuple, int] = {}
        self.exp_terms: list[tuple] = []
        self._done: dict[int, tuple] = {}
        for form in forms:
            self.form(form)

    def _mono(self, mono: Mono) -> int:
        i = self.monos.get(mono)
        if i is None:
            i = self.monos[mono] = len(self.mono_pairs)
            self.mono_pairs.append([(j, e) for j, e in enumerate(mono) if e])
            self.mono_neg.append(sum(1 << j for j, e in enumerate(mono) if e < 0)
                                 if min(mono, default=0) < 0 else 0)
        return i

    def _exp(self, p: Poly) -> int:
        # keyed by integers: hashing the Fractions of p costs more
        key = tuple([(m, *c.as_integer_ratio()) for m, c in p])
        i = self.exps.get(key)
        if i is None:
            i = self.exps[key] = len(self.exp_terms)
            self.exp_terms.append(tuple((a, b, self._mono(m)) for m, a, b in key))
        return i

    def scalar(self, se: "ScalarExpr") -> tuple:
        got = self._done.get(id(se))
        if got is None:
            if se.ncoords != self.ncoords:
                raise ValueError("point dimension mismatch")
            terms = []
            neg = 0
            for (m, p), c in se.terms.items():
                i = self._mono(m)
                neg |= self.mono_neg[i]
                terms.append((*c.as_integer_ratio(), i, self._exp(p)))
            e = terms[0][3] if terms else None
            if all(t[3] == e for t in terms):
                compiled = (neg, e, [t[:3] for t in terms])
            else:
                compiled = (neg, None, terms)
            got = self._done[id(se)] = (se, compiled)
        return got[1]

    def form(self, omega: "DiffForm") -> tuple:
        """(neg of all coefficients, [(mask, compiled coefficient), ...])."""
        got = self._done.get(id(omega))
        if got is None:
            coeffs = [(m, self.scalar(c)) for m, c in omega.coeffs.items()]
            neg = 0
            for _, (cneg, _, _) in coeffs:
                neg |= cneg
            got = self._done[id(omega)] = (omega, (neg, coeffs))
        return got[1]


def _pole():
    return PoleError("negative power of a vanishing coordinate")


class _PointValues:
    """One point's values for a plan: each interned monomial as an integer
    numerator and denominator, each exponent polynomial as a Fraction.

    A coefficient with one exponent is an integer sum over its terms and
    one Fraction at the end; a coefficient with several keeps the groups
    {P(x): sum} in the order its terms first make them nonzero, which is
    the order of the float sum.  Without a plan the table gets its own, and
    catches up with whatever is compiled into the plan after it was built.
    """

    __slots__ = ("plan", "pnum", "pden", "zeros", "num", "den", "q")

    def __init__(self, point, plan: _Plan | None = None):
        # whatever Fraction() takes; ints and Fractions need no conversion
        ratios = [(x if type(x) in (int, Fraction) else Fraction(x)).as_integer_ratio()
                  for x in point]
        if plan is None:
            plan = _Plan(len(ratios))
        elif len(ratios) != plan.ncoords:
            raise ValueError("point dimension mismatch")
        self.plan = plan
        self.pnum = [a for a, _ in ratios]
        self.pden = [b for _, b in ratios]
        self.zeros = sum(1 << i for i, a in enumerate(self.pnum) if not a)
        self.num: list[int] = []
        self.den: list[int] = []
        self.q: list[Fraction] = []
        self._fill()

    def _fill(self):
        """Compute whatever the plan has interned since the last fill."""
        plan, pnum, pden = self.plan, self.pnum, self.pden
        for pairs in plan.mono_pairs[len(self.num):]:
            a = b = 1
            for i, e in pairs:
                if e > 0:
                    a *= pnum[i] ** e
                    b *= pden[i] ** e
                else:   # a pole leaves b = 0, but its coefficient raises first
                    a *= pden[i] ** -e
                    b *= pnum[i] ** -e
            self.num.append(a)
            self.den.append(b)
        for terms in plan.exp_terms[len(self.q):]:
            a, b = self._sum(terms)
            self.q.append(Fraction(a, b))

    def _sum(self, terms) -> tuple[int, int]:
        """sum of c * x^a over (c numerator, c denominator, mono id) terms,
        as an integer numerator and denominator, not reduced."""
        nums, dens = self.num, self.den
        num, den = 0, 1
        for cn, cd, m in terms:
            vn = nums[m]
            if vn:
                d = cd * dens[m]
                num = num * d + cn * vn * den
                den *= d
        return num, den

    def _groups(self, terms) -> dict[Fraction, Fraction]:
        groups: dict[Fraction, Fraction] = {}
        for cn, cd, m, e in terms:
            vn = self.num[m]
            if vn:
                _acc(groups, self.q[e], Fraction(cn * vn, cd * self.den[m]))
        return groups

    def groups(self, compiled) -> dict[Fraction, Fraction]:
        _, e, terms = compiled
        if e is None:
            return self._groups(terms)
        num, den = self._sum(terms)
        return {self.q[e]: Fraction(num, den)} if num else {}

    def is_zero(self, compiled) -> bool:
        _, e, terms = compiled
        if e is None:
            return not self._groups(terms)
        return not self._sum(terms)[0]

    def value(self, compiled):
        """Exact Fraction when no exponential survives, else a float;
        OverflowError when that float, or a part of it, is out of range."""
        _, e, terms = compiled
        if e is None:
            return _group_value(self._groups(terms))
        num, den = self._sum(terms)
        if not num:
            return Fraction(0)
        if not self.q[e]:
            return Fraction(num, den)
        # num / den is float(Fraction(num, den)), both correctly rounded; the
        # + 0.0 is the start of sum() in _group_value, which reads -0.0 as 0.0
        return _finite(num / den * _math_exp(float(self.q[e])) + 0.0)


def _group_value(groups: dict[Fraction, Fraction]):
    if not groups:
        return Fraction(0)
    if len(groups) == 1 and 0 in groups:
        return groups[0]
    return _finite(sum(float(c) * _math_exp(float(q)) for q, c in groups.items()))


def _finite(value: float) -> float:
    """value, or OverflowError, as math.exp raises past the float range."""
    if not isfinite(value):
        raise OverflowError("value out of the float range")
    return value


def _compiled(point, obj) -> tuple[_PointValues, tuple]:
    """The value table for a point (the table itself when given one), and
    obj, a ScalarExpr or a DiffForm, compiled into the table's plan.

    Raises PoleError when obj has a negative power of a coordinate that is
    0 at the point, whichever coefficient or term carries it."""
    vals = point if isinstance(point, _PointValues) else _PointValues(point)
    plan = vals.plan
    compiled = plan.scalar(obj) if isinstance(obj, ScalarExpr) else plan.form(obj)
    if compiled[0] & vals.zeros:
        raise _pole()
    # the plan's tables grow only while something new is compiled into it
    if len(vals.num) < len(plan.mono_pairs) or len(vals.q) < len(plan.exp_terms):
        vals._fill()
    return vals, compiled


class ScalarExpr:
    """Finite sum of rational * Laurent monomial * exp(polynomial)."""

    __slots__ = ("ncoords", "terms")

    def __init__(self, ncoords: int, terms: dict[Key, Fraction]):
        self.ncoords = ncoords
        self.terms = {k: v for k, v in terms.items() if v}

    # -- constructors --------------------------------------------------------

    @classmethod
    def canonical(cls, ncoords: int, terms: dict[Key, Fraction]) -> "ScalarExpr":
        """The expression on terms that hold no zero value, taken as they are:
        no zero filter and no copy."""
        se = object.__new__(cls)
        se.ncoords = ncoords
        se.terms = terms
        return se

    @staticmethod
    def zero(ncoords: int) -> "ScalarExpr":
        return ScalarExpr(ncoords, {})

    @staticmethod
    def const(c, ncoords: int) -> "ScalarExpr":
        c = Fraction(c)
        key = ((0,) * ncoords, ())
        return ScalarExpr(ncoords, {key: c} if c else {})

    @staticmethod
    def var(i: int, ncoords: int, power: int = 1) -> "ScalarExpr":
        """Laurent power of the i-th coordinate (0-based)."""
        mono = tuple(power if j == i else 0 for j in range(ncoords))
        return ScalarExpr(ncoords, {(mono, ()): Fraction(1)})

    @staticmethod
    def exp(poly: "ScalarExpr") -> "ScalarExpr":
        """exp of a polynomial argument (no Laurent poles, no nested exp)."""
        p = poly.as_polynomial()
        mono = (0,) * poly.ncoords
        return ScalarExpr(poly.ncoords, {(mono, p): Fraction(1)})

    def as_polynomial(self) -> Poly:
        """This expression as a plain polynomial; raises if it is not one."""
        out = {}
        for (mono, p), c in self.terms.items():
            if p:
                raise ValueError("expression contains an exponential factor")
            if any(e < 0 for e in mono):
                raise ValueError("expression has negative exponents")
            _acc(out, mono, c)
        return tuple(sorted(out.items(), reverse=True))

    # -- ring structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.ncoords == other.ncoords and self.terms == other.terms

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return ScalarExpr(self.ncoords, out)

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        return self + (-other)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr.canonical(self.ncoords, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "ScalarExpr") -> "ScalarExpr":
        self._check(other)
        out: dict[Key, Fraction] = {}
        for (ma, pa), ca in self.terms.items():
            for (mb, pb), cb in other.terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                _acc(out, (mono, _poly_add(pa, pb)), ca * cb)
        return ScalarExpr(self.ncoords, out)

    def scale(self, c) -> "ScalarExpr":
        c = Fraction(c)
        if not c:
            return ScalarExpr.zero(self.ncoords)
        return ScalarExpr(self.ncoords, {k: c * v for k, v in self.terms.items()})

    def diff(self, i: int) -> "ScalarExpr":
        """Partial derivative with respect to the i-th coordinate (0-based)."""
        out: dict[Key, Fraction] = {}
        for (mono, p), c in self.terms.items():
            if mono[i]:
                dm = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                _acc(out, (dm, p), c * mono[i])
            for pm, pc in _poly_diff(p, i):
                nm = tuple(x + y for x, y in zip(mono, pm))
                _acc(out, (nm, p), c * pc)
        return ScalarExpr(self.ncoords, out)

    # -- pointwise evaluation ------------------------------------------------

    def eval_groups(self, point) -> dict[Fraction, Fraction]:
        """Exact value grouped by exponent: {q: c} means sum of c * e^q.

        Raises PoleError when a negative Laurent power meets a zero
        coordinate.
        """
        vals, compiled = _compiled(point, self)
        return vals.groups(compiled)

    def is_zero_at(self, point) -> bool:
        """Exact zero test at a rational point (e^q terms never cancel across q)."""
        vals, compiled = _compiled(point, self)
        return vals.is_zero(compiled)

    def eval_at(self, point):
        """Exact Fraction when no exponential survives, else a float."""
        vals, compiled = _compiled(point, self)
        return vals.value(compiled)

    def is_constant(self) -> bool:
        zero_mono = (0,) * self.ncoords
        return all(k == (zero_mono, ()) for k in self.terms)

    def _check(self, other: "ScalarExpr"):
        if self.ncoords != other.ncoords:
            raise ValueError("coordinate count mismatch")

    def __repr__(self) -> str:
        return f"ScalarExpr({self.terms!r})"


def try_divide(a: ScalarExpr, b: ScalarExpr, max_steps: int = 256) -> ScalarExpr | None:
    """Exact quotient a / b in the ring, or None when it does not exist.

    Single-term divisors always divide (Laurent exponents may go negative);
    multi-term divisors are handled by leading-term reduction with a step
    bound, and the caller should verify the product.
    """
    a._check(b)
    n = a.ncoords
    if b.is_zero():
        return None
    if a.is_zero():
        return ScalarExpr.zero(n)
    if len(b.terms) == 1:
        ((mb, pb), cb), = b.terms.items()
        out = {}
        for (ma, pa), ca in a.terms.items():
            mono = tuple(x - y for x, y in zip(ma, mb))
            key = (mono, _poly_add(pa, _poly_scale(pb, Fraction(-1))))
            out[key] = ca / cb
        return ScalarExpr(n, out)
    lead_b = max(b.terms)
    cb = b.terms[lead_b]
    rem = a
    quot = ScalarExpr.zero(n)
    for _ in range(max_steps):
        if rem.is_zero():
            return quot
        lead_r = max(rem.terms)
        mono = tuple(x - y for x, y in zip(lead_r[0], lead_b[0]))
        key = (mono, _poly_add(lead_r[1], _poly_scale(lead_b[1], Fraction(-1))))
        t = ScalarExpr(n, {key: rem.terms[lead_r] / cb})
        quot = quot + t
        rem = rem - t * b
    return None


# ---------------------------------------------------------------------------
# differential forms

class DiffForm(_Form):
    """Homogeneous exterior form with ScalarExpr coefficients over named
    coordinates; sparse over bitmask multi-indices, immutable by convention."""

    __slots__ = ("coords",)
    _SPACE = "coordinate list"

    def __init__(self, coords, degree: int, coeffs: dict[int, ScalarExpr]):
        self.coords = tuple(coords)
        super().__init__(len(self.coords), degree, {m: c for m, c in coeffs.items() if c})
        if self.coeffs and degree > self.dim:
            raise ValueError("nonzero form of degree exceeding coordinate count")

    def _space(self):
        return self.coords

    def _like(self, degree: int, coeffs: dict) -> "DiffForm":
        return DiffForm(self.coords, degree, coeffs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(coords, degree: int) -> "DiffForm":
        return DiffForm(coords, degree, {})

    @staticmethod
    def from_scalar(se: ScalarExpr, coords) -> "DiffForm":
        return DiffForm(coords, 0, {0: se})

    @staticmethod
    def differential(i: int, coords) -> "DiffForm":
        """dx_i for the i-th coordinate (0-based)."""
        n = len(coords)
        return DiffForm(coords, 1, {1 << i: ScalarExpr.const(1, n)})

    def scale(self, se: ScalarExpr) -> "DiffForm":
        return DiffForm(self.coords, self.degree,
                        {m: se * c for m, c in self.coeffs.items()})

    def __repr__(self) -> str:
        from .dsl import print_form
        return f"DiffForm({self.coords!r}, {print_form(self)!r})"


def wedge_d(a: DiffForm, b: DiffForm) -> DiffForm:
    """Wedge product of symbolic forms."""
    return _wedge(a, b)


def wedge_d_all(forms) -> DiffForm:
    return reduce(wedge_d, forms)


def exterior_derivative(omega: DiffForm) -> DiffForm:
    """d omega: coefficient-wise partials wedged with coordinate differentials."""
    out: dict[int, ScalarExpr] = {}
    for mask, c in omega.coeffs.items():
        for i in range(omega.dim):
            bit = 1 << i
            if mask & bit:
                continue
            dc = c.diff(i)
            if dc:
                _acc(out, bit | mask, dc if shuffle_sign(bit, mask) > 0 else -dc)
    return DiffForm(omega.coords, omega.degree + 1, out)


def eval_at(omega: DiffForm, point) -> ExtForm:
    """Pointwise reading of a symbolic form as a numeric ExtForm.

    Exact rational when every exponential evaluates at 0; otherwise all
    coefficients are floats, and OverflowError is raised when one of them
    is out of the float range.
    """
    vals, (_, coeffs) = _compiled(point, omega)
    out = {m: vals.value(c) for m, c in coeffs}
    if any(isinstance(v, float) for v in out.values()):
        out = {m: float(v) for m, v in out.items()}
    return ExtForm.from_masks(omega.dim, omega.degree, out)


def eval_factored(omega: DiffForm, point) -> tuple[Fraction, ExtForm] | None:
    """(q, rho) with omega equal to e^q * rho at the point and rho exact, when
    every coefficient nonzero there has the one exponential value q (q = 0
    when omega vanishes there); else None.  No float is formed, so no value
    is out of range; raises PoleError as eval_at does."""
    vals, (_, coeffs) = _compiled(point, omega)
    q, out = Fraction(0), {}
    for m, c in coeffs:
        groups = vals.groups(c)
        if not groups:
            continue
        if len(groups) > 1 or (out and q not in groups):
            return None
        (q, out[m]), = groups.items()
    return q, ExtForm(omega.dim, omega.degree, out)


def eval_scaled(forms, point) -> tuple[Fraction, list[ExtForm]]:
    """(q, values), each form e^q times its value at the point: a positive
    factor, which changes no rank, kernel or solvability.  The values are
    the exact rhos of `eval_factored` when every form nonzero at the point
    has the one exponential value q there (q = 0 when none is nonzero);
    otherwise q = 0 and they are `eval_at`'s, which may raise OverflowError."""
    vals = point if isinstance(point, _PointValues) else _PointValues(point)
    factored = [eval_factored(f, vals) for f in forms]
    qs = {q for q, rho in filter(None, factored) if not rho.is_zero()}
    if all(factored) and len(qs) <= 1:
        return next(iter(qs), Fraction(0)), [rho for _, rho in factored]
    return Fraction(0), [eval_at(f, vals) for f in forms]


def is_zero_at(omega: DiffForm, point) -> bool:
    """Exact pointwise zero test; raises PoleError when any coefficient has a
    pole at the point, whatever the order of the coefficients."""
    vals, (_, coeffs) = _compiled(point, omega)
    return all(vals.is_zero(c) for _, c in coeffs)


def wedge_powers(omega: DiffForm):
    """Nonzero symbolic wedge powers [omega, omega^2, ...] up to symbolic zero."""
    powers = []
    acc = omega
    while not acc.is_zero():
        powers.append(acc)
        if 2 * (len(powers) + 1) > omega.dim:
            break
        acc = wedge_d(acc, omega)
    return powers


def rank_at(omega: DiffForm, point, powers=None) -> int:
    """Rank of a 2-form at a point: largest m with omega^m nonzero there.

    Exact: uses symbolic powers plus the canonical pointwise zero test.
    Since omega^(m+1) = omega^m ^ omega, the first power nonzero at the
    point, scanning down from the top, is the answer.  Raises PoleError
    when omega has a pole at the point, also where its top powers do not.
    """
    if omega.degree != 2:
        raise ValueError("rank is defined for 2-forms")
    if powers is None:
        powers = wedge_powers(omega)
    vals, _ = _compiled(point, omega)
    for m in range(len(powers), 0, -1):
        if not is_zero_at(powers[m - 1], vals):
            return m
    return 0


# ---------------------------------------------------------------------------
# recurrence equation d omega = beta ^ omega

@dataclass
class LeeVerification:
    """Symbolic certificate for d omega = beta ^ omega."""

    residual: DiffForm          # d omega - beta ^ omega
    d_beta: DiffForm
    dbeta_wedge_omega: DiffForm

    @property
    def holds(self) -> bool:
        return self.residual.is_zero()


def lee_verify(omega: DiffForm, beta: DiffForm) -> LeeVerification:
    if omega.degree != 2:
        raise ValueError("omega must be a 2-form")
    if beta.degree != 1:
        raise ValueError("beta must be a 1-form")
    if omega.coords != beta.coords:
        raise ValueError("coordinate list mismatch")
    residual = exterior_derivative(omega) - wedge_d(beta, omega)
    d_beta = exterior_derivative(beta)
    return LeeVerification(residual=residual, d_beta=d_beta,
                           dbeta_wedge_omega=wedge_d(d_beta, omega))


@dataclass
class LeePointSolution:
    point: tuple
    beta: ExtForm | None        # particular pointwise solution, None if unsolvable
    kernel_dim: int
    rank_omega: int


@dataclass
class LeeSolveResult:
    points: list[LeePointSolution]
    consistent: bool


def _lee_form(omega: DiffForm, d_omega: DiffForm) -> DiffForm | None:
    """A 1-form beta with d omega = beta ^ omega, certified by that residual
    being symbolically zero, or None.

    When every term of omega carries the one exponent polynomial g (none:
    g = 0), the candidate is dg: omega = e^g rho with d rho = 0 is Lee's
    conformal case.  With several exponents it comes from `_cramer_beta`."""
    exps = {p for c in omega.coeffs.values() for _, p in c.terms}
    if len(exps) > 1:
        beta = _cramer_beta(omega, d_omega)
    else:
        g = ScalarExpr(omega.dim, {(m, ()): c for p in exps for m, c in p})
        beta = exterior_derivative(DiffForm.from_scalar(g, omega.coords))
    if beta is None or not (d_omega - wedge_d(beta, omega)).is_zero():
        return None
    return beta


def _cramer_beta(omega: DiffForm, d_omega: DiffForm) -> DiffForm | None:
    """beta solving n rows of beta ^ omega = d omega by Cramer's rule, when
    their determinant is one term c x^a e^P, a unit of the ring, so that
    each quotient is exact; else None.

    Row T of lambda^1 holds +-omega_{T - i} in column i, at most three
    nonzeros for a 2-form.  The n rows are the first independent ones, the
    sparsest first, at a seeded rational point where each exponential is
    replaced by a seeded rational weight of its own; that only picks the
    rows, and the determinant itself is expanded symbolically.  The Laplace
    expansion runs down the rows, skips zero entries and memoises each minor
    by its remaining columns (and the one among them, if any, that d omega
    has replaced), so the n + 1 determinants share their minors."""
    n = omega.dim
    lam: dict[int, dict[int, ScalarExpr]] = {}
    for m, c in omega.coeffs.items():
        for i in range(n):
            bit = 1 << i
            if not m & bit:
                lam.setdefault(m | bit, {})[i] = c if shuffle_sign(bit, m) > 0 else -c
    masks = sorted(lam, key=lambda t: (len(lam[t]), t))
    rng = Random(0)

    def draw() -> Fraction:
        return Fraction(rng.randint(1, 97), rng.randint(1, 97))

    point = [draw() for _ in range(n)]
    weights: dict[Poly, Fraction] = {}
    columns: list[dict[int, int]] = [{} for _ in range(n)]   # lambda^1 transposed
    for r, t in enumerate(masks):
        values = []
        for c in lam[t].values():
            v = Fraction(0)
            for (mono, p), a in c.terms.items():
                w = weights.get(p)
                if w is None:
                    w = weights[p] = draw()
                for x, e in zip(point, mono):
                    if e:
                        a *= x ** e
                v += a * w
            values.append(v)
        for i, x in zip(lam[t], clear_denominators(values)):
            if x:
                columns[i][r] = x
    # the pivot columns of lambda^1's transpose are its first independent rows
    picked = echelon(columns, len(masks), reduced=False)[1]
    if len(picked) < n:
        return None
    rows = [lam[masks[r]] for r in picked]
    rhs = [d_omega.coeffs.get(masks[r]) for r in picked]
    memo: dict[tuple[int, int], ScalarExpr] = {}

    def minor(cols: int, sub: int) -> ScalarExpr:
        # rows n - |cols| .. n - 1 on the columns in cols, column sub (none
        # when sub = n) replaced by rhs
        if not cols:
            return ScalarExpr.const(1, n)
        if not cols >> sub & 1:
            sub = n
        got = memo.get((cols, sub))
        if got is None:
            k = n - cols.bit_count()
            entries = [(j, v) for j, v in rows[k].items() if cols >> j & 1 and j != sub]
            if sub < n and rhs[k]:
                entries.append((sub, rhs[k]))
            got = ScalarExpr.zero(n)
            for j, v in entries:
                rest = minor(cols ^ (1 << j), sub)
                if rest:
                    term = v * rest
                    got = got - term if (cols & ((1 << j) - 1)).bit_count() & 1 else got + term
            memo[(cols, sub)] = got
        return got

    full = (1 << n) - 1
    det = minor(full, n)
    if len(det.terms) != 1:
        return None
    return DiffForm(omega.coords, 1, {1 << i: try_divide(minor(full, i), det) for i in range(n)})


def lee_solve(omega: DiffForm, points) -> LeeSolveResult:
    """Pointwise solve of (d omega)_p = beta_p ^ omega_p over sample points.

    Consistent iff solvable at every point with a unique solution wherever
    the rank of omega at the point is >= 2.  A Lee form beta is derived and
    certified once (`_lee_form`): dg when omega = e^g rho with d rho = 0,
    else by Cramer's rule when omega carries several exponentials, such as
    the demo omega0.  At a point of rank >= 2, where lambda^1 of omega_p is
    injective, beta_p = beta(p) with kernel 0 and no elimination; it is
    exact wherever beta's exponentials, if any, are e^0 there.  At any other
    point, and where a Laurent beta has a pole, beta_p solves
    omega_p ^ beta = (d omega)_p as `eval_scaled` reads them: e^q rho and
    e^q kappa (every omega = e^g theta) give rho ^ beta = kappa exactly,
    and elsewhere both are floats.
    An OverflowError from a float value carries the point as `e.point`.
    """
    from .wedge_solver import solve_wedge

    if omega.degree != 2:
        raise ValueError("omega must be a 2-form")
    d_omega = exterior_derivative(omega)
    beta = _lee_form(omega, d_omega)
    powers = wedge_powers(omega)
    # beta and d omega are compiled into the plan at the first point that needs them
    plan = _Plan(omega.dim, [omega, *powers])
    out = []
    consistent = True
    for p in points:
        try:
            vals = _PointValues(p, plan)
            r = rank_at(omega, vals, powers)
            if beta is not None and r >= 2:
                try:
                    beta_p = eval_at(beta, vals)
                except PoleError:
                    pass
                else:
                    out.append(LeePointSolution(point=tuple(p), beta=beta_p,
                                                kernel_dim=0, rank_omega=r))
                    continue
            _, (omega_p, kappa_p) = eval_scaled([omega, d_omega], vals)
            if omega_p.is_zero():
                solvable = kappa_p.is_zero()
                beta_p = ExtForm.zero(omega_p.dim, 1) if solvable else None
                kdim = omega.dim
            else:
                beta_p, kernel = solve_wedge(omega_p, kappa_p)
                solvable = beta_p is not None
                kdim = len(kernel)
            if not solvable or (r >= 2 and kdim != 0):
                consistent = False
            out.append(LeePointSolution(point=tuple(p), beta=beta_p,
                                        kernel_dim=kdim, rank_omega=r))
        except OverflowError as e:
            e.point = tuple(p)   # where the value left the float range
            raise
    return LeeSolveResult(points=out, consistent=consistent)


# ---------------------------------------------------------------------------
# pointwise classification

@dataclass
class PointClassification:
    point: tuple
    r_omega: int
    in_A: bool
    in_B: bool
    in_C: bool
    d_beta_rank: int
    omega_zero: bool


@dataclass
class ClassificationVerdict:
    a_points: int
    b_points: int
    c_points: int
    dbeta_zero_on_A: bool
    rank_bounds_on_B: bool
    a_b_disjoint: bool

    @property
    def passed(self) -> bool:
        return self.dbeta_zero_on_A and self.rank_bounds_on_B and self.a_b_disjoint


def classify_theorem_sets(omega: DiffForm, beta: DiffForm, grid):
    """Per-point membership in the three sets plus the verdict checks.

    Requires the recurrence d omega = beta ^ omega to hold symbolically.
    """
    ver = lee_verify(omega, beta)
    if not ver.holds:
        raise ValueError("hypothesis violated: d omega - beta ^ omega != 0")
    d_beta = ver.d_beta
    omega_powers = wedge_powers(omega)
    dbeta_powers = wedge_powers(d_beta)
    plan = _Plan(omega.dim, [omega, d_beta, *omega_powers, *dbeta_powers])
    rows = []
    na = nb = nc = 0
    dbeta_zero_on_a = True
    rank_bounds_on_b = True
    disjoint = True
    for p in grid:
        vals = _PointValues(p, plan)
        r = rank_at(omega, vals, omega_powers)
        dbr = rank_at(d_beta, vals, dbeta_powers)
        # a 2-form is zero at a point exactly where its rank there is 0
        omega_zero = r == 0
        dbeta_zero = dbr == 0
        in_a = r > 2
        in_b = (not dbeta_zero) and (not omega_zero)
        in_c = r <= 1
        if in_a:
            na += 1
            if not dbeta_zero:
                dbeta_zero_on_a = False
        if in_b:
            nb += 1
            if not (1 <= dbr <= 2 and r <= 2):
                rank_bounds_on_b = False
        if in_c:
            nc += 1
        if in_a and in_b:
            disjoint = False
        rows.append(PointClassification(point=tuple(p), r_omega=r, in_A=in_a,
                                        in_B=in_b, in_C=in_c, d_beta_rank=dbr,
                                        omega_zero=omega_zero))
    verdict = ClassificationVerdict(
        a_points=na, b_points=nb, c_points=nc,
        dbeta_zero_on_A=dbeta_zero_on_a,
        rank_bounds_on_B=rank_bounds_on_b,
        a_b_disjoint=disjoint)
    return rows, verdict


# ---------------------------------------------------------------------------
# almost alpha-cosymplectic check

@dataclass
class CosymplecticReport:
    d_eta_zero: bool
    structure_equation_holds: bool
    structure_residual: DiffForm
    dalpha_wedge_eta: DiffForm | None    # only checked when both hold, dim > 5
    dalpha_wedge_eta_zero: bool | None
    f_factor: ScalarExpr | None          # d alpha = f * eta, when representable

    @property
    def passed(self) -> bool:
        ok = self.d_eta_zero and self.structure_equation_holds
        if ok and self.dalpha_wedge_eta_zero is not None:
            ok = self.dalpha_wedge_eta_zero
        return ok


def cosymplectic_check(phi: DiffForm, eta: DiffForm, alpha: ScalarExpr) -> CosymplecticReport:
    """Check d eta = 0 and d Phi = 2 alpha eta ^ Phi; in dimension > 5 the
    closedness of alpha*eta (d alpha ^ eta = 0) is verified as a consequence
    and the factor f with d alpha = f eta is recovered when the coefficient
    division is exact."""
    if phi.degree != 2 or eta.degree != 1:
        raise ValueError("expects a 2-form Phi and a 1-form eta")
    if phi.coords != eta.coords:
        raise ValueError("coordinate list mismatch")
    d_eta = exterior_derivative(eta)
    residual = exterior_derivative(phi) - wedge_d(eta, phi).scale(alpha.scale(2))
    d_eta_zero = d_eta.is_zero()
    structure = residual.is_zero()
    dalpha_wedge_eta = None
    dw_zero = None
    f_factor = None
    if d_eta_zero and structure and phi.dim > 5:
        d_alpha = exterior_derivative(DiffForm.from_scalar(alpha, phi.coords))
        dalpha_wedge_eta = wedge_d(d_alpha, eta)
        dw_zero = dalpha_wedge_eta.is_zero()
        if dw_zero:
            f_factor = _recover_factor(d_alpha, eta)
    return CosymplecticReport(
        d_eta_zero=d_eta_zero, structure_equation_holds=structure,
        structure_residual=residual, dalpha_wedge_eta=dalpha_wedge_eta,
        dalpha_wedge_eta_zero=dw_zero, f_factor=f_factor)


def _recover_factor(d_alpha: DiffForm, eta: DiffForm) -> ScalarExpr | None:
    """f with d_alpha = f * eta, by exact coefficient division."""
    n = eta.dim
    if d_alpha.is_zero():
        return ScalarExpr.zero(n)
    for m, c in eta.coeffs.items():
        num = d_alpha.coeffs.get(m)
        if num is None:
            continue
        f = try_divide(num, c)
        if f is not None and (eta.scale(f) - d_alpha).is_zero():
            return f
    return None


def frobenius_residual(beta: DiffForm) -> DiffForm:
    """beta ^ d beta; zero certifies involutivity of the kernel distribution."""
    if beta.degree != 1:
        raise ValueError("expects a 1-form")
    return wedge_d(beta, exterior_derivative(beta))


# ---------------------------------------------------------------------------
# built-in worked examples

@dataclass
class CatalogIdentity:
    name: str
    holds: bool
    detail: str


@dataclass
class CatalogEntry:
    name: str
    coords: tuple[str, ...]
    forms: dict[str, DiffForm]
    identities: list[CatalogIdentity]

    @property
    def passed(self) -> bool:
        return all(i.holds for i in self.identities)


def _omega_zero_instance():
    coords = ("x1", "x2", "y1", "y2")
    n = len(coords)
    x1 = ScalarExpr.var(0, n)
    x2 = ScalarExpr.var(1, n)
    y1 = ScalarExpr.var(2, n)
    y2 = ScalarExpr.var(3, n)
    f0 = x1 * y1 + x2 * y2
    dx1, dx2, dy1, dy2 = (DiffForm.differential(i, coords) for i in range(4))
    omega0 = wedge_d(dx1, dx2).scale(ScalarExpr.exp(f0)) + wedge_d(dy1, dy2)
    beta0 = dy1.scale(x1) + dy2.scale(x2)
    return coords, omega0, beta0, (dx1, dx2, dy1, dy2)


def example_catalog() -> dict[str, CatalogEntry]:
    """The built-in worked instances with machine-checkable identities."""
    catalog = {}

    # conformally split 2-form on R^4
    coords, omega0, beta0, (dx1, dx2, dy1, dy2) = _omega_zero_instance()
    d_omega0 = exterior_derivative(omega0)
    d_beta0 = exterior_derivative(beta0)
    expected_dbeta0 = wedge_d(dx1, dy1) + wedge_d(dx2, dy2)
    identities = [
        CatalogIdentity("d(omega0) = beta0 ^ omega0",
                        (d_omega0 - wedge_d(beta0, omega0)).is_zero(),
                        "symbolic residual"),
        CatalogIdentity("d(beta0) = dx1^dy1 + dx2^dy2",
                        d_beta0 == expected_dbeta0, "canonical comparison"),
        CatalogIdentity("d(beta0) != 0", not d_beta0.is_zero(), "nonzero certificate"),
        CatalogIdentity("d(beta0) ^ omega0 = 0",
                        wedge_d(d_beta0, omega0).is_zero(), "symbolic residual"),
    ]
    catalog["omega_f"] = CatalogEntry(
        "omega_f", coords,
        {"omega0": omega0, "beta0": beta0, "dbeta0": d_beta0}, identities)

    # contact structure on the half-space t > 0 over R^4
    ccoords = ("t", "x1", "x2", "y1", "y2")
    n = len(ccoords)
    t = ScalarExpr.var(0, n)
    tinv = ScalarExpr.var(0, n, -1)
    x1 = ScalarExpr.var(1, n)
    x2 = ScalarExpr.var(2, n)
    dt, dx1c, dx2c, dy1c, dy2c = (DiffForm.differential(i, ccoords) for i in range(5))
    f0 = x1 * ScalarExpr.var(3, n) + x2 * ScalarExpr.var(4, n)
    omega0c = wedge_d(dx1c, dx2c).scale(ScalarExpr.exp(f0)) + wedge_d(dy1c, dy2c)
    eta = dt
    phi = omega0c.scale(t)
    gamma = dt.scale(tinv) + dy1c.scale(x1) + dy2c.scale(x2)
    d_gamma = exterior_derivative(gamma)
    identities = [
        CatalogIdentity("d(eta) = 0", exterior_derivative(eta).is_zero(),
                        "symbolic residual"),
        CatalogIdentity("d(Phi) = gamma ^ Phi",
                        (exterior_derivative(phi) - wedge_d(gamma, phi)).is_zero(),
                        "symbolic residual"),
        CatalogIdentity("eta ^ Phi ^ Phi != 0 (volume)",
                        not wedge_d(eta, wedge_d(phi, phi)).is_zero(),
                        "nonzero top form"),
        CatalogIdentity("gamma ^ d(gamma) ^ d(gamma) != 0 (contact)",
                        not wedge_d(gamma, wedge_d(d_gamma, d_gamma)).is_zero(),
                        "nonzero top form"),
    ]
    catalog["contact_R5"] = CatalogEntry(
        "contact_R5", ccoords,
        {"eta": eta, "Phi": phi, "gamma": gamma}, identities)
    return catalog
