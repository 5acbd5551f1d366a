"""Sparse exterior algebra on a fixed n-dimensional space, over exact scalars.

Multi-indices are stored as bitmasks of the ambient dimension; shuffle signs
come from bit counting.  Coefficients are rationals by default; floats are
accepted and simply propagate (rank decisions on float forms live in
`linalg`, not here).  The form core `_Form`, with the one wedge loop, is
shared with the symbolic `DiffForm`.

Evaluation convention: a decomposable k-form satisfies
``(eta_1 ^ ... ^ eta_k)(x_1, ..., x_k) = det|eta_i(x_j)| / k!``.
Interior multiplication carries the degree factor
``(i_v theta)(u_1, ..., u_{k-1}) = k * theta(v, u_1, ..., u_{k-1})``,
which makes it the usual antiderivation on coefficients.  The scalar pairing
of a k-tuple against a k-form is the iterated contraction
``i_{x_1} ... i_{x_k} theta = (-1)^(k(k-1)/2) * k! * theta(x_1, ..., x_k)``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial

from . import linalg

Scalar = Fraction | float


def as_scalar(c) -> Scalar:
    if isinstance(c, float):
        return c
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported scalar type: {type(c).__name__}")


def _acc(out: dict, key, value):
    """Add value into out[key], dropping the key when the sum is zero.

    The one zero test is truthiness, so this serves Fraction, float and
    `ScalarExpr` values alike.
    """
    s = out[key] + value if key in out else value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


# ---------------------------------------------------------------------------
# bitmask multi-indices (1-based indices, bit i-1 <-> index i)

def mask_of(indices, dim: int) -> int:
    """Bitmask of a strictly increasing index tuple; validates the input."""
    mask = 0
    prev = 0
    for i in indices:
        i = int(i)
        if i <= prev:
            raise ValueError(f"multi-index {tuple(indices)} is not strictly increasing")
        if i > dim:
            raise ValueError(f"index {i} exceeds ambient dimension {dim}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def shuffle_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of disjoint masks a, b; 0 if not disjoint."""
    if a & b:
        return 0
    inv = 0
    m = b
    while m:
        low = m & -m
        m ^= low
        inv += (a >> low.bit_length()).bit_count()
    return -1 if inv & 1 else 1


def masks_of_size(dim: int, size: int):
    """All multi-index masks of the given size, in lexicographic index order."""
    for combo in combinations(range(1, dim + 1), size):
        yield mask_of(combo, dim)


# ---------------------------------------------------------------------------
# vectors and forms

class Vector(namedtuple("Vector", "dim components")):
    """Element of V in the working basis; components are exact scalars."""

    __slots__ = ()

    def __new__(cls, dim: int, components) -> Vector:
        if len(components) != dim:
            raise ValueError("component count does not match dimension")
        return tuple.__new__(cls, (dim, tuple(as_scalar(c) for c in components)))

    def __getitem__(self, i: int) -> Scalar:
        """1-based coordinate access."""
        return self.components[i - 1]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)


def basis_vector(i: int, dim: int) -> Vector:
    return Vector(dim, tuple(Fraction(int(j == i)) for j in range(1, dim + 1)))


class _Form:
    """Homogeneous form, sparse over bitmask multi-indices of an ambient
    space of dimension `dim`; the core shared by `ExtForm` and the symbolic
    `DiffForm`.  Coefficients need only +, *, unary - and truthiness as the
    zero test, and `coeffs` is canonical: it holds no zero values.

    Treat instances as immutable; all operations return new forms.
    Subclasses name their space (`_space`, `_SPACE`) and build new forms
    over it (`_like`).
    """

    __slots__ = ("dim", "degree", "coeffs")
    _SPACE = "ambient dimension"

    def __init__(self, dim: int, degree: int, coeffs: dict):
        self.dim = dim
        self.degree = degree
        self.coeffs = coeffs  # canonical: no zero values

    def _space(self):
        return self.dim

    def _like(self, degree: int, coeffs: dict) -> "_Form":
        raise NotImplementedError

    def _check_space(self, other: "_Form"):
        if self._space() != other._space():
            raise ValueError(f"{self._SPACE} mismatch")

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """Iterate (index tuple, coefficient) in lexicographic index order;
        each index tuple is computed once, for the sort and the yield."""
        coeffs = self.coeffs
        for idx, mask in sorted((indices_of(mask), mask) for mask in coeffs):
            yield idx, coeffs[mask]

    def __add__(self, other):
        self._check_space(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            _acc(out, m, c)
        return self._like(self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like(self.degree, {m: -c for m, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._space(), self.degree, self.coeffs) == \
            (other._space(), other.degree, other.coeffs)


def _wedge(a: _Form, b: _Form) -> _Form:
    """The one wedge loop over mask pairs, for every coefficient ring."""
    a._check_space(b)
    degree = a.degree + b.degree
    out: dict = {}
    if degree <= a.dim:
        for ma, ca in a.coeffs.items():
            for mb, cb in b.coeffs.items():
                sign = shuffle_sign(ma, mb)
                if sign:
                    term = ca * cb
                    _acc(out, ma | mb, term if sign > 0 else -term)
    return a._like(degree, out)


class ExtForm(_Form):
    """Homogeneous exterior form with Fraction (or float) coefficients."""

    __slots__ = ()

    def _like(self, degree: int, coeffs: dict) -> "ExtForm":
        return ExtForm(self.dim, degree, coeffs)

    @staticmethod
    def zero(dim: int, degree: int) -> "ExtForm":
        return ExtForm(dim, degree, {})

    @staticmethod
    def from_masks(dim: int, degree: int, terms: dict[int, Scalar]) -> "ExtForm":
        coeffs = {m: c for m, c in terms.items() if c}
        if coeffs and degree > dim:
            raise ValueError(f"nonzero form of degree {degree} in dimension {dim}")
        return ExtForm(dim, degree, coeffs)

    def coefficient(self, indices) -> Scalar:
        return self.coeffs.get(mask_of(indices, self.dim), Fraction(0))

    def scale(self, c) -> "ExtForm":
        c = as_scalar(c)
        if not c:
            return ExtForm.zero(self.dim, self.degree)
        return ExtForm(self.dim, self.degree, {m: c * v for m, v in self.coeffs.items()})

    def __repr__(self) -> str:
        if self.is_zero():
            return f"ExtForm(dim={self.dim}, deg={self.degree}, 0)"
        body = " + ".join(f"{c}*a{''.join(map(str, idx))}" for idx, c in self.terms())
        return f"ExtForm(dim={self.dim}, deg={self.degree}, {body})"


def make_form(dim: int, degree: int, terms) -> ExtForm:
    """Canonical form from (multi-index, coefficient) pairs.

    Duplicate multi-indices are summed, zeros dropped.  A nonzero form of
    degree > dim is rejected since that space is trivial.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    coeffs: dict[int, Scalar] = {}
    for indices, c in terms:
        mask = mask_of(indices, dim)
        if mask.bit_count() != degree:
            raise ValueError(f"multi-index {tuple(indices)} does not match degree {degree}")
        _acc(coeffs, mask, as_scalar(c))
    if coeffs and degree > dim:
        raise ValueError(f"nonzero form of degree {degree} in dimension {dim}")
    return ExtForm(dim, degree, coeffs)


def constant_form(dim: int, c) -> ExtForm:
    """Degree-0 form with the given value."""
    c = as_scalar(c)
    return ExtForm(dim, 0, {0: c} if c else {})


def alpha(i: int, dim: int) -> ExtForm:
    """The i-th dual basis covector."""
    return make_form(dim, 1, [((i,), 1)])


def covector(components, dim: int | None = None) -> ExtForm:
    """Degree-1 form from a dense component list."""
    comps = list(components)
    n = dim if dim is not None else len(comps)
    return make_form(n, 1, [((i,), comps[i - 1]) for i in range(1, n + 1)])


def scalar_of(form: ExtForm) -> Scalar:
    """Value of a degree-0 form."""
    if form.degree != 0:
        raise ValueError("not a degree-0 form")
    return form.coeffs.get(0, Fraction(0))


# ---------------------------------------------------------------------------
# operations

def wedge(a: ExtForm, b: ExtForm) -> ExtForm:
    return _wedge(a, b)


def wedge_all(forms) -> ExtForm:
    return reduce(wedge, forms)


def pullback(form: ExtForm, images) -> ExtForm:
    """form with each alpha_i replaced by the 1-form images[i-1]: the change
    of basis under the linear map whose transpose sends alpha_i to images[i-1].
    The result lives in the images' dimension."""
    images = list(images)
    if len(images) != form.dim or any(f.degree != 1 for f in images):
        raise ValueError(f"pullback needs {form.dim} 1-form images")
    dim = images[0].dim if images else form.dim
    out: dict[int, Scalar] = {}
    for mask, c in form.coeffs.items():
        term = constant_form(dim, c)
        for i in indices_of(mask):
            term = wedge(term, images[i - 1])
        for m, v in term.coeffs.items():
            _acc(out, m, v)
    return ExtForm(dim, form.degree, out)


def evaluate(theta: ExtForm, args) -> Scalar:
    """Value theta(x_1, ..., x_k) under the det/k! convention."""
    args = list(args)
    if len(args) != theta.degree:
        raise ValueError(f"expected {theta.degree} vector arguments, got {len(args)}")
    for v in args:
        if v.dim != theta.dim:
            raise ValueError("vector dimension mismatch")
    if theta.degree == 0:
        return scalar_of(theta)
    total: Scalar = Fraction(0)
    k = theta.degree
    for mask, c in theta.coeffs.items():
        idx = indices_of(mask)
        rows = [[v[i] for v in args] for i in idx]
        total = total + c * linalg.det(rows)
    return total / factorial(k)


def interior(v: Vector, theta: ExtForm) -> ExtForm:
    """Contraction i_v theta (the degree-scaled antiderivation)."""
    if v.dim != theta.dim:
        raise ValueError("vector dimension mismatch")
    if theta.degree == 0:
        return ExtForm.zero(theta.dim, 0)
    out: dict[int, Scalar] = {}
    for mask, c in theta.coeffs.items():
        pos = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            comp = v[low.bit_length()]
            if comp:
                sign = -1 if pos & 1 else 1
                _acc(out, mask ^ low, sign * comp * c)
            pos += 1
    return ExtForm(theta.dim, theta.degree - 1, out)


def iterated_interior(vs, theta: ExtForm) -> ExtForm:
    """i_{x_1} i_{x_2} ... i_{x_j} theta; over-contraction yields the zero 0-form."""
    vs = list(vs)
    for v in vs:
        if v.dim != theta.dim:
            raise ValueError("vector dimension mismatch")
    if len(vs) > theta.degree:
        return ExtForm.zero(theta.dim, 0)
    acc = theta
    for v in reversed(vs):
        acc = interior(v, acc)
    return acc


def reverse_sign(k: int) -> int:
    """Sign of the order-reversing permutation on k letters."""
    return -1 if (k * (k - 1) // 2) & 1 else 1


def pairing(vs, theta: ExtForm) -> Scalar:
    """Scalar <[x_1 ... x_k], theta> = i_{x_1} ... i_{x_k} theta."""
    vs = list(vs)
    if len(vs) != theta.degree:
        raise ValueError(f"expected {theta.degree} vectors, got {len(vs)}")
    return scalar_of(iterated_interior(vs, theta))


def interior_division(x: Vector, mu: ExtForm) -> ExtForm:
    """A form nu with i_x nu = mu, valid whenever i_x mu = 0 and x != 0."""
    if x.dim != mu.dim:
        raise ValueError("vector dimension mismatch")
    if x.is_zero():
        raise ValueError("cannot divide by the zero vector")
    if not interior(x, mu).is_zero():
        raise ValueError("interior product of x with mu is nonzero; no antiderivative exists")
    for i in range(1, x.dim + 1):
        if x[i] != 0:
            return wedge(alpha(i, x.dim).scale(1 / x[i]), mu)
    raise AssertionError("unreachable")
