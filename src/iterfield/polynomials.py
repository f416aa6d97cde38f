"""Exact sparse multivariate polynomial arithmetic over big rationals.

Polynomials are immutable values: a dict from one packed int per monomial
to its nonzero Fraction coefficient.  The packed int holds the total
degree in its top field, then the exponents of x0 ... x(n-1) in fields of
``EXPONENT_BITS`` bits each, so integer order is graded-lexicographic
order, a product of monomials is a sum of keys and a partial derivative
subtracts one key.  The width is the same for every ring, so equal
polynomials have equal keys.  A polynomial's total degree is at most
``MAX_DEGREE``: a constructor exponent, product or composition that could
go past it, and so carry one exponent into its neighbour, raises
``PolynomialSizeError``.

Composition towers (iterating a polynomial vector field) blow up
coefficient sizes quickly, so coefficients are arbitrary precision
rationals and every product goes through a term-count ceiling that turns
an infeasible request into a clean error.

The canonical text form is ``coef*x0^e0*x1^e1 + ...`` with terms in
descending graded-lexicographic order; rendering is deterministic so the
form is usable for golden files.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from . import IterfieldError
from .fields import _require_count
from .rationals import to_fraction

# The term-count ceiling of every product and composition, read at each call
MAX_TERMS = 10**6
EXPONENT_BITS = 16
MAX_DEGREE = (1 << EXPONENT_BITS) - 1  # also the mask of one exponent field


class PolynomialSizeError(IterfieldError, RuntimeError):
    """A product or composition would exceed the term-count ceiling or the
    exponent width."""


class PolyParseError(IterfieldError, ValueError):
    """Polynomial text does not match the canonical form."""


def _require_degree(degree: int, what: str) -> None:
    if degree > MAX_DEGREE:
        raise PolynomialSizeError(
            f"{what} of degree {degree} exceeds the exponent width (degree at most {MAX_DEGREE})")


def _pack(exps: Sequence[int]) -> int:
    """The key of the monomial with these exponents."""
    key = sum(exps)
    for e in exps:
        key = key << EXPONENT_BITS | e
    return key


def _shifts(nvars: int) -> range:
    """Bit offset of each variable's field, x0 first."""
    return range((nvars - 1) * EXPONENT_BITS, -1, -EXPONENT_BITS)


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple(key >> s & MAX_DEGREE for s in _shifts(nvars))


def _unit(nvars: int, var: int) -> int:
    """The key of the monomial x_var."""
    return (1 << nvars * EXPONENT_BITS) | (1 << (nvars - 1 - var) * EXPONENT_BITS)


def _peel(key: int, nvars: int) -> tuple[int, int]:
    """(i, prefix) with key = prefix * x_i, for the first variable i of a
    non-constant monomial: the one whose field holds the highest set bit."""
    fields = nvars * EXPONENT_BITS
    i = (fields - (key & ((1 << fields) - 1)).bit_length()) // EXPONENT_BITS
    return i, key - _unit(nvars, i)


def _add_scaled(acc: dict, terms: Mapping[int, Fraction], coeff) -> None:
    """acc += coeff * terms, in place; a coefficient that cancels is removed."""
    for key, c in terms.items():
        total = acc.get(key)
        total = coeff * c if total is None else total + coeff * c
        if total:
            acc[key] = total
        else:
            del acc[key]


class RationalPoly:
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients.

    Invariants: no stored zero coefficients; each monomial is one packed
    int key (see the module docstring) of total degree at most
    ``MAX_DEGREE``; coefficients are Fractions in lowest terms with
    positive denominator (guaranteed by fractions.Fraction).  ``terms``
    gives the exponent tuples instead of the keys.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[int, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps!r} for {nvars} variables")
                _require_degree(sum(exps), "monomial")
                c = to_fraction(coeff)
                if c != 0:
                    clean[_pack(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[int, Fraction]) -> "RationalPoly":
        """Wrap ``terms`` as they are; the ring operations call this with
        keys of ``nvars`` variables and nonzero Fractions, so nothing is
        checked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only map from exponent tuples to coefficients, in the
        polynomial's term order; built on each access."""
        n = self.nvars
        return MappingProxyType({_unpack(key, n): c for key, c in self._terms.items()})

    # ----- constructors -----

    @classmethod
    def zero(cls, nvars: int) -> "RationalPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "RationalPoly":
        return cls(nvars, {(0,) * nvars: to_fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RationalPoly":
        if not (0 <= index < nvars):
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        return cls._trusted(nvars, {_unit(nvars, index): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, coeff, exps: Sequence[int]) -> "RationalPoly":
        return cls(nvars, {tuple(exps): to_fraction(coeff)})

    # ----- queries -----

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self.nvars * EXPONENT_BITS

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Largest term in graded-lexicographic order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._terms)
        return _unpack(key, self.nvars), self._terms[key]

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPoly):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == RationalPoly.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    # ----- ring operations -----

    def _coerce(self, other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            if other.nvars != self.nvars:
                raise ValueError("operands have different numbers of variables")
            return other
        return RationalPoly.constant(self.nvars, other)

    def __add__(self, other) -> "RationalPoly":
        other = self._coerce(other)
        terms = dict(self._terms)
        _add_scaled(terms, other._terms, 1)
        return RationalPoly._trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly._trusted(self.nvars, {key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> "RationalPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalPoly":
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other) -> "RationalPoly":
        other = self._coerce(other)
        _require_degree(self.degree() + other.degree(), "product")
        max_terms = MAX_TERMS
        terms: dict[int, Fraction] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = k1 + k2
                total = terms.get(key)
                total = c1 * c2 if total is None else total + c1 * c2
                if total:
                    terms[key] = total
                else:
                    del terms[key]
            if len(terms) > max_terms:
                raise PolynomialSizeError(
                    f"product exceeds term ceiling ({max_terms} terms)")
        return RationalPoly._trusted(self.nvars, terms)

    def __pow__(self, exponent: int) -> "RationalPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = RationalPoly.constant(self.nvars, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ----- calculus and substitution -----

    def partial(self, var: int) -> "RationalPoly":
        """Termwise power-rule partial derivative with respect to variable ``var``."""
        if not (0 <= var < self.nvars):
            raise IndexError(f"variable index {var} out of range for {self.nvars} variables")
        shift = (self.nvars - 1 - var) * EXPONENT_BITS
        unit = _unit(self.nvars, var)
        terms: dict[int, Fraction] = {}
        for key, coeff in self._terms.items():
            e = key >> shift & MAX_DEGREE
            if e:
                terms[key - unit] = coeff * e
        return RationalPoly._trusted(self.nvars, terms)

    def compose(self, subs: Sequence["RationalPoly"]) -> "RationalPoly":
        """Substitute variable i by ``subs[i]``; exact.  The one-component
        case of ``PolyField.compose``."""
        return PolyField([self]).compose(subs).components[0]

    def evaluate(self, point: Sequence) -> object:
        """Evaluate at a point; exact for Fraction/int inputs, float for floats."""
        if len(point) != self.nvars:
            raise ValueError(f"need {self.nvars} coordinates, got {len(point)}")
        shifts = _shifts(self.nvars)
        total = None
        for key, coeff in self._terms.items():
            value = coeff
            for x, s in zip(point, shifts):
                e = key >> s & MAX_DEGREE
                if e:
                    value = value * x**e
            total = value if total is None else total + value
        if total is None:
            return Fraction(0) if not any(isinstance(x, float) for x in point) else 0.0
        return total

    # ----- rendering and parsing -----

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Canonical form ``coef*x0^e0*x1^e1 + ...``, descending graded-lex order."""
        if not self._terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        elif len(names) != self.nvars:
            raise ValueError("need one name per variable")
        pieces = []
        for key in sorted(self._terms, reverse=True):
            factors = [str(self._terms[key])]
            for name, e in zip(names, _unpack(key, self.nvars)):
                if e:
                    factors.append(f"{name}^{e}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RationalPoly({self.nvars}, {self.to_text()!r})"


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<coeff>\d+(?:/\d+)?)?(?P<vars>(?:\*?[A-Za-z]\w*(?:\^\d+)?)*)$")
_VAR_RE = re.compile(r"([A-Za-z]\w*)(?:\^(\d+))?")
# a minus right after a term's last digit or letter subtracts the next term
_BINARY_MINUS_RE = re.compile(r"(?<=\w)\s*-")


def parse_poly(text: str, nvars: int, names: Sequence[str] | None = None) -> RationalPoly:
    """Parse the canonical text form back into a polynomial.

    Accepts the output of ``to_text`` plus minor sugar (implicit
    coefficient 1, implicit exponent 1, a bare sign, and ``a - b`` for
    ``a + -b``).
    """
    if names is None:
        names = [f"x{i}" for i in range(nvars)]
    index = {name: i for i, name in enumerate(names)}
    stripped = text.strip()
    if stripped == "0":
        return RationalPoly.zero(nvars)
    result = RationalPoly.zero(nvars)
    for raw in _BINARY_MINUS_RE.sub("+-", stripped).split("+"):
        term = raw.strip().replace(" ", "")
        if not term:
            raise PolyParseError(f"empty term in {text!r}")
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and not m.group("vars")):
            raise PolyParseError(f"cannot parse term {raw.strip()!r}")
        coeff = Fraction(m.group("coeff") or 1) * (-1 if m.group("sign") == "-" else 1)
        exps = [0] * nvars
        for name, exp in _VAR_RE.findall(m.group("vars")):
            if name not in index:
                raise PolyParseError(f"unknown variable {name!r} in {raw.strip()!r}")
            exps[index[name]] += int(exp) if exp else 1
        result = result + RationalPoly.monomial(nvars, coeff, exps)
    return result


def divide_exact(dividend: RationalPoly, divisor: RationalPoly) -> RationalPoly | None:
    """Return the quotient if ``divisor`` divides ``dividend`` exactly, else None.

    Single-divisor multivariate division in graded-lex order; for one
    divisor the remainder is unique, so a zero remainder decides
    divisibility.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if dividend.nvars != divisor.nvars:
        raise ValueError("operands have different numbers of variables")
    lead = max(divisor._terms)
    lead_coeff = divisor._terms[lead]
    shifts = _shifts(divisor.nvars)
    quotient: dict[int, Fraction] = {}
    remainder = dict(dividend._terms)
    while remainder:
        r_key = max(remainder)
        if any(r_key >> s & MAX_DEGREE < lead >> s & MAX_DEGREE for s in shifts):
            return None
        diff = r_key - lead
        # leading terms strictly fall, so each quotient term is new
        quotient[diff] = q = remainder[r_key] / lead_coeff
        _add_scaled(remainder, {diff + key: c for key, c in divisor._terms.items()}, -q)
    return RationalPoly._trusted(dividend.nvars, quotient)


def group_by_vars(poly: RationalPoly, group_vars: Sequence[int]) -> dict[tuple[int, ...], RationalPoly]:
    """Group terms by their exponents on ``group_vars``.

    Returns a dict from exponent tuples (over the grouped variables, in
    the given order) to polynomials in the remaining variables (original
    relative order preserved).
    """
    group = tuple(group_vars)
    rest = [v for v in range(poly.nvars) if v not in group]
    buckets: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for key, coeff in poly._terms.items():
        exps = _unpack(key, poly.nvars)
        group_exps = tuple(exps[v] for v in group)
        buckets.setdefault(group_exps, {})[_pack([exps[v] for v in rest])] = coeff
    return {exps: RationalPoly._trusted(len(rest), terms) for exps, terms in buckets.items()}


class PolyField:
    """A tuple of polynomials used as an exact vector field.

    All components share a variable count.  In the plain case the number
    of components equals the number of variables.  For computations with
    symbolic coefficients the ring carries extra parameter variables and
    the coordinate variables are named explicitly (``coord_vars``) in the
    operations below.
    """

    __slots__ = ("components", "nvars")

    def __init__(self, components: Iterable[RationalPoly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a polynomial field needs at least one component")
        nvars = comps[0].nvars
        if any(p.nvars != nvars for p in comps):
            raise ValueError("components must share a variable count")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name, value):
        raise AttributeError("PolyField is immutable")

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    @classmethod
    def from_texts(cls, texts: Sequence[str], nvars: int, names: Sequence[str] | None = None) -> "PolyField":
        return cls(parse_poly(t, nvars, names) for t in texts)

    @classmethod
    def linear(cls, matrix, offset=None) -> "PolyField":
        """The affine field x -> A x + b as exact polynomials."""
        rows = [list(row) for row in matrix]
        n = len(rows)
        units = [tuple(int(j == t) for t in range(n)) for j in range(n)]
        comps = []
        for i, row in enumerate(rows):
            terms = dict(zip(units, row))
            if offset is not None:
                terms[(0,) * n] = offset[i]
            comps.append(RationalPoly(n, terms))
        return cls(comps)

    @classmethod
    def gradient_of(cls, potential: RationalPoly) -> "PolyField":
        """The exact gradient field of a polynomial potential."""
        return cls(potential.partial(v) for v in range(potential.nvars))

    def __eq__(self, other):
        if isinstance(other, PolyField):
            return self.components == other.components
        return NotImplemented

    def __hash__(self):
        return hash(self.components)

    def evaluate(self, point: Sequence) -> list:
        return [p.evaluate(point) for p in self.components]

    def compose(self, subs: Sequence[RationalPoly]) -> "PolyField":
        """Substitute variable i by ``subs[i]`` in every component; exact.

        All substituted polynomials must share a variable count, which
        becomes the variable count of the result.  Each distinct monomial
        of the components is formed once, in graded order, as a shorter
        one times a single substitution, and added into every component
        that has it; a formed monomial is kept only while a longer one
        still needs it.
        """
        if len(subs) != self.nvars:
            raise ValueError(f"need {self.nvars} substitutions, got {len(subs)}")
        if not subs:
            return self
        out_nvars = subs[0].nvars
        if any(p.nvars != out_nvars for p in subs):
            raise ValueError("substituted polynomials must share a variable count")
        n = self.nvars
        max_terms = MAX_TERMS
        _require_degree(max(p.degree() for p in self.components)
                        * max(p.degree() for p in subs), "composition")
        # every monomial to form, and how many others are formed from each
        todo: set[int] = set()
        extenders: Counter[int] = Counter()
        for comp in self.components:
            for key in comp._terms:
                while key not in todo:
                    todo.add(key)
                    if key >> n * EXPONENT_BITS < 2:
                        break
                    key = _peel(key, n)[1]
                    extenders[key] += 1
        formed: dict[int, RationalPoly] = {}
        sums: list[dict[int, Fraction]] = [{} for _ in self.components]
        for key in sorted(todo):
            degree = key >> n * EXPONENT_BITS
            if degree == 0:
                value = RationalPoly.constant(out_nvars, 1)
            elif degree == 1:
                value = subs[_peel(key, n)[0]]
            else:
                var, prefix = _peel(key, n)
                value = formed[prefix].mul(subs[var])
                extenders[prefix] -= 1
                if not extenders[prefix]:
                    del formed[prefix]
            for comp, acc in zip(self.components, sums):
                coeff = comp._terms.get(key)
                if coeff is not None:
                    _add_scaled(acc, value._terms, coeff)
                    if len(acc) > max_terms:
                        raise PolynomialSizeError(
                            f"composition exceeds term ceiling ({max_terms} terms)")
            if extenders[key]:
                formed[key] = value
        return PolyField(RationalPoly._trusted(out_nvars, acc) for acc in sums)

    def to_texts(self, names: Sequence[str] | None = None) -> list[str]:
        return [p.to_text(names) for p in self.components]

    def __repr__(self):
        return f"PolyField({self.to_texts()!r})"


def _resolve_coords(field: PolyField, coord_vars: Sequence[int] | None) -> tuple[int, ...]:
    n = field.ncomponents
    if coord_vars is None:
        if field.nvars != n:
            raise ValueError(
                "component count differs from variable count; pass coord_vars")
        return tuple(range(n))
    coords = tuple(coord_vars)
    if len(coords) != n or len(set(coords)) != n:
        raise ValueError("coord_vars must name one distinct variable per component")
    if any(not (0 <= v < field.nvars) for v in coords):
        raise IndexError("coord_vars index out of range")
    return coords


def iterate_poly_field(field: PolyField, k: int,
                       coord_vars: Sequence[int] | None = None) -> PolyField:
    """The k-fold self-composition of a polynomial field, exactly.

    Variables outside ``coord_vars`` are carried along unchanged, which
    is how symbolic coefficients ride through the composition.
    """
    k = _require_count("k", k)
    return next(itertools.islice(poly_iterates(field, coord_vars), k - 1, None))


def poly_iterates(field: PolyField, coord_vars: Sequence[int] | None = None) -> Iterator[PolyField]:
    """Yield V, V o V, V o V o V, ... exactly, each composed as V o V^(k-1)
    from the one before; the next iterate is built only when asked for."""
    coords = _resolve_coords(field, coord_vars)
    subs = [RationalPoly.variable(field.nvars, v) for v in range(field.nvars)]
    current = field
    while True:
        yield current
        for i, v in enumerate(coords):
            subs[v] = current.components[i]
        current = field.compose(subs)


def jacobian_polys(field: PolyField, coord_vars: Sequence[int] | None = None) -> list[list[RationalPoly]]:
    """Matrix of exact partial derivatives of the components."""
    coords = _resolve_coords(field, coord_vars)
    return [[comp.partial(v) for v in coords] for comp in field.components]


def asymmetry_pairs(field: PolyField, k: int,
                    coord_vars: Sequence[int] | None = None) -> Iterator[tuple[int, int, RationalPoly]]:
    """(i, j, J(V^k)[i][j] - J(V^k)[j][i]) for every i < j, in row order;
    each entry and its two partials are formed only when asked for."""
    iterated = iterate_poly_field(field, k, coord_vars=coord_vars)
    coords = _resolve_coords(iterated, coord_vars)
    comps = iterated.components
    for i, j in itertools.combinations(range(len(comps)), 2):
        yield i, j, comps[i].partial(coords[j]) - comps[j].partial(coords[i])


def asymmetry_polys(field: PolyField, k: int,
                    coord_vars: Sequence[int] | None = None) -> list[list[RationalPoly]]:
    """J(V^k) - J(V^k)^T as a matrix of exact polynomials.

    The iterated field is a gradient field over all of R^n exactly when
    every entry is the zero polynomial; the matrix is antisymmetric, so
    each pair i < j is formed once, its mirror is its negation and the
    diagonal is zero; for n = 2 the (0, 1) entry determines it.
    """
    n = field.ncomponents
    zero = RationalPoly.zero(field.nvars)
    D = [[zero] * n for _ in range(n)]
    for i, j, entry in asymmetry_pairs(field, k, coord_vars=coord_vars):
        D[i][j], D[j][i] = entry, -entry
    return D


# ----- 2-D linear fields with exact or symbolic coefficients -----

def linear_asymmetry_symbolic(k: int) -> RationalPoly:
    """Off-diagonal asymmetry P[0][1] - P[1][0] of the k-th power P of
    [[a, b], [c, d]], over the polynomial ring in the four entries: zero at
    exactly the entries whose linear field x -> A x is k-conservative."""
    k = _require_count("k", k)
    a, b, c, d = (RationalPoly.variable(4, i) for i in range(4))
    A = [[a, b], [c, d]]
    P = [[RationalPoly.constant(4, 1), RationalPoly.zero(4)],
         [RationalPoly.zero(4), RationalPoly.constant(4, 1)]]
    for _ in range(k):
        P = [[P[i][0] * A[0][j] + P[i][1] * A[1][j] for j in range(2)] for i in range(2)]
    return P[0][1] - P[1][0]


# ----- gradients of plane cubics with symbolic coefficients -----
#
# The potential a*x^3 + b*x^2*y + c*x*y^2 + d*y^3 lives in the six
# variable ring (a, b, c, d, x, y); its gradient field has the last two
# variables as coordinates.

CUBIC_RING_NAMES = ("a", "b", "c", "d", "x", "y")
CUBIC_COORD_VARS = (4, 5)


def cubic_gradient_symbolic() -> PolyField:
    """Gradient of the general plane cubic, coefficients symbolic."""
    def mono(coeff, ea, eb, ec, ed, ex, ey):
        return RationalPoly.monomial(6, coeff, (ea, eb, ec, ed, ex, ey))

    gx = mono(3, 1, 0, 0, 0, 2, 0) + mono(2, 0, 1, 0, 0, 1, 1) + mono(1, 0, 0, 1, 0, 0, 2)
    gy = mono(1, 0, 1, 0, 0, 2, 0) + mono(2, 0, 0, 1, 0, 1, 1) + mono(3, 0, 0, 0, 1, 0, 2)
    return PolyField([gx, gy])


def cubic_gate(a, b, c, d) -> Fraction:
    """3ac - b^2 + 3bd - c^2; zero exactly when the cubic's gradient is 2-conservative."""
    a, b, c, d = (to_fraction(v) for v in (a, b, c, d))
    return 3 * a * c - b * b + 3 * b * d - c * c


def cubic_gate_symbolic() -> RationalPoly:
    a, b, c, d = (RationalPoly.variable(4, i) for i in range(4))
    return 3 * a * c - b * b + 3 * b * d - c * c


def cubic_asymmetry_coefficients(k: int) -> dict[tuple[int, int], RationalPoly]:
    """Coefficient polynomials (in a, b, c, d) of the cubic family's asymmetry at k.

    Keys are (x-exponent, y-exponent) of the scalar asymmetry entry
    J(V^k)[0][1] - J(V^k)[1][0]; values are exact polynomials in the four
    cubic coefficients.
    """
    field = cubic_gradient_symbolic()
    D = asymmetry_polys(field, k, coord_vars=CUBIC_COORD_VARS)
    return group_by_vars(D[0][1], CUBIC_COORD_VARS)
