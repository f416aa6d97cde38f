"""Vector fields on R^n: construction, evaluation, iteration, Jacobians.

Fields are immutable after construction and evaluation is stateless, so
values are safe to share across threads.  Iteration composes a field with
itself; a non-finite value produced mid-iteration is an error that carries
the iterate index, because iterated exponential-type fields overflow at
small inputs and the diagnosis matters.

Fields evaluate batches of points; a batch with a failing point raises
NonFiniteValueError from the innermost field that failed.  Only the orbit
walker drops a failing point, by evaluating the halves of that step's batch
until the failing points stand alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import IterfieldError, rationals

if TYPE_CHECKING:
    from .polynomials import PolyField

DEFAULT_FD_STEP = 1e-5


class FieldError(IterfieldError):
    pass


class DimensionMismatchError(FieldError):
    pass


class NonFiniteValueError(FieldError):
    """A field evaluation produced NaN or infinity.

    ``iterate_index`` is the 1-based step at which an iterated evaluation
    blew up, when applicable.
    """

    def __init__(self, message: str, iterate_index: int | None = None):
        super().__init__(message)
        self.iterate_index = iterate_index


class JacobianMethodError(FieldError):
    pass


def as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D point, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    if not _all_finite(v):
        raise NonFiniteValueError(f"point has non-finite entries: {v}")
    return v


def as_points(points, dim: int) -> np.ndarray:
    """An (N, dim) array of finite points, one per row; an empty sequence
    gives N = 0."""
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        X = X.reshape(0, dim)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatchError(f"expected points of dimension {dim}, got shape {X.shape}")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise NonFiniteValueError(f"point has non-finite entries: {X[np.argmax(bad)]}")
    return X


def as_matrix(M, dim: int | None = None) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if dim is not None and A.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {A.shape[0]}")
    if not np.isfinite(A).all():
        raise NonFiniteValueError("matrix has non-finite entries")
    return A


def _require_count(name: str, count) -> int:
    """An iteration count or order as an int: an int or numpy integer, not
    a bool, and >= 1.  Every public entry that takes one checks it here, so
    a fraction, a string or True is refused, not truncated or read as 1."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    return int(count)


def _require_step(name: str, step) -> float:
    """A step size as a float: a real number, not a bool, finite and > 0.
    Every public entry that takes one checks it here, so a string, True or
    an infinite step, which defines no map, is refused."""
    if isinstance(step, bool) or not isinstance(step, numbers.Real) or not 0 < step < math.inf:
        raise ValueError(f"step size {name} must be finite and positive, got {step!r}")
    return float(step)


# ----- Jacobian methods -----

@dataclass(frozen=True)
class Analytic:
    """Exact Jacobian from the field's own structure."""


@dataclass(frozen=True)
class CentralDifference:
    """Central finite differences with step h."""

    h: float = DEFAULT_FD_STEP

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError("finite-difference step must be positive")


@dataclass(frozen=True)
class ChainProduct:
    """Chain-rule product J(V)(V^{k-1}(x)) ... J(V)(x); only for iterated fields.

    ``base`` picks the per-step Jacobian method; None means analytic when
    the inner field supports it, central differences otherwise.
    """

    base: Analytic | CentralDifference | None = None


# ----- field variants -----

class Field:
    """Base class for vector fields on R^n."""

    dimension: int

    def __call__(self, x) -> np.ndarray:
        x = as_vector(x, self.dimension)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._evaluate(x)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        """The field at a point ``as_vector`` already checked: the one-row
        case of ``_evaluate_rows``."""
        return self._evaluate_rows(x[None, :])[0]

    def _evaluate_rows(self, X: np.ndarray) -> np.ndarray:
        """The field at every row of an (N, n) array of checked points; orbit
        walks and nested fields call this.  If a row's value overflows or
        is not finite, the whole call raises NonFiniteValueError, from the
        innermost field that failed; only the orbit walker drops a failing
        row, by evaluating the halves of the batch again (``_split_rows``)
        until the failing rows stand alone.  A row's value
        never depends on the other rows.  The public entry that leads here
        silences numpy's overflow warnings once."""
        Y = self._rows(X)
        if not _all_finite(Y):
            raise self._nonfinite(X, Y)
        return Y

    def _nonfinite(self, X: np.ndarray, Y: np.ndarray) -> NonFiniteValueError:
        """The error naming the first row of X whose value in Y is not finite."""
        bad = ~np.isfinite(Y).all(axis=1)
        return NonFiniteValueError(f"{self.describe()} produced a non-finite value "
                                   f"at x={X[np.argmax(bad)].tolist()}")

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """Raw values at every row, for ``_evaluate_rows`` to check.  This
        generic form calls ``_eval`` once per row, in order."""
        Y = np.empty(X.shape)
        for r, x in enumerate(X):
            try:
                y = np.asarray(self._eval(x), dtype=float)
            except OverflowError as err:
                raise self._overflowed(x) from err
            if y.shape != x.shape:
                raise DimensionMismatchError(
                    f"{self.describe()} returned shape {y.shape}, expected {x.shape}")
            Y[r] = y
        return Y

    def _overflowed(self, x: np.ndarray) -> NonFiniteValueError:
        return NonFiniteValueError(f"{self.describe()} overflowed at x={x.tolist()}")

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_analytic(self, x: np.ndarray) -> np.ndarray | None:
        """Exact Jacobian at x, or None when the variant has no analytic form."""
        return None

    def _analytic_rows(self, X: np.ndarray):
        """(J, raised): ``jacobian_analytic`` at every row of X, stacked
        (N, n, n), or J None when the field has no analytic form, and the
        OverflowError or NonFiniteValueError of each row that raised one, by
        row (its row of J is zero).  A leaf looks its method up once per
        batch, calls it once per row (also after a row gave None) and
        builds the float stack once from the rows it collected; a composite
        builds its stack from its parts' stacks, each part at the rows no
        earlier part raised at."""
        analytic, shape = self.jacobian_analytic, (self.dimension, self.dimension)
        rows, raised, missing = [], {}, False
        for r, x in enumerate(X):
            try:
                Jr = analytic(x)
            except (OverflowError, NonFiniteValueError) as err:
                raised[r] = err
                Jr = np.zeros(shape)
            if Jr is None:
                missing = True
            rows.append(Jr)
        if missing:
            return None, raised
        return (np.array(rows, dtype=float) if rows else np.zeros((0, *shape))), raised

    def _jacobian_rows(self, X: np.ndarray, base):
        """(J, errors): the step Jacobian at every row of X, stacked
        (N, n, n), and the NonFiniteValueError of each row whose Jacobian
        raised one, by row; an overflow names this field, the one the step
        was asked of.  ``base`` is decided once per batch, as in
        ChainProduct: the stack of ``_analytic_rows`` when every part of the
        field has one, else central differences of the whole field at each
        row that did not raise."""
        J, errors = None, {}
        if not isinstance(base, CentralDifference):
            J, errors = self._analytic_rows(X)
            for r, err in errors.items():
                if isinstance(err, OverflowError):
                    errors[r] = NonFiniteValueError(
                        f"Jacobian of {self.describe()} overflowed at x={X[r].tolist()}")
                    errors[r].__cause__ = err
            if J is None and isinstance(base, Analytic):
                missing = JacobianMethodError(
                    f"{self.describe()} has no analytic Jacobian; use central differences")
                missing.errors = errors  # the rows that raised before the lack showed
                raise missing
        if J is None:
            h = getattr(base, "h", DEFAULT_FD_STEP)
            J = _rows_left(lambda P: _stack_rows(
                P, lambda r, x: _finite_difference_jacobian(self, x, h), (self.dimension,) * 2),
                X, errors)
        return J, errors

    def as_affine(self):
        """Exact rational (A, b) with field(x) = A x + b, or None."""
        form = self._affine_form()
        return None if form is None else rationals.affine_parts(form)

    def _affine_form(self):
        """The exact affine map in ``rationals``' augmented integer form
        [[A, b], [0, 1]] over one denominator, or None."""
        return None

    def as_polyfield(self) -> PolyField | None:
        """Exact polynomial representation, or None."""
        return None

    def _has_polyfield(self) -> bool:
        """Whether ``as_polyfield`` gives a polynomial, told from the tree's
        classes without forming one: a leaf has one when its class defines
        ``as_polyfield``, a combinator when every operand has one.  So a
        combinator forms no operand's polynomial unless all have one."""
        return type(self).as_polyfield is not Field.as_polyfield

    def describe(self) -> str:
        return type(self).__name__.lower()


def _one_row_jacobian(field: Field, x: np.ndarray) -> np.ndarray | None:
    """A composite's ``jacobian_analytic``: the one-row case of its
    ``_analytic_rows``, raising what that row raised."""
    J, raised = field._analytic_rows(x[None, :])
    if raised:
        raise raised[0]
    return None if J is None else J[0]


class Constant(Field):
    def __init__(self, value):
        self.value = as_vector(value)
        self.dimension = self.value.shape[0]

    def _rows(self, X):
        return np.tile(self.value, (X.shape[0], 1))

    def jacobian_analytic(self, x):
        return np.zeros((self.dimension, self.dimension))

    def _affine_form(self):
        return rationals.affine_numerators(np.zeros((self.dimension,) * 2), self.value)

    def as_polyfield(self):
        from .polynomials import PolyField, RationalPoly
        n = self.dimension
        return PolyField([RationalPoly.constant(n, rationals.to_fraction(v)) for v in self.value])

    def describe(self):
        return f"constant({self.value.tolist()})"


class Linear(Field):
    def __init__(self, matrix):
        self.matrix = as_matrix(matrix)
        self.dimension = self.matrix.shape[0]

    def _rows(self, X):
        return _row_times(X, self.matrix.T)

    def jacobian_analytic(self, x):
        return self.matrix.copy()

    def _affine_form(self):
        return rationals.affine_numerators(self.matrix, np.zeros(self.dimension))

    def as_polyfield(self):
        from .polynomials import PolyField
        return PolyField.linear(self.matrix)

    def describe(self):
        return f"linear({self.matrix.tolist()})"


class Affine(Field):
    def __init__(self, matrix, offset):
        self.matrix = as_matrix(matrix)
        self.dimension = self.matrix.shape[0]
        self.offset = as_vector(offset, self.dimension)

    def _rows(self, X):
        return _row_times(X, self.matrix.T) + self.offset

    def jacobian_analytic(self, x):
        return self.matrix.copy()

    def _affine_form(self):
        return rationals.affine_numerators(self.matrix, self.offset)

    def as_polyfield(self):
        from .polynomials import PolyField
        return PolyField.linear(self.matrix, self.offset)

    def describe(self):
        return f"affine({self.matrix.tolist()}, {self.offset.tolist()})"


class Rotation2D(Field):
    """Rotation of the plane by pi/j, stored by the integer j.

    The matrix is computed once; exactness questions (is the k-th power
    symmetric?) are decided by the divisibility j | k, never float trig.
    """

    def __init__(self, j: int):
        self.j = _require_count("rotation order j", j)
        self.dimension = 2
        theta = math.pi / self.j
        c, s = math.cos(theta), math.sin(theta)
        self.matrix = np.array([[c, s], [-s, c]])

    def _rows(self, X):
        return _row_times(X, self.matrix.T)

    def jacobian_analytic(self, x):
        return self.matrix.copy()

    def describe(self):
        return f"rotation(j={self.j})"


@dataclass(frozen=True)
class ScalarMap:
    """A scalar C^1 map with its derivative, for coordinate-wise fields."""

    name: str
    fn: Callable[[float], float]
    deriv: Callable[[float], float] | None = None


class CoordWise1D(Field):
    """x -> (f_1(x_1), ..., f_n(x_n)) for scalar C^1 maps f_i.

    Always a gradient field: the potential is the sum of coordinate-wise
    antiderivatives, computed here by adaptive quadrature from 0.
    """

    def __init__(self, maps: Sequence[ScalarMap]):
        self.maps = tuple(maps)
        if not self.maps:
            raise ValueError("need at least one coordinate map")
        self.dimension = len(self.maps)

    def _eval(self, x):
        return np.array([float(m.fn(t)) for m, t in zip(self.maps, x)])

    def jacobian_analytic(self, x):
        if any(m.deriv is None for m in self.maps):
            return None
        return np.diag([float(m.deriv(t)) for m, t in zip(self.maps, x)])

    def potential(self, x) -> float:
        from .quadrature import integrate
        x = as_vector(x, self.dimension)
        total = sum(integrate(m.fn, 0.0, float(t)) for m, t in zip(self.maps, x))
        if not math.isfinite(total):
            raise NonFiniteValueError(f"potential of {self.describe()} is {total} at x={x.tolist()}")
        return total

    def describe(self):
        return f"coordwise({[m.name for m in self.maps]})"


class GdMap(Field):
    """The gradient-descent map x -> x - gamma * G(x) for a gradient field G.

    A step is built from G's raw rows and checked once: with x finite and
    gamma > 0, a non-finite row of G gives a non-finite step row.  Only a
    step that fails evaluates G again, with its checks, so the innermost
    failing field raises its own message (the step's own, if G passes)."""

    def __init__(self, inner: Field, gamma: float):
        self.inner = inner
        self.gamma = _require_step("gamma", gamma)
        self.dimension = inner.dimension
        self._eye = np.eye(self.dimension)

    def _rows(self, X):
        return X - self.gamma * self.inner._rows(X)

    def _evaluate_rows(self, X):
        Y = self._rows(X)
        if not _all_finite(Y):
            self.inner._evaluate_rows(X)
            raise self._nonfinite(X, Y)
        return Y

    jacobian_analytic = _one_row_jacobian

    def _analytic_rows(self, X):
        J, raised = self.inner._analytic_rows(X)
        return (None if J is None else self._eye - self.gamma * J), raised

    def _affine_form(self):
        inner = self.inner._affine_form()
        if inner is None:
            return None
        identity = rationals.affine_numerators(self._eye, np.zeros(self.dimension))
        return rationals.affine_combination([(1, identity), (-self.gamma, inner)])

    def _has_polyfield(self):
        return self.inner._has_polyfield()

    def as_polyfield(self):
        inner = self.inner.as_polyfield()
        if inner is None:
            return None
        from .polynomials import PolyField, RationalPoly
        g = rationals.to_fraction(self.gamma)
        n = self.dimension
        return PolyField([RationalPoly.variable(n, i) - g * inner.components[i]
                          for i in range(n)])

    def describe(self):
        return f"gd(gamma={self.gamma}, {self.inner.describe()})"


class Iterate(Field):
    """The k-fold self-composition of a field.

    Nested iterates normalize multiplicatively: Iterate(Iterate(V, a), b)
    stores Iterate(V, a*b).  A value takes the k steps of V as batches, and
    a failing step raises for the whole batch, tagged with its index, as a
    one-row walk records it; the public call or walk that leads here has
    silenced numpy's overflow warnings.
    """

    def __init__(self, inner: Field, k: int):
        k = _require_count("k", k)
        while isinstance(inner, Iterate):
            k *= inner.k
            inner = inner.inner
        self.inner = inner
        self.k = k
        self.dimension = inner.dimension

    def _evaluate_rows(self, X):
        # an empty batch calls nothing, as a walk with no row left
        if X.shape[0]:
            for i in range(1, self.k + 1):
                try:
                    X = self.inner._evaluate_rows(X)
                except NonFiniteValueError as err:
                    raise _tagged(err, i, self.k)
        return X

    _rows = _evaluate_rows

    jacobian_analytic = _one_row_jacobian

    def _analytic_rows(self, X):
        """The chain Jacobians of one walk of every row of X.  A dropped row
        raised what its own walk raises, kept by the walk, so each leaf is
        called as often as walking the rows one at a time calls it.  A
        missing analytic form shows at the first step, before any row left:
        whether a leaf has one does not depend on the point."""
        dropped = {}
        try:
            ((live, _, J),) = _walk_rows(self, X, 1, dropped, jacobians=True, base=Analytic())
        except JacobianMethodError as missing:
            return None, missing.errors
        if len(live) < X.shape[0]:
            full = np.zeros((X.shape[0], *J.shape[1:]))
            full[live] = J
            J = full
        return J, dropped

    def _affine_form(self):
        inner = self.inner._affine_form()
        return None if inner is None else rationals.power(*inner, self.k)

    def _has_polyfield(self):
        return self.inner._has_polyfield()

    def as_polyfield(self):
        from .polynomials import iterate_poly_field
        inner = self.inner.as_polyfield()
        if inner is None:
            return None
        return iterate_poly_field(inner, self.k)

    def describe(self):
        return f"iterate(k={self.k}, {self.inner.describe()})"


class Sum(Field):
    """Weighted sum of fields, evaluated and accumulated in the given order."""

    def __init__(self, fields: Sequence[Field], weights: Sequence[float] | None = None):
        self.fields = tuple(fields)
        if not self.fields:
            raise ValueError("need at least one field")
        self.dimension = self.fields[0].dimension
        if any(f.dimension != self.dimension for f in self.fields):
            raise DimensionMismatchError("summed fields must share a dimension")
        if weights is None:
            self.weights = (1.0,) * len(self.fields)
        else:
            self.weights = tuple(float(w) for w in weights)
            if len(self.weights) != len(self.fields):
                raise ValueError("need one weight per field")

    def _rows(self, X):
        total = np.zeros(X.shape)
        for w, f in zip(self.weights, self.fields):
            total += w * f._evaluate_rows(X)
        return total

    jacobian_analytic = _one_row_jacobian

    def _analytic_rows(self, X):
        total, raised = np.zeros((X.shape[0], self.dimension, self.dimension)), {}
        for w, f in zip(self.weights, self.fields):
            J = _rows_left(f._analytic_rows, X, raised)
            if J is None:
                return None, raised
            total += w * J
        return total, raised

    def _affine_form(self):
        parts = []
        for w, f in zip(self.weights, self.fields):
            part = f._affine_form()
            if part is None:
                return None
            parts.append((w, part))
        return rationals.affine_combination(parts)

    def _has_polyfield(self):
        return all(f._has_polyfield() for f in self.fields)

    def as_polyfield(self):
        if not self._has_polyfield():
            return None
        parts = []
        for f in self.fields:
            part = f.as_polyfield()
            if part is None:
                return None
            parts.append(part)
        from .polynomials import PolyField, RationalPoly
        n = self.dimension
        comps = [RationalPoly.zero(n) for _ in range(n)]
        for w, part in zip(self.weights, parts):
            wf = rationals.to_fraction(w)
            comps = [acc + wf * p for acc, p in zip(comps, part.components)]
        return PolyField(comps)

    def describe(self):
        inner = ", ".join(f.describe() for f in self.fields)
        return f"sum([{inner}], weights={list(self.weights)})"


class Scale(Field):
    def __init__(self, c: float, inner: Field):
        self.c = float(c)
        self.inner = inner
        self.dimension = inner.dimension

    def _rows(self, X):
        return self.c * self.inner._evaluate_rows(X)

    jacobian_analytic = _one_row_jacobian

    def _analytic_rows(self, X):
        J, raised = self.inner._analytic_rows(X)
        return (None if J is None else self.c * J), raised

    def _affine_form(self):
        part = self.inner._affine_form()
        return None if part is None else rationals.affine_combination([(self.c, part)])

    def _has_polyfield(self):
        return self.inner._has_polyfield()

    def as_polyfield(self):
        part = self.inner.as_polyfield()
        if part is None:
            return None
        from .polynomials import PolyField
        cf = rationals.to_fraction(self.c)
        return PolyField([cf * p for p in part.components])

    def describe(self):
        return f"scale({self.c}, {self.inner.describe()})"


class Compose(Field):
    """outer after inner; the general two-field composition."""

    def __init__(self, outer: Field, inner: Field):
        if outer.dimension != inner.dimension:
            raise DimensionMismatchError("composed fields must share a dimension")
        self.outer = outer
        self.inner = inner
        self.dimension = outer.dimension

    def _rows(self, X):
        return self.outer._evaluate_rows(self.inner._evaluate_rows(X))

    jacobian_analytic = _one_row_jacobian

    def _analytic_rows(self, X):
        """J(outer)(inner(x)) @ J(inner)(x), inner(x) from one batch at the
        rows whose J(inner) exists; a failing row raises as it does alone."""
        Ji, raised = self.inner._analytic_rows(X)
        if Ji is None:
            return None, raised
        Y = _rows_left(lambda P: _split_rows(self.inner._evaluate_rows, P), X, raised)
        Jo = _rows_left(self.outer._analytic_rows, Y, raised)
        return (None if Jo is None else Jo @ Ji), raised

    def _affine_form(self):
        i = self.inner._affine_form()
        o = None if i is None else self.outer._affine_form()
        return None if o is None else rationals.affine_compose(o, i)

    def _has_polyfield(self):
        return self.outer._has_polyfield() and self.inner._has_polyfield()

    def as_polyfield(self):
        # a GLM after a Linear, or a Linear after a GLM, is refused before
        # the Linear's polynomial is formed
        if not self._has_polyfield():
            return None
        o, i = self.outer.as_polyfield(), self.inner.as_polyfield()
        if o is None or i is None:
            return None
        return o.compose(i.components)

    def describe(self):
        return f"compose({self.outer.describe()}, {self.inner.describe()})"


class PolyExact(Field):
    """A field given by exact polynomials, evaluated in floats on demand."""

    def __init__(self, polyfield: PolyField):
        if polyfield.ncomponents != polyfield.nvars:
            raise DimensionMismatchError(
                "polynomial field must have one component per variable")
        from .polynomials import jacobian_polys
        self.polyfield = polyfield
        self.dimension = polyfield.ncomponents
        self._jacobian = jacobian_polys(polyfield)

    def _eval(self, x):
        point = [float(t) for t in x]
        return np.array([float(p.evaluate(point)) for p in self.polyfield.components])

    def jacobian_analytic(self, x):
        point = [float(t) for t in x]
        return np.array([[float(p.evaluate(point)) for p in row] for row in self._jacobian])

    def as_polyfield(self):
        return self.polyfield

    def describe(self):
        return f"poly({self.polyfield.to_texts()})"


class Callback(Field):
    """A field given by a user callable; must be a pure function of x."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dimension: int,
                 jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
                 name: str = "callback"):
        self.fn = fn
        self.dimension = int(dimension)
        self.jac = jacobian
        self.name = name

    def _eval(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def jacobian_analytic(self, x):
        if self.jac is None:
            return None
        return as_matrix(self.jac(x), self.dimension)

    def describe(self):
        return f"callback({self.name})"


def identity_field(n: int) -> Linear:
    return Linear(np.eye(n))


# ----- operations -----

def evaluate(field: Field, x) -> np.ndarray:
    """Evaluate the field at a point (dimension-checked, finite-checked)."""
    return field(x)


def compose(outer: Field, inner: Field) -> Field:
    """The field x -> outer(inner(x))."""
    return Compose(outer, inner)


def gd_map(f_grad: Field, gamma: float) -> GdMap:
    """The gradient-descent map x -> x - gamma * f_grad(x); gamma must be finite and positive."""
    return GdMap(f_grad, gamma)


def _all_finite(A: np.ndarray) -> bool:
    """np.isfinite(A).all() without the method dispatch, which dominates at
    the sizes a one-point walk uses."""
    return np.logical_and.reduce(np.isfinite(A), axis=None)


def _row_times(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """x @ B for every row x of X.  numpy's stacked product works matrix by
    matrix, so each row is bit-equal to x @ B alone (and, for B = A.T, to
    A @ x), which is what one row takes."""
    if X.shape[0] == 1:
        return X @ B
    return np.matmul(X[:, None, :], B)[:, 0, :]


def _finite_difference_jacobian(field: Field, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences from one batch of the points x + h e_j, x - h e_j;
    if it raises, the first of them that fails alone raises."""
    n = field.dimension
    steps = h * np.eye(n)
    P = np.empty((2 * n, n))
    P[0::2], P[1::2] = x + steps, x - steps
    try:
        Y = field._evaluate_rows(P)
    except NonFiniteValueError:
        for p in P:
            field._evaluate(p)
        raise
    return np.ascontiguousarray(((Y[0::2] - Y[1::2]) / (2.0 * h)).T)


def _stack_rows(X: np.ndarray, value_at, shape: tuple):
    """(S, errors): S[r] = value_at(r, x), of the given shape, for each row
    x of X, and the NonFiniteValueError of each row whose call raised one,
    by row (S[r] is then left unset)."""
    S = np.empty((X.shape[0], *shape))
    errors = {}
    for r, x in enumerate(X):
        try:
            S[r] = value_at(r, x)
        except NonFiniteValueError as err:
            errors[r] = err
    return S, errors


def _rows_left(rows_fn, P: np.ndarray, raised: dict):
    """The stack that rows_fn, giving (stack or None, errors by row), gives
    at the rows of P not in ``raised``, zero at the others; the rows it
    raised at join ``raised``."""
    ok = np.delete(np.arange(P.shape[0]), list(raised)) if raised else range(P.shape[0])
    S, more = rows_fn(P[ok] if raised else P)
    raised.update((int(ok[r]), err) for r, err in more.items())
    if S is None or len(ok) == P.shape[0]:
        return S
    full = np.zeros((P.shape[0], *S.shape[1:]))
    full[ok] = S
    return full


def _attempt(rows_fn, X: np.ndarray):
    """(rows_fn(X), None), or (None, the NonFiniteValueError it raised)."""
    try:
        return rows_fn(X), None
    except NonFiniteValueError as err:
        return None, err


def _split_rows(rows_fn, X: np.ndarray, err: NonFiniteValueError | None = None):
    """(Y, errors) as ``_stack_rows`` gives them for rows_fn at each row of X
    alone, from a batch function that raises NonFiniteValueError when any
    row fails; ``err`` is what a call on X already raised.  A row's value
    never depends on the other rows, so a batch that raises is halved, and
    a half that raises is halved again until its failing rows stand alone:
    O(f log N) calls for f failing rows among N.  Where both halves raise,
    failures are dense and one call per row costs less."""
    if err is None:
        Y, err = _attempt(rows_fn, X)
        if err is None:
            return Y, {}
    if X.shape[0] == 1:
        return np.empty(X.shape), {0: err}
    h = X.shape[0] // 2
    halves = [(part, *_attempt(rows_fn, part)) for part in (X[:h], X[h:])]
    if halves[0][2] and halves[1][2]:
        return _stack_rows(X, lambda r, x: rows_fn(x[None, :])[0], X.shape[1:])
    (Y0, e0), (Y1, e1) = [(Y, {}) if e is None else _split_rows(rows_fn, part, e)
                          for part, Y, e in halves]
    return np.concatenate([Y0, Y1]), {**e0, **{h + r: e for r, e in e1.items()}}


def walk_rows(field: Field, points, k_max: int, jacobians: bool = False,
              dropped: dict | None = None):
    """Walk the orbits x, F(x), ..., F^k_max(x) of every row of an (N, n)
    array of points together, in one pass.

    Iterate(V, m) is walked as m steps of V per step of F.  Yields, for
    j = 1..k_max, ``(live, Y)`` with Y[r] = F^j of row live[r], or with
    ``jacobians`` ``(live, step, prefix)``: the stacked pairs (J(F) at
    F^(j-1)(x), J(F^j)(x)), accumulated per step of V as ``step @ prefix``
    (forward-mode chain accumulation).  Step Jacobians are analytic when V
    has one, else central differences.  A Jacobian walk never evaluates
    F^k_max(x).  ``live`` holds the indices of the rows still walking, in
    order.  A row whose value or chain Jacobian is not finite leaves
    ``live`` at that step and stays out; its NonFiniteValueError, a value's
    tagged with the 1-based step of V, goes into ``dropped``, when given,
    by row: what walking that row alone records.  Each step makes one batched value evaluation,
    one stack of step Jacobians and one stacked chain product.
    Composites take the step Jacobians per batch, from their parts'
    stacks; leaves take them per point, one leaf Jacobian call per live
    row.  A step whose batched evaluation raises is evaluated again in
    halves, down to the rows that fail alone, so it costs O(f log N) more
    evaluations for f failing rows.
    """
    return _walk_rows(field, as_points(points, field.dimension), k_max,
                      {} if dropped is None else dropped, jacobians)


def _walk_rows(field: Field, X: np.ndarray, k_max: int, dropped: dict,
               jacobians: bool = False, base: Analytic | CentralDifference | None = None):
    """walk_rows on checked points.  The one place that decides what a
    failing row does: it leaves the walk, and the error its own one-row
    walk records goes into ``dropped`` by its row of X.  A step's
    Jacobians are one ``_jacobian_rows`` batch of V: stacked per batch
    through composites and per point at leaves.  Each step of F silences
    numpy's overflow warnings once, and never across a yield."""
    inner, stride = (field.inner, field.k) if isinstance(field, Iterate) else (field, 1)
    total = stride * k_max
    live = np.arange(X.shape[0])
    # a walk with no row left yields empty stacks
    step = prefix = np.empty((0, X.shape[1], X.shape[1]))
    for j in range(k_max):
        if not len(live):
            yield (live, step, prefix) if jacobians else (live, X)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(j * stride + 1, (j + 1) * stride + 1):
                if not len(live):  # every row left within this step of F
                    break
                # V^(i-1)(x) is computed only where its Jacobian is needed
                if not jacobians or i > 1:
                    X, errors = _advance_rows(inner, X, i - 1 if jacobians else i, total)
                    if errors:
                        keep = _leave(live, errors, dropped)
                        live, X = live[keep], X[keep]
                        if jacobians:
                            step, prefix = step[keep], prefix[keep]
                if not jacobians:
                    continue
                J, errors = inner._jacobian_rows(X, base)
                step = J if i == j * stride + 1 else J @ step
                prefix = step if i <= stride else J @ prefix
                if not errors and _all_finite(prefix) and (stride == 1 or _all_finite(step)):
                    continue
                bad = ~np.isfinite(prefix).all(axis=(1, 2))
                if stride > 1:
                    bad |= ~np.isfinite(step).all(axis=(1, 2))
                bad[list(errors)] = False
                errors.update((int(r), NonFiniteValueError(
                    f"chain Jacobian of {inner.describe()} is non-finite at iterate "
                    f"{i} of {total}", iterate_index=i)) for r in np.flatnonzero(bad))
                keep = _leave(live, errors, dropped)
                live, X, step, prefix = live[keep], X[keep], step[keep], prefix[keep]
        yield (live, step, prefix) if jacobians else (live, X)


def _leave(live: np.ndarray, errors: dict, dropped: dict) -> np.ndarray:
    """The rows a walk keeps, as a mask over ``live``, when the rows in
    ``errors`` (by position in ``live``) leave it; their errors go into
    ``dropped``, by original row."""
    keep = np.ones(len(live), dtype=bool)
    keep[list(errors)] = False
    dropped.update((int(live[r]), err) for r, err in errors.items())
    return keep


def _tagged(err: NonFiniteValueError, i: int, total: int) -> NonFiniteValueError:
    """A value's error as a walk raises it at step i of total: tagged with
    i, unless a walk inside V tagged it already."""
    if err.iterate_index is not None:
        return err
    tagged = NonFiniteValueError(f"{err} (at iterate {i} of {total})", iterate_index=i)
    tagged.__cause__ = err
    return tagged


def _advance_rows(inner: Field, X: np.ndarray, i: int, total: int):
    """Step i of a walk: (V at every row, the error of each row that raises
    alone, tagged with i, by row).  When the batch raises, ``_split_rows``
    finds the rows that raise alone."""
    try:
        return inner._evaluate_rows(X), {}
    except NonFiniteValueError as err:
        Y, errors = _split_rows(inner._evaluate_rows, X, err)
    return Y, {r: _tagged(e, i, total) for r, e in errors.items()}


def jacobian(field: Field, x, method=None) -> np.ndarray:
    """Jacobian of the field at x.

    method None picks the analytic form when the variant has one and
    central differences otherwise.  ChainProduct is only valid on
    iterated fields and multiplies per-step Jacobians along the orbit.
    """
    x = as_vector(x, field.dimension)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(method, ChainProduct):
            if not isinstance(field, Iterate):
                raise JacobianMethodError("chain-product Jacobians require an iterated field")
            dropped = {}
            ((_, _, J),) = _walk_rows(field, x[None, :], 1, dropped, jacobians=True,
                                      base=method.base)
            if dropped:
                raise dropped[0]
            J = J[0]
        elif method is None or isinstance(method, (Analytic, CentralDifference)):
            J, errors = field._jacobian_rows(x[None, :], method)
            if errors:
                raise errors[0]
            J = J[0]
        else:
            raise JacobianMethodError(f"unknown Jacobian method {method!r}")
    if not np.isfinite(J).all():
        raise NonFiniteValueError(f"Jacobian of {field.describe()} is non-finite at x={x.tolist()}")
    return J


def asymmetry(M) -> float:
    """Normalized asymmetry residual ||M - M^T||_F / max(1, ||M||_F).

    Zero exactly when M is symmetric entrywise.  Finite for every finite
    M: if the norms overflow, M is first scaled by its largest entry.
    """
    A = as_matrix(M)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_asymmetry(A[None])[0])


def _asymmetry(A: np.ndarray) -> np.ndarray:
    """asymmetry of every matrix in a finite (N, n, n) float stack,
    unchecked; orbit walks hand their chain products here.  The caller
    silences numpy's overflow warnings.  The norms are np.linalg.norm's
    Frobenius norm, the square root of the flattened matrix's dot with
    itself, taken as one stacked product, so each entry is bit-equal to
    the matrix's residual alone."""
    N, n, _ = A.shape
    D = (A - A.transpose(0, 2, 1)).reshape(N, n * n)
    F = A.reshape(N, n * n)
    gap = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
    norm = np.sqrt(np.matmul(F[:, None, :], F[:, :, None])[:, 0, 0])
    out = np.where(gap == 0.0, 0.0, gap / np.maximum(1.0, norm))
    for r in np.flatnonzero(~(np.isfinite(gap) & np.isfinite(norm))):
        scale = float(np.max(np.abs(A[r])))
        S = A[r] / scale
        out[r] = float(np.linalg.norm(S - S.T)) / max(1.0 / scale, float(np.linalg.norm(S)))
    return out
