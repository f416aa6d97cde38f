"""Vector fields on R^n: construction, evaluation, iteration, Jacobians.

Fields are immutable after construction and evaluation is stateless, so
values are safe to share across threads.  Iteration composes a field with
itself; a non-finite value produced mid-iteration is an error that carries
the iterate index, because iterated exponential-type fields overflow at
small inputs and the diagnosis matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rationals
from .polynomials import PolyField, RationalPoly, jacobian_polys

DEFAULT_FD_STEP = 1e-5


class FieldError(Exception):
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
    if not np.isfinite(v).all():
        raise NonFiniteValueError(f"point has non-finite entries: {v}")
    return v


def as_matrix(M, dim: int | None = None) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if dim is not None and A.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {A.shape[0]}")
    if not np.isfinite(A).all():
        raise NonFiniteValueError("matrix has non-finite entries")
    return A


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
        """The field at a point ``as_vector`` already checked; nested fields and
        orbit walks call this.  Overflow and non-finite results raise
        NonFiniteValueError, so the public entry that leads here (a call, a
        walker step, ``jacobian``) silences numpy's overflow warnings once."""
        try:
            y = np.asarray(self._eval(x), dtype=float)
        except OverflowError as err:
            raise NonFiniteValueError(
                f"{self.describe()} overflowed at x={x.tolist()}") from err
        if y.shape != x.shape:
            raise DimensionMismatchError(
                f"{self.describe()} returned shape {y.shape}, expected {x.shape}")
        if not np.isfinite(y).all():
            raise NonFiniteValueError(f"{self.describe()} produced a non-finite value at x={x.tolist()}")
        return y

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_analytic(self, x: np.ndarray) -> np.ndarray | None:
        """Exact Jacobian at x, or None when the variant has no analytic form."""
        return None

    def as_affine(self):
        """Exact rational (A, b) with field(x) = A x + b, or None."""
        return None

    def as_polyfield(self) -> PolyField | None:
        """Exact polynomial representation, or None."""
        return None

    def describe(self) -> str:
        return type(self).__name__.lower()


class Constant(Field):
    def __init__(self, value):
        self.value = as_vector(value)
        self.dimension = self.value.shape[0]

    def _eval(self, x):
        return self.value.copy()

    def jacobian_analytic(self, x):
        return np.zeros((self.dimension, self.dimension))

    def as_affine(self):
        n = self.dimension
        return rationals.zeros_matrix(n), rationals.fraction_vector(self.value)

    def as_polyfield(self):
        n = self.dimension
        return PolyField([RationalPoly.constant(n, rationals.to_fraction(v)) for v in self.value])

    def describe(self):
        return f"constant({self.value.tolist()})"


class Linear(Field):
    def __init__(self, matrix):
        self.matrix = as_matrix(matrix)
        self.dimension = self.matrix.shape[0]

    def _eval(self, x):
        return self.matrix @ x

    def jacobian_analytic(self, x):
        return self.matrix.copy()

    def as_affine(self):
        return rationals.fraction_matrix(self.matrix), rationals.zeros_vector(self.dimension)

    def as_polyfield(self):
        return PolyField.linear(self.matrix)

    def describe(self):
        return f"linear({self.matrix.tolist()})"


class Affine(Field):
    def __init__(self, matrix, offset):
        self.matrix = as_matrix(matrix)
        self.dimension = self.matrix.shape[0]
        self.offset = as_vector(offset, self.dimension)

    def _eval(self, x):
        return self.matrix @ x + self.offset

    def jacobian_analytic(self, x):
        return self.matrix.copy()

    def as_affine(self):
        return rationals.fraction_matrix(self.matrix), rationals.fraction_vector(self.offset)

    def as_polyfield(self):
        return PolyField.linear(self.matrix, self.offset)

    def describe(self):
        return f"affine({self.matrix.tolist()}, {self.offset.tolist()})"


class Rotation2D(Field):
    """Rotation of the plane by pi/j, stored by the integer j.

    The matrix is computed once; exactness questions (is the k-th power
    symmetric?) are decided by the divisibility j | k, never float trig.
    """

    def __init__(self, j: int):
        if not isinstance(j, (int, np.integer)) or j < 1:
            raise ValueError("rotation order j must be a positive integer")
        self.j = int(j)
        self.dimension = 2
        theta = math.pi / self.j
        c, s = math.cos(theta), math.sin(theta)
        self.matrix = np.array([[c, s], [-s, c]])

    def _eval(self, x):
        return self.matrix @ x

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
    """The gradient-descent map x -> x - gamma * G(x) for a gradient field G."""

    def __init__(self, inner: Field, gamma: float):
        if not (gamma > 0):
            raise ValueError("step size gamma must be positive")
        self.inner = inner
        self.gamma = float(gamma)
        self.dimension = inner.dimension
        self._eye = np.eye(self.dimension)

    def _eval(self, x):
        return x - self.gamma * self.inner._evaluate(x)

    def jacobian_analytic(self, x):
        J = self.inner.jacobian_analytic(x)
        if J is None:
            return None
        return self._eye - self.gamma * J

    def as_affine(self):
        inner = self.inner.as_affine()
        if inner is None:
            return None
        A, b = inner
        g = rationals.to_fraction(self.gamma)
        n = self.dimension
        return (rationals.mat_add(rationals.identity(n), rationals.mat_scale(-g, A)),
                rationals.vec_scale(-g, b))

    def as_polyfield(self):
        inner = self.inner.as_polyfield()
        if inner is None:
            return None
        g = rationals.to_fraction(self.gamma)
        n = self.dimension
        return PolyField([RationalPoly.variable(n, i) - g * inner.components[i]
                          for i in range(n)])

    def describe(self):
        return f"gd(gamma={self.gamma}, {self.inner.describe()})"


class Iterate(Field):
    """The k-fold self-composition of a field.

    Nested iterates normalize multiplicatively: Iterate(Iterate(V, a), b)
    stores Iterate(V, a*b).
    """

    def __init__(self, inner: Field, k: int):
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError("iteration count k must be a positive integer")
        k = int(k)
        while isinstance(inner, Iterate):
            k *= inner.k
            inner = inner.inner
        self.inner = inner
        self.k = k
        self.dimension = inner.dimension

    def _eval(self, x):
        (y,) = _walk(self, x, 1)
        return y

    def jacobian_analytic(self, x):
        try:
            ((_, J),) = _walk(self, x, 1, jacobians=True, base=Analytic())
        except JacobianMethodError:
            return None
        return J

    def as_affine(self):
        inner = self.inner.as_affine()
        if inner is None:
            return None
        A, b = inner
        Ak, bk = A, b
        for _ in range(self.k - 1):
            bk = rationals.vec_add(rationals.mat_vec(A, bk), b)
            Ak = rationals.mat_mul(A, Ak)
        return Ak, bk

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

    def _eval(self, x):
        total = np.zeros(self.dimension)
        for w, f in zip(self.weights, self.fields):
            total += w * f._evaluate(x)
        return total

    def jacobian_analytic(self, x):
        total = np.zeros((self.dimension, self.dimension))
        for w, f in zip(self.weights, self.fields):
            J = f.jacobian_analytic(x)
            if J is None:
                return None
            total += w * J
        return total

    def as_affine(self):
        n = self.dimension
        A = rationals.zeros_matrix(n)
        b = rationals.zeros_vector(n)
        for w, f in zip(self.weights, self.fields):
            part = f.as_affine()
            if part is None:
                return None
            wf = rationals.to_fraction(w)
            A = rationals.mat_add(A, rationals.mat_scale(wf, part[0]))
            b = rationals.vec_add(b, rationals.vec_scale(wf, part[1]))
        return A, b

    def as_polyfield(self):
        n = self.dimension
        comps = [RationalPoly.zero(n) for _ in range(n)]
        for w, f in zip(self.weights, self.fields):
            part = f.as_polyfield()
            if part is None:
                return None
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

    def _eval(self, x):
        return self.c * self.inner._evaluate(x)

    def jacobian_analytic(self, x):
        J = self.inner.jacobian_analytic(x)
        return None if J is None else self.c * J

    def as_affine(self):
        part = self.inner.as_affine()
        if part is None:
            return None
        cf = rationals.to_fraction(self.c)
        return rationals.mat_scale(cf, part[0]), rationals.vec_scale(cf, part[1])

    def as_polyfield(self):
        part = self.inner.as_polyfield()
        if part is None:
            return None
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

    def _eval(self, x):
        return self.outer._evaluate(self.inner._evaluate(x))

    def jacobian_analytic(self, x):
        Ji = self.inner.jacobian_analytic(x)
        if Ji is None:
            return None
        y = self.inner._evaluate(x)
        Jo = self.outer.jacobian_analytic(y)
        if Jo is None:
            return None
        return Jo @ Ji

    def as_affine(self):
        o, i = self.outer.as_affine(), self.inner.as_affine()
        if o is None or i is None:
            return None
        (Ao, bo), (Ai, bi) = o, i
        return (rationals.mat_mul(Ao, Ai),
                rationals.vec_add(rationals.mat_vec(Ao, bi), bo))

    def as_polyfield(self):
        o, i = self.outer.as_polyfield(), self.inner.as_polyfield()
        if o is None or i is None:
            return None
        return PolyField([p.compose(list(i.components)) for p in o.components])

    def describe(self):
        return f"compose({self.outer.describe()}, {self.inner.describe()})"


class PolyExact(Field):
    """A field given by exact polynomials, evaluated in floats on demand."""

    def __init__(self, polyfield: PolyField):
        if polyfield.ncomponents != polyfield.nvars:
            raise DimensionMismatchError(
                "polynomial field must have one component per variable")
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
    """The gradient-descent map x -> x - gamma * f_grad(x); gamma must be positive."""
    return GdMap(f_grad, gamma)


def _finite_difference_jacobian(field: Field, x: np.ndarray, h: float) -> np.ndarray:
    n = field.dimension
    cols = []
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        cols.append((field(x + step) - field(x - step)) / (2.0 * h))
    return np.column_stack(cols)


def _step_jacobian(field: Field, x: np.ndarray,
                   method: Analytic | CentralDifference | None) -> np.ndarray:
    if isinstance(method, CentralDifference):
        return _finite_difference_jacobian(field, x, method.h)
    try:
        J = field.jacobian_analytic(x)
    except OverflowError as err:
        raise NonFiniteValueError(
            f"Jacobian of {field.describe()} overflowed at x={x.tolist()}") from err
    if J is None:
        if isinstance(method, Analytic):
            raise JacobianMethodError(
                f"{field.describe()} has no analytic Jacobian; use central differences")
        return _finite_difference_jacobian(field, x, DEFAULT_FD_STEP)
    return J


def walk_orbit(field: Field, x, k_max: int, jacobians: bool = False,
               base: Analytic | CentralDifference | None = None):
    """Walk the orbit x, F(x), ..., F^k_max(x) of a field F in one pass.

    Iterate(V, m) is walked as m steps of V per step of F.  Yields F^j(x)
    for j = 1..k_max, or with ``jacobians`` the pair (J(F) at F^(j-1)(x),
    J(F^j)(x)), accumulated per step of V as ``step @ prefix``
    (forward-mode chain accumulation).  Step Jacobians are analytic when
    V has one, else central differences; ``base`` forces a method as in
    ChainProduct.  A Jacobian walk never evaluates F^k_max(x).  A
    non-finite value raises NonFiniteValueError with the 1-based step of
    V; what was yielded before stays valid.
    """
    return _walk(field, as_vector(x, field.dimension), k_max, jacobians, base)


def _walk(field: Field, point: np.ndarray, k_max: int, jacobians: bool = False,
          base: Analytic | CentralDifference | None = None):
    """walk_orbit from a point ``as_vector`` already checked.  Each step of F
    silences numpy's overflow warnings once, and never across a yield."""
    inner, stride = (field.inner, field.k) if isinstance(field, Iterate) else (field, 1)
    total = stride * k_max
    step = prefix = None
    for j in range(k_max):
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(j * stride + 1, (j + 1) * stride + 1):
                if not jacobians:
                    point = _advance(inner, point, i, total)
                    continue
                # V^(i-1)(x) is computed only where its Jacobian is needed
                if i > 1:
                    point = _advance(inner, point, i - 1, total)
                J = _step_jacobian(inner, point, base)
                step = J if i == j * stride + 1 else J @ step
                prefix = step if i <= stride else J @ prefix
                if not np.isfinite(prefix).all() or (stride > 1 and not np.isfinite(step).all()):
                    raise NonFiniteValueError(
                        f"chain Jacobian of {inner.describe()} is non-finite at iterate "
                        f"{i} of {total}", iterate_index=i)
        yield (step, prefix) if jacobians else point


def _advance(inner: Field, point: np.ndarray, i: int, total: int) -> np.ndarray:
    """Step i of a walk: V at V^(i-1)(x), its failure tagged with i."""
    try:
        return inner._evaluate(point)
    except NonFiniteValueError as err:
        if err.iterate_index is None:
            raise NonFiniteValueError(
                f"{err} (at iterate {i} of {total})", iterate_index=i) from err
        raise


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
            ((_, J),) = _walk(field, x, 1, jacobians=True, base=method.base)
        elif method is None or isinstance(method, (Analytic, CentralDifference)):
            J = _step_jacobian(field, x, method)
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
        return _asymmetry(A)


def _asymmetry(A: np.ndarray) -> float:
    """asymmetry of a finite square float matrix, unchecked; orbit walks
    hand their chain products here.  The caller silences numpy's overflow
    warnings.  The norms are np.linalg.norm's Frobenius norm, sqrt of the
    dot of the flattened matrix with itself, without its dispatch."""
    d = (A - A.T).ravel(order="K")
    gap = math.sqrt(d.dot(d))
    if gap == 0.0:
        return 0.0
    a = A.ravel(order="K")
    norm = math.sqrt(a.dot(a))
    if math.isfinite(gap) and math.isfinite(norm):
        return gap / max(1.0, norm)
    scale = float(np.max(np.abs(A)))
    S = A / scale
    return float(np.linalg.norm(S - S.T)) / max(1.0 / scale, float(np.linalg.norm(S)))
