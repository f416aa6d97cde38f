"""Gradient fields of generalized linear models and their closed-form iterates.

A model sums a scalar activation over inner products with fixed direction
vectors; its gradient field is a weighted sum of those directions.  When
the directions are mutually orthogonal, every iterate of the gradient
field (and of its gradient-descent map) collapses to per-direction scalar
recursions, which this module evaluates directly instead of looping the
full vector field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import IterfieldError
from .fields import (Field, GdMap, NonFiniteValueError, _all_finite, _require_count,
                     _require_step, _row_times, as_points, as_vector, walk_rows)

ORTHOGONALITY_TOL = 1e-12
DERIVATIVE_CHECK_TOL = 1e-6


class NonOrthogonalError(IterfieldError, ValueError):
    """Closed-form iterates require mutually orthogonal directions."""


@dataclass(frozen=True)
class Activation:
    """A scalar C^1 activation with its derivative.

    ``second`` (the second derivative) is optional; without it, Jacobians
    of model gradient fields fall back to central differences.
    ``curvature_bound`` is sup |second| when finite, used to derive
    smoothness constants.  ``deriv_array`` is sigma' applied elementwise
    to a numpy array, for the batched closed forms and potentials;
    without it, ``derivs`` calls ``deriv`` once per entry.
    """

    name: str
    fn: Callable[[float], float]
    deriv: Callable[[float], float]
    second: Callable[[float], float] | None = None
    curvature_bound: float | None = None
    deriv_array: Callable[[np.ndarray], np.ndarray] | None = None

    def derivs(self, t: np.ndarray) -> np.ndarray:
        """sigma' at every entry of t; a scalar ``deriv`` that overflows
        gives inf there, which the orbit kernel reports."""
        if self.deriv_array is not None:
            return self.deriv_array(t)
        return _entrywise(self.deriv, t)


def _entrywise(fn: Callable[[float], float], t: np.ndarray) -> np.ndarray:
    """fn at every entry of t, one scalar call each; an entry whose call
    overflows is inf."""
    try:
        return np.array([fn(s) for s in t.ravel().tolist()], dtype=float).reshape(t.shape)
    except OverflowError:
        pass
    out = np.empty(t.shape)
    for i, s in enumerate(t.flat):
        try:
            out.flat[i] = fn(float(s))
        except OverflowError:
            out.flat[i] = math.inf
    return out


def derivative_residual(activation: Activation, ts: Sequence[float]) -> float:
    """Max deviation between the stored derivative and a central difference."""
    h = 1e-6
    worst = 0.0
    for t in ts:
        fd = (activation.fn(t + h) - activation.fn(t - h)) / (2.0 * h)
        worst = max(worst, abs(fd - activation.deriv(t)))
    return worst


def _logistic_sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _logistic_sigmoid_array(t: np.ndarray) -> np.ndarray:
    """The two branches of ``_logistic_sigmoid`` elementwise."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _logistic_loss(t: float) -> float:
    # log(1 + e^t), stable for large |t|
    if t > 0:
        return t + math.log1p(math.exp(-t))
    return math.log1p(math.exp(t))


def _logistic_curvature(t: float) -> float:
    s = _logistic_sigmoid(t)
    return s * (1.0 - s)


ACTIVATIONS: dict[str, Activation] = {
    "quadratic": Activation(
        "quadratic", lambda t: 0.5 * t * t, lambda t: t, lambda t: 1.0, 1.0, np.positive),
    "exp": Activation(
        "exp", math.exp, math.exp, math.exp, None, np.exp),
    "logistic": Activation(
        "logistic", _logistic_loss, _logistic_sigmoid, _logistic_curvature, 0.25,
        _logistic_sigmoid_array),
}
_ALIASES = {"logistic-loss": "logistic", "logistic_loss": "logistic"}


@functools.cache
def activation_from_expression(expression: str) -> Activation:
    """Build an activation from a scalar expression in the variable t.

    Differentiates symbolically, so the derivative pair is consistent by
    construction; no curvature bound is inferred.  Each expression is
    parsed once, so every model built from the same text shares one
    activation (and can be stacked with the others).
    """
    import sympy

    t = sympy.Symbol("t")
    try:
        expr = sympy.sympify(expression, convert_xor=True)
    except (sympy.SympifyError, SyntaxError, TypeError) as err:
        raise ValueError(f"cannot parse activation expression {expression!r}: {err}") from err
    if not expr.free_symbols <= {t}:
        extra = sorted(str(s) for s in expr.free_symbols - {t})
        raise ValueError(
            f"activation expression {expression!r} must use only the variable t "
            f"(found {extra})")
    first = sympy.diff(expr, t)
    second = sympy.diff(expr, t, 2)
    # The math module backend raises OverflowError instead of returning inf,
    # matching the overflow-is-an-error policy; the numpy form returns inf
    # or nan there, which the orbit kernel reports.  A constant derivative
    # lambdifies to a scalar, broadcast to the input's shape.
    first_array = sympy.lambdify(t, first, "numpy")
    return Activation(expression,
                      sympy.lambdify(t, expr, "math"),
                      sympy.lambdify(t, first, "math"),
                      sympy.lambdify(t, second, "math"),
                      None,
                      lambda ts: np.broadcast_to(np.asarray(first_array(ts), dtype=float),
                                                 np.shape(ts)))


def get_activation(name: str) -> Activation:
    """Look up a built-in activation by name, or parse an expression in t."""
    key = _ALIASES.get(name, name)
    if key in ACTIVATIONS:
        return ACTIVATIONS[key]
    if not name.isidentifier() or name == "t":
        return activation_from_expression(name)
    known = sorted(set(ACTIVATIONS) | set(_ALIASES))
    raise KeyError(f"unknown activation {name!r}; known: {known}, "
                   "or pass an expression in t such as 'log(1+exp(t))'")


def orthogonality_check(directions) -> float:
    """Max |<z_i, z_j>| over distinct pairs; 0 for a single direction."""
    Z = np.atleast_2d(np.asarray(directions, dtype=float))
    if Z.size == 0:
        raise ValueError("need at least one direction")
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms == 0):
        raise ValueError("direction vectors must be nonzero")
    gram = Z @ Z.T
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off))) if Z.shape[0] > 1 else 0.0


class GlmSpec:
    """Directions plus activation defining a generalized linear model.

    ``gram_residual`` is the worst off-diagonal Gram entry; the orthogonal
    flag is true only when it is at most 1e-12.  The closed-form iterates
    hold under exact orthogonality, so near-orthogonal inputs must not
    silently invoke them.
    """

    def __init__(self, directions, activation: Activation | str):
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.activation = activation
        Z = np.atleast_2d(np.asarray(directions, dtype=float))
        if Z.ndim != 2 or Z.size == 0:
            raise ValueError("directions must be a non-empty list of vectors")
        if not np.isfinite(Z).all():
            raise ValueError("directions must be finite")
        with np.errstate(over="ignore"):
            norms = np.sum(Z * Z, axis=1)
        if not np.isfinite(norms).all():
            raise ValueError("directions are too large: their squared norms overflow")
        if np.any(norms == 0):
            raise ValueError("direction vectors must be nonzero")
        self.directions = Z
        # |z_i|^2 and z_i z_i^T, read by every closed form and Jacobian
        self._norms = norms.tolist()
        self._outers = Z[:, :, None] * Z[:, None, :]
        self.gram_residual = orthogonality_check(Z)
        res = derivative_residual(activation, np.linspace(-2.0, 2.0, 9))
        if res > DERIVATIVE_CHECK_TOL:
            raise ValueError(f"activation {activation.name!r}: derivative mismatch {res:.3e}")

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    @property
    def n_directions(self) -> int:
        return self.directions.shape[0]

    @property
    def orthogonal(self) -> bool:
        return self.gram_residual <= ORTHOGONALITY_TOL

    def norms_squared(self) -> np.ndarray:
        return np.array(self._norms)

    def describe(self) -> str:
        return f"glm({self.activation.name}, m={self.n_directions}, n={self.dimension})"


def _inner_products(spec: GlmSpec, x: np.ndarray) -> list[float]:
    """<x, z_i> for every direction, from one product."""
    return (spec.directions @ x).tolist()


def _combine(spec: GlmSpec, weights: list[float]) -> np.ndarray:
    """sum_i weights_i z_i, one product for the closed forms; the model
    gradient's stacked rows give the same bits, so equal weights give
    bit-equal vectors."""
    return np.array(weights) @ spec.directions


def _combine_outer(spec: GlmSpec, weights: list[float]) -> np.ndarray:
    """sum_i weights_i z_i z_i^T over the outer products stored with the
    spec, added in order; exactly symmetric."""
    return np.add.reduce(np.array(weights)[:, None, None] * spec._outers, axis=0)


def _require_orthogonal(spec: GlmSpec):
    if not spec.orthogonal:
        raise NonOrthogonalError(
            f"directions are not mutually orthogonal (gram residual "
            f"{spec.gram_residual:.3e} > {ORTHOGONALITY_TOL:g})")


def _block_times(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a @ B[b] for every block a = A[r, b] of every row of A, with A's rows
    cut into the c blocks of the (c, p, q) stack B."""
    c, p, q = B.shape
    return np.matmul(A.reshape(A.shape[0], c, 1, p), B).reshape(A.shape[0], c * q)


class GlmGradientStack(Field):
    """The gradients of c models that share an activation, a direction
    count m and a dimension n, side by side: a field on R^(c n) whose row
    holds one point of R^n per model, and whose value there holds each
    model's gradient at its own point.  With two or more models, every
    model's directions must be C-ordered, so that each block keeps the
    BLAS path of the model's own products."""

    def __init__(self, specs: Sequence[GlmSpec]):
        self.specs = tuple(specs)
        first = self.specs[0]
        if len(self.specs) == 1:
            # one model's products skip the stack's reshapes
            self._Z, self._times = first.directions, _row_times
        else:
            for s in self.specs:
                if (s.activation != first.activation or s.directions.shape != first.directions.shape
                        or not s.directions.flags.c_contiguous):
                    raise ValueError(
                        "stacked models need one activation, one direction count and one "
                        f"dimension, with C-ordered directions: {s.describe()} against "
                        f"{first.describe()}")
            self._Z, self._times = np.stack([s.directions for s in self.specs]), _block_times
        self._ZT = self._Z.swapaxes(-1, -2)
        self._deriv = first.activation.deriv
        self.dimension = len(self.specs) * first.dimension

    def _rows(self, X):
        """One stacked product for the inner products, against a transposed
        view of the (c, m, n) direction stack, the scalar sigma' mapped over
        them all in row order (numpy's exp rounds differently from math's),
        and one stacked product for the sums of directions.  numpy's
        stacked product works matrix by matrix and the view takes the BLAS
        path of the model's own ``Z.T`` (a copy in the other memory order
        would not), so each block of each row is bit-equal to that model's
        gradient at that point alone.  A scalar sigma' that overflows
        raises, naming the first row where it does."""
        S = self._times(X, self._ZT)
        V = []
        try:
            # extend keeps the values mapped before an overflow
            V.extend(map(self._deriv, S.ravel().tolist()))
        except OverflowError as err:
            raise self._overflowed(X[len(V) // S.shape[1]]) from err
        return self._times(np.array(V).reshape(S.shape), self._Z)

    def describe(self):
        return f"glm-stack([{', '.join(s.describe() for s in self.specs)}])"


class GlmGradient(GlmGradientStack):
    """Gradient field of a generalized linear model: sum of sigma'(<x,z_i>) z_i;
    the one-model stack."""

    def __init__(self, spec: GlmSpec):
        super().__init__([spec])
        self.spec = spec

    def jacobian_analytic(self, x):
        """sum_i sigma''(<x, z_i>) z_i z_i^T, the inner products from one
        ``ndarray.dot``: the BLAS product ``@`` takes, without its dispatch.
        The two differ only at n = 1, and only in the sign of a zero
        product; sigma'' takes one value at -0 and +0 unless its formula
        tests the sign of a zero, and a zero weight adds +0 to the sum,
        which starts from +0."""
        second = self.spec.activation.second
        if second is None:
            return None
        return _combine_outer(self.spec, list(map(second, self.spec.directions.dot(x).tolist())))

    def describe(self):
        return self.spec.describe()


def glm_gradient(spec: GlmSpec) -> GlmGradient:
    return GlmGradient(spec)


def _failing_entry(v, s):
    """sigma' and its argument at the first entry where sigma' is not finite."""
    if isinstance(s, float):
        return v, s
    i = int(np.argmax(~np.isfinite(v)))
    return v.flat[i], s.flat[i]


def _scalar_orbit(deriv, t, w, steps: int, gamma: float | None = None):
    """Yield (s_j, sigma'(s_j)) for j = 0..steps-1 along the scalar orbit
    s_0 = t of s -> w sigma'(s) or, given gamma, of s -> s - gamma w sigma'(s),
    never taking the step after the last.  A non-finite sigma'(s_j) raises
    NonFiniteValueError, and so does a non-finite point of the plain map,
    with its step j as ``iterate_index``.

    t is a float with the scalar sigma', or an array of starting points
    with the elementwise sigma' and w broadcasting against t, whose caller
    holds an errstate; an array fails at its earliest failing step, as its
    first entry failing there fails alone."""
    finite = math.isfinite if isinstance(t, float) else _all_finite
    s = t
    for j in range(1, steps + 1):
        v = deriv(s)
        if not finite(v):
            raise NonFiniteValueError("sigma' is {} at s={}".format(*_failing_entry(v, s)))
        yield s, v
        if j == steps:
            return
        s = w * v if gamma is None else s - gamma * w * v
        if gamma is None and not finite(s):
            raise NonFiniteValueError(f"scalar map overflow at step {j}", iterate_index=j)


def _orbit_weight(deriv, t, w, k: int, gamma: float | None = None):
    """A closed form's weight on one direction, and its potential's integrand:
    sigma'(s_k-1) on the plain map, the sum of sigma'(s_j) on the descent
    map, added in order; elementwise for an array t."""
    if gamma is None:
        *_, (_, v) = _scalar_orbit(deriv, t, w, k)
        return v
    total = 0.0
    for _, v in _scalar_orbit(deriv, t, w, k, gamma):
        total = total + v
    return total


class _GlmClosedForm(Field):
    """The row kernel the two closed forms share; ``gamma`` is the descent
    map's step size, None on the plain map."""

    gamma: float | None = None

    def _rows(self, X):
        """One point keeps the float path of ``_eval``.  A batch walks the
        scalar orbits of every row and direction together: one
        ``_row_times`` for the inner products, the scalar sigma' mapped over
        them in row order at each step (numpy's exp rounds differently from
        math's), and one ``_row_times`` for the sums of directions, so each
        row is bit-equal to its one-point value.  A batch whose orbits fail
        anywhere raises what its first failing row raises alone."""
        if X.shape[0] == 1:
            try:
                return self._eval(X[0])[None, :]
            except OverflowError as err:
                raise self._overflowed(X[0]) from err
        Z = self.spec.directions
        try:
            W = _orbit_weight(functools.partial(_entrywise, self.spec.activation.deriv),
                              _row_times(X, Z.T), np.array(self.spec._norms), self.k,
                              self.gamma)
        except (ArithmeticError, ValueError, NonFiniteValueError):
            for x in X:
                self._evaluate(x)
            raise
        Y = _row_times(W, Z)
        return Y if self.gamma is None else X - self.gamma * Y


class GlmIterate(_GlmClosedForm):
    """Closed form of the k-fold self-composition of an orthogonal model gradient."""

    def __init__(self, spec: GlmSpec, k: int):
        _require_orthogonal(spec)
        self.spec = spec
        self.k = _require_count("k", k)
        self.dimension = spec.dimension

    def _eval(self, x):
        deriv = self.spec.activation.deriv
        return _combine(self.spec, [_orbit_weight(deriv, t, w, self.k) for t, w in
                                    zip(_inner_products(self.spec, x), self.spec._norms)])

    def jacobian_analytic(self, x):
        second = self.spec.activation.second
        if second is None:
            return None
        deriv = self.spec.activation.deriv
        weights = []
        for s, w in zip(_inner_products(self.spec, x), self.spec._norms):
            # chain = d s_k-1 / d s_0 = prod_{j < k-1} w sigma''(s_j); the walk
            # stops short of s_k-1, where sigma' is not needed.
            chain = 1.0
            for s_j, v in _scalar_orbit(deriv, s, w, self.k - 1):
                chain *= w * second(s_j)
                s = w * v
            weights.append(second(s) * chain)
        return _combine_outer(self.spec, weights)

    def describe(self):
        return f"glm-iterate(k={self.k}, {self.spec.describe()})"


class GlmGdIterate(_GlmClosedForm):
    """Closed form of the k-fold gradient-descent map for an orthogonal model.

    Per direction, the inner product follows the scalar recursion
    psi(t) = t - gamma |z|^2 sigma'(t); the displacement after k steps is
    gamma times the accumulated sigma' values along that orbit.
    """

    def __init__(self, spec: GlmSpec, gamma: float, k: int):
        _require_orthogonal(spec)
        self.spec = spec
        self.gamma = _require_step("gamma", gamma)
        self.k = _require_count("k", k)
        self.dimension = spec.dimension
        self._eye = np.eye(self.dimension)

    def _eval(self, x):
        deriv = self.spec.activation.deriv
        weights = [_orbit_weight(deriv, t, w, self.k, self.gamma) for t, w in
                   zip(_inner_products(self.spec, x), self.spec._norms)]
        return x - self.gamma * _combine(self.spec, weights)

    def jacobian_analytic(self, x):
        second = self.spec.activation.second
        if second is None:
            return None
        deriv = self.spec.activation.deriv
        weights = []
        for t, w in zip(_inner_products(self.spec, x), self.spec._norms):
            chain, total = 1.0, 0.0
            for s, _ in _scalar_orbit(deriv, t, w, self.k, self.gamma):
                curv = second(s)
                total += curv * chain
                chain *= 1.0 - self.gamma * w * curv
            weights.append(total)
        return self._eye - self.gamma * _combine_outer(self.spec, weights)

    def describe(self):
        return f"glm-gd-iterate(k={self.k}, gamma={self.gamma}, {self.spec.describe()})"


def iterated_glm(spec: GlmSpec, k: int) -> GlmIterate:
    """Closed-form iterate of the model's gradient field; orthogonal specs only."""
    return GlmIterate(spec, k)


def iterated_glm_gd(spec: GlmSpec, gamma: float, k: int) -> GlmGdIterate:
    """Closed-form iterate of the model's gradient-descent map; orthogonal specs only."""
    return GlmGdIterate(spec, gamma, k)


def _row_products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B added term by term in index order, so that each row of the
    result depends on its own row of A alone; BLAS blocks the rows of a
    product differently for different row counts."""
    out = A[:, :1] * B[0]
    for i in range(1, B.shape[0]):
        out = out + A[:, i:i + 1] * B[i]
    return out


def closed_form_deviation(spec: GlmSpec, points, k_max: int,
                          gamma: float | None = None) -> float:
    """Worst relative deviation of iterated_glm (and, given gamma,
    iterated_glm_gd) from brute-force iteration, over k <= k_max and the
    points.  All points go together: one ``walk_rows`` walk of the
    gradient (or of its descent map) gives V^1 .. V^k_max at every point,
    and one walk of the scalar orbits gives every closed form's weights."""
    _require_orthogonal(spec)
    k_max = _require_count("k_max", k_max)
    if gamma is not None:
        gamma = _require_step("gamma", gamma)
    X = as_points(points, spec.dimension)
    if X.shape[0] == 0:
        raise ValueError("need at least one point")
    Z, w, derivs = spec.directions, np.array(spec._norms), spec.activation.derivs
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        T = _row_products(X, Z.T)
        for step in (None,) if gamma is None else (None, gamma):
            field = GlmGradient(spec) if step is None else GdMap(GlmGradient(spec), step)
            total = 0.0
            orbits = zip(_scalar_orbit(derivs, T, w, k_max, step), walk_rows(field, X, k_max))
            for j, ((_, v), (live, brute)) in enumerate(orbits, start=1):
                if step is None:
                    closed = _row_products(v, Z)
                else:
                    total = total + v
                    closed = X - step * _row_products(total, Z)
                if len(live) < X.shape[0] or not np.isfinite(closed).all():
                    raise NonFiniteValueError(
                        f"{spec.describe()} overflowed at iterate {j} of {k_max}",
                        iterate_index=j)
                dev = (np.linalg.norm(closed - brute, axis=1)
                       / np.maximum(1.0, np.linalg.norm(brute, axis=1)))
                worst = max(worst, float(np.max(dev)))
    return worst


def surrogate_potentials(spec: GlmSpec, points, k: int, mode: str = "grad-iterate",
                         gamma: float | None = None) -> np.ndarray:
    """``surrogate_potential`` at every row of an (N, n) array of points.

    Every (point, direction) integral goes into one ``integrate_batch``
    call, whose integrand walks all their scalar orbits at once; a
    point's value is bit-identical to its value computed alone.
    """
    from .quadrature import integrate_batch

    _require_orthogonal(spec)
    k = _require_count("k", k)
    if mode == "grad-iterate":
        gamma = None
    elif mode != "gd-iterate":
        raise ValueError(f"unknown mode {mode!r}; use 'grad-iterate' or 'gd-iterate'")
    elif gamma is None:
        raise ValueError("gd-iterate mode needs a positive gamma")
    else:
        gamma = _require_step("gamma", gamma)
    X = as_points(points, spec.dimension)
    derivs = spec.activation.derivs
    w = np.tile(spec._norms, X.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        T = _row_products(X, spec.directions.T)
        integrals = integrate_batch(
            lambda t, rows: _orbit_weight(derivs, t, w[rows][:, None], k, gamma),
            np.zeros(T.size), T.ravel()).reshape(T.shape)
        # directions added in order, as one point's potential always was
        total = np.zeros(X.shape[0])
        for column in integrals.T:
            total = total + column
    bad = ~np.isfinite(total)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteValueError(f"surrogate potential of {spec.describe()} is {total[i]} "
                                  f"at x={X[i].tolist()}")
    return total


def surrogate_potential(spec: GlmSpec, x, k: int, mode: str = "grad-iterate",
                        gamma: float | None = None) -> float:
    """Potential whose gradient structure reproduces the closed-form iterate.

    mode "grad-iterate": returns h_k with grad h_k equal to the k-fold
    iterate of the model's gradient field.  mode "gd-iterate": returns the
    potential H with x - gamma * grad H equal to the k-fold
    gradient-descent map.  Both integrate per-direction scalar functions
    from 0, fixing the additive constant by potential(0) = 0.  The one-point
    case of ``surrogate_potentials``.
    """
    x = as_vector(x, spec.dimension)
    return float(surrogate_potentials(spec, x[None, :], k, mode, gamma)[0])
