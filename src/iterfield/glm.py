"""Gradient fields of generalized linear models and their closed-form iterates.

A model sums a scalar activation over inner products with fixed direction
vectors; its gradient field is a weighted sum of those directions.  When
the directions are mutually orthogonal, every iterate of the gradient
field (and of its gradient-descent map) collapses to per-direction scalar
recursions, which this module evaluates directly instead of looping the
full vector field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import Field, GdMap, NonFiniteValueError, _walk, as_vector
from .quadrature import integrate

ORTHOGONALITY_TOL = 1e-12
DERIVATIVE_CHECK_TOL = 1e-6


class NonOrthogonalError(ValueError):
    """Closed-form iterates require mutually orthogonal directions."""


@dataclass(frozen=True)
class Activation:
    """A scalar C^1 activation with its derivative.

    ``second`` (the second derivative) is optional; without it, Jacobians
    of model gradient fields fall back to central differences.
    ``curvature_bound`` is sup |second| when finite, used to derive
    smoothness constants.
    """

    name: str
    fn: Callable[[float], float]
    deriv: Callable[[float], float]
    second: Callable[[float], float] | None = None
    curvature_bound: float | None = None


def derivative_residual(activation: Activation, ts: Sequence[float], h: float = 1e-6) -> float:
    """Max deviation between the stored derivative and a central difference."""
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
        "quadratic", lambda t: 0.5 * t * t, lambda t: t, lambda t: 1.0, 1.0),
    "exp": Activation(
        "exp", math.exp, math.exp, math.exp, None),
    "logistic": Activation(
        "logistic", _logistic_loss, _logistic_sigmoid, _logistic_curvature, 0.25),
}
_ALIASES = {"logistic-loss": "logistic", "logistic_loss": "logistic"}


def activation_from_expression(expression: str) -> Activation:
    """Build an activation from a scalar expression in the variable t.

    Differentiates symbolically, so the derivative pair is consistent by
    construction; no curvature bound is inferred.
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
    # matching the overflow-is-an-error policy.
    return Activation(expression,
                      sympy.lambdify(t, expr, "math"),
                      sympy.lambdify(t, first, "math"),
                      sympy.lambdify(t, second, "math"),
                      None)


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

    def __init__(self, directions, activation: Activation | str,
                 check_derivative: bool = True):
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.activation = activation
        Z = np.atleast_2d(np.asarray(directions, dtype=float))
        if Z.ndim != 2 or Z.size == 0:
            raise ValueError("directions must be a non-empty list of vectors")
        if not np.isfinite(Z).all():
            raise ValueError("directions must be finite")
        if np.any(np.linalg.norm(Z, axis=1) == 0):
            raise ValueError("direction vectors must be nonzero")
        self.directions = Z
        # |z_i|^2 and z_i z_i^T, read by every closed form and Jacobian
        self._norms = np.sum(Z * Z, axis=1).tolist()
        self._outers = Z[:, :, None] * Z[:, None, :]
        self.gram_residual = orthogonality_check(Z)
        if check_derivative:
            ts = np.linspace(-2.0, 2.0, 9)
            res = derivative_residual(activation, ts)
            if res > DERIVATIVE_CHECK_TOL:
                raise ValueError(
                    f"activation {activation.name!r}: derivative mismatch {res:.3e}")

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
    """sum_i weights_i z_i, one product; model gradients and closed forms
    share it, so equal weights give bit-equal vectors."""
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


class GlmGradient(Field):
    """Gradient field of a generalized linear model: sum of sigma'(<x,z_i>) z_i."""

    def __init__(self, spec: GlmSpec):
        self.spec = spec
        self.dimension = spec.dimension

    def _eval(self, x):
        deriv = self.spec.activation.deriv
        return _combine(self.spec, [deriv(t) for t in _inner_products(self.spec, x)])

    def jacobian_analytic(self, x):
        second = self.spec.activation.second
        if second is None:
            return None
        return _combine_outer(self.spec, [second(t) for t in _inner_products(self.spec, x)])

    def describe(self):
        return self.spec.describe()


def glm_gradient(spec: GlmSpec) -> GlmGradient:
    return GlmGradient(spec)


def _scalar_orbit(deriv: Callable[[float], float], t: float, w: float, steps: int,
                  gamma: float | None = None):
    """Yield (s_j, sigma'(s_j)) for j = 0..steps-1 along the scalar orbit
    s_0 = t of s -> w sigma'(s) or, given gamma, of s -> s - gamma w sigma'(s),
    never taking the step after the last.  A non-finite sigma'(s_j) raises
    NonFiniteValueError, and so does a non-finite point of the plain map,
    with its step j as ``iterate_index``."""
    s = t
    for j in range(1, steps + 1):
        v = deriv(s)
        if not math.isfinite(v):
            raise NonFiniteValueError(f"sigma' is {v} at s={s}")
        yield s, v
        if j == steps:
            return
        s = w * v if gamma is None else s - gamma * w * v
        if gamma is None and not math.isfinite(s):
            raise NonFiniteValueError(f"scalar map overflow at step {j}", iterate_index=j)


def _orbit_weight(deriv: Callable[[float], float], t: float, w: float, k: int,
                  gamma: float | None = None) -> float:
    """A closed form's weight on one direction, and its potential's integrand:
    sigma'(s_k-1) on the plain map, the sum of sigma'(s_j) on the descent map."""
    if gamma is None:
        *_, (_, v) = _scalar_orbit(deriv, t, w, k)
        return v
    return sum(v for _, v in _scalar_orbit(deriv, t, w, k, gamma))


class GlmIterate(Field):
    """Closed form of the k-fold self-composition of an orthogonal model gradient."""

    def __init__(self, spec: GlmSpec, k: int):
        _require_orthogonal(spec)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.spec = spec
        self.k = int(k)
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


class GlmGdIterate(Field):
    """Closed form of the k-fold gradient-descent map for an orthogonal model.

    Per direction, the inner product follows the scalar recursion
    psi(t) = t - gamma |z|^2 sigma'(t); the displacement after k steps is
    gamma times the accumulated sigma' values along that orbit.
    """

    def __init__(self, spec: GlmSpec, gamma: float, k: int):
        _require_orthogonal(spec)
        if not (gamma > 0):
            raise ValueError("step size gamma must be positive")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.spec = spec
        self.gamma = float(gamma)
        self.k = int(k)
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


def closed_form_deviation(spec: GlmSpec, points, k_max: int,
                          gamma: float | None = None) -> float:
    """Worst relative deviation of iterated_glm (and, given gamma,
    iterated_glm_gd) from brute-force iteration, over k <= k_max and the
    points; one orbit walk per point gives V^1(x) .. V^k_max(x)."""
    grad = glm_gradient(spec)
    pairs = [(grad, [iterated_glm(spec, k) for k in range(1, k_max + 1)])]
    if gamma is not None:
        pairs.append((GdMap(grad, gamma),
                      [iterated_glm_gd(spec, gamma, k) for k in range(1, k_max + 1)]))
    points = [as_vector(x, spec.dimension) for x in points]
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for brute, closed in pairs:
            for x in points:
                for closed_k, ref in zip(closed, _walk(brute, x, k_max)):
                    dev = float(np.linalg.norm(closed_k._evaluate(x) - ref)
                                / max(1.0, np.linalg.norm(ref)))
                    worst = max(worst, dev)
    return worst


def surrogate_potential(spec: GlmSpec, x, k: int, mode: str = "grad-iterate",
                        gamma: float | None = None) -> float:
    """Potential whose gradient structure reproduces the closed-form iterate.

    mode "grad-iterate": returns h_k with grad h_k equal to the k-fold
    iterate of the model's gradient field.  mode "gd-iterate": returns the
    potential H with x - gamma * grad H equal to the k-fold
    gradient-descent map.  Both integrate per-direction scalar functions
    from 0, fixing the additive constant by potential(0) = 0.
    """
    _require_orthogonal(spec)
    if k < 1:
        raise ValueError("k must be >= 1")
    x = as_vector(x, spec.dimension)
    if mode == "grad-iterate":
        gamma = None
    elif mode != "gd-iterate":
        raise ValueError(f"unknown mode {mode!r}; use 'grad-iterate' or 'gd-iterate'")
    elif gamma is None or not (gamma > 0):
        raise ValueError("gd-iterate mode needs a positive gamma")
    deriv = spec.activation.deriv
    total = 0.0
    for s, w in zip(_inner_products(spec, x), spec._norms):
        total += integrate(lambda t, w=w: _orbit_weight(deriv, t, w, k, gamma), 0.0, s)
    if not math.isfinite(total):
        raise NonFiniteValueError(f"surrogate potential of {spec.describe()} is {total} "
                                  f"at x={x.tolist()}")
    return total
