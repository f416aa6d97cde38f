"""The numpy Gauss-Kronrod integrator: analytic antiderivatives, bisection
of a peaked integrand, the subinterval cap (also through the potentials
that integrate), the overflow policy, and batches that give each interval
the value it gets alone."""

import math

import numpy as np
import pytest

from iterfield import quadrature
from iterfield.fields import NonFiniteValueError
from iterfield.glm import GlmSpec, surrogate_potentials
from iterfield.quadrature import (SUBINTERVAL_CAP, QuadratureError, integrate,
                                  integrate_batch)


def sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t))


def softplus(t):
    return math.log1p(math.exp(t))


@pytest.mark.parametrize("fn, a, b, antiderivative", [
    (math.exp, 0.0, 3.0, math.exp),
    (math.exp, 1.5, -2.0, math.exp),
    (math.cos, -1.0, 2.5, math.sin),
    (lambda t: t ** 5, -2.0, 1.5, lambda t: t ** 6 / 6.0),
    (sigmoid, -3.0, 2.0, softplus),
])
def test_analytic_antiderivatives(fn, a, b, antiderivative):
    exact = antiderivative(b) - antiderivative(a)
    assert math.isclose(integrate(fn, a, b), exact, rel_tol=1e-13, abs_tol=1e-13)


def test_peaked_integrand_is_bisected():
    nodes = []

    def peaked(t):
        nodes.append(t)
        return 1.0 / (1e-4 + t * t)

    value = integrate(peaked, -1.0, 1.0)
    assert math.isclose(value, 200.0 * math.atan(100.0), rel_tol=1e-13)
    assert len(nodes) > 21 * 10  # one qk21 panel per subinterval, many subintervals


def test_subinterval_cap(monkeypatch):
    with pytest.raises(QuadratureError, match=rf"on \[0\.0, 1\.0\].*{SUBINTERVAL_CAP}"):
        integrate(lambda t: math.sin(1e6 * t), 0.0, 1.0)
    monkeypatch.setattr(quadrature, "SUBINTERVAL_CAP", 3)
    with pytest.raises(QuadratureError, match="more than 3 subintervals"):
        integrate(lambda t: 1.0 / (1e-4 + t * t), -1.0, 1.0)


def test_the_subinterval_cap_is_read_by_surrogate_potentials(monkeypatch):
    # exp's k = 3 potential at x0 = 1.5 needs 7 subintervals
    spec = GlmSpec([[1.0, 0.0], [0.0, 1.0]], "exp")
    assert np.isfinite(surrogate_potentials(spec, [[1.5, 0.0]], 3)).all()
    monkeypatch.setattr(quadrature, "SUBINTERVAL_CAP", 6)
    with pytest.raises(QuadratureError, match="more than 6 subintervals"):
        surrogate_potentials(spec, [[1.5, 0.0]], 3)


def test_overflow_raises():
    with pytest.raises(NonFiniteValueError, match="integrand overflowed"):
        integrate(math.exp, 0.0, 800.0)
    with pytest.raises(NonFiniteValueError, match="integrand is inf"):
        integrate(lambda t: math.inf if t > 0.5 else 1.0, 0.0, 1.0)
    with pytest.raises(NonFiniteValueError, match="integral or its error estimate overflowed"):
        integrate(lambda t: 1e308, 0.0, 1e10)
    with pytest.raises(NonFiniteValueError, match="not finite"):
        integrate_batch(lambda t, rows: np.ones_like(t), [0.0], [math.inf])


def test_subnormal_width_takes_the_midpoint_rule():
    assert integrate(math.cos, 0.0, 1e-310) == 1e-310
    assert integrate(math.exp, 0.0, 0.0) == 0.0


def test_batch_matches_each_interval_alone():
    # zero width, subnormal width, smooth, reversed and two peaked
    # intervals: the smaller peak is bisected to its own tolerance, not one
    # loosened by the much larger integral beside it
    a = np.array([0.0, 0.0, -1.0, 2.0, -1.0, 0.3])
    b = np.array([0.0, 1e-310, 2.0, -0.5, 1.0, 1.3])

    def fn(t, rows):
        peak = 1.0 / (1e-4 + (t - 0.8 * (rows == 5)[:, None]) ** 2)
        return np.cos(t) + peak * ((rows == 4) + 1e12 * (rows == 5))[:, None]

    batch = integrate_batch(fn, a, b)
    alone = [integrate_batch(lambda t, _r, i=i: fn(t, np.full(len(t), i)), a[i:i + 1],
                             b[i:i + 1])[0] for i in range(len(a))]
    assert batch.tobytes() == np.array(alone).tobytes()
    reversed_batch = integrate_batch(lambda t, rows: fn(t, len(a) - 1 - rows), a[::-1], b[::-1])
    assert reversed_batch.tobytes() == batch[::-1].tobytes()
    assert math.isclose(batch[2], math.sin(2.0) - math.sin(-1.0), rel_tol=1e-13)
