"""Property tests: the overflow policy on every evaluation path, and the
closed-form model iterates against brute-force iteration."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield.fields import (ChainProduct, CoordWise1D, Iterate, NonFiniteValueError,
                              ScalarMap, compose, gd_map, jacobian)
from iterfield.glm import (GlmSpec, glm_gradient, iterated_glm, iterated_glm_gd,
                           surrogate_potential)
from iterfield.quadrature import QuadratureError

ACTIVATIONS = ("exp", "logistic", "quadratic")
WIDE = st.floats(-1e3, 1e3, allow_nan=False)
SETTINGS = settings(max_examples=60, deadline=None)


def finite_or_nonfinite_error(fn, refusals=()):
    """fn() is finite or raises NonFiniteValueError (or one of
    ``refusals``); any other error fails."""
    try:
        value = fn()
    except (NonFiniteValueError, *refusals):
        return
    assert np.all(np.isfinite(value))


def wide_fields(activation, k):
    spec = GlmSpec([[0.8, 0.0], [0.0, 1.3]], activation)
    grad = glm_gradient(spec)
    coordwise = CoordWise1D([ScalarMap("exp", math.exp, math.exp)] * 2)
    return spec, coordwise, [grad, iterated_glm(spec, k), iterated_glm_gd(spec, 0.4, k),
                             coordwise, gd_map(grad, 0.4), compose(grad, coordwise),
                             compose(iterated_glm(spec, k), gd_map(coordwise, 0.1))]


class TestOverflowPolicy:
    @SETTINGS
    @given(st.sampled_from(ACTIVATIONS), st.integers(1, 4), WIDE, WIDE)
    def test_fields_and_jacobians(self, activation, k, a, b):
        x = [a, b]
        _, _, fields = wide_fields(activation, k)
        for field in fields:
            finite_or_nonfinite_error(lambda: field(x))
            finite_or_nonfinite_error(lambda: jacobian(field, x))
        finite_or_nonfinite_error(lambda: jacobian(Iterate(fields[0], k), x, ChainProduct()))

    @SETTINGS
    @given(st.sampled_from(ACTIVATIONS), st.integers(1, 3), WIDE, WIDE)
    def test_potentials(self, activation, k, a, b):
        # QuadratureError is the integrator refusing an interval it cannot
        # resolve (such as one of subnormal width), not an overflow
        x = [a, b]
        spec, coordwise, _ = wide_fields(activation, k)
        finite_or_nonfinite_error(lambda: surrogate_potential(spec, x, k), (QuadratureError,))
        finite_or_nonfinite_error(
            lambda: surrogate_potential(spec, x, k, "gd-iterate", gamma=0.4),
            (QuadratureError,))
        finite_or_nonfinite_error(lambda: coordwise.potential(x), (QuadratureError,))


def relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


class TestClosedForms:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ACTIVATIONS), st.integers(1, 3),
           st.integers(1, 4), st.floats(0.05, 1.0))
    def test_match_brute_iteration(self, seed, activation, m, k, gamma):
        rng = np.random.default_rng(seed)
        n = 3
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spec = GlmSpec(Q[:, :m].T * rng.uniform(0.2, 0.7, m)[:, None], activation)
        grad = glm_gradient(spec)
        x = rng.uniform(-1.0, 1.0, n)
        pairs = [(iterated_glm(spec, k), Iterate(grad, k)),
                 (iterated_glm_gd(spec, gamma, k), Iterate(gd_map(grad, gamma), k))]
        for closed, brute in pairs:
            assert relative_gap(closed(x), brute(x)) <= 1e-9
            assert relative_gap(jacobian(closed, x),
                                jacobian(brute, x, ChainProduct())) <= 1e-9
