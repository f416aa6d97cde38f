"""Property tests: the overflow policy on every evaluation path, the
closed-form model iterates against brute-force iteration, and the integer
rational kernels against plain Fraction loops."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield.fields import (ChainProduct, CoordWise1D, Iterate, NonFiniteValueError,
                              ScalarMap, compose, gd_map, jacobian)
from iterfield import rationals
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


# ----- rational kernels: the plain Fraction loops they replaced are the reference -----

def reference_mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def reference_mat_vec(A, v):
    return [sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A))]


def reference_solve_linear(A, b):
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise rationals.SingularMatrixError(f"matrix is singular (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


ENTRIES = {
    "integer": st.integers(-9, 9).map(Fraction),
    "0.1-step": st.integers(-50, 50).map(lambda i: Fraction(i, 10)),
    "float": st.floats(-4.0, 4.0, allow_nan=False).map(Fraction),
    # denominators that do not divide one another
    "rational": st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
}


@st.composite
def square_systems(draw):
    """(A, B, v) of one size n = 1..8 and one entry kind, with zeros common
    enough to force row swaps; about half of the A are made singular by a
    zero column or a row that is a multiple of another."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(Fraction(0)), ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))])
    A, B = ([[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(2))
    v = [draw(entry) for _ in range(n)]
    singular = draw(st.sampled_from(("none", "zero-column", "dependent-row")))
    if singular == "zero-column":
        j = draw(st.integers(0, n - 1))
        for row in A:
            row[j] = Fraction(0)
    elif singular == "dependent-row" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(entry)
        A[j] = [c * x for x in A[i]]
    return A, B, v


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except rationals.SingularMatrixError as err:
        return type(err), str(err)


KERNEL_SETTINGS = settings(max_examples=100, deadline=None)


class TestRationalKernels:
    @KERNEL_SETTINGS
    @given(square_systems())
    def test_mat_mul(self, system):
        A, B, _ = system
        got = rationals.mat_mul(A, B)
        assert got == reference_mat_mul(A, B)
        assert all(isinstance(x, Fraction) for row in got for x in row)

    @KERNEL_SETTINGS
    @given(square_systems())
    def test_mat_vec(self, system):
        A, _, v = system
        got = rationals.mat_vec(A, v)
        assert got == reference_mat_vec(A, v)
        assert all(isinstance(x, Fraction) for x in got)

    @KERNEL_SETTINGS
    @given(square_systems())
    def test_solve_linear(self, system):
        A, _, b = system
        got = outcome(rationals.solve_linear, A, b)
        assert got == outcome(reference_solve_linear, A, b)
        if got[0] == "value":
            assert rationals.mat_vec(A, got[1]) == b
