"""Property tests for the batched orbit walker: a batch of points walks
every row exactly as that row walks alone (and as the reversed batch
walks it), each row the batch drops records the error its walk alone
raises, and each row's chain Jacobians agree with a plain per-point
chain-product loop kept here.  The overflowing kinds make batches in
which some rows fail, at every nesting depth, so the walker's per-row
fallback runs through nested fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield.conservatism import DEFAULT_THRESHOLD, SamplingError, check_numeric
from iterfield.fields import (Callback, CentralDifference, Compose, CoordWise1D, GdMap, Iterate,
                              Linear, NonFiniteValueError, ScalarMap, Scale, Sum, _asymmetry,
                              asymmetry, jacobian, walk_rows)
from iterfield.glm import GlmGradientStack, GlmSpec, glm_gradient
from walks import walk_alone

SETTINGS = settings(max_examples=80, deadline=None)
KINDS = ("grad", "gd", "linear-after", "linear-before", "sum", "scale", "iterate-2",
         "coordwise", "callback-fd", "exp-overflow", "linear-after-overflow", "sum-overflow",
         "iterate-overflow", "callback-fd-overflow")


def _logistic(t):
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))


@st.composite
def walk_cases(draw):
    """(field, points, k_max): a field of one of KINDS on R^n and 1-6
    sample points, some of whose orbits overflow for the exp kinds."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(KINDS))
    activation = draw(st.sampled_from(("exp", "logistic", "quadratic")))
    entries = st.floats(-1.5, 1.5, allow_nan=False).filter(lambda v: abs(v) > 0.05)
    rows = st.lists(entries, min_size=n, max_size=n)
    Z = np.array(draw(st.lists(rows, min_size=1, max_size=3)))
    A = np.array(draw(st.lists(rows, min_size=n, max_size=n)))
    radius = 1.0
    if kind.endswith("-overflow"):
        activation, Z, radius = "exp", 3.0 * Z, 30.0
    grad = glm_gradient(GlmSpec(Z, activation))
    gamma = draw(st.sampled_from((0.1, 0.4)))
    field = {
        "grad": lambda: grad,
        "gd": lambda: GdMap(grad, gamma),
        "linear-after": lambda: Compose(Linear(A), grad),
        "linear-before": lambda: Compose(grad, Linear(A)),
        "sum": lambda: Sum([grad, Linear(A)], [0.5, -1.0]),
        "scale": lambda: Scale(-0.7, grad),
        "iterate-2": lambda: Iterate(GdMap(grad, gamma), 2),
        "coordwise": lambda: CoordWise1D(
            [ScalarMap("exp", math.exp, math.exp) if activation == "exp"
             else ScalarMap("logistic", _logistic, lambda t: _logistic(t) * _logistic(-t))] * n),
        "callback-fd": lambda: Callback(lambda x, A=A: np.tanh(A @ x), n),
        "exp-overflow": lambda: grad if draw(st.booleans()) else GdMap(grad, gamma),
        "linear-after-overflow": lambda: Compose(Linear(A), grad),
        "sum-overflow": lambda: Sum([grad, Linear(A)], [0.5, -1.0]),
        "iterate-overflow": lambda: Iterate(grad, 2),
        "callback-fd-overflow": lambda: Callback(lambda x, A=A: np.exp(A @ x), n),
    }[kind]()
    points = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                                             min_size=n, max_size=n), min_size=1, max_size=6)))
    # every other point scaled out to the radius, so that some orbits
    # overflow and others do not
    points[1::2] *= radius
    return field, points, draw(st.integers(1, 4))


def solo_walk(field, x, k_max, jacobians):
    """The yields of the one-point walk of x, and its error or None."""
    out = []
    try:
        for item in walk_alone(field, x, k_max, jacobians):
            out.append(item)
    except NonFiniteValueError as err:
        return out, err
    return out, None


def batch_walk(field, X, k_max, jacobians):
    """Per row of X, what the batched walk yields for it, step by step."""
    per_row = [[] for _ in X]
    for live, *stacks in walk_rows(field, X, k_max, jacobians):
        for r, row in enumerate(live):
            per_row[row].append(tuple(s[r] for s in stacks))
    return per_row


def reference_chain(field, x, k_max):
    """J(F^k)(x) for k = 1..k_max by a plain loop: V and its step Jacobian
    at each orbit point through the public one-point calls, multiplied
    into a running product.  Stops at the first failure, and evaluates a
    point only where its Jacobian is needed."""
    inner, stride = (field.inner, field.k) if isinstance(field, Iterate) else (field, 1)
    out, point, product = [], np.asarray(x, dtype=float), np.eye(field.dimension)
    try:
        for i in range(1, stride * k_max + 1):
            if i > 1:
                point = inner(point)
            with np.errstate(over="ignore", invalid="ignore"):
                product = jacobian(inner, point) @ product
            if not np.isfinite(product).all():
                break
            if i % stride == 0:
                out.append(product)
    except NonFiniteValueError:
        pass
    return out


def worst_and_witness(residuals_per_row, X, order, k):
    """The scan's worst residual at k and its witness (first strict
    maximum in ``order``), from per-row residual lists."""
    worst, witness = -1.0, None
    for r in order:
        if len(residuals_per_row[r]) >= k and residuals_per_row[r][k - 1] > worst:
            worst, witness = residuals_per_row[r][k - 1], X[r]
    return worst, witness


class TestBatchEqualsRows:
    @SETTINGS
    @given(walk_cases())
    def test_chain_products_residuals_and_skips(self, case):
        field, X, k_max = case
        solo = [solo_walk(field, x, k_max, True) for x in X]
        batch = batch_walk(field, X, k_max, True)
        reverse = batch_walk(field, X[::-1], k_max, True)[::-1]
        for (items, _), got, got_reversed in zip(solo, batch, reverse):
            assert len(got) == len(got_reversed) == len(items)
            for (step, prefix), (b_step, b_prefix), (r_step, r_prefix) in zip(
                    items, got, got_reversed):
                assert np.array_equal(step, b_step) and np.array_equal(prefix, b_prefix)
                assert np.array_equal(step, r_step) and np.array_equal(prefix, r_prefix)
        residuals = [[asymmetry(prefix) for _, prefix in items] for items, _ in solo]
        for r, items in enumerate(batch):
            if items:
                with np.errstate(over="ignore", invalid="ignore"):
                    stacked = _asymmetry(np.array([prefix for _, prefix in items]))
                assert stacked.tolist() == residuals[r]
        # the scan's verdicts: worst residual, witness (first strict maximum)
        # and skip count, against the rows walked alone
        for k in range(1, k_max + 1):
            for order, points in ((range(len(X)), X), (range(len(X))[::-1], X[::-1])):
                worst, witness = worst_and_witness(residuals, X, order, k)
                skipped = sum(len(r) < k for r in residuals)
                try:
                    verdict = check_numeric(field, k, points)
                except SamplingError as err:
                    assert skipped > len(X) - max(1, (len(X) + 1) // 2), err
                    continue
                assert verdict.residual == worst
                assert verdict.skipped_samples == skipped
                if verdict.kind == "numeric-fail":
                    assert verdict.witness == witness.tolist()

    @SETTINGS
    @given(walk_cases())
    def test_values_and_iterate_index(self, case):
        field, X, k_max = case
        stride = field.k if isinstance(field, Iterate) else 1
        solo = [solo_walk(field, x, k_max, False) for x in X]
        batch = batch_walk(field, X, k_max, False)
        reverse = batch_walk(field, X[::-1], k_max, False)[::-1]
        for (items, err), got, got_reversed in zip(solo, batch, reverse):
            assert len(got) == len(got_reversed) == len(items)
            for y, (b,), (r,) in zip(items, got, got_reversed):
                assert np.array_equal(y, b) and np.array_equal(y, r)
            if err is not None:
                # a value walk fails at step i of V, in step ceil(i / stride) of F
                assert err.iterate_index is not None
                assert len(items) == -(-err.iterate_index // stride) - 1

    @SETTINGS
    @given(walk_cases(), st.booleans())
    def test_dropped_rows_record_their_own_errors(self, case, jacobians):
        # each dropped row, in either row order, keeps the error its walk
        # alone raises, and no row that walks alone to the end is dropped
        field, X, k_max = case
        alone = [solo_walk(field, x, k_max, jacobians)[1] for x in X]
        for order in (np.arange(len(X)), np.arange(len(X))[::-1]):
            dropped = {}
            for _ in walk_rows(field, X[order], k_max, jacobians, dropped=dropped):
                pass
            assert sorted(dropped) == [p for p, r in enumerate(order) if alone[r] is not None]
            for p, err in dropped.items():
                want = alone[order[p]]
                assert (type(err), str(err), err.iterate_index) == (
                    type(want), str(want), want.iterate_index)


class TestAgainstPerPointLoop:
    @SETTINGS
    @given(walk_cases())
    def test_rows_agree_with_a_chain_product_loop(self, case):
        field, X, k_max = case
        batch = batch_walk(field, X, k_max, True)
        reference = [reference_chain(field, x, k_max) for x in X]
        for got, want in zip(batch, reference):
            assert len(got) == len(want)
            for (_, prefix), ref in zip(got, want):
                a, b = asymmetry(prefix), asymmetry(ref)
                assert math.isclose(a, b, rel_tol=1e-13, abs_tol=1e-15), (a, b)
                if a > 100 * DEFAULT_THRESHOLD or a < DEFAULT_THRESHOLD / 100:
                    assert (a > DEFAULT_THRESHOLD) == (b > DEFAULT_THRESHOLD)


class TestCentralDifferences:
    A = np.array([[0.7, -1.1, 0.3], [0.2, 0.5, -0.9], [1.3, 0.1, 0.4]])

    @pytest.mark.parametrize("h", [1e-5, 1e-3, 0.25])
    def test_bit_equal_to_the_per_shift_formula(self, h):
        field = Callback(lambda x: np.tanh(self.A @ x), 3)
        # -0.0 + 0.0 is +0.0: each shifted point must be formed as x + step
        for x in (np.array([-0.0, 0.3, -1.2]), np.array([0.8, -0.0, 0.05])):
            columns = []
            for j in range(3):
                step = np.zeros(3)
                step[j] = h
                columns.append((field(x + step) - field(x - step)) / (2.0 * h))
            want = np.column_stack(columns)
            assert jacobian(field, x, CentralDifference(h)).tobytes() == want.tobytes()

    def test_names_the_first_failing_shifted_point(self):
        # inner fails at x + h e_1, outer (after inner) at x - h e_0; the
        # points go +e_0, -e_0, +e_1, -e_1, so x - h e_0 is the one named,
        # although a batch meets inner's failure first
        inner = Callback(lambda p: p if p[1] < 0.05 else np.full(2, np.inf), 2, name="inner")
        outer = Callback(lambda q: q if q[0] > -0.05 else np.full(2, np.inf), 2, name="outer")
        field = Compose(outer, inner)
        x, h = np.zeros(2), 0.1
        with pytest.raises(NonFiniteValueError) as first:
            field(x - np.array([h, 0.0]))
        with pytest.raises(NonFiniteValueError) as info:
            jacobian(field, x, CentralDifference(h))
        assert str(info.value) == str(first.value)
        assert "callback(outer)" in str(info.value) and "[-0.1, 0.0]" in str(info.value)


class TestFallbackCost:
    def test_one_failing_row_costs_log_n_evaluations(self, monkeypatch):
        # a step of 64 rows, one of which overflows: the batch, then two
        # halves at each of six levels, instead of the batch and 64 rows
        calls = []
        original = GlmGradientStack._rows

        def counting(self, X):
            calls.append(X.shape[0])
            return original(self, X)

        monkeypatch.setattr(GlmGradientStack, "_rows", counting)
        grad = glm_gradient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "exp"))
        X = np.linspace(-1.0, 1.0, 128).reshape(64, 2)
        X[37] = [800.0, 0.0]
        ((live, Y),) = walk_rows(grad, X, 1)
        assert live.tolist() == [r for r in range(64) if r != 37]
        assert len(calls) == 13 and calls[0] == 64
        for r, y in zip(live, Y):
            assert np.array_equal(y, grad(X[r]))
