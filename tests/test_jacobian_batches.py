"""Property tests for the batched step Jacobians: composite fields stack
their parts' Jacobians once per walk step, and that must give, bit for bit
and message for message, what a per-point recursion through the parts
gives.  The reference here recurses as a composite's analytic Jacobian is
defined, one point at a time: J(gd) = I - gamma J(inner), J(scale) =
c J(inner), J(sum) = sum of w J(part) in order, J(outer o inner) =
J(outer)(inner(x)) @ J(inner)(x), J(V^k) = the chain product of V's
Jacobians along the orbit of x, stopping at the first part that raises
or has no analytic form; the step then names the field it was asked of
when a part overflows, and differences the whole field when a part has
no analytic form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield.fields import (Affine, Analytic, Callback, CentralDifference, Compose, GdMap,
                              Iterate, JacobianMethodError, Linear, NonFiniteValueError,
                              PolyExact, Scale, Sum, _finite_difference_jacobian, jacobian,
                              walk_rows)
from iterfield.glm import GlmSpec, glm_gradient
from iterfield.polynomials import PolyField, parse_poly

SETTINGS = settings(max_examples=300, deadline=None)


def tagged(err, i, total):
    """A value's error as a walk raises it at step i of total."""
    if err.iterate_index is not None:
        return err
    return NonFiniteValueError(f"{err} (at iterate {i} of {total})", iterate_index=i)


def reference_iterate(field, x):
    """J(V^k) at x, one step of V after another along the orbit of x, as
    a one-point walk raises: a value's error tagged with its step, an
    overflowing step Jacobian naming V, a non-finite chain product."""
    inner, k = field.inner, field.k
    point, prefix = x, None
    for i in range(1, k + 1):
        if i > 1:
            try:
                point = inner._evaluate_rows(point[None, :])[0]
            except NonFiniteValueError as err:
                raise tagged(err, i - 1, k) from err
        try:
            J = reference_analytic(inner, point)
        except OverflowError as err:
            raise NonFiniteValueError(
                f"Jacobian of {inner.describe()} overflowed at x={point.tolist()}") from err
        if J is None:
            return None
        prefix = J if prefix is None else J @ prefix
        if not np.isfinite(prefix).all():
            raise NonFiniteValueError(f"chain Jacobian of {inner.describe()} is non-finite at "
                                      f"iterate {i} of {k}", iterate_index=i)
    return prefix


def reference_analytic(field, x):
    """The analytic Jacobian at x, recursing per point through composites."""
    if isinstance(field, Iterate):
        return reference_iterate(field, x)
    if isinstance(field, (GdMap, Scale)):
        J = reference_analytic(field.inner, x)
        if J is None:
            return None
        return field._eye - field.gamma * J if isinstance(field, GdMap) else field.c * J
    if isinstance(field, Sum):
        total = np.zeros((field.dimension, field.dimension))
        for w, part in zip(field.weights, field.fields):
            J = reference_analytic(part, x)
            if J is None:
                return None
            total += w * J
        return total
    if isinstance(field, Compose):
        Ji = reference_analytic(field.inner, x)
        if Ji is None:
            return None
        Jo = reference_analytic(field.outer, field.inner._evaluate(x))
        return None if Jo is None else Jo @ Ji
    return field.jacobian_analytic(x)


def reference_step(field, x, method):
    """The step Jacobian of ``field`` at x by ``method``, one point alone."""
    if isinstance(method, CentralDifference):
        return _finite_difference_jacobian(field, x, method.h)
    try:
        J = reference_analytic(field, x)
    except OverflowError as err:
        raise NonFiniteValueError(
            f"Jacobian of {field.describe()} overflowed at x={x.tolist()}") from err
    if J is None:
        if isinstance(method, Analytic):
            raise JacobianMethodError(
                f"{field.describe()} has no analytic Jacobian; use central differences")
        return _finite_difference_jacobian(field, x, 1e-5)
    return J


def reference_jacobian(field, x, method):
    with np.errstate(over="ignore", invalid="ignore"):
        J = reference_step(field, x, method)
    if not np.isfinite(J).all():
        raise NonFiniteValueError(f"Jacobian of {field.describe()} is non-finite at x={x.tolist()}")
    return J


def reference_walk(field, x, k_max):
    """(steps, prefixes, error) of the one-point Jacobian walk of x: each
    step's Jacobian and the running chain product, up to the first error,
    as (message, iterate index) worded as the walker raises it."""
    steps, prefixes, point, prefix = [], [], x, None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, k_max + 1):
            if i > 1:
                try:
                    point = field._evaluate_rows(point[None, :])[0]
                except NonFiniteValueError as err:
                    err = tagged(err, i - 1, k_max)
                    return steps, prefixes, (str(err), err.iterate_index)
            try:
                J = reference_step(field, point, None)
            except NonFiniteValueError as err:
                return steps, prefixes, (str(err), err.iterate_index)
            prefix = J if prefix is None else J @ prefix
            if not np.isfinite(prefix).all():
                return steps, prefixes, (f"chain Jacobian of {field.describe()} is non-finite "
                                         f"at iterate {i} of {k_max}", i)
            steps.append(J)
            prefixes.append(prefix)
    return steps, prefixes, None


def outcome(fn, *args):
    """("ok", value) or (exception type, message, iterate index)."""
    try:
        return "ok", fn(*args)
    except (NonFiniteValueError, JacobianMethodError, OverflowError) as err:
        return type(err), str(err), getattr(err, "iterate_index", None)


def same(a, b):
    if a[0] != "ok" or b[0] != "ok":
        return a == b
    if a[1] is None or b[1] is None:
        return a[1] is None and b[1] is None
    return np.array_equal(a[1], b[1])


def counted(leaf, calls):
    """leaf, with each call of its analytic Jacobian counted in calls[0]."""
    analytic = leaf.jacobian_analytic

    def counting(x):
        calls[0] += 1
        return analytic(x)

    leaf.jacobian_analytic = counting
    return leaf


@st.composite
def trees(draw):
    """(field, points, k_max, calls): a tree of descent maps, scales, sums,
    compositions and, below the root, iterates (k <= 3) over model gradients, Linear, Affine, polynomial and
    no-Jacobian callback leaves on R^n, and 1-6 points of which every
    other one lies far out: where exp gradients overflow, or where
    polynomial values overflow and their Jacobians do not.  calls[0]
    counts the leaves' analytic Jacobian calls."""
    n = draw(st.integers(1, 3))
    calls = [0]
    entries = st.floats(-1.5, 1.5, allow_nan=False).filter(lambda v: abs(v) > 0.05)
    rows = st.lists(entries, min_size=n, max_size=n)

    def matrix():
        return np.array(draw(st.lists(rows, min_size=n, max_size=n)))

    def leaf():
        kind = draw(st.sampled_from(("logistic", "exp", "exp", "linear", "affine", "poly",
                                     "callback", "callback")))
        if kind in ("logistic", "exp"):
            return glm_gradient(GlmSpec(np.array(draw(st.lists(rows, min_size=1, max_size=3))),
                                        kind))
        if kind == "linear":
            return Linear(matrix())
        if kind == "affine":
            return Affine(matrix(), draw(rows))
        if kind == "poly":
            c = draw(st.sampled_from(("1/4", "-1/2", "3")))
            return PolyExact(PolyField([parse_poly(f"{c}*x{i}^2 - x{(i + 1) % n}", n)
                                        for i in range(n)]))
        A, fn = matrix(), draw(st.sampled_from((np.tanh, np.exp)))
        return Callback(lambda x, A=A: fn(A @ x), n, name=fn.__name__)

    def tree(depth, root=False):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return counted(leaf(), calls)
        kind = draw(st.sampled_from(("gd", "scale", "sum", "compose")
                                    + (() if root else ("iterate",))))
        if kind == "iterate":
            return Iterate(tree(depth - 1), draw(st.integers(1, 3)))
        if kind == "gd":
            return GdMap(tree(depth - 1), draw(st.sampled_from((0.1, 0.4))))
        if kind == "scale":
            return Scale(draw(st.sampled_from((-0.7, 2.0))), tree(depth - 1))
        if kind == "sum":
            parts = [tree(depth - 1) for _ in range(draw(st.integers(1, 3)))]
            return Sum(parts, [draw(st.sampled_from((0.5, -1.0, 3.0))) for _ in parts])
        return Compose(tree(depth - 1), tree(depth - 1))

    field = tree(3, root=True)
    points = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                                             min_size=n, max_size=n), min_size=1, max_size=6)))
    points[1::2] *= draw(st.sampled_from((3.0, 300.0, 1e160)))
    return field, points, draw(st.integers(1, 3)), calls


class TestBatchedJacobians:
    @SETTINGS
    @given(trees())
    def test_walk_rows_matches_per_point_recursion(self, case):
        field, X, k_max, calls = case
        walked = [reference_walk(field, x, k_max) for x in X]
        reference_calls, calls[0] = calls[0], 0
        dropped = {}
        walk = walk_rows(field, X, k_max, jacobians=True, dropped=dropped)
        for j, (live, step, prefix) in enumerate(walk):
            assert live.tolist() == [r for r, w in enumerate(walked) if len(w[0]) > j]
            for r, row in enumerate(live):
                assert np.array_equal(step[r], walked[row][0][j])
                assert np.array_equal(prefix[r], walked[row][1][j])
        # one leaf call per leaf, point and step that the point reaches
        assert calls[0] == reference_calls
        # every dropped row keeps the error of its own walk
        assert {r: (str(err), err.iterate_index) for r, err in dropped.items()} == {
            r: w[2] for r, w in enumerate(walked) if w[2] is not None}

    @SETTINGS
    @given(trees(), st.sampled_from((None, Analytic(), CentralDifference(1e-4))))
    def test_jacobian_matches_per_point_recursion(self, case, method):
        field, X, _, calls = case
        for x in X:
            reference = outcome(reference_jacobian, field, x, method)
            reference_calls, calls[0] = calls[0], 0
            assert same(outcome(jacobian, field, x, method), reference)
            assert calls[0] == reference_calls
            with np.errstate(over="ignore", invalid="ignore"):
                assert same(outcome(field.jacobian_analytic, x),
                            outcome(reference_analytic, field, x))
            calls[0] = 0

    def test_a_part_that_raises_comes_before_a_part_without_a_jacobian(self):
        # the exp part overflows at the far point before the callback part
        # shows that the sum has no analytic form; elsewhere the sum is
        # differenced as a whole, or refused under Analytic
        grad = glm_gradient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "exp"))
        field = Sum([grad, Callback(np.tanh, 2)])
        far, near = np.array([800.0, 0.0]), np.array([0.5, -0.5])
        for method in (None, Analytic()):
            with pytest.raises(NonFiniteValueError, match=r"^Jacobian of sum\(.* overflowed"):
                jacobian(field, far, method)
        with pytest.raises(JacobianMethodError, match="has no analytic Jacobian"):
            jacobian(field, near, Analytic())
        assert np.array_equal(jacobian(field, near), reference_jacobian(field, near, None))
        live, step, _ = next(walk_rows(field, [near, far, near], 1, jacobians=True))
        assert live.tolist() == [0, 2] and np.array_equal(step[0], step[1])

    def test_an_iterate_keeps_the_rows_that_raised_before_its_missing_form(self):
        # inside the iterate, the first part's Jacobian overflows at the far
        # point, where its value is finite, before the second part shows
        # that the sum has no analytic form: that row keeps the iterate's
        # error and leaves the walk, the others are differenced
        def jac(x):
            if abs(x[0]) > 100:
                raise OverflowError("math range error")
            return np.diag(1.0 - np.tanh(x) ** 2)

        field = Scale(1.0, Iterate(Sum([Callback(np.tanh, 2, jac), Callback(np.tanh, 2)]), 2))
        far, near = np.array([800.0, 0.0]), np.array([0.5, -0.5])
        with pytest.raises(NonFiniteValueError, match=r"^Jacobian of sum\(.* overflowed"):
            jacobian(field, far)
        assert np.array_equal(jacobian(field, near), reference_jacobian(field, near, None))
        live, step, _ = next(walk_rows(field, [near, far, near], 1, jacobians=True))
        assert live.tolist() == [0, 2] and np.array_equal(step[0], step[1])
