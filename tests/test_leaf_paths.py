"""Property tests for the per-point float path: a leaf's stack of analytic
Jacobians, the model Jacobians every GLM leaf builds, and the value of an
iterate, each against the reference it must equal bit for bit and message
for message.  The references are the loops these paths replace: the
stacked outer products reduced in one ``np.add.reduce``, one
``jacobian_analytic`` call per row stacked by hand, and each row's orbit
walked alone."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield import fedavg as fa
from iterfield.fields import (Compose, Field, GdMap, Iterate, Linear, NonFiniteValueError,
                              Scale)
from iterfield.glm import GlmGdIterate, GlmGradient, GlmIterate, GlmSpec
from walks import walk_alone

SETTINGS = settings(max_examples=200, deadline=None)
ACTIVATIONS = ("quadratic", "exp", "logistic", "log(1+t^2)")


def reference_combine(spec, weights):
    """sum_i w_i z_i z_i^T as the stacked products reduced in one call."""
    return np.add.reduce(np.array(weights)[:, None, None] * spec._outers, axis=0)


def reference_weights(spec, x, k=None, gamma=None):
    """The weights of J(V^k) per direction, one scalar orbit at a time: the
    model's sigma''(<x, z_i>); the plain iterate's chain prod w sigma''(s_j)
    times sigma''(s_k-1); the descent iterate's sum of sigma''(s_j) times
    the chain prod (1 - gamma w sigma''(s_l)) before it."""
    act = spec.activation
    weights = []
    for t, w in zip((spec.directions @ x).tolist(), spec._norms):
        if k is None:
            weights.append(act.second(t))
        elif gamma is None:
            # s_1 .. s_k-2 must be finite; s_k-1 is not checked
            chain, s = 1.0, t
            for j in range(1, k):
                v = act.deriv(s)
                if not math.isfinite(v):
                    raise NonFiniteValueError("orbit left float range")
                chain *= w * act.second(s)
                s = w * v
                if j < k - 1 and not math.isfinite(s):
                    raise NonFiniteValueError("orbit left float range")
            weights.append(act.second(s) * chain)
        else:
            chain, total, s = 1.0, 0.0, t
            for _ in range(k):
                v = act.deriv(s)
                if not math.isfinite(v):
                    raise NonFiniteValueError("orbit left float range")
                curv = act.second(s)
                total += curv * chain
                chain *= 1.0 - gamma * w * curv
                s = s - gamma * w * v
            weights.append(total)
    return weights


def outcome(fn):
    """("ok", result bytes) or the kind of failure fn raised."""
    try:
        return "ok", fn().tobytes()
    except (OverflowError, NonFiniteValueError):
        return "raised"


@st.composite
def glm_cases(draw, orthogonal):
    """(spec, x): m = 1..4 directions in R^n, n = 1..4, orthogonal (signed,
    scaled unit vectors, so m <= n) or not, and a point of R^n."""
    n = draw(st.integers(1, 4))
    entry = st.floats(-1.2, 1.2, allow_nan=False)
    if orthogonal:
        m = draw(st.integers(1, n))
        axes = draw(st.permutations(range(n)))[:m]
        scales = draw(st.lists(st.floats(0.3, 1.2) | st.floats(-1.2, -0.3), min_size=m,
                               max_size=m))
        Z = np.zeros((m, n))
        Z[range(m), axes] = scales
    else:
        m = draw(st.integers(1, 4))
        Z = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m,
                                   max_size=m)))
        if not (np.sum(Z * Z, axis=1) > 0).all():
            Z[:, 0] = 1.0
    x = np.array(draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n)))
    return GlmSpec(Z, draw(st.sampled_from(ACTIVATIONS))), x


class TestGlmJacobians:
    @SETTINGS
    @given(glm_cases(orthogonal=False))
    def test_model_gradient(self, case):
        spec, x = case
        J = GlmGradient(spec).jacobian_analytic(x)
        want = reference_combine(spec, reference_weights(spec, x))
        assert J.tobytes() == want.tobytes()
        assert J.tobytes() == J.T.copy().tobytes()

    @SETTINGS
    @given(glm_cases(orthogonal=True), st.integers(1, 4))
    def test_plain_iterate(self, case, k):
        spec, x = case
        got = outcome(lambda: GlmIterate(spec, k).jacobian_analytic(x))
        want = outcome(lambda: reference_combine(spec, reference_weights(spec, x, k)))
        assert got == want
        if got[0] == "ok":
            J = GlmIterate(spec, k).jacobian_analytic(x)
            assert J.tobytes() == J.T.copy().tobytes()

    @SETTINGS
    @given(glm_cases(orthogonal=True), st.integers(1, 4), st.floats(0.05, 1.5))
    def test_descent_iterate(self, case, k, gamma):
        spec, x = case
        got = outcome(lambda: GlmGdIterate(spec, gamma, k).jacobian_analytic(x))
        want = outcome(lambda: np.eye(spec.dimension) - gamma * reference_combine(
            spec, reference_weights(spec, x, k, gamma)))
        assert got == want
        if got[0] == "ok":
            J = GlmGdIterate(spec, gamma, k).jacobian_analytic(x)
            assert J.tobytes() == J.T.copy().tobytes()


class Scripted(Field):
    """A leaf whose analytic Jacobian at x depends on x[0]: it overflows
    above 2, has no analytic form below ``missing_below`` and is a
    point-dependent matrix elsewhere; every call is counted."""

    def __init__(self, n, missing_below):
        self.dimension = n
        self.missing_below = missing_below
        self.calls = 0

    def jacobian_analytic(self, x):
        self.calls += 1
        if x[0] > 2.0:
            raise OverflowError("scripted overflow")
        if x[0] < self.missing_below:
            return None
        return np.outer(x, x) + np.eye(self.dimension) * x[0]


class TestLeafStack:
    @SETTINGS
    @given(st.integers(1, 3), st.integers(0, 6), st.booleans(), st.data())
    def test_rows_are_the_per_row_calls_stacked(self, n, N, with_missing, data):
        X = np.array(data.draw(st.lists(st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                                                 min_size=n, max_size=n),
                                        min_size=N, max_size=N))).reshape(N, n)
        leaf = Scripted(n, -2.0 if with_missing else -math.inf)
        J, raised = leaf._analytic_rows(X)
        assert leaf.calls == N
        reference = Scripted(n, leaf.missing_below)
        rows, errors = [], {}
        for r, x in enumerate(X):
            try:
                rows.append(reference.jacobian_analytic(x))
            except OverflowError as err:
                errors[r] = err
                rows.append(np.zeros((n, n)))
        assert {r: str(e) for r, e in raised.items()} == {r: str(e) for r, e in errors.items()}
        assert all(isinstance(e, OverflowError) for e in raised.values())
        if any(row is None for row in rows):
            assert J is None
        else:
            assert J.shape == (N, n, n) and J.dtype == float
            assert J.tobytes() == np.array(rows).reshape(N, n, n).tobytes()


@st.composite
def iterates(draw):
    """(V, k, X): an exp or logistic model gradient, its descent map, an
    expanding Linear map, or a Compose or Scale around a nested Iterate, in
    R^2; k = 1..6 and 1-4 points, some far enough out to overflow."""
    spec = GlmSpec(np.array([[0.9, 0.3], [-0.4, 1.1]]), draw(st.sampled_from(("exp", "logistic"))))
    grad = GlmGradient(spec)
    kind = draw(st.sampled_from(("grad", "gd", "linear", "compose", "scale")))
    V = {"grad": grad,
         "gd": GdMap(grad, 0.5),
         "linear": Linear([[draw(st.floats(-1e80, 1e80)), 1.0], [0.5, -2.0]]),
         "compose": Compose(Linear([[1.5, 0.0], [0.2, 1.0]]), Iterate(grad, 2)),
         "scale": Scale(draw(st.floats(0.5, 3.0)), Iterate(GdMap(grad, 0.3), 3))}[kind]
    rows = st.lists(st.floats(-8.0, 8.0, allow_nan=False), min_size=2, max_size=2)
    X = np.array(draw(st.lists(rows, min_size=1, max_size=4)))
    return V, draw(st.integers(1, 6)), X


def failure(fn):
    try:
        return "ok", fn().tobytes()
    except NonFiniteValueError as err:
        return str(err), err.iterate_index


class TestIterateValues:
    @SETTINGS
    @given(iterates())
    def test_one_point_raises_as_its_orbit_walk(self, case):
        V, k, X = case
        field = Iterate(V, k)
        for x in X:
            with np.errstate(over="ignore", invalid="ignore"):
                got = failure(lambda: field._evaluate_rows(x[None, :])[0])
            want = failure(lambda: list(walk_alone(field.inner, x, field.k))[-1])
            assert got == want

    @SETTINGS
    @given(iterates())
    def test_batch_raises_when_a_row_raises_alone(self, case):
        # the batch raises exactly when some row raises alone, and with one
        # failing row it raises that row's error; else it holds the rows'
        # values alone
        V, k, X = case
        field = Iterate(V, k)
        with np.errstate(over="ignore", invalid="ignore"):
            got = failure(lambda: field._evaluate_rows(X))
            alone = [failure(lambda: field._evaluate_rows(x[None, :])[0]) for x in X]
        failing = [want for want in alone if want[0] != "ok"]
        assert (got[0] == "ok") == (not failing)
        if not failing:
            assert got[1] == b"".join(value for _, value in alone)
        if len(failing) == 1:
            assert got == failing[0]

    def test_empty_batch_calls_nothing(self):
        class Refusing(Linear):
            def _evaluate_rows(self, X):
                raise AssertionError("evaluated an empty batch")

        assert Iterate(Refusing(np.eye(2)), 3)._evaluate_rows(np.zeros((0, 2))).shape == (0, 2)


def first_repeat(xs):
    """(s, p): the first round t whose iterate's bytes appeared at an
    earlier round s, with the period p = t - s; None without a repeat."""
    seen = {}
    for t, x in enumerate(xs):
        key = x.tobytes()
        if key in seen:
            return seen[key], t - seen[key]
        seen[key] = t
    return None


def quadratic_config(rng):
    m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    clients = []
    for _ in range(m):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(rng.uniform(1.1, 2.9, n)) @ Q.T
        clients.append(fa.QuadraticClient((A + A.T) / 2, rng.uniform(-2, 2, n)))
    return fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=int(rng.choice([1, 2, 5])),
                           rounds=200, x0=rng.uniform(-3, 3, n))


def logistic_config(rng):
    n = int(rng.integers(2, 4))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    base = Q.T * rng.uniform(0.6, 1.0, n)[:, None]
    clients = [fa.GlmClient(GlmSpec(Z, "logistic"))
               for Z in (base, -base * rng.uniform(0.9, 1.0, n)[:, None])]
    beta = 0.25 * float(np.max(np.sum(base * base, axis=1)))
    return fa.FedAvgConfig(clients, gamma=1.0 / beta, eta=1.0, k=3, rounds=200,
                           x0=rng.uniform(-1.5, 1.5, n))


class TestFedavgTracesRepeat:
    @pytest.mark.parametrize("make", [quadratic_config, logistic_config])
    @pytest.mark.parametrize("seed", [11, 57, 3])
    def test_a_repeated_iterate_repeats_the_rest_of_the_trace(self, make, seed):
        # a round is a function of its iterate alone, so once an iterate
        # repeats, the trace cycles with that period through round T
        trace = fa.run_fedavg(make(np.random.default_rng(seed)))
        assert trace.note is None and trace.rounds_completed == 200
        start, period = first_repeat(trace.xs)
        assert start + period <= 200
        xs, values = trace.xs, trace.server_values
        for t in range(start, trace.rounds_completed + 1 - period):
            assert xs[t + period].tobytes() == xs[t].tobytes()
        for t in range(start, trace.rounds_completed - period):
            assert values[t + period].tobytes() == values[t].tobytes()
