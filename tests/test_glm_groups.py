"""GLM FedAvg clients walked together: ``run_fedavg`` and the iterative
``oracle_fixed_point`` walk the GLM clients that share an activation and a
direction count as one stacked orbit, and must give, bit for bit, what
walking every client alone gives.  The reference here is that per-client
loop: each walking client evaluated alone through its public call, in
index order, each round checked against the model average as it ends, and
the oracle descending the same per-client models, averaged as the server
field's own Sum averages them."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield import fedavg as fa
from iterfield import fields, glm
from iterfield.fields import (Affine, Callback, GdMap, Iterate, NonFiniteValueError, as_vector)
from iterfield.glm import GlmGradientStack, GlmSpec, get_activation, glm_gradient

SETTINGS = settings(max_examples=40, deadline=None)


class CallbackClient:
    """A client whose gradient field is an opaque callback."""

    def __init__(self, fn, dimension, name="callback"):
        self.dimension = dimension
        self.field = Callback(fn, dimension, name=name)

    def gradient_field(self):
        return self.field


def lowered_form(client, gamma, k):
    """A quadratic client's float k-step map as ``run_fedavg`` stacks it: a
    float-entered matrix by its k float descent steps, any other by its
    exact form rounded once; None for any other client, or a map that is
    not finite."""
    if not isinstance(client, fa.QuadraticClient):
        return None
    return (fa._descent_map(client.matrix, client.center, gamma, k) if client.float_entered
            else fa._lowered(client._exact_form(gamma, k)))


@np.errstate(over="ignore", invalid="ignore")
def reference_run(config):
    """(xs, server values, note, fixed point, method) with every walking
    client evaluated alone, in index order, and quadratic clients lowered
    and stacked as ``run_fedavg`` does (``lowered_form``).  With eta = 1
    each round is checked
    against the plain model average as it ends, raising RuntimeError at the
    first round that disagrees."""
    clients, gamma, k = config.clients, config.gamma, config.k
    m, n = len(clients), config.x0.shape[0]
    lowered, walks = {}, []
    for i, c in enumerate(clients):
        form = lowered_form(c, gamma, k)
        if form is None:
            walks.append((i, Iterate(GdMap(c.gradient_field(), gamma), k)))
        else:
            lowered[i] = form
    stacked = list(lowered)
    A = np.concatenate([lowered[i][0] for i in stacked]) if stacked else np.zeros((0, n))
    b = np.concatenate([lowered[i][1] for i in stacked]) if stacked else np.zeros(0)

    def models(x):
        rows = (A @ x + b).reshape(-1, n)
        first_bad = m
        if not np.isfinite(rows).all():
            first_bad = stacked[int(np.argmin(np.isfinite(rows).all(axis=1)))]
        ys = np.empty((m, n))
        ys[stacked] = rows
        for i, walk in walks:
            if i > first_bad:
                break
            ys[i] = walk(x)
        if first_bad < m:
            raise NonFiniteValueError(f"{Affine(*lowered[first_bad]).describe()} produced "
                                      f"a non-finite value at x={x.tolist()}")
        return ys

    xs, values, note, x = [config.x0], [], None, config.x0
    for t in range(config.rounds):
        try:
            ys = models(x)
            v = ((1.0 / m) * (x - ys)).cumsum(axis=0)[-1]
            x_next = x - config.eta * v
            if not np.isfinite(x_next).all():
                raise NonFiniteValueError(f"iterate became non-finite at round {t + 1}")
            if config.eta == 1.0:
                avg = ys.cumsum(axis=0)[-1] / m
                gap = float(np.abs(x_next - avg).max())
                scale = max(1.0, float(np.abs(avg).max()), float(np.abs(x).max()))
                if gap > fa.EQUIVALENCE_TOL * scale:
                    raise RuntimeError(
                        f"delta update and model average disagree by {gap:.3e} at round {t}")
            x = x_next
        except NonFiniteValueError as err:
            note = f"trace truncated at round {t}: {err}"
            break
        values.append(v)
        xs.append(x)
    point, method = None, None
    if fa._oracle_eligible(clients):
        try:
            point, method = reference_oracle(clients, gamma, k)
        except (fa.ConvergenceError, NonFiniteValueError):
            pass
    return np.array(xs), np.array(values).reshape(-1, n), note, point, method


@np.errstate(over="ignore", invalid="ignore")
def reference_oracle(clients, gamma, k, x0=None, tol=fa.FIXED_POINT_TOL,
                     max_iterations=fa.FIXED_POINT_CAP):
    """The unit-step server recursion on the rounds' models: each client
    alone, in index order, through its public call, a quadratic one as
    ``Affine`` of its ``lowered_form`` and any other by the walk the server
    field's Sum gives it; their deltas accumulated from zeros, as the Sum
    does, and a total that is not finite left to the Sum.  An iterate that
    repeats step j's, with period p, can only cycle; it raises where
    Brent's search, which compares each iterate with the one saved at step
    2^i - 1, finds it: at step 2^i - 1 + p for the least i with
    2^i - 1 >= j and 2^i >= p, if the cap reaches that step."""
    field = fa.build_server_field_only(clients, gamma, k)
    models = []
    for c, delta in zip(clients, field.fields):
        form = lowered_form(c, gamma, k)
        models.append(delta.fields[1] if form is None else Affine(*form))

    def value(x):
        ys = [model(x) for model in models]
        total = np.zeros(field.dimension)
        for y in ys:
            total += (1.0 / len(ys)) * (x - y)
        return total if np.isfinite(total).all() else field(x)

    x = np.zeros(field.dimension) if x0 is None else as_vector(x0, field.dimension)
    seen = {x.tobytes(): 0}
    for step in range(1, max_iterations + 1):
        v = value(x)
        if float(np.linalg.norm(v)) <= tol:
            return x, "iterative"
        x = x - 1.0 * v
        if float(np.linalg.norm(x)) > 1e12:
            raise fa.ConvergenceError("fixed-point iteration diverged")
        if x.tobytes() in seen:
            begin = seen[x.tobytes()]
            period, power = step - begin, 1
            while power - 1 < begin or power < period:
                power *= 2
            if power - 1 + period <= max_iterations:
                raise fa.ConvergenceError(f"fixed-point iteration repeats from step {begin} "
                                          f"with period {period} above {tol:g}")
            break
        seen[x.tobytes()] = step
    raise fa.ConvergenceError(
        f"fixed-point iteration did not reach {tol:g} within {max_iterations} steps")


def outcome(fn):
    """fn()'s point and method as bytes, or its error's type and text."""
    try:
        point, method = fn()
    except (fa.ConvergenceError, NonFiniteValueError) as err:
        return type(err).__name__, str(err)
    return point.tobytes(), method


def run_counting_walks(monkeypatch, config):
    """``run_fedavg(config)`` and the number of orbit walks it made: one
    per evaluation of an ``Iterate``, which walks its steps itself."""
    walks = []
    original = fields.Iterate._evaluate_rows

    def counting(self, X):
        walks.append(self)
        return original(self, X)

    monkeypatch.setattr(fields.Iterate, "_evaluate_rows", counting)
    try:
        trace = fa.run_fedavg(config)
    finally:
        monkeypatch.setattr(fields.Iterate, "_evaluate_rows", original)
    return trace, len(walks)


def directions(rng, n, m, kind):
    """m directions in R^n: exactly orthogonal (signed, scaled unit
    vectors), orthogonal up to rounding, or tilted off an orthogonal
    basis but well conditioned; C-ordered, as directions built from lists
    are."""
    scales = rng.uniform(0.6, 1.0, m)[:, None]
    if kind == "unit":
        Z = np.eye(n)[rng.permutation(n)[:m]] * rng.choice([-1.0, 1.0], (m, 1))
    else:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Z = Q.T[:m]
        if kind == "tilted":
            Z = Z + 0.15 * rng.standard_normal((m, n))
            Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    return np.ascontiguousarray(Z * scales)


@st.composite
def client_sets(draw):
    """A FedAvgConfig whose clients are 1-4 GLM clients (logistic,
    quadratic or exp; any direction count; orthogonal or not), and, unless
    the set is one whose fixed point ``run_fedavg`` hunts, quadratic clients
    (some too large to lower), a callback client and exp clients whose
    walks overflow within a few rounds, in a drawn order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    hunted = draw(st.booleans())
    clients = []
    for _ in range(draw(st.integers(1, 2 if hunted else 4))):
        activation = draw(st.sampled_from(("logistic", "quadratic") if hunted
                                          else ("logistic", "quadratic", "exp")))
        Z = directions(rng, n, draw(st.integers(1, n)),
                       draw(st.sampled_from(("unit", "rotated", "tilted"))))
        if activation == "exp":
            Z = 0.3 * Z
        layout = draw(st.sampled_from(("C", "F", "strided")))
        # C-ordered directions are stacked; Fortran-ordered and strided
        # ones walk alone
        Z = (np.ascontiguousarray(Z) if layout == "C" else np.asfortranarray(Z)
             if layout == "F" else np.repeat(Z, 2, axis=1)[:, ::2])
        clients.append(fa.GlmClient(GlmSpec(Z, activation)))
        if hunted:
            # an opposing client, so that a minimizer exists
            clients.append(fa.GlmClient(GlmSpec(-Z * rng.uniform(0.9, 1.0), activation)))
    if not hunted:
        for _ in range(draw(st.integers(0, 2))):
            B = rng.standard_normal((n, n))
            scale = 1e200 if draw(st.integers(0, 3)) == 0 else 1.0
            clients.append(fa.QuadraticClient(scale * (B @ B.T + 0.5 * np.eye(n)),
                                              rng.uniform(-1, 1, n)))
        if draw(st.booleans()):
            C = rng.standard_normal((n, n))
            clients.append(CallbackClient(lambda x, C=C: np.tanh(C @ x), n))
        for _ in range(draw(st.integers(0, 2))):
            Z = directions(rng, n, draw(st.integers(1, n)), "rotated")
            clients.append(fa.GlmClient(GlmSpec(rng.uniform(2.0, 4.0) * Z, "exp")))
        if fa._oracle_eligible(clients) or fa._surrogate_available(clients):
            # a logistic model alone has no minimizer, so the fixed-point
            # hunt would run to its cap, and an overflowing exp model's
            # surrogate raises after the trace
            clients.append(CallbackClient(np.sin, n))
    clients = [clients[i] for i in draw(st.permutations(range(len(clients))))]
    if hunted:
        gamma = 1.0 / max(c.smoothness_bound() for c in clients)
    else:
        gamma = draw(st.sampled_from((0.1, 0.3, 0.8)))
    x0 = rng.uniform(-2.0, 2.0, n)
    if draw(st.booleans()):
        x0[0] = -0.0
    config = fa.FedAvgConfig(clients, gamma=gamma, eta=draw(st.sampled_from((1.0, 0.5))),
                             k=draw(st.integers(1, 4)), rounds=draw(st.integers(1, 15)), x0=x0)
    return config


class TestGroupsEqualClientsAlone:
    @SETTINGS
    @given(client_sets())
    def test_trace_and_fixed_points(self, config):
        try:
            xs, values, note, point, method = reference_run(config)
        except RuntimeError as err:
            with pytest.raises(RuntimeError) as raised:
                fa.run_fedavg(config)
            assert str(raised.value) == str(err)
            return
        trace = fa.run_fedavg(config)
        assert trace.rounds_completed == len(xs) - 1
        assert trace.xs.tobytes() == xs.tobytes()
        assert trace.server_values.tobytes() == values.tobytes()
        assert trace.note == note
        assert trace.fixed_point_method == method
        assert (None if trace.fixed_point is None else trace.fixed_point.tobytes()) == (
            None if point is None else point.tobytes())
        clients, gamma, k = config.clients, config.gamma, config.k
        # a looser tolerance and a shorter cap keep hunts that never
        # converge short
        with mock.patch.multiple(fa, FIXED_POINT_TOL=1e-6, FIXED_POINT_CAP=200):
            for x0 in (None, config.x0):
                got = outcome(lambda: fa.oracle_fixed_point(clients, gamma, k, x0))
                want = outcome(lambda: reference_oracle(clients, gamma, k, x0, 1e-6, 200))
                assert got == want

    def test_one_walk_per_group_and_round(self, monkeypatch):
        rng = np.random.default_rng(3)
        clients = [fa.GlmClient(GlmSpec(0.3 * directions(rng, 3, 2, "rotated"), "exp"))
                   for _ in range(3)]
        config = fa.FedAvgConfig(clients, gamma=0.2, eta=1.0, k=3, rounds=5, x0=[0.5, -1.0, 0.2])
        trace, walks = run_counting_walks(monkeypatch, config)
        assert trace.fixed_point_method is None and trace.note is None
        assert walks == 5
        assert trace.xs.tobytes() == reference_run(config)[0].tobytes()

    def test_clients_of_one_expression_share_a_walk(self, monkeypatch):
        # each spec parses the text itself; one parse per expression gives
        # them one activation, so they are one group
        rng = np.random.default_rng(5)
        clients = [fa.GlmClient(GlmSpec(directions(rng, 3, 2, "rotated"), "log(1+t^2)"))
                   for _ in range(3)]
        config = fa.FedAvgConfig(clients, gamma=0.2, eta=1.0, k=3, rounds=5, x0=[1.5, -1.0, 0.2])
        trace, walks = run_counting_walks(monkeypatch, config)
        assert walks == 5
        xs, values, note, _, _ = reference_run(config)
        assert trace.note is None and note is None
        assert trace.xs.tobytes() == xs.tobytes()
        assert trace.server_values.tobytes() == values.tobytes()

    def test_a_failing_group_raises_its_first_clients_error(self):
        # two exp clients of one group, the second of which overflows: the
        # note names the client that overflows alone, not the stack
        calm = fa.GlmClient(GlmSpec([[0.1, 0.0], [0.1, 0.1]], "exp"))
        wild = fa.GlmClient(GlmSpec([[40.0, 0.0], [40.0, 1.0]], "exp"))
        config = fa.FedAvgConfig([calm, wild], gamma=0.5, eta=1.0, k=2, rounds=3, x0=[20.0, 1.0])
        trace = fa.run_fedavg(config)
        assert trace.note == reference_run(config)[2]
        assert trace.note.startswith("trace truncated at round 0: glm(exp, m=2, n=2) overflowed")

    def test_a_group_error_of_any_type_waits_for_its_clients_turn(self, monkeypatch):
        # sigma' = log(t) + 1 raises ValueError for t < 0, at the third
        # client, in the group's walk; walked alone, the second client's
        # non-finite model truncates the trace before the third client walks.
        # The spec's derivative check samples t < 0 too, so it is skipped.
        monkeypatch.setattr(glm, "derivative_residual", lambda activation, ts: 0.0)
        activation = get_activation("t*log(t)")
        clients = [fa.GlmClient(GlmSpec([[1.0, 0.0]], activation)),
                   CallbackClient(lambda x: np.full(2, np.inf), 2),
                   fa.GlmClient(GlmSpec([[-1.0, 0.0]], activation))]
        config = fa.FedAvgConfig(clients, gamma=0.1, eta=1.0, k=2, rounds=3, x0=[1.0, 0.5])
        trace = fa.run_fedavg(config)
        assert trace.note == reference_run(config)[2]
        assert trace.note.startswith("trace truncated at round 0: callback")

    def test_oracle_raises_what_a_round_raises(self):
        # the first client's k = 2 model is finite, but x minus it is not;
        # the second client raises a different error when walked: a round
        # walks every client before it averages, so the hunt raises the
        # second client's error, as a round from the same point does
        big = CallbackClient(lambda x: np.full(1, 1.7e308), 1, name="big")

        def refuse(x):
            raise ValueError("walked after a failing client")

        clients = [big, CallbackClient(refuse, 1, name="refuse"),
                   fa.GlmClient(GlmSpec([[1.0]], "logistic")),
                   fa.GlmClient(GlmSpec([[-1.0]], "logistic"))]
        config = fa.FedAvgConfig(clients, gamma=1.0, eta=1.0, k=2, rounds=1, x0=[1.7e308])
        for hunt in (lambda: fa.oracle_fixed_point(clients, 1.0, 2, [1.7e308]),
                     lambda: reference_oracle(clients, 1.0, 2, [1.7e308]),
                     lambda: fa.run_fedavg(config)):
            with pytest.raises(ValueError, match="^walked after a failing client$"):
                hunt()

    def test_oracle_walks_each_group_once_per_step(self, monkeypatch):
        # two groups of two opposing clients each: every step of the hunt
        # walks two stacked orbits, and the point is the reference's
        rng = np.random.default_rng(11)
        clients = []
        for activation, count in (("logistic", 2), ("quadratic", 1)):
            Z = directions(rng, 3, count, "rotated")
            clients += [fa.GlmClient(GlmSpec(Z, activation)),
                        fa.GlmClient(GlmSpec(-0.9 * Z, activation))]
        walks, steps = [], []
        walk, descend = fields.Iterate._evaluate_rows, fa._descend

        def counting_walk(self, X):
            walks.append(self)
            return walk(self, X)

        def counting_descend(value, *args):
            return descend(lambda x: steps.append(x) or value(x), *args)

        monkeypatch.setattr(fields.Iterate, "_evaluate_rows", counting_walk)
        monkeypatch.setattr(fa, "_descend", counting_descend)
        point, method = fa.oracle_fixed_point(clients, 0.5, 3)
        monkeypatch.undo()
        assert method == "iterative" and len(steps) > 1
        assert len(walks) == 2 * len(steps)
        assert {len(w.inner.inner.specs) for w in walks} == {2}
        assert point.tobytes() == reference_oracle(clients, 0.5, 3)[0].tobytes()


    def test_oracle_keeps_the_sums_signed_zeros(self):
        # x0[0] = -0.0 and the gradient is -0.0 there: the first delta
        # there is -0.0, which the Sum, accumulating from zeros, adds as
        # +0.0, so the point keeps x0's -0.0
        clients = [CallbackClient(lambda x: np.array([-0.0, x[1]]), 2)]
        got = fa.oracle_fixed_point(clients, 0.5, 1, [-0.0, -1.0])
        assert outcome(lambda: got) == outcome(
            lambda: reference_oracle(clients, 0.5, 1, [-0.0, -1.0]))
        assert np.signbit(got[0][0])


class TestStackKernel:
    def test_blocks_equal_each_model_alone(self):
        rng = np.random.default_rng(7)
        n = 9
        for name in ("logistic", "quadratic", "exp", "log(1+t^2)"):
            activation = get_activation(name)
            specs = [GlmSpec(0.3 * rng.standard_normal((6, n)), activation) for _ in range(3)]
            stack = GlmGradientStack(specs)
            X = rng.uniform(-1.0, 1.0, (20, 3 * n))
            Y = stack._evaluate_rows(X)
            for b, spec in enumerate(specs):
                block = slice(n * b, n * (b + 1))
                for x, y in zip(X, Y):
                    assert glm_gradient(spec)(x[block]).tobytes() == y[block].tobytes()

    @pytest.mark.parametrize("other", [
        GlmSpec(np.eye(2), "quadratic"),
        GlmSpec([[1.0, 0.0]], "logistic"),
        GlmSpec(np.eye(3)[:2], "logistic"),
        GlmSpec(np.asfortranarray([[1.0, 2.0], [0.0, 1.0]]), "logistic"),
        GlmSpec(np.eye(2).repeat(2, axis=1)[:, ::2], "logistic"),
    ], ids=["activation", "direction-count", "dimension", "fortran", "strided"])
    def test_refuses_models_it_cannot_stack(self, other):
        with pytest.raises(ValueError, match="stacked models need"):
            GlmGradientStack([GlmSpec(np.eye(2), "logistic"), other])

    def test_overflow_names_the_row(self):
        stack = GlmGradientStack([GlmSpec([[1.0]], "exp"), GlmSpec([[2.0]], "exp")])
        with pytest.raises(NonFiniteValueError, match=r"overflowed at x=\[1.0, 400.0\]"):
            stack._evaluate_rows(np.array([[1.0, 2.0], [1.0, 400.0]]))


class TestSmoothnessBound:
    def test_parallel_directions(self):
        client = fa.GlmClient(GlmSpec([[1.0, 0.0], [1.0, 0.0]], "logistic"))
        hessian = glm_gradient(client.spec).jacobian_analytic(np.zeros(2))
        assert np.array_equal(hessian, np.diag([0.5, 0.0]))
        assert client.smoothness_bound() == 0.5

    def test_diagonal_gram_keeps_largest_squared_norm(self):
        client = fa.GlmClient(GlmSpec([[0.0, 0.8], [1.5, 0.0]], "logistic"))
        assert client.spec.gram_residual == 0.0
        assert client.smoothness_bound() == 0.25 * 1.5 ** 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(("logistic", "quadratic")))
    def test_bounds_the_hessian(self, seed, n, m, activation):
        rng = np.random.default_rng(seed)
        spec = GlmSpec(rng.standard_normal((m, n)) * rng.uniform(0.1, 3.0, (m, 1)), activation)
        bound = fa.GlmClient(spec).smoothness_bound()
        grad = glm_gradient(spec)
        for x in [np.zeros(n), *rng.uniform(-2.0, 2.0, (5, n))]:
            norm = float(np.linalg.norm(grad.jacobian_analytic(x), 2))
            assert norm <= bound * (1.0 + 1e-12), (norm, bound)
        assert math.isfinite(bound)
