"""Server fields, traces, oracle fixed points, surrogates, rate checks."""

import ast
import inspect
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield import fedavg as fa
from iterfield.conservatism import SamplingConfig
from iterfield.fields import Callback, NonFiniteValueError
from iterfield.glm import GlmSpec, iterated_glm_gd, surrogate_potentials


def check_server_parts(clients, gamma, k):
    """``_server_system``'s integers give the server field's rationals
    (M, v) from ``Sum.as_affine`` exactly, and ``_affine_server_parts``
    gives the float nearest each."""
    M, v = fa.build_server_field_only(clients, gamma, k).as_affine()
    P, r, d = fa._server_system(clients, gamma, k)
    w = Fraction(1.0 / len(clients))
    assert ([[w * Fraction(p, d) for p in row] for row in P],
            [-w * Fraction(x, d) for x in r]) == (M, v)
    assert fa._affine_server_parts(clients, gamma, k) == (
        [[float(x) for x in row] for row in M], [float(x) for x in v])


class CallbackClient:
    """A client whose gradient field is an opaque callback."""

    def __init__(self, fn, dimension):
        self.dimension = dimension
        self.field = Callback(fn, dimension)

    def gradient_field(self):
        return self.field


def count_server_models(monkeypatch) -> list:
    """Wrap ``fa._server_models``: the list returned gets one entry per
    operator built, counting that operator's evaluations."""
    counts, build = [], fa._server_models

    def counted(*args):
        models, slot = build(*args), len(counts)
        counts.append(0)

        def evaluate(x):
            counts[slot] += 1
            return models(x)

        return evaluate

    monkeypatch.setattr(fa, "_server_models", counted)
    return counts


def hetero_clients():
    return [fa.QuadraticClient(np.diag([1.0, 3.0]), [1.0, 2.0]),
            fa.QuadraticClient(np.diag([3.0, 1.0]), [-1.0, 0.0])]


class TestClients:
    def test_quadratic_gradient(self):
        client = fa.QuadraticClient(np.diag([2.0, 1.0]), [1.0, -1.0])
        np.testing.assert_allclose(client.gradient_field()([2.0, 0.0]), [2.0, 1.0])
        assert client.loss(client.center) == 0.0

    def test_quadratic_requires_symmetry(self):
        with pytest.raises(ValueError):
            fa.QuadraticClient([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])

    def test_glm_smoothness_bound(self):
        client = fa.GlmClient(GlmSpec([[2.0, 0.0]], "logistic"))
        assert client.smoothness_bound() == pytest.approx(1.0)  # 0.25 * 4

    def test_exp_has_no_bound(self):
        client = fa.GlmClient(GlmSpec([[1.0, 0.0]], "exp"))
        with pytest.raises(ValueError):
            client.smoothness_bound()

    def test_glm_loss_overflow_raises(self):
        client = fa.GlmClient(GlmSpec([[1.0, 0.0]], "exp"))
        with pytest.raises(NonFiniteValueError):
            client.loss([800.0, 0.0])
        # each term is finite; their sum is not
        client = fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "exp"))
        with pytest.raises(NonFiniteValueError):
            client.loss([709.5, 709.5])


class TestServerField:
    def test_single_quadratic_telescopes(self):
        client = fa.QuadraticClient(np.eye(2), np.zeros(2))
        for gamma, k in ((0.5, 2), (0.25, 3), (1.0, 4)):
            info = fa.build_server_field([client], gamma, k)
            factor = 1.0 - (1.0 - gamma) ** k
            x = np.array([2.0, -3.0])
            np.testing.assert_allclose(info.field(x), factor * x, atol=1e-15)
        info = fa.build_server_field([client], 1.0, 3)
        np.testing.assert_allclose(info.field([5.0, 7.0]), [5.0, 7.0], atol=0)

    def test_two_client_cancellation(self):
        clients = [fa.QuadraticClient(np.eye(2), [1.0, 0.0]),
                   fa.QuadraticClient(np.eye(2), [-1.0, 0.0])]
        info = fa.build_server_field(clients, 0.5, 2)
        x = np.array([2.0, -4.0])
        np.testing.assert_allclose(info.field(x), 0.75 * x, atol=1e-15)
        assert info.conservatism.kind == "numeric-pass"
        assert info.surrogate_available

    def test_glm_server_matches_closed_form(self):
        rng = np.random.default_rng(0)
        specs = [GlmSpec([[0.5, 0.0], [0.0, 0.4]], "logistic"),
                 GlmSpec([[-0.6, 0.0]], "logistic")]
        clients = [fa.GlmClient(s) for s in specs]
        gamma, k = 2.0, 3
        info = fa.build_server_field(clients, gamma, k)
        assert info.conservatism.kind == "numeric-pass"
        assert info.surrogate_available
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            expected = np.zeros(2)
            for s in specs:
                expected += x - iterated_glm_gd(s, gamma, k)(x)
            expected /= len(specs)
            assert np.linalg.norm(info.field(x) - expected) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fa.build_server_field([fa.QuadraticClient(np.eye(2), np.zeros(2)),
                                   fa.QuadraticClient(np.eye(3), np.zeros(3))], 0.5, 1)


class TestRunFedavg:
    def test_config_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            fa.FedAvgConfig([fa.QuadraticClient(np.eye(2), np.zeros(2)),
                             fa.QuadraticClient(np.eye(3), np.zeros(3))],
                            gamma=0.5, eta=1.0, k=1, rounds=1, x0=[0.0, 0.0])

    def test_each_client_map_runs_once_per_round(self):
        class CountingClient:
            def __init__(self, matrix):
                self.dimension = 2
                self.calls = []
                inner = fa.QuadraticClient(matrix, [0.5, -0.5]).gradient_field()
                self.field = Callback(lambda x: self.calls.append(1) or inner(x), 2)

            def gradient_field(self):
                return self.field

        clients = [CountingClient(np.diag([1.0, 3.0])), CountingClient(np.diag([3.0, 1.0]))]
        config = fa.FedAvgConfig(clients, gamma=0.25, eta=1.0, k=3, rounds=5, x0=[1.0, 2.0])
        assert fa.run_fedavg(config).rounds_completed == 5
        assert [len(c.calls) for c in clients] == [3 * 5, 3 * 5]

    def test_single_client_one_round_convergence(self):
        client = fa.QuadraticClient(np.eye(2), np.zeros(2))
        config = fa.FedAvgConfig([client], gamma=1.0, eta=1.0, k=3, rounds=4,
                                 x0=[7.0, -2.0])
        trace = fa.run_fedavg(config)
        np.testing.assert_array_equal(trace.xs[1], [0.0, 0.0])
        assert trace.dists[1] == 0.0

    def test_two_client_geometric_decay(self):
        clients = [fa.QuadraticClient(np.eye(2), [1.0, 0.0]),
                   fa.QuadraticClient(np.eye(2), [-1.0, 0.0])]
        config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=2, rounds=6,
                                 x0=[1.0, 1.0])
        trace = fa.run_fedavg(config)
        for t in range(7):
            np.testing.assert_allclose(trace.xs[t], 0.25 ** t * np.ones(2), atol=1e-14)

    def test_eta_one_matches_model_average(self):
        # run_fedavg verifies this internally at 1e-12, once over every
        # round; reaching the end without a RuntimeError is the assertion
        config = fa.FedAvgConfig(hetero_clients(), gamma=0.5, eta=1.0, k=2,
                                 rounds=25, x0=[4.0, 4.0])
        trace = fa.run_fedavg(config)
        assert trace.rounds_completed == 25

    def test_eta_one_check_names_the_first_failing_round(self, monkeypatch):
        # the growing run below agrees exactly for 9 rounds; rounds 9, 10
        # and 11 disagree by 1.4e-16, 6.9e-17 and 1.4e-16 of the model
        # average, and the run truncates at round 127, after the check's
        # first failing round
        monkeypatch.setattr(fa, "EQUIVALENCE_TOL", 1e-16)
        config = fa.FedAvgConfig(hetero_clients(), gamma=3.0, eta=1.0, k=3,
                                 rounds=2000, x0=[0.5, -0.75])
        with pytest.raises(RuntimeError, match=r"^delta update and model average "
                                               r"disagree by 5\.369e\+08 at round 9$"):
            fa.run_fedavg(config)
        # only eta = 1 runs are checked
        monkeypatch.setattr(fa, "EQUIVALENCE_TOL", -1.0)
        config = fa.FedAvgConfig(hetero_clients(), gamma=0.5, eta=0.5, k=2, rounds=10,
                                 x0=[4.0, 4.0])
        assert fa.run_fedavg(config).rounds_completed == 10

    def test_eta_one_check_scales_with_the_iterate(self):
        # round 0 starts at 1e6, where the update keeps the average only to
        # 1.2e-10, and passes; round 1 starts at 0.3 and disagrees by 1e-9
        xs = np.array([[1e6], [0.3 + 4.657e-11], [0.3]])
        models = np.array([[[0.3]], [[0.3 + 1e-9]]])
        with pytest.raises(RuntimeError, match=r"^delta update and model average "
                                               r"disagree by 1\.000e-09 at round 1$"):
            fa._check_model_average(xs, models)
        fa._check_model_average(xs[:2], models[:1])

    def test_eta_one_check_on_growing_run(self):
        # gamma = 3 expands both local maps, so the iterates grow about
        # 256-fold per round; the delta update and the model average still
        # agree to rounding relative to their size
        config = fa.FedAvgConfig(hetero_clients(), gamma=3.0, eta=1.0, k=3,
                                 rounds=40, x0=[0.5, -0.75])
        trace = fa.run_fedavg(config)
        assert trace.rounds_completed == 40
        assert np.max(np.abs(trace.xs[-1])) > 1e90

    def test_growing_run_keeps_finite_distances(self):
        # the iterates reach 1.4e307 before the run truncates; their distances
        # to the fixed point overflow a plain sum of squares but not a float
        config = fa.FedAvgConfig(hetero_clients(), gamma=3.0, eta=1.0, k=3,
                                 rounds=2000, x0=[0.5, -0.75])
        trace = fa.run_fedavg(config)
        assert trace.rounds_completed == 127
        assert np.max(np.abs(trace.xs)) > 1e307
        assert np.isfinite(trace.dists).all()
        assert np.isfinite(trace.ratios).all()
        assert trace.dists[-1] > 1e307

    def test_overflowing_server_update_truncates(self):
        # both client maps stay finite; x - y overflows in the server update
        client = fa.QuadraticClient([[1.0]], [0.0])
        config = fa.FedAvgConfig([client], gamma=2.0, eta=1.0, k=1, rounds=3,
                                 x0=[1.5e308])
        trace = fa.run_fedavg(config)
        assert trace.rounds_completed == 0
        assert "iterate became non-finite at round 1" in trace.note

    def test_eta_not_one(self):
        config = fa.FedAvgConfig(hetero_clients(), gamma=0.5, eta=0.5, k=2,
                                 rounds=10, x0=[4.0, 4.0])
        trace = fa.run_fedavg(config)
        assert trace.rounds_completed == 10
        assert trace.dists[-1] < trace.dists[0]

    def test_simulation_matches_affine_recursion(self):
        clients = hetero_clients()
        for k in (1, 2, 4):
            config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=k, rounds=30,
                                     x0=[5.0, -3.0])
            trace = fa.run_fedavg(config)
            reference = fa.closed_form_affine_trace(clients, config)
            assert np.max(np.abs(reference - trace.xs)) <= 1e-9

    def test_lowered_quadratic_run_matches_closed_form(self):
        # each quadratic client runs as one float operator, its exact k-step
        # affine map rounded once
        rng = np.random.default_rng(3)
        clients = []
        for _ in range(3):
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            A = Q @ np.diag(rng.uniform(1.1, 2.9, 4)) @ Q.T
            clients.append(fa.QuadraticClient((A + A.T) / 2, rng.uniform(-2, 2, 4)))
        for k in (1, 3, 5):
            config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=k, rounds=200,
                                     x0=rng.uniform(-3, 3, 4))
            trace = fa.run_fedavg(config)
            reference = fa.closed_form_affine_trace(clients, config)
            assert trace.rounds_completed == 200
            assert np.max(np.abs(reference - trace.xs)) <= 1e-12 * np.max(np.abs(reference))

    def test_exact_client_forms_built_once_per_run(self, monkeypatch):
        # lowering and the fixed point's affine solve share each client's
        # exact k-step form, kept as integers
        builds = []
        original = fa.Iterate._affine_form

        def counting(self):
            builds.append(self)
            return original(self)

        monkeypatch.setattr(fa.Iterate, "_affine_form", counting)
        clients = hetero_clients() + [fa.QuadraticClient([[2.0, 0.5], [0.5, 1.0]], [0.3, -0.7])]
        config = fa.FedAvgConfig(clients, gamma=0.4, eta=1.0, k=3, rounds=20, x0=[2.0, -1.0])
        trace = fa.run_fedavg(config)
        assert len(builds) == len(clients)
        assert trace.fixed_point_method == "affine-solve"
        # the same rationals as the server field's own Sum.as_affine
        point, _ = fa.oracle_fixed_point(clients, 0.4, 3)
        assert trace.fixed_point.tobytes() == point.tobytes()
        check_server_parts(clients, 0.4, 3)

    def test_surrogate_evaluated_once_per_distinct_iterate(self, monkeypatch):
        points_per_call = []

        def counting(spec, points, *args):
            points_per_call.append(len(points))
            return surrogate_potentials(spec, points, *args)

        monkeypatch.setattr(fa, "surrogate_potentials", counting)
        clients = [fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "logistic")),
                   fa.GlmClient(GlmSpec([[-0.9, 0.0], [0.0, -1.0]], "logistic"))]
        config = fa.FedAvgConfig(clients, gamma=4.0, eta=1.0, k=3, rounds=200,
                                 x0=[1.0, -0.5])
        trace = fa.run_fedavg(config)
        points = {p.tobytes() for p in trace.xs} | {trace.fixed_point.tobytes()}
        assert len(points) < len(trace.xs)  # the run converged and repeats its iterate
        # one batch per client, holding each distinct point once
        assert points_per_call == [len(points)] * len(clients)
        f_s = fa.server_surrogate(clients, config.gamma, config.k)
        assert trace.fs.tobytes() == np.array([f_s(p) for p in trace.xs]).tobytes()
        assert trace.fs_star == f_s(trace.fixed_point)

    def test_contraction_ratios_bounded(self):
        clients = hetero_clients()
        k = 2
        config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=k, rounds=30,
                                 x0=[5.0, -3.0])
        trace = fa.run_fedavg(config)
        rho_k = 0.5 ** k
        for t in range(len(trace.ratios)):
            if trace.dists[t] > 1e-10:
                assert trace.ratios[t] <= rho_k + 1e-9

    def test_deterministic_traces(self):
        config = fa.FedAvgConfig(hetero_clients(), gamma=0.5, eta=1.0, k=3,
                                 rounds=12, x0=[2.0, -2.0], seed=5)
        a = fa.run_fedavg(config)
        b = fa.run_fedavg(config)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.fs, b.fs)

    def test_divergent_run_truncates_with_note(self):
        # an absurd step size doubles the iterate past float range mid-round
        client = fa.QuadraticClient([[1.0]], [0.0])
        config = fa.FedAvgConfig([client], gamma=1e200, eta=1.0, k=4, rounds=5,
                                 x0=[6.0])
        trace = fa.run_fedavg(config)
        assert trace.note is not None and "truncated" in trace.note
        assert trace.rounds_completed < 5


class TestOracleFixedPoint:
    def test_single_client_center(self):
        client = fa.QuadraticClient(np.diag([1.0, 2.0]), [0.7, -0.4])
        for k in (1, 2, 5):
            point, method = fa.oracle_fixed_point([client], 0.5, k)
            np.testing.assert_allclose(point, client.center, atol=1e-12)
            assert method == "affine-solve"

    def test_symmetric_pair_midpoint(self):
        clients = [fa.QuadraticClient(np.eye(2), [1.0, 0.0]),
                   fa.QuadraticClient(np.eye(2), [-1.0, 0.0])]
        point, _ = fa.oracle_fixed_point(clients, 0.5, 2)
        np.testing.assert_allclose(point, [0.0, 0.0], atol=1e-14)

    def test_heterogeneous_cross_checked_by_long_run(self):
        clients = [fa.QuadraticClient(np.diag([1.0, 1.0]), [1.0, 2.0]),
                   fa.QuadraticClient(np.diag([3.0, 1.0]), [-1.0, 0.0])]
        point, method = fa.oracle_fixed_point(clients, 0.5, 2)
        assert method == "affine-solve"
        config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=2, rounds=200,
                                 x0=[3.0, 3.0])
        trace = fa.run_fedavg(config)
        np.testing.assert_allclose(trace.xs[-1], point, atol=1e-12)

    def test_iterative_for_glm(self):
        clients = [fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "logistic")),
                   fa.GlmClient(GlmSpec([[-1.0, 0.0], [0.0, -1.0]], "logistic"))]
        point, method = fa.oracle_fixed_point(clients, 4.0, 2)
        assert method == "iterative"
        np.testing.assert_allclose(point, [0.0, 0.0], atol=1e-10)

    def test_singular_reports_condition(self):
        client = fa.QuadraticClient(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(fa.rationals.SingularMatrixError) as info:
            fa.oracle_fixed_point([client], 0.5, 2)
        assert "condition" in str(info.value)

    def test_float_singular_reports_condition(self):
        # a float-entered matrix whose k-step map keeps the second
        # coordinate: M = I - A_k = diag(1, 0) is singular
        client = fa.QuadraticClient(np.diag([0.1, 0.0]), np.zeros(2))
        assert client.float_entered
        with pytest.raises(fa.rationals.SingularMatrixError) as info:
            fa.oracle_fixed_point([client], 10.0, 2)
        assert str(info.value).startswith("matrix is singular (")
        assert "float condition estimate" in str(info.value)

    def test_a_stalled_hunt_raises_at_once(self, monkeypatch):
        # Below 1e6 every model jumps to 1e6.  From there the first model is
        # the next float up and the others stay, so the mean moves x by a
        # third of an ulp, which rounds away: |V_s| = ulp / 3 = 3.9e-11 stays
        # above the tolerance while x repeats from step 1 on.
        far = 1e6

        def stay(x):
            return np.where(x < far, x - far, 0.0)

        def nudge(x):
            return np.where(x < far, x - far, x - np.nextafter(x, np.inf))

        clients = [CallbackClient(nudge, 1), CallbackClient(stay, 1), CallbackClient(stay, 1)]
        start = time.perf_counter()
        with pytest.raises(fa.ConvergenceError) as info:
            fa.oracle_fixed_point(clients, 1.0, 1)
        assert str(info.value) == (
            "fixed-point iteration repeats from step 1 with period 1 above 1e-12")
        # the hunt that run_fedavg makes for an eligible set
        monkeypatch.setattr(fa, "_oracle_eligible", lambda clients: True)
        trace = fa.run_fedavg(fa.FedAvgConfig(clients, gamma=1.0, eta=1.0, k=1, rounds=5,
                                              x0=[0.0]))
        assert time.perf_counter() - start < 1.0
        assert trace.xs[1:].ravel().tolist() == [far] * 5
        assert trace.fixed_point is None and trace.fixed_point_method is None

    def test_a_cycle_names_its_start_and_period(self):
        # x_t = 0, 1.5, 3, 1, 2, 1, 2, ...: x_5 = x_3, so the cycle starts at
        # step 3 with period 2
        after = {0.0: 1.5, 1.5: 3.0, 3.0: 1.0, 1.0: 2.0, 2.0: 1.0}

        def value(x):
            return x - np.array([after[float(x[0])]])

        with pytest.raises(fa.ConvergenceError) as info:
            fa._descend(value, 1, 1.0)
        assert str(info.value) == (
            "fixed-point iteration repeats from step 3 with period 2 above 1e-12")

    def test_a_drifting_hunt_stops_at_its_rate(self, monkeypatch):
        # One logistic client has no minimizer: the hunt drifts off without
        # repeating an iterate while |V_s| shrinks far too slowly.  Its cost
        # is bounded by counting server-model evaluations, not by wall time,
        # so the bound holds under a tracer and on a slow host.
        evaluations = count_server_models(monkeypatch)
        clients = [fa.GlmClient(GlmSpec([[1.0, 0.5]], "logistic"))]
        trace = fa.run_fedavg(fa.FedAvgConfig(clients, gamma=0.3, eta=1.0, k=3, rounds=5,
                                              x0=[0.0, 0.0]))
        assert trace.fixed_point is None and trace.fixed_point_method is None
        with pytest.raises(fa.ConvergenceError) as info:
            fa.oracle_fixed_point(clients, 0.3, 3)
        message = str(info.value)
        assert message.startswith("fixed-point iteration cannot reach 1e-12 within 1000000 steps")
        assert " q = " in message
        stop = int(message.split("at step ")[1].split(" ")[0])
        # one operator for the rounds and one for each hunt: the rounds
        # evaluate theirs once a round, and a hunt evaluates |V| at every
        # step up to the window where its rate check fires (58,000 steps
        # here, against 10^6 for the cap)
        window = fa.FIXED_POINT_WINDOW
        assert stop % window == 0 and 0 < stop <= 60 * window
        assert evaluations == [5, stop + 1, stop + 1]

    def test_a_slow_contraction_still_finds_its_point(self):
        # The mean gradient 0.0005 (x - 1000) contracts by 0.9995 per unit
        # step: |V_s| falls from 0.5 to 1e-12 in about 54,000 steps.
        clients = [CallbackClient(lambda x: 0.0004 * (x - 500.0), 1),
                   CallbackClient(lambda x: 0.0006 * (x - 4000.0 / 3), 1)]
        point, method = fa.oracle_fixed_point(clients, 1.0, 1)
        assert method == "iterative"
        assert abs(point[0] - 1000.0) < 1e-8


class TestSurrogate:
    def test_single_quadratic_closed_form(self):
        client = fa.QuadraticClient(np.eye(2), np.zeros(2))
        f_s = fa.server_surrogate([client], 0.5, 2)
        x = np.array([1.0, 1.0])
        assert f_s(x) == pytest.approx(0.375 * 2.0)

    def test_gradient_matches_server_field(self):
        rng = np.random.default_rng(1)
        cases = [
            (hetero_clients(), 0.5, 2),
            ([fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "logistic")),
              fa.GlmClient(GlmSpec([[-1.0, 0.0], [0.0, -1.0]], "logistic"))], 4.0, 2),
        ]
        h = 1e-6
        for clients, gamma, k in cases:
            f_s = fa.server_surrogate(clients, gamma, k)
            field = fa.build_server_field_only(clients, gamma, k)
            for _ in range(5):
                x = rng.uniform(-1, 1, 2)
                grad_fd = np.zeros(2)
                for j in range(2):
                    e = np.zeros(2)
                    e[j] = h
                    grad_fd[j] = (f_s(x + e) - f_s(x - e)) / (2 * h)
                ref = field(x)
                assert np.linalg.norm(grad_fd - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))

    def test_fixed_point_minimizes_on_grid(self):
        clients = hetero_clients()
        f_s = fa.server_surrogate(clients, 0.5, 2)
        point, _ = fa.oracle_fixed_point(clients, 0.5, 2)
        best = f_s(point)
        for dx in np.linspace(-0.5, 0.5, 11):
            for dy in np.linspace(-0.5, 0.5, 11):
                assert f_s(point + np.array([dx, dy])) >= best - 1e-12

    def test_non_convex_rounds_descend_the_surrogate(self):
        # log(1 + t^2) is concave for |t| > 1, where x0's first coordinate
        # starts: each round is still a unit gradient step on f_s
        clients = [fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 0.8]], "log(1+t^2)")),
                   fa.GlmClient(GlmSpec([[0.6, 0.0], [0.0, -0.5]], "log(1+t^2)"))]
        config = fa.FedAvgConfig(clients, gamma=0.2, eta=1.0, k=3, rounds=30,
                                 x0=[1.5, -0.75])
        trace = fa.run_fedavg(config)
        assert trace.note is None and len(trace.fs) == 31
        assert np.all(np.diff(trace.fs) <= 0.0)
        f_s = fa.server_surrogate(clients, 0.2, 3)
        h = 1e-6
        for x, x_next in zip(trace.xs[:-1], trace.xs[1:]):
            grad_fd = np.array([(f_s(x + h * e) - f_s(x - h * e)) / (2 * h) for e in np.eye(2)])
            assert np.abs(x_next - (x - grad_fd)).max() <= 1e-6

    def test_unavailable_for_mixed_clients(self):
        clients = [fa.QuadraticClient(np.eye(2), np.zeros(2)),
                   fa.GlmClient(GlmSpec([[1.0, 0.0]], "logistic"))]
        with pytest.raises(fa.SurrogateUnavailableError):
            fa.server_surrogate(clients, 0.5, 2)


class TestVerifyRate:
    def test_strongly_convex_bound(self):
        config = fa.FedAvgConfig(hetero_clients(), gamma=0.5, eta=1.0, k=2,
                                 rounds=30, x0=[5.0, -3.0])
        trace = fa.run_fedavg(config)
        report = fa.verify_rate(trace, 1.0, 3.0, 2, "strongly-convex")
        assert report.passed
        assert report.rho == pytest.approx(0.5)

    def test_equal_curvatures_one_step(self):
        client = fa.QuadraticClient(np.eye(2), [0.3, 0.8])
        config = fa.FedAvgConfig([client], gamma=1.0, eta=1.0, k=3, rounds=5,
                                 x0=[9.0, 9.0])
        trace = fa.run_fedavg(config)
        report = fa.verify_rate(trace, 1.0, 1.0, 3, "strongly-convex")
        assert report.passed
        assert trace.dists[1] <= 1e-9

    def test_refuses_wrong_gamma(self):
        config = fa.FedAvgConfig(hetero_clients(), gamma=0.4, eta=1.0, k=2,
                                 rounds=5, x0=[1.0, 1.0])
        trace = fa.run_fedavg(config)
        with pytest.raises(fa.HyperparameterError):
            fa.verify_rate(trace, 1.0, 3.0, 2, "strongly-convex")

    def test_refuses_wrong_eta(self):
        config = fa.FedAvgConfig(hetero_clients(), gamma=0.5, eta=0.9, k=2,
                                 rounds=5, x0=[1.0, 1.0])
        trace = fa.run_fedavg(config)
        with pytest.raises(fa.HyperparameterError):
            fa.verify_rate(trace, 1.0, 3.0, 2, "strongly-convex")

    def test_convex_bound_logistic(self):
        clients = [fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 0.8]], "logistic")),
                   fa.GlmClient(GlmSpec([[-1.0, 0.0], [0.0, -0.8]], "logistic"))]
        beta = max(c.smoothness_bound() for c in clients)
        config = fa.FedAvgConfig(clients, gamma=1.0 / beta, eta=1.0, k=2,
                                 rounds=50, x0=[1.5, -0.75])
        trace = fa.run_fedavg(config)
        report = fa.verify_rate(trace, 0.0, beta, 2, "convex")
        assert report.passed


class TestCompareMinimizers:
    def test_k1_coincide(self):
        result = fa.compare_minimizers(hetero_clients(), 0.5, 1)
        assert result.distance <= 1e-10

    def test_identical_clients_coincide(self):
        clients = [fa.QuadraticClient(np.diag([1.0, 2.0]), [0.3, -0.7])] * 2
        for k in (1, 3, 5):
            assert fa.compare_minimizers(clients, 0.5, k).distance <= 1e-10

    def test_heterogeneous_gap_positive(self):
        result = fa.compare_minimizers(hetero_clients(), 0.5, 5)
        assert result.distance > 1e-6

    def test_glm_iterative_path(self):
        clients = [fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "logistic")),
                   fa.GlmClient(GlmSpec([[-1.0, 0.0], [0.0, -1.0]], "logistic"))]
        result = fa.compare_minimizers(clients, 4.0, 1)
        assert result.distance <= 1e-8


def spd_clients(rng, m, n):
    clients = []
    for _ in range(m):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(rng.uniform(1.1, 2.9, n)) @ Q.T
        clients.append(fa.QuadraticClient((A + A.T) / 2, rng.uniform(-2, 2, n)))
    return clients


def integer_spd_clients(rng, m, n):
    """Clients whose matrices (B B^T + I) / 2^j, B with entries in {-1, 0, 1}
    and j the least >= 2 that puts the spectrum inside (0, 2.9], and whose
    centres are integers: small rationals, so they keep their exact forms."""
    clients = []
    for _ in range(m):
        B = rng.integers(-1, 2, (n, n)).astype(float)
        A = B @ B.T + np.eye(n)
        scale = 2.0 ** max(2, math.ceil(math.log2(np.linalg.eigvalsh(A)[-1] / 2.9)))
        clients.append(fa.QuadraticClient(A / scale, rng.integers(-2, 3, n).astype(float)))
    return clients


class TestStackedRounds:
    def test_mixed_clients_walk_their_maps_every_round(self):
        # quadratic clients share the stacked product; each Callback client
        # still takes its k descent steps every round
        calls = [[], []]

        def counted(j, inner):
            return Callback(lambda x: calls[j].append(1) or inner(x), 2)

        q = [fa.QuadraticClient([[2.0, 0.5], [0.5, 1.0]], [0.3, -0.7]),
             fa.QuadraticClient([[1.0, 0.0], [0.0, 3.0]], [-1.0, 0.5])]

        class WalkingClient:
            dimension = 2

            def __init__(self, j, quadratic):
                self.field = counted(j, quadratic.gradient_field())

            def gradient_field(self):
                return self.field

        clients = [q[0], WalkingClient(0, q[1]), q[1], WalkingClient(1, q[0])]
        config = fa.FedAvgConfig(clients, gamma=0.25, eta=1.0, k=3, rounds=5, x0=[1.0, 2.0])
        trace = fa.run_fedavg(config)
        assert trace.rounds_completed == 5
        assert [len(c) for c in calls] == [3 * 5, 3 * 5]
        # the walking clients are the quadratics in the other order, so the
        # run matches the all-quadratic one
        quadratic = fa.run_fedavg(fa.FedAvgConfig([q[0], q[1], q[1], q[0]], gamma=0.25,
                                                  eta=1.0, k=3, rounds=5, x0=[1.0, 2.0]))
        assert np.max(np.abs(trace.xs - quadratic.xs)) <= 1e-12 * np.max(np.abs(quadratic.xs))

    def test_non_finite_stacked_model_stops_the_round_in_client_order(self):
        # the quadratic's model -2x overflows at once: a walking client
        # before it runs, one after it does not, as when every client walked
        calls = []

        class WalkingClient:
            dimension = 1

            def gradient_field(self):
                return Callback(lambda x: calls.append(1) or np.zeros(1), 1)

        quadratic = fa.QuadraticClient([[1.0]], [0.0])
        for clients, expected_calls in [([WalkingClient(), quadratic], 1),
                                        ([quadratic, WalkingClient()], 0)]:
            calls.clear()
            trace = fa.run_fedavg(fa.FedAvgConfig(clients, gamma=3.0, eta=1.0, k=1, rounds=3,
                                                  x0=[1e308]))
            assert trace.rounds_completed == 0
            assert trace.note == ("trace truncated at round 0: affine([[-2.0]], [0.0]) "
                                  "produced a non-finite value at x=[1e+308]")
            assert len(calls) == expected_calls

    def test_exact_forms_built_once_per_client_across_consumers(self, monkeypatch):
        builds = []
        original = fa.Iterate._affine_form

        def counting(self):
            builds.append(self)
            return original(self)

        monkeypatch.setattr(fa.Iterate, "_affine_form", counting)
        clients = integer_spd_clients(np.random.default_rng(5), 3, 3)
        config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=4, rounds=30, x0=[1.0, -1.0, 2.0])
        trace = fa.run_fedavg(config)
        closed = fa.closed_form_affine_trace(clients, config)
        point, method = fa.oracle_fixed_point(clients, 0.5, 4)
        comparison = fa.compare_minimizers(clients, 0.5, 4)
        assert len(builds) == len(clients)
        assert method == comparison.surrogate_method == trace.fixed_point_method == "affine-solve"
        assert comparison.average_method == "affine-solve"
        assert (point.tobytes() == trace.fixed_point.tobytes()
                == comparison.surrogate_minimizer.tobytes())
        assert np.max(np.abs(closed - trace.xs)) <= 1e-12 * np.max(np.abs(closed))
        # another (gamma, k) is another form
        fa.oracle_fixed_point(clients, 0.5, 2)
        assert len(builds) == 2 * len(clients)

    def test_float_maps_built_once_per_client_across_consumers(self, monkeypatch):
        exact, maps = [], []
        original_form, original_map = fa.Iterate._affine_form, fa._descent_map

        def counting_form(self):
            exact.append(self)
            return original_form(self)

        def counting_map(*args):
            maps.append(args)
            return original_map(*args)

        monkeypatch.setattr(fa.Iterate, "_affine_form", counting_form)
        monkeypatch.setattr(fa, "_descent_map", counting_map)
        clients = spd_clients(np.random.default_rng(5), 3, 3)
        assert all(c.float_entered for c in clients)
        config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=4, rounds=30, x0=[1.0, -1.0, 2.0])
        trace = fa.run_fedavg(config)
        closed = fa.closed_form_affine_trace(clients, config)
        point, method = fa.oracle_fixed_point(clients, 0.5, 4)
        comparison = fa.compare_minimizers(clients, 0.5, 4)
        assert exact == [] and len(maps) == len(clients)
        assert method == comparison.surrogate_method == trace.fixed_point_method == "float-solve"
        assert comparison.average_method == "float-solve"
        assert (point.tobytes() == trace.fixed_point.tobytes()
                == comparison.surrogate_minimizer.tobytes())
        assert np.max(np.abs(closed - trace.xs)) <= 1e-12 * np.max(np.abs(closed))
        # another (gamma, k) is another map, and still no exact form
        fa.oracle_fixed_point(clients, 0.5, 2)
        assert exact == [] and len(maps) == 2 * len(clients)

    def test_integer_server_parts_equal_sum_as_affine(self):
        rng = np.random.default_rng(8)
        for m in range(1, 11):
            clients = spd_clients(rng, m, 3)
            k = 1 + m % 3
            check_server_parts(clients, 0.4, k)

    def test_client_arrays_are_read_only_copies(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([0.3, -0.7])
        client = fa.QuadraticClient(A, b)
        with pytest.raises(ValueError):
            client.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            client.center[0] = 5.0
        A[0, 0] = 9.0
        b[0] = 9.0
        assert client.matrix[0, 0] == 2.0 and client.center[0] == 0.3
        assert A.flags.writeable and b.flags.writeable

    def test_batched_quadratic_surrogate_matches_per_point_form(self):
        rng = np.random.default_rng(4)
        for m, n, k in [(1, 1, 1), (2, 3, 2), (4, 5, 3), (3, 10, 5)]:
            clients = spd_clients(rng, m, n)
            f_s = fa.server_surrogate(clients, 0.5, k)
            X = rng.uniform(-3, 3, (7, n))
            expected = []
            for x in X:
                total = 0.0
                for c in clients:
                    B = np.linalg.matrix_power(np.eye(n) - 0.5 * c.matrix, k)
                    d = x - c.center
                    total += 0.5 * float(d @ (np.eye(n) - B) @ d)
                expected.append(total / m)
            expected = np.array(expected)
            assert np.all(np.abs(f_s(X) - expected) <= 1e-15 * np.abs(expected))
            one = f_s(X[2])
            assert isinstance(one, float) and one == f_s(X)[2]


# ----- FedAvg: float-entered quadratic clients -----

def stacked_rounds(config, forms):
    """The rounds' iterates with client c's model A_c x + b_c, from its
    form (A_c, b_c), the forms stacked into one operator as ``run_fedavg``
    stacks them."""
    n, m = config.x0.shape[0], len(forms)
    A = np.concatenate([a for a, _ in forms])
    b = np.concatenate([c for _, c in forms])
    x, xs = config.x0, [config.x0]
    for _ in range(config.rounds):
        ys = (A @ x + b).reshape(-1, n)
        x = x - config.eta * ((1.0 / m) * (x - ys)).cumsum(axis=0)[-1]
        xs.append(x)
    return np.array(xs)


def lowered_forms(config):
    """Every client's exact k-step form rounded once to floats."""
    return [fa._lowered(c._exact_form(config.gamma, config.k)) for c in config.clients]


def exact_fixed_point(clients, gamma, k):
    """The Bareiss solve of the server system, rounded once."""
    P, r, _ = fa._server_system(clients, gamma, k)
    return fa.rationals.to_float_vector(fa.rationals.solve_linear(P, r))


@st.composite
def quadratic_configs(draw, make_clients):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    return fa.FedAvgConfig(make_clients(rng, draw(st.integers(1, 5)), n),
                           gamma=draw(st.sampled_from((0.1, 0.3, 0.5))),
                           eta=draw(st.sampled_from((0.5, 1.0))), k=draw(st.integers(1, 5)),
                           rounds=30, x0=rng.uniform(-3, 3, n))


def gap(a, b):
    return float(np.max(np.abs(a - b)))


class TestFloatPath:
    @settings(max_examples=40, deadline=None)
    @given(quadratic_configs(spd_clients))
    def test_float_sets_agree_with_the_exact_solve_and_forms(self, config):
        clients, gamma, k = config.clients, config.gamma, config.k
        assert all(c.float_entered for c in clients)
        trace = fa.run_fedavg(config)
        assert trace.note is None and trace.fixed_point_method == "float-solve"
        want = exact_fixed_point(clients, gamma, k)
        point = trace.fixed_point
        assert gap(point, want) <= 1e-12 * np.max(np.abs(want))
        assert trace.fixed_point_residual <= 1e-12 * max(1.0, float(np.max(np.abs(point))))
        reference = stacked_rounds(config, lowered_forms(config))
        assert gap(trace.xs, reference) <= 1e-12 * np.max(np.abs(reference))

    @settings(max_examples=40, deadline=None)
    @given(quadratic_configs(integer_spd_clients))
    def test_small_rational_sets_keep_the_exact_path(self, config):
        clients, gamma, k = config.clients, config.gamma, config.k
        assert not any(c.float_entered for c in clients)
        trace = fa.run_fedavg(config)
        assert trace.fixed_point_method == "affine-solve"
        assert trace.fixed_point_residual is None
        assert trace.fixed_point.tobytes() == exact_fixed_point(clients, gamma, k).tobytes()
        assert trace.xs.tobytes() == stacked_rounds(config, lowered_forms(config)).tobytes()
        M, v = map(np.array, fa._affine_server_parts(clients, gamma, k))
        xs = [config.x0]
        for _ in range(config.rounds):
            xs.append((np.eye(len(v)) - config.eta * M) @ xs[-1] - config.eta * v)
        assert fa.closed_form_affine_trace(clients, config).tobytes() == np.array(xs).tobytes()
        assert fa.compare_minimizers(clients, gamma, k).average_method == "affine-solve"

    def test_one_float_client_moves_the_set_to_floats(self):
        rng = np.random.default_rng(2)
        clients = integer_spd_clients(rng, 2, 3) + spd_clients(rng, 1, 3)
        config = fa.FedAvgConfig(clients, gamma=0.3, eta=1.0, k=3, rounds=30,
                                 x0=[1.0, 2.0, -1.0])
        trace = fa.run_fedavg(config)
        assert trace.fixed_point_method == "float-solve"
        want = exact_fixed_point(clients, 0.3, 3)
        assert gap(trace.fixed_point, want) <= 1e-12 * np.max(np.abs(want))
        # the small clients' maps are their exact forms rounded once
        for c in clients[:2]:
            lowered = fa._lowered(c._exact_form(0.3, 3))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(c._float_map(0.3, 3), lowered))

    def test_a_float_map_past_float_range_walks_and_keeps_the_exact_solve(self):
        # (1 - 1000 * 0.3)^200 is past float range: the client walks its
        # steps, and the set's fixed point comes from the exact forms
        client = fa.QuadraticClient(np.diag([0.1, 0.3]), [1.0, -1.0])
        assert client.float_entered and client._float_map(1000.0, 200) is None
        # a matrix scaled past 2^16 is integers: small rationals
        assert not fa.QuadraticClient(1e200 * np.diag([0.1, 0.3]), [0.0, 0.0]).float_entered
        trace = fa.run_fedavg(fa.FedAvgConfig([client], gamma=1000.0, eta=1.0, k=200,
                                              rounds=3, x0=[2.0, 2.0]))
        assert trace.note is not None and trace.fixed_point_method == "affine-solve"
        assert trace.fixed_point.tolist() == [1.0, -1.0]
        assert trace.fixed_point_residual is None


BAD_STEPS = [(-0.5, 2, "gamma must be finite"), (0.0, 2, "gamma must be finite"),
             (math.nan, 2, "gamma must be finite"), (math.inf, 2, "gamma must be finite"),
             (True, 2, "gamma must be finite"), ("0.5", 2, "gamma must be finite"),
             (None, 2, "gamma must be finite"),
             (0.3, 0, "k must be an integer >= 1"), (0.3, 2.5, "k must be an integer >= 1"),
             (0.3, 2.0, "k must be an integer >= 1"), (0.3, True, "k must be an integer >= 1")]


class TestStepChecks:
    """A step size or count no run takes is refused with ValueError at every
    public entry, for float-entered sets as for small-rational ones."""

    @pytest.fixture(params=["float-entered", "small-rational"])
    def clients(self, request):
        rng = np.random.default_rng(4)
        make = spd_clients if request.param == "float-entered" else integer_spd_clients
        return make(rng, 2, 3)

    @pytest.mark.parametrize("gamma, k, message", BAD_STEPS)
    def test_entries_refuse_bad_steps(self, clients, gamma, k, message):
        glm = [fa.GlmClient(GlmSpec(np.eye(2), "logistic")),
               fa.GlmClient(GlmSpec(-np.eye(2), "logistic"))]
        for entry in (fa.oracle_fixed_point, fa.compare_minimizers, fa.server_surrogate,
                      fa.build_server_field):
            for group in (clients, glm):
                with pytest.raises(ValueError, match=message):
                    entry(group, gamma, k)

    @pytest.mark.parametrize("gamma, k, message", BAD_STEPS)
    def test_config_refuses_bad_steps(self, clients, gamma, k, message):
        with pytest.raises(ValueError, match=message):
            fa.FedAvgConfig(clients, gamma=gamma, eta=1.0, k=k, rounds=5, x0=np.zeros(3))

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf, True, "1.0", None])
    def test_config_refuses_bad_server_steps(self, clients, eta):
        with pytest.raises(ValueError, match="step size eta must be finite and positive"):
            fa.FedAvgConfig(clients, gamma=0.3, eta=eta, k=2, rounds=5, x0=np.zeros(3))

    def test_config_keeps_the_checked_values(self, clients):
        config = fa.FedAvgConfig(clients, gamma=np.float32(0.25), eta=1, k=np.int64(2),
                                 rounds=np.int32(5), x0=np.zeros(3))
        assert [(type(v), v) for v in (config.gamma, config.eta, config.k, config.rounds)] == [
            (float, 0.25), (float, 1.0), (int, 2), (int, 5)]

    @pytest.mark.parametrize("rounds", [0, -3, 2.0, 2.5, False])
    def test_config_refuses_bad_round_counts(self, clients, rounds):
        with pytest.raises(ValueError, match="rounds must be an integer >= 1"):
            fa.FedAvgConfig(clients, gamma=0.3, eta=1.0, k=2, rounds=rounds, x0=np.zeros(3))

    def test_numpy_integer_counts_run_as_ints(self, clients):
        plain = fa.run_fedavg(fa.FedAvgConfig(clients, gamma=0.3, eta=1.0, k=2, rounds=5,
                                              x0=np.ones(3)))
        counted = fa.run_fedavg(fa.FedAvgConfig(clients, gamma=0.3, eta=1.0, k=np.int64(2),
                                                rounds=np.int32(5), x0=np.ones(3)))
        assert counted.xs.tobytes() == plain.xs.tobytes()
        assert counted.fixed_point.tobytes() == plain.fixed_point.tobytes()


# ----- FedAvg: rounds copied after the float fixed point -----

def reference_run(config):
    """What ``run_fedavg`` gave before it stopped at the float fixed point:
    every one of the T rounds computed from its own models, then the same
    eta = 1 check, oracle, distances, ratios and surrogate values.  Returns
    (arrays by name, note); raises what the eta = 1 check raises."""
    clients = config.clients
    models, weight = fa._server_models(clients, config.gamma, config.k), 1.0 / len(clients)
    xs, values, kept, note = [config.x0.copy()], [], [], None
    x = xs[0]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for t in range(config.rounds):
                try:
                    ys = models(x)
                    v = (weight * (x - ys)).cumsum(axis=0)[-1]
                    x = x - config.eta * v
                    if not np.isfinite(x).all():
                        raise NonFiniteValueError(f"iterate became non-finite at round {t + 1}")
                except NonFiniteValueError as err:
                    note = f"trace truncated at round {t}: {err}"
                    break
                kept.append(ys)
                values.append(v)
                xs.append(x)
        finally:
            if config.eta == 1.0 and kept:
                fa._check_model_average(np.array(xs), np.array(kept))
        xs = np.array(xs)
        out = {"xs": xs, "server_values": np.array(values) if values else np.zeros((0, len(x))),
               "fixed_point": None, "dists": None, "ratios": None, "fs": None}
        if fa._oracle_eligible(clients):
            try:
                out["fixed_point"], _ = fa.oracle_fixed_point(clients, config.gamma, config.k)
            except (fa.ConvergenceError, NonFiniteValueError, fa.rationals.SingularMatrixError):
                pass
        point = out["fixed_point"]
        if point is not None:
            dists = fa._distances(xs, point)
            before, after = dists[:-1], dists[1:]
            out["dists"] = dists
            out["ratios"] = np.divide(
                after, before, out=np.full(len(before), np.nan),
                where=(1e-10 < before) & (before < math.inf) & (after < math.inf))
        if fa._surrogate_available(clients):
            points = list(xs) + ([] if point is None else [point])
            index = {}
            for p in points:
                index.setdefault(p.tobytes(), len(index))
            f_s = fa.server_surrogate(clients, config.gamma, config.k)
            fs = f_s(np.array([np.frombuffer(key) for key in index]))
            out["fs"] = fs[[index[p.tobytes()] for p in xs]]
    return out, note


def first_fixed_round(xs) -> int | None:
    """The first round t with x_(t+1) bit-equal to x_t, or None."""
    return next((t for t in range(len(xs) - 1) if xs[t + 1].tobytes() == xs[t].tobytes()),
                None)


@st.composite
def stop_configs(draw):
    """Quadratic (small-rational or float-entered), GLM-group, mixed and
    truncating FedAvg configs, with eta in {0.5, 1, 1.5}."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("quadratic", "glm-group", "mixed", "truncating")))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    make = draw(st.sampled_from((spd_clients, integer_spd_clients)))
    gamma = draw(st.sampled_from((0.3, 0.5, 0.9)))
    x0 = rng.uniform(-3, 3, n)
    if kind == "truncating":
        # expanding local maps, from far out: the iterates leave float range
        gamma, x0 = 6.0, x0 * 10.0 ** draw(st.integers(290, 305))
    if kind in ("quadratic", "truncating"):
        clients = make(rng, m, n)
    else:
        # one stacked group: opposed logistic direction sets of norm at
        # most 1.5, so the average loss has a minimizer that the hunt
        # reaches in a few hundred steps at these step sizes
        gamma = draw(st.sampled_from((1.0, 2.0, 3.0)))
        Z = rng.standard_normal((draw(st.integers(1, 2)), n))
        Z /= np.linalg.norm(Z, axis=1)[:, None]
        clients = [fa.GlmClient(GlmSpec(Z * rng.uniform(0.5, 1.5), "logistic")),
                   fa.GlmClient(GlmSpec(-Z * rng.uniform(0.5, 1.5), "logistic"))]
        if kind == "mixed":
            clients = make(rng, 1, n) + clients
    return fa.FedAvgConfig(clients, gamma=gamma, eta=draw(st.sampled_from((0.5, 1.0, 1.5))),
                           k=draw(st.integers(1, 4)), x0=x0,
                           rounds=draw(st.sampled_from((400, 200, 30, 7, 2, 1))))


def outcome(run):
    """run() as ("ok", value) or ("raised", type, message)."""
    try:
        return ("ok", run())
    except Exception as err:  # the reference and the run must raise alike
        return ("raised", type(err), str(err))


class TestFixedPointStop:
    @settings(max_examples=200, deadline=None)
    @given(stop_configs(), st.sampled_from((fa.EQUIVALENCE_TOL, 1e-16, 0.0)))
    def test_the_stop_gives_the_full_run(self, config, tol):
        # a tolerance below rounding makes the eta = 1 check fail on some
        # round, so the first failing round is compared as well
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fa, "EQUIVALENCE_TOL", tol)
            got, want = outcome(lambda: fa.run_fedavg(config)), outcome(
                lambda: reference_run(config))
        if want[0] == "raised":
            assert got == want
            return
        assert got[0] == "ok", got
        trace, (arrays, note) = got[1], want[1]
        assert trace.note == note
        for name, array in arrays.items():
            ours = getattr(trace, name)
            assert (ours is None) == (array is None), name
            if array is not None:
                assert ours.shape == array.shape and ours.tobytes() == array.tobytes(), name

    def test_the_stop_is_taken_and_the_rest_copied(self, monkeypatch):
        # the two fedavg-convex suite runs stop moving after 19 (k = 3) and
        # 36 (k = 1) of their 200 rounds: only those rounds are computed
        from iterfield.suites import fedavg_convex
        evaluations = count_server_models(monkeypatch)
        assert fedavg_convex()["passed"]
        # per run, the rounds' operator and then the hunt's
        assert len(evaluations) == 4
        assert (evaluations[0], evaluations[2]) == (19, 36)

    def test_a_stopped_trace_keeps_every_round(self, monkeypatch):
        evaluations = count_server_models(monkeypatch)
        c1 = fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 0.8]], "logistic"))
        c2 = fa.GlmClient(GlmSpec([[-1.0, 0.0], [0.0, -0.8]], "logistic"))
        config = fa.FedAvgConfig([c1, c2], gamma=4.0, eta=1.0, k=3, rounds=200,
                                 x0=[1.5, -0.75])
        trace = fa.run_fedavg(config)
        stop = first_fixed_round(trace.xs)
        assert evaluations[0] == stop + 1 < 200
        assert trace.rounds_completed == 200 and trace.server_values.shape == (200, 2)
        assert {x.tobytes() for x in trace.xs[stop:]} == {trace.xs[stop].tobytes()}
        assert {v.tobytes() for v in trace.server_values[stop:]} == {
            trace.server_values[stop].tobytes()}

    def test_a_sign_change_of_zero_is_not_a_fixed_point(self):
        # -0.0 goes to +0.0, equal as numbers but not as bytes, and a round
        # from +0.0 moves on: had the stop compared values, it would have
        # copied +0.0 through round T
        seen = []

        def model(x):
            seen.append(x.tobytes())
            return np.where(x == 0, np.where(np.signbit(x), 0.0, 1.0), 0.5 * x)

        client = CallbackClient(lambda x: x - model(x), 1)
        trace = fa.run_fedavg(fa.FedAvgConfig([client], gamma=1.0, eta=1.0, k=1, rounds=6,
                                              x0=[-0.0]))
        assert len(seen) == 6
        assert trace.xs.ravel().tolist() == [-0.0, 0.0, 1.0, 0.5, 0.25, 0.125, 0.0625]
        assert math.copysign(1.0, trace.xs[0, 0]) == -1.0


# ----- FedAvg: the client protocol against the class rules it replaced -----

def class_rules(clients, gamma, k):
    """The set-level answers as they were decided from each client's class,
    before the clients answered for themselves: (solve label, surrogate
    available, fixed point eligible, minimizer methods)."""
    quadratic = all(isinstance(c, fa.QuadraticClient) for c in clients)
    glm = all(isinstance(c, fa.GlmClient) for c in clients)
    surrogate = quadratic or (glm and all(c.spec.orthogonal for c in clients))
    eligible = quadratic or (glm and all(c.spec.activation.curvature_bound is not None
                                         for c in clients))
    label = "iterative"
    if quadratic:
        maps = [fa._descent_map(c.matrix, c.center, gamma, k) if c.float_entered
                else fa._lowered(c._exact_form(gamma, k)) for c in clients]
        float_solved = (any(c.float_entered for c in clients)
                        and all(f is not None for f in maps))
        label = "float-solve" if float_solved else "affine-solve"
    # the average loss's minimizer is found the way the server's is
    return label, surrogate, eligible, (label, label)


def protocol_answers(clients, gamma, k):
    """The same answers from ``fedavg``, with the fixed-point hunt stubbed
    out: an iterative set is labelled without being hunted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fa, "_descend", lambda value, dimension, step, x0=None: np.zeros(dimension))
        _, label = fa.oracle_fixed_point(clients, gamma, k)
        comparison = fa.compare_minimizers(clients, gamma, k)
    return (label, fa._surrogate_available(clients), fa._oracle_eligible(clients),
            (comparison.surrogate_method, comparison.average_method))


@st.composite
def protocol_sets(draw):
    """Sets of one to four clients, each small-rational or float-entered
    quadratic, orthogonal or tilted GLM (a built-in activation or
    log(1+t^2)), or duck-typed with only ``dimension`` and
    ``gradient_field``: every kind alone and mixed with the others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    clients = []
    for kind in draw(st.lists(st.sampled_from(
            ("small-rational", "float-entered", "orthogonal", "tilted", "duck")),
            min_size=1, max_size=4)):
        if kind == "small-rational":
            clients += integer_spd_clients(rng, 1, n)
        elif kind == "float-entered":
            clients += spd_clients(rng, 1, n)
        elif kind == "duck":
            clients.append(CallbackClient(np.tanh, n))
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            Z = Q[:draw(st.integers(1, n))] * rng.uniform(0.5, 1.5)
            if kind == "tilted":
                Z = Z + 0.3 * rng.standard_normal(Z.shape)
            activation = draw(st.sampled_from(("logistic", "exp", "quadratic", "log(1+t^2)")))
            clients.append(fa.GlmClient(GlmSpec(Z, activation)))
    return clients, draw(st.sampled_from((0.1, 0.3, 0.5))), draw(st.integers(1, 3))


class TestClientProtocol:
    @settings(max_examples=150, deadline=None)
    @given(protocol_sets())
    def test_the_answers_decide_sets_as_the_classes_did(self, drawn):
        clients, gamma, k = drawn
        assert protocol_answers(clients, gamma, k) == class_rules(clients, gamma, k)

    def test_no_client_class_dispatch_outside_the_clients(self):
        # fedavg asks each client for its answers (``_Client``): no function
        # outside the two client classes tests a client's class
        classes = {"QuadraticClient", "GlmClient"}
        found = []

        def visit(node, inside):
            for child in ast.iter_child_nodes(node):
                here = inside or (isinstance(child, ast.ClassDef) and child.name in classes)
                if (not here and isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Name) and child.func.id == "isinstance"):
                    names = {n.id if isinstance(n, ast.Name) else n.attr
                             for arg in child.args[1:] for n in ast.walk(arg)
                             if isinstance(n, (ast.Name, ast.Attribute))}
                    if names & classes:
                        found.append(child.lineno)
                visit(child, here)

        visit(ast.parse(inspect.getsource(fa)), False)
        assert found == []
