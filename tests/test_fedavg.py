"""Server fields, traces, oracle fixed points, surrogates, rate checks."""

import numpy as np
import pytest

from iterfield import fedavg as fa
from iterfield.conservatism import SamplingConfig
from iterfield.fields import Callback, NonFiniteValueError
from iterfield.glm import GlmSpec, iterated_glm_gd, surrogate_potential


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
        # run_fedavg verifies this internally every round at 1e-12; reaching
        # the end without a RuntimeError is the assertion
        config = fa.FedAvgConfig(hetero_clients(), gamma=0.5, eta=1.0, k=2,
                                 rounds=25, x0=[4.0, 4.0])
        trace = fa.run_fedavg(config)
        assert trace.rounds_completed == 25

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

    def test_surrogate_evaluated_once_per_distinct_iterate(self, monkeypatch):
        calls = []

        def counting(spec, x, *args):
            calls.append(spec)
            return surrogate_potential(spec, x, *args)

        monkeypatch.setattr(fa, "surrogate_potential", counting)
        clients = [fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "logistic")),
                   fa.GlmClient(GlmSpec([[-0.9, 0.0], [0.0, -1.0]], "logistic"))]
        config = fa.FedAvgConfig(clients, gamma=4.0, eta=1.0, k=3, rounds=200,
                                 x0=[1.0, -0.5])
        trace = fa.run_fedavg(config)
        points = {p.tobytes() for p in trace.xs} | {trace.fixed_point.tobytes()}
        assert len(points) < len(trace.xs)  # the run converged and repeats its iterate
        assert len(calls) == len(points) * len(clients)
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
