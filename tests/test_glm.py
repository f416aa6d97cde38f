"""Model gradient fields, closed-form iterates, and integral potentials."""

import math

import numpy as np
import pytest

from iterfield.conservatism import check_numeric
from iterfield.fields import Iterate, NonFiniteValueError, gd_map, jacobian
from iterfield.glm import (ACTIVATIONS, Activation, GlmSpec, NonOrthogonalError,
                           _orbit_weight, _scalar_orbit, closed_form_deviation,
                           derivative_residual, get_activation, glm_gradient,
                           iterated_glm, iterated_glm_gd, orthogonality_check,
                           surrogate_potential, surrogate_potentials)
from iterfield.suites import surrogate_gradient
from iterfield.quadrature import integrate


def orthogonal_spec(rng, activation, m=2, n=3, low=0.3, high=0.6):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    scales = low + (high - low) * rng.random(m)
    return GlmSpec(Q[:, :m].T * scales[:, None], activation)


class TestActivations:
    def test_builtin_derivative_consistency(self):
        ts = np.linspace(-3, 3, 25)
        for name, act in ACTIVATIONS.items():
            assert derivative_residual(act, ts) <= 1e-6, name

    def test_logistic_stability(self):
        act = get_activation("logistic")
        assert act.fn(800.0) == pytest.approx(800.0)
        assert act.fn(-800.0) == 0.0
        assert act.deriv(-800.0) == 0.0
        assert act.deriv(800.0) == 1.0

    def test_alias(self):
        assert get_activation("logistic-loss") is get_activation("logistic")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_activation("tanhish")

    def test_inconsistent_derivative_rejected(self):
        from iterfield.glm import Activation
        bad = Activation("bad", lambda t: t * t, lambda t: 3 * t)
        with pytest.raises(ValueError):
            GlmSpec([[1.0, 0.0]], bad)

    def test_expression_activation(self):
        act = get_activation("t^2/2")
        assert act.fn(3.0) == pytest.approx(4.5)
        assert act.deriv(3.0) == pytest.approx(3.0)
        assert act.second(3.0) == pytest.approx(1.0)
        log_like = get_activation("log(1+exp(t))")
        builtin = get_activation("logistic")
        for t in (-2.0, 0.0, 1.5):
            assert log_like.fn(t) == pytest.approx(builtin.fn(t))
            assert log_like.deriv(t) == pytest.approx(builtin.deriv(t))

    def test_expression_with_foreign_symbol_rejected(self):
        with pytest.raises(ValueError):
            get_activation("a*t")

    def test_expression_spec_matches_builtin_field(self):
        spec_expr = GlmSpec([[0.7, 0.0], [0.0, 0.5]], "exp(t)")
        spec_name = GlmSpec([[0.7, 0.0], [0.0, 0.5]], "exp")
        rng = np.random.default_rng(8)
        fe, fn = glm_gradient(spec_expr), glm_gradient(spec_name)
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            np.testing.assert_allclose(fe(x), fn(x), rtol=1e-12)

    def test_modeled_without_curvature_falls_back_to_differences(self):
        from iterfield.fields import jacobian as field_jacobian
        from iterfield.glm import Activation
        import math
        act = Activation("exp-no-second", math.exp, math.exp)
        field = glm_gradient(GlmSpec([[0.5, 0.0]], act))
        assert field.jacobian_analytic(np.array([0.2, 0.0])) is None
        J = field_jacobian(field, [0.2, 0.0])
        expected = 0.25 * math.exp(0.1)
        assert J[0][0] == pytest.approx(expected, rel=1e-6)


class TestOrthogonality:
    def test_standard_basis(self):
        assert orthogonality_check([[1, 0], [0, 1]]) == 0.0

    def test_counterexample_pair(self):
        assert orthogonality_check([[1, 0], [1, 1]]) == 1.0

    def test_opposite_pair(self):
        z = np.array([0.0, 2.0])
        assert orthogonality_check([z, -z]) == pytest.approx(4.0)

    def test_single_direction(self):
        assert orthogonality_check([[3.0, 4.0]]) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            orthogonality_check([[0.0, 0.0], [1.0, 0.0]])

    def test_orthogonal_flag_threshold(self):
        assert GlmSpec([[1, 0], [0, 1]], "quadratic").orthogonal
        assert not GlmSpec([[1, 0], [1e-6, 1]], "quadratic").orthogonal


class TestGradientField:
    def test_single_exp_direction(self):
        field = glm_gradient(GlmSpec([[1.0, 0.0]], "exp"))
        np.testing.assert_allclose(field([0.5, 9.0]), [np.exp(0.5), 0.0])

    def test_counterexample_value_at_origin(self):
        field = glm_gradient(GlmSpec([[1.0, 0.0], [1.0, 1.0]], "exp"))
        np.testing.assert_allclose(field([0.0, 0.0]), [2.0, 1.0])

    def test_quadratic_orthonormal_is_identity(self):
        field = glm_gradient(GlmSpec(np.eye(3), "quadratic"))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(field(x), x, atol=1e-15)

    def test_overflow_is_an_error_not_inf(self):
        field = glm_gradient(GlmSpec([[1.0]], "exp"))
        with pytest.raises(NonFiniteValueError):
            field([1000.0])


class TestClosedFormIterates:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        gamma = 0.5
        for name in ("quadratic", "exp", "logistic"):
            spec = orthogonal_spec(rng, name)
            grad = glm_gradient(spec)
            for k in range(1, 6):
                closed = iterated_glm(spec, k)
                closed_gd = iterated_glm_gd(spec, gamma, k)
                brute = Iterate(grad, k)
                brute_gd = Iterate(gd_map(grad, gamma), k)
                for _ in range(25):
                    x = rng.standard_normal(3)
                    x /= max(1.0, np.linalg.norm(x))
                    ref = brute(x)
                    assert np.linalg.norm(closed(x) - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))
                    ref_gd = brute_gd(x)
                    assert np.linalg.norm(closed_gd(x) - ref_gd) <= 1e-9 * max(1.0, np.linalg.norm(ref_gd))

    def test_single_exp_tower(self):
        spec = GlmSpec([[1.0, 0.0]], "exp")
        closed = iterated_glm(spec, 2)
        x = np.array([0.3, 5.0])
        np.testing.assert_allclose(closed(x), [np.exp(np.exp(0.3)), 0.0], rtol=1e-15)

    def test_k1_equals_gradient(self):
        rng = np.random.default_rng(1)
        spec = orthogonal_spec(rng, "logistic")
        grad = glm_gradient(spec)
        closed = iterated_glm(spec, 1)
        for _ in range(10):
            x = rng.standard_normal(3)
            np.testing.assert_array_equal(closed(x), grad(x))

    def test_gd_quadratic_halving(self):
        # sigma'(t) = t with unit direction: each step halves the coordinate
        spec = GlmSpec([[1.0, 0.0]], "quadratic")
        closed = iterated_glm_gd(spec, 0.5, 3)
        np.testing.assert_allclose(closed([8.0, 5.0]), [1.0, 5.0], atol=1e-14)

    def test_gd_k1_equals_descent_map(self):
        rng = np.random.default_rng(2)
        spec = orthogonal_spec(rng, "exp")
        closed = iterated_glm_gd(spec, 0.7, 1)
        brute = gd_map(glm_gradient(spec), 0.7)
        for _ in range(10):
            x = rng.standard_normal(3) * 0.5
            np.testing.assert_allclose(closed(x), brute(x), atol=1e-15)

    def test_gd_small_gamma_near_identity(self):
        rng = np.random.default_rng(3)
        spec = orthogonal_spec(rng, "logistic")
        k = 4
        closed = iterated_glm_gd(spec, 1e-8, k)
        for _ in range(10):
            x = rng.standard_normal(3)
            x /= max(1.0, np.linalg.norm(x))
            assert np.max(np.abs(closed(x) - x)) <= 1e-7 * k

    def test_non_orthogonal_raises(self):
        spec = GlmSpec([[1.0, 0.0], [1.0, 1.0]], "exp")
        with pytest.raises(NonOrthogonalError):
            iterated_glm(spec, 2)
        with pytest.raises(NonOrthogonalError):
            iterated_glm_gd(spec, 0.5, 2)
        with pytest.raises(NonOrthogonalError):
            surrogate_potential(spec, [0.0, 0.0], 2)

    def test_closed_form_analytic_jacobians(self):
        from iterfield.fields import CentralDifference
        rng = np.random.default_rng(4)
        spec = orthogonal_spec(rng, "logistic")
        for field in (iterated_glm(spec, 3), iterated_glm_gd(spec, 0.5, 3)):
            for _ in range(5):
                x = rng.standard_normal(3) * 0.5
                J_an = field.jacobian_analytic(x)
                J_ref = jacobian(field, x, CentralDifference(1e-5))
                assert np.max(np.abs(J_an - J_ref)) < 1e-6


def float_orbit(deriv, t, w, k, gamma):
    """(weight, None, None) of one starting point, or (None, place, raised)
    for one that fails: place orders failures as a batch meets them (after
    how many yields; a failing map step ahead of a failing sigma' at the
    same point), raised is the error's text and ``iterate_index``."""
    steps = 0
    try:
        for _ in _scalar_orbit(deriv, t, w, k, gamma):
            steps += 1
        return _orbit_weight(deriv, t, w, k, gamma), None, None
    except NonFiniteValueError as err:
        return None, (steps, err.iterate_index is None), (str(err), err.iterate_index)


class TestOneOrbitRoutine:
    """The scalar-orbit routine on an array of starting points is the float
    routine at each entry: the same weight bits, and the failure of the
    entry that fails first."""

    # scalar sigma' that overflow to inf rather than raising; without
    # deriv_array, ``derivs`` calls them once per entry
    ACTIVATIONS = [Activation("cube", lambda s: s ** 4 / 4, lambda s: s * s * s),
                   Activation("capped-exp", math.exp,
                              lambda s: math.exp(s) if s < 709.0 else math.inf)]

    @pytest.mark.parametrize("activation", ACTIVATIONS, ids=lambda a: a.name)
    @pytest.mark.parametrize("gamma", [None, 0.4])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_batch_is_the_float_call_at_each_entry(self, activation, gamma, k):
        assert activation.deriv_array is None
        rng = np.random.default_rng(k)
        exp = activation.name == "capped-exp"
        outcomes = set()
        for trial in range(40):
            if trial % 2:
                # orbits that stay finite
                t = -rng.uniform(1.0, 3.0, (3, 4)) if exp else rng.uniform(-0.3, 0.3, (3, 4))
                w = rng.uniform(0.05, 0.3, (3, 1))
            else:
                # from small to past the overflow of sigma', and one entry
                # whose first plain step overflows
                t = rng.choice([-1.0, 1.0], (3, 4)) * 10.0 ** rng.uniform(-1.0, 3.5, (3, 4))
                if not exp:
                    t = np.where(rng.random((3, 4)) < 0.2, t * 1e100, t)
                w = rng.uniform(0.5, 3.0, (3, 1))
                r, c = rng.integers(3), rng.integers(4)
                t[r, c], w[r] = (708.9 if exp else 5.6e102), 2.9
            per_entry = [float_orbit(activation.deriv, s, float(w[i // 4, 0]), k, gamma)
                         for i, s in enumerate(t.ravel().tolist())]
            failures = [(place, i, raised) for i, (_, place, raised) in enumerate(per_entry)
                        if place]
            with np.errstate(over="ignore", invalid="ignore"):
                if not failures:
                    outcomes.add("finite")
                    got = _orbit_weight(activation.derivs, t, w, k, gamma)
                    assert ([v.hex() for v in got.ravel().tolist()]
                            == [weight.hex() for weight, *_ in per_entry])
                    continue
                *_, (message, index) = min(failures)
                outcomes.add("map" if index else "sigma'")
                with pytest.raises(NonFiniteValueError) as caught:
                    _orbit_weight(activation.derivs, t, w, k, gamma)
            assert (str(caught.value), caught.value.iterate_index) == (message, index)
        assert {"finite", "sigma'"} <= outcomes
        assert "map" in outcomes or gamma is not None or k == 1


class TestSurrogatePotential:
    def test_exp_single_direction_k1(self):
        spec = GlmSpec([[1.0, 0.0]], "exp")
        value = surrogate_potential(spec, [1.0, 3.0], 1)
        assert value == pytest.approx(np.e - 1.0, rel=1e-10)
        assert surrogate_potential(spec, [0.0, 0.0], 1) == 0.0

    def test_sum_overflow_raises(self):
        # each direction's integral is finite; their sum is not
        with pytest.raises(NonFiniteValueError):
            surrogate_potential(GlmSpec(np.eye(4), "exp"), [708.4] * 4, 1)

    def test_zero_at_origin_any_spec(self):
        rng = np.random.default_rng(5)
        spec = orthogonal_spec(rng, "logistic", m=3)
        assert surrogate_potential(spec, np.zeros(3), 3) == 0.0
        assert surrogate_potential(spec, np.zeros(3), 3, "gd-iterate", 0.5) == 0.0

    def test_gradient_matches_closed_form(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for name in ("quadratic", "exp", "logistic"):
            spec = orthogonal_spec(rng, name)
            for k in (1, 2, 4):
                closed = iterated_glm(spec, k)
                for _ in range(5):
                    x = rng.standard_normal(3)
                    x /= max(1.0, np.linalg.norm(x))
                    grad_fd = np.zeros(3)
                    for j in range(3):
                        e = np.zeros(3)
                        e[j] = h
                        grad_fd[j] = (surrogate_potential(spec, x + e, k)
                                      - surrogate_potential(spec, x - e, k)) / (2 * h)
                    ref = closed(x)
                    assert np.linalg.norm(grad_fd - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))

    def test_gd_potential_reproduces_descent_iterate(self):
        rng = np.random.default_rng(7)
        spec = orthogonal_spec(rng, "exp")
        gamma, k, h = 0.4, 3, 1e-6
        closed = iterated_glm_gd(spec, gamma, k)
        for _ in range(5):
            x = rng.standard_normal(3) * 0.5
            grad_fd = np.zeros(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                grad_fd[j] = (surrogate_potential(spec, x + e, k, "gd-iterate", gamma)
                              - surrogate_potential(spec, x - e, k, "gd-iterate", gamma)) / (2 * h)
            np.testing.assert_allclose(x - gamma * grad_fd, closed(x), atol=1e-8)

    def test_subnormal_interval(self):
        # x @ z is 1.78e-308, an interval too narrow for adaptive quadrature;
        # the gd-iterate weight there is sigma'(0) + sigma'(-gamma |z|^2)
        spec = GlmSpec([[0.8, 0.0], [0.0, 1.3]], "exp")
        x = [2.2250738585072014e-308, 0.0]
        value = surrogate_potential(spec, x, 2, "gd-iterate", gamma=0.4)
        expected = 0.8 * x[0] * (1.0 + math.exp(-0.4 * 0.64))
        assert math.isclose(value, expected, rel_tol=1e-12)
        assert integrate(math.cos, 0.0, 1e-310) == 1e-310

    def test_array_derivatives(self):
        # the array forms of sigma' agree with the scalar ones entry by entry
        ts = np.concatenate([np.linspace(-40.0, 40.0, 81), [-0.0, 0.0, 1e-300, -745.0]])
        # "3*t" has a constant derivative, which lambdify leaves a scalar
        for name in ("quadratic", "exp", "logistic", "log(1+exp(t))", "t^2/2 + t", "3*t"):
            act = get_activation(name)
            got = act.derivs(ts)
            want = np.array([act.deriv(float(t)) for t in ts])
            assert got.shape == ts.shape
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0, err_msg=name)

    def test_scalar_only_activation(self):
        # an activation given without an array derivative is evaluated entry
        # by entry, and its overflow still raises
        scalar_exp = Activation("exp-scalar", math.exp, math.exp)
        points = [[0.3, -0.2], [1.0, 0.5]]
        directions = [[0.8, 0.0], [0.0, 1.3]]
        np.testing.assert_allclose(surrogate_potentials(GlmSpec(directions, scalar_exp), points, 2),
                                   surrogate_potentials(GlmSpec(directions, "exp"), points, 2),
                                   rtol=1e-14)
        with pytest.raises(NonFiniteValueError):
            surrogate_potentials(GlmSpec([[1.0]], scalar_exp), [[800.0]], 1)

    def test_bad_mode(self):
        spec = GlmSpec([[1.0, 0.0]], "exp")
        with pytest.raises(ValueError):
            surrogate_potential(spec, [0.0, 0.0], 2, "sideways")
        with pytest.raises(ValueError):
            surrogate_potential(spec, [0.0, 0.0], 2, "gd-iterate")  # missing gamma


class TestOverflowPolicy:
    def test_closed_form_jacobian(self):
        field = iterated_glm(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "exp"), 3)
        with pytest.raises(NonFiniteValueError):
            jacobian(field, [3.0, 0.0])

    def test_descent_closed_form_jacobian(self):
        field = iterated_glm_gd(GlmSpec([[1.0]], "exp"), 0.5, 1)
        with pytest.raises(NonFiniteValueError):
            jacobian(field, [800.0])

    @pytest.mark.parametrize("mode", ["gd-iterate", "grad-iterate"])
    def test_surrogate_potential(self, mode):
        with pytest.raises(NonFiniteValueError):
            surrogate_potential(GlmSpec([[1.0]], "exp"), [800.0], 1, mode, gamma=0.5)

    def test_overflowing_sample_is_skipped(self):
        field = iterated_glm(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "exp"), 3)
        verdict = check_numeric(field, 1, [[3.0, 0.0], [0.1, 0.2], [0.2, 0.1]])
        assert verdict.kind == "numeric-pass"
        assert verdict.skipped_samples == 1


STEP_ENTRIES = {
    "gd_map": lambda spec, gamma: gd_map(glm_gradient(spec), gamma),
    "iterated_glm_gd": lambda spec, gamma: iterated_glm_gd(spec, gamma, 2),
    "closed_form_deviation": lambda spec, gamma: closed_form_deviation(
        spec, [[0.1, 0.2]], 2, gamma),
    "surrogate_potential": lambda spec, gamma: surrogate_potential(
        spec, [0.1, 0.2], 2, "gd-iterate", gamma),
    "surrogate_potentials": lambda spec, gamma: surrogate_potentials(
        spec, [[0.1, 0.2]], 2, "gd-iterate", gamma),
}


class TestStepRule:
    """One rule for a step size at every entry that takes one: finite and
    positive.  An infinite step defines no map, so it is refused with the
    others instead of giving a value or failing every sample."""

    @pytest.mark.parametrize("gamma", [0.0, -0.1, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", list(STEP_ENTRIES))
    def test_refused(self, entry, gamma):
        spec = GlmSpec(np.eye(2), "exp")
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            STEP_ENTRIES[entry](spec, gamma)

    @pytest.mark.parametrize("entry", list(STEP_ENTRIES))
    def test_a_large_finite_step_is_taken(self, entry):
        STEP_ENTRIES[entry](GlmSpec(np.eye(2), "quadratic"), 1e6)


def reference_surrogate_gradient():
    """The surrogate-gradient entry's worst deviation with one closed-form
    call per point, the loop the entry's batches replace."""
    from iterfield.suites import _orthogonal_directions
    rng = np.random.default_rng(23)
    points, k_max = 50, 4
    gamma = 0.4
    h = 1e-6
    worst = 0.0
    steps = h * np.eye(3)
    for act in ("quadratic", "exp", "logistic"):
        spec = GlmSpec(_orthogonal_directions(rng, 3, 2), act)
        for k in range(1, k_max + 1):
            closed = iterated_glm(spec, k)
            closed_gd = iterated_glm_gd(spec, gamma, k)
            xs = []
            for _ in range(points // k_max):
                x = rng.standard_normal(3)
                xs.append(x / max(1.0, float(np.linalg.norm(x))))
            X = np.array(xs)[:, None, :]
            stencil = np.concatenate([X + steps, X - steps]).reshape(-1, 3)
            for mode in ("grad-iterate", "gd-iterate"):
                plus, minus = surrogate_potentials(spec, stencil, k, mode, gamma).reshape(2, -1, 3)
                for x, grad_fd in zip(xs, (plus - minus) / (2 * h)):
                    if mode == "grad-iterate":
                        ref = closed(x)
                    else:
                        ref = (x - closed_gd(x)) / gamma
                    dev = np.linalg.norm(grad_fd - ref) / max(1.0, np.linalg.norm(ref))
                    worst = max(worst, dev)
    return worst


def test_surrogate_gradient_entry_matches_its_per_point_loop():
    result = surrogate_gradient()
    assert result["passed"]
    assert float(result["worst_relative_deviation"]).hex() == \
        float(reference_surrogate_gradient()).hex()
