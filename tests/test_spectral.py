"""Sampled spectra, convexity classification, eigenvalue propagation."""

import numpy as np
import pytest

from iterfield.conservatism import SamplingConfig, draw_samples
from iterfield.fields import Linear, PolyExact
from iterfield.glm import GlmSpec, glm_gradient
from iterfield.polynomials import PolyField, RationalPoly
from iterfield.spectral import (NotConservativeError, StepSizeError,
                                check_gd_propagation, check_propagation, classify,
                                model_delta_field, spectrum_at)


class TestSpectrumAt:
    def test_diagonal(self):
        s = spectrum_at(Linear(np.diag([1.0, 3.0])), [0.7, -0.2])
        assert (s.lambda_min, s.lambda_max) == (1.0, 3.0)
        assert s.asymmetry == 0.0

    def test_quadratic_glm_identity_hessian(self):
        field = glm_gradient(GlmSpec(np.eye(2), "quadratic"))
        s = spectrum_at(field, [0.3, 0.4])
        assert s.lambda_min == pytest.approx(1.0)
        assert s.lambda_max == pytest.approx(1.0)

    def test_cubic_gradient_eigs(self):
        V = PolyExact(PolyField.gradient_of(RationalPoly(2, {(2, 1): 1})))
        s = spectrum_at(V, [1.0, 1.0])
        assert s.lambda_min == pytest.approx(1.0 - np.sqrt(5.0))
        assert s.lambda_max == pytest.approx(1.0 + np.sqrt(5.0))

    def test_gradient_field_asymmetry_tiny(self):
        rng = np.random.default_rng(0)
        field = glm_gradient(GlmSpec([[0.8, 0.0], [0.0, 0.5]], "logistic"))
        for _ in range(10):
            assert spectrum_at(field, rng.uniform(-1, 1, 2)).asymmetry < 1e-8


class TestClassify:
    def test_strongly_convex_quadratic(self):
        cls = classify(glm_gradient(GlmSpec(np.eye(2), "quadratic")))
        assert cls.kind == "strongly-convex"
        assert cls.alpha_hat == pytest.approx(1.0)

    def test_logistic_wide_ball_is_convex(self):
        field = glm_gradient(GlmSpec([[1.0, 0.0]], "logistic"))
        cls = classify(field, SamplingConfig(count=50, radius=40.0, seed=1))
        assert cls.kind == "convex"
        assert cls.beta_hat <= 0.25 + 1e-12

    def test_exp_pair_strongly_convex(self):
        # 1-D model with directions +1 and -1: curvature e^x + e^-x >= 2
        field = glm_gradient(GlmSpec([[1.0], [-1.0]], "exp"))
        cls = classify(field, SamplingConfig(count=40, radius=1.0, seed=2))
        assert cls.kind == "strongly-convex"
        assert 2.0 <= cls.alpha_hat <= 2.1

    def test_non_convex_with_weak_evidence(self):
        V = PolyExact(PolyField.gradient_of(RationalPoly(2, {(2, 1): 1})))
        cls = classify(V, SamplingConfig(count=30, radius=1.0, seed=3))
        assert cls.kind == "non-convex"
        assert cls.delta_hat == pytest.approx(-cls.alpha_hat)

    def test_refuses_non_conservative_field(self):
        rotation_like = Linear([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotConservativeError):
            classify(rotation_like)


class TestPropagation:
    def test_diagonal_intervals_exact(self):
        report = check_propagation(Linear(np.diag([0.5, 0.75])), 3)
        assert report.passed
        for level in report.levels:
            assert level.bound_low == pytest.approx(0.5 ** level.j)
            assert level.bound_high == pytest.approx(0.75 ** level.j)
            assert level.lambda_min == pytest.approx(level.bound_low)
            assert level.lambda_max == pytest.approx(level.bound_high)

    def test_glm_mixed_norms(self):
        spec = GlmSpec([[1.0, 0.0], [0.0, 2.0]], "quadratic")
        report = check_propagation(glm_gradient(spec), 2)
        assert report.passed
        assert report.levels[1].bound_low == pytest.approx(1.0)
        assert report.levels[1].bound_high == pytest.approx(16.0)

    def test_exp_pair_orbit_calibrated(self):
        field = glm_gradient(GlmSpec([[1.0], [-1.0]], "exp"))
        report = check_propagation(field, 2, SamplingConfig(count=30, radius=1.0, seed=5))
        assert report.passed
        assert report.alpha_hat >= 2.0

    def test_statement_level_exponent_recorded(self):
        report = check_propagation(Linear(np.diag([0.5, 0.75])), 3)
        assert all(level.passed_k_level for level in report.levels)

    def test_negative_alpha_uses_magnitude_bound(self):
        # Squaring diag(-2, 1) gives spectrum [1, 4]; the powered interval
        # [(-2)^2, 1^2] = [4, 1] would be inverted.
        report = check_propagation(Linear(np.diag([-2.0, 1.0])), 2)
        assert report.passed
        assert [(lv.bound_low, lv.bound_high) for lv in report.levels] == [(-2.0, 2.0),
                                                                           (-4.0, 4.0)]

    def test_refuses_non_conservative(self):
        field = glm_gradient(GlmSpec([[1.0, 0.0], [1.0, 1.0]], "exp"))
        with pytest.raises(NotConservativeError):
            check_propagation(field, 2,
                              SamplingConfig(count=30, radius=1.0, seed=3, kind="box"))


class TestGdPropagation:
    def test_levels_match_model_delta_spectra(self):
        from iterfield.fedavg import QuadraticClient
        client = QuadraticClient([[2.0, 0.5], [0.5, 1.0]], [0.4, -0.3])
        fields = [(glm_gradient(GlmSpec([[1.0, 0.3], [0.2, 0.9]], "logistic")), []),
                  (client.gradient_field(), [client.center])]
        cfg = SamplingConfig(count=20, seed=4)
        points = draw_samples(2, cfg)
        for field, critical in fields:
            report = check_gd_propagation(field, 0.4, 3, cfg, claimed="convex", beta=4.0,
                                          critical_points=critical)
            for level in report.levels:
                delta = model_delta_field(field, 0.4, level.j)
                spectra = [spectrum_at(delta, p) for p in points]
                assert level.lambda_min == min(s.lambda_min for s in spectra)
                assert level.lambda_max == max(s.lambda_max for s in spectra)
                assert level.critical_point_residuals == [
                    float(np.linalg.norm(delta(y))) for y in critical]

    def test_quadratic_strongly_convex(self):
        field = Linear(np.diag([1.0, 3.0]))
        report = check_gd_propagation(field, 0.5, 2, claimed="strongly-convex",
                                      alpha=1.0, beta=3.0,
                                      critical_points=[np.zeros(2)])
        assert report.passed
        assert report.lam == pytest.approx(0.5)
        level2 = report.levels[1]
        assert level2.bound_low == pytest.approx(0.75)
        assert level2.bound_high == pytest.approx(1.25)
        assert level2.lambda_min == pytest.approx(0.75)
        assert level2.lambda_max == pytest.approx(0.75)
        assert level2.critical_point_residuals == [0.0]

    def test_critical_point_preserved_exactly(self):
        from iterfield.fedavg import QuadraticClient
        client = QuadraticClient(np.diag([2.0, 1.0]), [0.4, -0.3])
        report = check_gd_propagation(client.gradient_field(), 0.5, 3,
                                      claimed="strongly-convex", alpha=1.0, beta=2.0,
                                      critical_points=[client.center])
        assert report.passed
        for level in report.levels:
            assert all(r <= 1e-12 for r in level.critical_point_residuals)

    def test_convex_one_lipschitz(self):
        field = glm_gradient(GlmSpec(np.eye(2), "logistic"))
        report = check_gd_propagation(field, 4.0, 3, claimed="convex", beta=0.25)
        assert report.passed
        for level in report.levels:
            assert level.lambda_max <= 1.0 + 1e-8
            assert level.lambda_min >= -1e-8

    def test_convex_two_lipschitz_with_larger_step(self):
        field = glm_gradient(GlmSpec(np.eye(2), "logistic"))
        report = check_gd_propagation(field, 7.0, 2, claimed="convex", beta=0.25)
        assert report.passed
        assert report.levels[0].bound_high == 2.0

    def test_step_size_refusals(self):
        field = Linear(np.diag([1.0, 3.0]))
        with pytest.raises(StepSizeError):
            check_gd_propagation(field, 0.6, 2, claimed="strongly-convex",
                                 alpha=1.0, beta=3.0)
        with pytest.raises(StepSizeError):
            check_gd_propagation(field, 9.0, 2, claimed="convex", beta=0.25)

    def test_supplied_point_must_be_critical(self):
        field = Linear(np.diag([1.0, 3.0]))
        with pytest.raises(ValueError):
            check_gd_propagation(field, 0.5, 2, claimed="strongly-convex",
                                 alpha=1.0, beta=3.0, critical_points=[[1.0, 0.0]])

    def test_model_delta_field_value(self):
        field = model_delta_field(Linear(np.eye(2)), 0.5, 2)
        # x - (0.5)^2 x = 0.75 x
        np.testing.assert_allclose(field([2.0, -4.0]), [1.5, -3.0], atol=1e-15)
