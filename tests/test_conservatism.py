"""Exact and sampled k-conservatism verdicts."""

import numpy as np
import pytest

from iterfield.conservatism import (SamplingConfig, Verdict, check_linear,
                                    check_numeric, check_poly, check_rotation,
                                    draw_samples, scan_k)
from iterfield.fields import (Callback, Constant, Iterate, Linear, NonFiniteValueError,
                              PolyExact, Rotation2D, Sum, asymmetry, compose, gd_map,
                              jacobian)
from iterfield.glm import GlmSpec, glm_gradient
from iterfield.polynomials import PolyField, RationalPoly
from iterfield.spectral import check_propagation, classify


class TestCheckLinear:
    def test_alternating_pattern(self):
        A = [[1, 2], [1, -1]]
        kinds = [check_linear(A, k).kind for k in (1, 2, 3, 4)]
        assert kinds == ["exact-no", "exact-yes", "exact-no", "exact-yes"]

    def test_nilpotent(self):
        A = [[-1, -1], [1, 1]]
        assert check_linear(A, 1).kind == "exact-no"
        for k in range(2, 7):
            assert check_linear(A, k).kind == "exact-yes"

    def test_symmetric_always_yes(self):
        A = [[0, 1], [1, 0]]
        for k in range(1, 9):
            assert check_linear(A, k).kind == "exact-yes"

    def test_conservative_at_k_implies_multiples(self):
        # exact matrix powers: symmetric A^k forces symmetric A^(m k)
        for A, k in (([[1, 2], [1, -1]], 2), (np.array(Rotation2D(3).matrix), 3)):
            base = check_linear(A, k)
            if A is not None and base.kind == "exact-yes":
                for m in (2, 3):
                    assert check_linear(A, m * k).kind == "exact-yes"
        # rotation handled symbolically: j | k implies j | mk
        for m in (2, 3, 4):
            assert check_rotation(3, 3 * m).kind == "exact-yes"

    def test_certificate_reports_entry(self):
        verdict = check_linear([[1, 2], [1, -1]], 3)
        assert "entry" in verdict.certificate and "3" in verdict.certificate


class TestCheckRotation:
    def test_divisibility_table(self):
        for j in (2, 3, 4, 6):
            for k in range(1, 13):
                expected = "exact-yes" if k % j == 0 else "exact-no"
                assert check_rotation(j, k).kind == expected


class TestCheckPoly:
    def test_cubic_counterexample_certificate(self):
        V = PolyField.gradient_of(RationalPoly(2, {(2, 1): 1}))
        verdict = check_poly(V, 2)
        assert verdict.kind == "exact-no"
        assert verdict.certificate == "4*x0^3 + -8*x0^1*x1^2"

    def test_separable_cubic_yes(self):
        f = RationalPoly(2, {(3, 0): 1, (0, 3): 1})
        assert check_poly(PolyField.gradient_of(f), 2).kind == "exact-yes"

    def test_any_gradient_is_conservative_at_k1(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            terms = {tuple(int(e) for e in rng.integers(0, 4, 2)): int(rng.integers(-5, 6))
                     for _ in range(4)}
            V = PolyField.gradient_of(RationalPoly(2, terms))
            assert check_poly(V, 1).kind == "exact-yes"


class TestCheckNumeric:
    def test_glm_counterexample(self):
        field = glm_gradient(GlmSpec([[1.0, 0.0], [1.0, 1.0]], "exp"))
        box = SamplingConfig(count=50, radius=1.0, seed=3, kind="box")
        assert check_numeric(field, 1, box).kind == "numeric-pass"
        verdict = check_numeric(field, 2, box)
        assert verdict.kind == "numeric-fail"
        assert verdict.residual > 0.1
        assert len(verdict.witness) == 2

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("check", [
        lambda field, samples, threshold: check_numeric(field, 2, samples, threshold),
        lambda field, samples, threshold: scan_k(field, 2, "numeric", samples, threshold),
        lambda field, samples, threshold: classify(field, samples, threshold),
        lambda field, samples, threshold: check_propagation(field, 2, samples, threshold),
    ], ids=["check_numeric", "scan_k", "classify", "check_propagation"])
    def test_threshold_must_be_finite_and_non_negative(self, check, threshold):
        # the counterexample fails at k = 2 under any finite threshold; a
        # NaN or infinite one passed it
        field = glm_gradient(GlmSpec([[1.0, 0.0], [1.0, 1.0]], "exp"))
        box = SamplingConfig(count=50, radius=1.0, seed=3, kind="box")
        with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
            check(field, box, threshold)

    def test_opposite_directions_pass(self):
        field = glm_gradient(GlmSpec([[1.0, 0.0], [-1.0, 0.0]], "exp"))
        for k in range(1, 5):
            assert check_numeric(field, k).kind == "numeric-pass"

    def test_rotation_residual_levels(self):
        rot = Rotation2D(3)
        assert check_numeric(rot, 3).residual < 1e-10
        failing = check_numeric(rot, 2)
        assert failing.kind == "numeric-fail" and failing.residual > 0.1

    def test_agrees_with_exact_on_test_fields(self):
        from iterfield.fields import PolyExact
        cubic = PolyExact(PolyField.gradient_of(RationalPoly(2, {(2, 1): 1})))
        cases = [(Linear([[1, 2], [1, -1]]), range(1, 5)),
                 (Linear(np.diag([2.0, 3.0])), range(1, 4)),
                 (Rotation2D(4), range(1, 9)),
                 (cubic, range(1, 3))]
        cfg = SamplingConfig(count=50, radius=1.0, seed=1)
        for field, ks in cases:
            for k in ks:
                exact = scan_k(field, k).verdict(k)
                assert exact.exact
                numeric = check_numeric(field, k, cfg, threshold=1e-8)
                assert exact.is_yes == numeric.is_yes, (field.describe(), k)

    def test_orthogonal_model_gradient_passes(self):
        field = glm_gradient(GlmSpec([[0.6, 0.0, 0.0], [0.0, 0.5, 0.0]], "exp"))
        for k in range(1, 5):
            assert check_numeric(field, k).kind == "numeric-pass"

    def test_explicit_sample_array(self):
        field = Linear(np.diag([1.0, 2.0]))
        verdict = check_numeric(field, 2, np.array([[0.1, 0.2], [0.3, -0.4]]))
        assert verdict.kind == "numeric-pass"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_explicit_sample_is_refused_as_everywhere(self, bad):
        # a sample that is not finite is refused, not skipped as if the
        # field had failed there
        field = glm_gradient(GlmSpec([[1.0, 0.0], [0.0, 1.0]], "logistic"))
        samples = np.array([[0.1, 0.2], [bad, 0.3], [0.3, -0.4]])
        messages = []
        for check in (check_numeric, check_propagation):
            with pytest.raises(NonFiniteValueError) as info:
                check(field, 2, samples)
            messages.append(str(info.value))
        with pytest.raises(NonFiniteValueError) as info:
            classify(field, samples)
        assert messages == [str(info.value)] * 2
        assert "point has non-finite entries" in messages[0]

    def test_overflowing_residual_still_fails(self):
        # Entries of A^4 near 1e160 overflow a direct Frobenius norm.
        field = Linear([[1e40, 1e39], [0.0, 1e40]])
        assert check_numeric(field, 1).kind == "numeric-fail"
        verdict = check_numeric(field, 4)
        assert verdict.kind == "numeric-fail"
        assert np.isfinite(verdict.residual) and verdict.residual > 0.1
        assert verdict.witness is not None


class TestScan:
    def test_pattern_extends_past_paper_range(self):
        report = scan_k(Linear([[1, 2], [1, -1]]), 6)
        assert report.pattern() == {1: False, 2: True, 3: False, 4: True, 5: False, 6: True}
        assert all(v.exact for _, v in report.entries)

    def test_constant_field(self):
        report = scan_k(Constant([1.0, -2.0]), 5)
        assert all(report.pattern().values())

    def test_composed_pair_not_conservative(self):
        composed = compose(Linear([[0, 1], [1, 0]]), Linear([[1, 0], [0, -1]]))
        assert scan_k(composed, 1).verdict(1).kind == "exact-no"

    def test_sum_of_conservative_fields_can_fail(self):
        parts = [glm_gradient(GlmSpec([[1.0, 0.0]], "exp")),
                 glm_gradient(GlmSpec([[1.0, 1.0]], "exp"))]
        report = scan_k(Sum(parts), 2,
                        sampling=SamplingConfig(count=50, radius=1.0, seed=3, kind="box"))
        assert report.verdict(1).is_yes
        assert not report.verdict(2).is_yes

    def test_iterate_unwraps_to_exact(self):
        rot = Rotation2D(4)
        report = scan_k(Iterate(rot, 2), 4)
        # (rotation by pi/4)^2 iterated k times is conservative iff 4 | 2k
        assert report.pattern() == {1: False, 2: True, 3: False, 4: True}
        assert all(v.exact for _, v in report.entries)

    def test_exact_iterate_reads_powers_of_inner(self):
        A = [[1, 2], [1, -1]]
        report = scan_k(Iterate(Linear(A), 3), 4)
        for k, verdict in report.entries:
            assert verdict.to_dict() == check_linear(A, 3 * k).to_dict()
        V = PolyField.gradient_of(RationalPoly(2, {(2, 1): 1}))
        report = scan_k(Iterate(PolyExact(V), 2), 2)
        for k, verdict in report.entries:
            assert verdict.to_dict() == check_poly(V, 2 * k).to_dict()

    def test_numeric_mode_forced(self):
        report = scan_k(Linear(np.diag([1.0, 2.0])), 2, mode="numeric")
        assert all(v.kind == "numeric-pass" for _, v in report.entries)

    def test_report_serialization(self):
        report = scan_k(Rotation2D(2), 2)
        data = report.to_dict()
        assert data["results"][0]["verdict"] == "exact-no"
        assert data["results"][1]["verdict"] == "exact-yes"
        assert "field" in data and "threshold" in data

    def test_numeric_verdicts_labeled_as_evidence(self):
        field = glm_gradient(GlmSpec([[0.5, 0.0]], "logistic"))
        verdict = check_numeric(field, 2)
        assert "not a proof" in verdict.to_dict()["note"]


class TestSampling:
    def test_ball_radius_respected(self):
        pts = draw_samples(3, SamplingConfig(count=200, radius=0.5, seed=0))
        assert np.max(np.linalg.norm(pts, axis=1)) <= 0.5

    def test_box_bounds(self):
        pts = draw_samples(2, SamplingConfig(count=100, radius=2.0, seed=0, kind="box"))
        assert np.max(np.abs(pts)) <= 2.0

    def test_seeded_reproducibility(self):
        a = draw_samples(2, SamplingConfig(seed=5))
        b = draw_samples(2, SamplingConfig(seed=5))
        np.testing.assert_array_equal(a, b)

    def test_verdict_helpers(self):
        assert Verdict("exact-yes").is_yes
        assert not Verdict("numeric-fail", residual=1.0).is_yes
        assert Verdict("numeric-pass", residual=0.0).to_dict()["residual"] == 0.0


def _logistic():
    return glm_gradient(GlmSpec([[1.0, 0.4], [0.2, 0.9]], "logistic"))


WALK_FIELDS = {
    "logistic-glm": _logistic,
    "gd-map": lambda: gd_map(_logistic(), 0.4),
    "compose-linear": lambda: compose(Linear([[1.0, 2.0], [0.0, 1.0]]), _logistic()),
    "exp-glm-skipping": lambda: glm_gradient(GlmSpec([[1.5, 0.0], [0.3, 1.5]], "exp")),
}


def _reference_numeric(field, k, points):
    """Worst residual, witness and skip count of J(V^k), one walk per k."""
    worst, witness, skipped = -1.0, None, 0
    for x in points:
        try:
            y, J = x, None
            for j in range(k):
                if j:
                    y = field(y)
                step = jacobian(field, y)
                J = step if J is None else step @ J
            if not np.all(np.isfinite(J)):
                raise NonFiniteValueError("non-finite chain product")
        except NonFiniteValueError:
            skipped += 1
            continue
        residual = asymmetry(J)
        if residual > worst:
            worst, witness = residual, [float(v) for v in x]
    return worst, witness, skipped


def _counting_jacobian(field):
    """field as a Callback whose analytic step Jacobians are counted."""
    calls = []

    def jac(x):
        calls.append(1)
        return field.jacobian_analytic(x)

    return Callback(field, field.dimension, jacobian=jac), calls


class TestOrbitWalk:
    @pytest.mark.parametrize("name", sorted(WALK_FIELDS))
    def test_scan_reads_every_k_off_one_walk(self, name):
        field = WALK_FIELDS[name]()
        cfg = SamplingConfig(count=50, seed=0)
        points = draw_samples(field.dimension, cfg)
        report = scan_k(field, 3, mode="numeric", sampling=cfg)
        for k, verdict in report.entries:
            assert verdict.to_dict() == check_numeric(field, k, points).to_dict()
            worst, witness, skipped = _reference_numeric(field, k, points)
            assert verdict.residual == worst
            assert verdict.skipped_samples == skipped
            assert verdict.witness == (witness if verdict.kind == "numeric-fail" else None)
        if name == "exp-glm-skipping":
            assert report.verdict(3).skipped_samples > 0

    def test_scan_makes_one_step_jacobian_per_sample_and_step(self):
        field, calls = _counting_jacobian(_logistic())
        scan_k(field, 6, sampling=SamplingConfig(count=20, seed=0))
        assert len(calls) == 20 * 6

    def test_iterate_jacobian_makes_k_step_jacobians(self):
        field, calls = _counting_jacobian(_logistic())
        Iterate(field, 5).jacobian_analytic(np.array([0.2, -0.1]))
        assert len(calls) == 5
