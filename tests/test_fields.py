"""Field construction, evaluation, composition, iteration, Jacobians."""

import numpy as np
import pytest

from iterfield.fields import (Affine, Analytic, Callback, CentralDifference, ChainProduct,
                              Compose, Constant, CoordWise1D, DimensionMismatchError,
                              GdMap, Iterate, JacobianMethodError, Linear,
                              NonFiniteValueError, PolyExact, Rotation2D, Scale,
                              ScalarMap, Sum, asymmetry, compose, evaluate, gd_map,
                              identity_field, jacobian, walk_rows)
from iterfield.glm import GlmSpec, glm_gradient
from iterfield.polynomials import PolyField, RationalPoly
from walks import walk_alone


class TestEvaluation:
    def test_linear_example(self):
        field = Linear([[-1, -1], [1, 1]])
        np.testing.assert_array_equal(field([1.0, 0.0]), [-1.0, 1.0])

    def test_nilpotent_second_iterate(self):
        field = Iterate(Linear([[-1, -1], [1, 1]]), 2)
        np.testing.assert_array_equal(field([3.0, -7.0]), [0.0, 0.0])

    def test_rotation_twice(self):
        rot = Rotation2D(2)
        np.testing.assert_allclose(rot(rot([1.0, 0.0])), [-1.0, 0.0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Linear(np.eye(2))([1.0, 2.0, 3.0])

    def test_output_shape_checked(self):
        field = Callback(lambda x: np.array([x[0], x[1], 0.0]), 2)
        with pytest.raises(DimensionMismatchError):
            field([1.0, 2.0])

    def test_non_finite_input_rejected(self):
        with pytest.raises(NonFiniteValueError):
            Linear(np.eye(2))([np.nan, 0.0])

    def test_iterate_recursion_identity(self):
        rng = np.random.default_rng(0)
        spec = GlmSpec([[0.4, 0.0], [0.0, 0.5]], "exp")
        field = glm_gradient(spec)
        for k in range(2, 5):
            for _ in range(10):
                x = rng.uniform(-1, 1, 2)
                lhs = Iterate(field, k)(x)
                rhs = field(Iterate(field, k - 1)(x))
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=0)

    def test_iterate_normalizes_nesting(self):
        inner = Linear(np.diag([0.5, 0.5]))
        nested = Iterate(Iterate(inner, 2), 3)
        assert nested.k == 6
        assert nested.inner is inner

    def test_iterate_overflow_reports_index(self):
        spec = GlmSpec([[1.0]], "exp")
        field = Iterate(glm_gradient(spec), 6)
        with pytest.raises(NonFiniteValueError) as info:
            field([4.0])
        assert info.value.iterate_index is not None
        assert 1 <= info.value.iterate_index <= 6

    def test_evaluate_helper(self):
        np.testing.assert_array_equal(evaluate(Constant([1.0, 2.0]), [0.0, 0.0]),
                                      [1.0, 2.0])


class TestCompose:
    def test_symmetric_pair_gives_rotation(self):
        composed = compose(Linear([[0, 1], [1, 0]]), Linear([[1, 0], [0, -1]]))
        expected = Linear([[0, -1], [1, 0]])
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(composed(x), expected(x), atol=0)

    def test_identity_law(self):
        field = glm_gradient(GlmSpec([[0.5, 0.1], [0.0, 0.0]][:1], "logistic"))
        ident = identity_field(2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(compose(field, ident)(x), field(x), atol=0)

    def test_compose_agrees_with_iterate(self):
        spec = GlmSpec([[0.5, 0.0], [0.0, 0.4]], "logistic")
        field = glm_gradient(spec)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-1, 1, 2)
            np.testing.assert_allclose(compose(field, field)(x), Iterate(field, 2)(x),
                                       rtol=0, atol=0)

    def test_associativity(self):
        a = Linear([[0.0, 1.0], [0.5, 0.0]])
        b = glm_gradient(GlmSpec([[0.3, 0.4]], "exp"))
        c = Affine(0.5 * np.eye(2), [0.1, -0.2])
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(left(x), right(x), rtol=1e-15, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(Linear(np.eye(2)), Linear(np.eye(3)))


class TestJacobian:
    def test_linear_jacobian_exact_everywhere(self):
        A = np.array([[1.0, 2.0], [1.0, -1.0]])
        field = Linear(A)
        rng = np.random.default_rng(5)
        for _ in range(10):
            np.testing.assert_array_equal(jacobian(field, rng.standard_normal(2)), A)

    def test_quadratic_glm_jacobian(self):
        field = glm_gradient(GlmSpec([[1.0, 0.0]], "quadratic"))
        J = jacobian(field, [3.0, -4.0], Analytic())
        np.testing.assert_array_equal(J, [[1.0, 0.0], [0.0, 0.0]])

    def test_chain_product_matrix_power(self):
        field = Iterate(Linear([[1.0, 2.0], [1.0, -1.0]]), 2)
        J = jacobian(field, [0.3, 0.7], ChainProduct())
        np.testing.assert_allclose(J, [[3.0, 0.0], [0.0, 3.0]], atol=1e-12)

    def test_central_vs_analytic_on_glm(self):
        rng = np.random.default_rng(6)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        spec = GlmSpec(Q.T, "logistic")
        field = glm_gradient(spec)
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            J_fd = jacobian(field, x, CentralDifference(1e-5))
            J_an = jacobian(field, x, Analytic())
            assert np.max(np.abs(J_fd - J_an)) < 1e-6

    def test_chain_vs_central_on_iterates(self):
        rng = np.random.default_rng(7)
        spec = GlmSpec([[2.0, 0.0], [0.0, 0.9]], "logistic")
        fields = [Linear([[1.0, 2.0], [1.0, -1.0]]), glm_gradient(spec)]
        for base in fields:
            for k in (2, 3):
                iterated = Iterate(base, k)
                for _ in range(5):
                    x = rng.uniform(-2, 2, 2)
                    J_chain = jacobian(iterated, x, ChainProduct())
                    J_fd = jacobian(iterated, x, CentralDifference(1e-5))
                    assert np.max(np.abs(J_chain - J_fd)) < 1e-4

    def test_chain_product_requires_iterate(self):
        with pytest.raises(JacobianMethodError):
            jacobian(Linear(np.eye(2)), [0.0, 0.0], ChainProduct())

    def test_analytic_unavailable_raises(self):
        from iterfield.fields import Callback
        cb = Callback(lambda x: x ** 2, 2)
        with pytest.raises(JacobianMethodError):
            jacobian(cb, [1.0, 1.0], Analytic())
        # auto mode falls back to central differences
        J = jacobian(cb, [1.0, 2.0])
        np.testing.assert_allclose(J, np.diag([2.0, 4.0]), atol=1e-9)

    def test_coordwise_jacobian_and_potential(self):
        maps = [ScalarMap("exp", np.exp, np.exp),
                ScalarMap("identity", lambda t: t, lambda t: 1.0)]
        field = CoordWise1D(maps)
        np.testing.assert_allclose(jacobian(field, [0.0, 5.0], Analytic()),
                                   np.diag([1.0, 1.0]), atol=1e-15)
        # potential of (e^t, t) from 0: (e^x - 1) + y^2 / 2
        value = field.potential([1.0, 2.0])
        assert value == pytest.approx(np.e - 1 + 2.0, rel=1e-10)

    def test_coordwise_potential_sum_overflow_raises(self):
        # each integral is finite; their sum is not
        field = CoordWise1D([ScalarMap("exp", np.exp, np.exp)] * 4)
        with pytest.raises(NonFiniteValueError):
            field.potential([708.4] * 4)

    def test_poly_exact_jacobian(self):
        V = PolyExact(PolyField.gradient_of(RationalPoly(2, {(2, 1): 1})))
        J = jacobian(V, [1.0, 1.0], Analytic())
        np.testing.assert_array_equal(J, [[2.0, 2.0], [2.0, 0.0]])


class TestGdMap:
    def test_identity_gradient_zero_field(self):
        field = gd_map(Linear(np.eye(2)), 1.0)
        np.testing.assert_array_equal(field([3.0, -1.0]), [0.0, 0.0])

    def test_single_coordinate_step(self):
        grad = glm_gradient(GlmSpec([[1.0, 0.0]], "quadratic"))
        field = gd_map(grad, 0.5)
        np.testing.assert_array_equal(field([2.0, 3.0]), [1.0, 3.0])

    def test_geometric_contraction(self):
        field = Iterate(gd_map(Linear(np.eye(2)), 0.5), 3)
        np.testing.assert_allclose(field([8.0, 0.0]), [1.0, 0.0], atol=1e-15)

    @staticmethod
    def _past_five(value):
        """G(x) = -x, so that a unit step doubles x, until |x| passes 5,
        where G gives ``value`` or raises it."""
        def fn(x):
            if abs(x[0]) <= 5:
                return -x
            if isinstance(value, type):
                raise value("math range error")
            return np.full(1, value)

        return fn

    @pytest.mark.parametrize("leaf, x0, message, index", [
        (Callback(_past_five(np.inf), 1, name="inf"), [1.0],
         "callback(inf) produced a non-finite value at x=[8.0] (at iterate 4 of 5)", 4),
        (Callback(_past_five(np.nan), 1, name="nan"), [1.0],
         "callback(nan) produced a non-finite value at x=[8.0] (at iterate 4 of 5)", 4),
        (Callback(_past_five(OverflowError), 1, name="raise"), [1.0],
         "callback(raise) overflowed at x=[8.0] (at iterate 4 of 5)", 4),
        (glm_gradient(GlmSpec([[1.0]], "exp")), [800.0],
         "glm(exp, m=1, n=1) overflowed at x=[800.0] (at iterate 1 of 5)", 1),
        # G is finite here, the step is not: the step names itself
        (Linear([[-1.0]]), [1e308], "gd(gamma=1.0, linear([[-1.0]])) produced a non-finite "
         "value at x=[1e+308] (at iterate 1 of 5)", 1),
    ])
    def test_a_walk_raises_the_innermost_failing_fields_message(self, leaf, x0, message, index):
        # the step checks its own rows once; a failing step evaluates G
        # again with its checks, so the leaf that failed names itself
        step = GdMap(leaf, 1.0)
        X = [[0.0], x0]
        dropped = {}
        *_, (live, _) = walk_rows(step, X, 5, dropped=dropped)
        assert live.tolist() == [0] and list(dropped) == [1]
        raised = [(str(dropped[1]), dropped[1].iterate_index)]
        for walk in (lambda: list(walk_alone(step, x0, 5)), lambda: Iterate(step, 5)(x0)):
            with pytest.raises(NonFiniteValueError) as err:
                walk()
            raised.append((str(err.value), err.value.iterate_index))
        assert raised == [(message, index)] * 3

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            gd_map(Linear(np.eye(2)), 0.0)
        with pytest.raises(ValueError):
            gd_map(Linear(np.eye(2)), -0.1)


class TestAsymmetry:
    def test_symmetric_is_zero(self):
        assert asymmetry([[2.0, 5.0], [5.0, -1.0]]) == 0.0

    def test_skew_example(self):
        assert asymmetry([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(2.0)

    def test_cubic_iterate_asymmetry_positive(self):
        V = PolyExact(PolyField.gradient_of(RationalPoly(2, {(2, 1): 1})))
        J = jacobian(Iterate(V, 2), [1.0, 1.0], ChainProduct())
        # off-diagonal gap of ((4x^3y, 4x^2y^2)) at (1,1) is 4 - 8
        assert J[0][1] - J[1][0] == pytest.approx(-4.0)
        assert asymmetry(J) > 0

    def test_finite_when_norms_overflow(self):
        B = np.array([[1.0, 2.0], [0.0, 1.0]])
        for scale in (1e160, 1e300):
            value = asymmetry(scale * B)
            assert np.isfinite(value)
            assert value == pytest.approx(asymmetry(B))

    def test_zero_iff_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            sym = 0.5 * (M + M.T)
            assert asymmetry(sym) == 0.0
            if asymmetry(M) == 0.0:
                np.testing.assert_array_equal(M, M.T)


class TestExactRepresentations:
    def test_affine_closure_through_combinators(self):
        base = Affine([[0.5, 0.0], [0.0, 0.25]], [1.0, -1.0])
        built = Sum([Scale(2.0, base), identity_field(2)], weights=[0.5, 0.5])
        affine = built.as_affine()
        assert affine is not None
        A, b = affine
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.standard_normal(2)
            expected = built(x)
            got = np.array([float(sum(A[i][j] * x[j] for j in range(2)) + b[i])
                            for i in range(2)])
            np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_gd_iterate_affine_power(self):
        field = Iterate(GdMap(Linear(np.diag([1.0, 2.0])), 0.25), 3)
        A, b = field.as_affine()
        np.testing.assert_allclose(np.array(A, dtype=float),
                                   np.diag([0.75 ** 3, 0.5 ** 3]), atol=0)
        assert all(v == 0 for v in b)

    def test_compose_polyfield(self):
        quad = PolyExact(PolyField.gradient_of(RationalPoly(2, {(2, 1): 1})))
        composed = Compose(quad, quad)
        pf = composed.as_polyfield()
        assert pf.to_texts() == ["4*x0^3*x1^1", "4*x0^2*x1^2"]

    def test_compose_polyfield_substitutes_the_inner_into_the_outer(self):
        # outer and inner differ, so the order of the substitution shows
        outer = PolyExact(PolyField.gradient_of(RationalPoly(2, {(2, 1): 1})))
        inner = Affine([[1.0, 2.0], [0.0, 1.0]], [0.5, -1.0])
        pf = Compose(outer, inner).as_polyfield()
        assert pf == outer.polyfield.compose(inner.as_polyfield().components)
        # grad(x0^2 x1) at (x0 + 2 x1 + 1/2, x1 - 1)
        assert pf.to_texts() == [
            "2*x0^1*x1^1 + 4*x1^2 + -2*x0^1 + -3*x1^1 + -1",
            "1*x0^2 + 4*x0^1*x1^1 + 4*x1^2 + 1*x0^1 + 2*x1^1 + 1/4"]
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(PolyExact(pf)(x), outer(inner(x)), atol=1e-15)

    def test_no_operand_polynomial_is_formed_unless_all_have_one(self):
        # a Linear after a GLM, a GLM after a Linear, and sums and descent
        # maps over them: the GLM has no polynomial form, so the Linear's
        # is never formed
        asked = []

        class Counted(Linear):
            def as_polyfield(self):
                asked.append(self)
                return super().as_polyfield()

        glm = glm_gradient(GlmSpec([[0.5, 0.0], [0.0, 0.4]], "logistic"))
        linear = Counted([[0.8, 0.1], [-0.1, 0.7]])
        for field in (Compose(glm, linear), Compose(linear, glm), Sum([linear, glm]),
                      Compose(GdMap(glm, 0.5), linear), Compose(linear, Iterate(glm, 2)),
                      Scale(2.0, Compose(linear, Sum([linear, glm])))):
            assert not field._has_polyfield()
            assert field.as_polyfield() is None
        assert asked == []
        # with a polynomial on every side, each operand's is formed once
        field = Compose(linear, Sum([linear, GdMap(linear, 0.5)]))
        assert field._has_polyfield() and field.as_polyfield() is not None
        assert asked == [linear] * 3

    def test_rotation_has_no_exact_affine(self):
        assert Rotation2D(3).as_affine() is None
        assert Rotation2D(3).as_polyfield() is None
