"""Exact polynomial arithmetic: ring ops, composition, asymmetry certificates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from iterfield import polynomials, rationals
from iterfield.conservatism import check_linear, check_poly
from iterfield.polynomials import (EXPONENT_BITS, MAX_DEGREE, PolyField, PolynomialSizeError,
                                   RationalPoly, asymmetry_polys, cubic_asymmetry_coefficients,
                                   cubic_gate, cubic_gate_symbolic, divide_exact,
                                   group_by_vars, iterate_poly_field, jacobian_polys,
                                   linear_asymmetry_symbolic, parse_poly, poly_iterates)


def power_asymmetry(a, b, c, d, k):
    """P[0][1] - P[1][0] of the k-th power P of [[a, b], [c, d]], from the
    exact integer power."""
    P, den = rationals.power(*rationals.numerators([[a, b], [c, d]]), k)
    return Fraction(P[0][1] - P[1][0], den)


def randpoly(rng, nvars=2, terms=4, max_deg=3):
    p = RationalPoly.zero(nvars)
    for _ in range(terms):
        exps = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(nvars))
        coeff = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        p = p + RationalPoly.monomial(nvars, coeff, exps)
    return p


class TestRingOperations:
    def test_partial_power_rule(self):
        x2y = RationalPoly(2, {(2, 1): 1})
        assert x2y.partial(1) == RationalPoly(2, {(2, 0): 1})

    def test_partial_with_coefficient(self):
        p = RationalPoly(2, {(2, 2): 4})  # 4 x^2 y^2
        assert p.partial(0) == RationalPoly(2, {(1, 2): 8})

    def test_difference_of_squares(self):
        x = RationalPoly.variable(2, 0)
        y = RationalPoly.variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_partial_index_out_of_range(self):
        with pytest.raises(IndexError):
            RationalPoly.variable(2, 0).partial(2)

    def test_zero_coefficients_never_stored(self):
        x = RationalPoly.variable(1, 0)
        assert (x - x).terms == {}
        assert (x * 0).is_zero()

    def test_ring_axioms_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p, q, r = (randpoly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_pow_matches_repeated_mul(self):
        rng = np.random.default_rng(1)
        p = randpoly(rng)
        assert p ** 3 == p * p * p
        assert p ** 0 == RationalPoly.constant(2, 1)

    def test_evaluate_exact_and_float(self):
        p = parse_poly("1*x0^2 + -1/2*x1^1", 2)
        assert p.evaluate([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 12)
        assert p.evaluate([2.0, 4.0]) == pytest.approx(2.0)


class TestComposition:
    def test_substitution(self):
        # x^2 y with x -> 2xy, y -> x^2 gives (2xy)^2 x^2
        outer = RationalPoly(2, {(2, 1): 1})
        subs = [RationalPoly(2, {(1, 1): 2}), RationalPoly(2, {(2, 0): 1})]
        assert outer.compose(subs) == RationalPoly(2, {(4, 2): 4})

    def test_identity_substitution(self):
        rng = np.random.default_rng(3)
        p = randpoly(rng)
        ident = [RationalPoly.variable(2, i) for i in range(2)]
        assert p.compose(ident) == p

    def test_gradient_self_composition(self):
        # grad(x^2 y) = (2xy, x^2); composed with itself: (4x^3 y, 4x^2 y^2)
        V = PolyField.gradient_of(RationalPoly(2, {(2, 1): 1}))
        V2 = iterate_poly_field(V, 2)
        assert V2.to_texts() == ["4*x0^3*x1^1", "4*x0^2*x1^2"]

    def test_arity_mismatch(self):
        p = RationalPoly.variable(2, 0)
        with pytest.raises(ValueError):
            p.compose([RationalPoly.variable(2, 0)])

    def test_term_ceiling(self, monkeypatch):
        # x0 + x1 forms no product, so only the sum can pass the ceiling
        x, y = RationalPoly.variable(2, 0), RationalPoly.variable(2, 1)
        low = sum((RationalPoly.monomial(2, 1, (i, 0)) for i in range(6)), RationalPoly.zero(2))
        high = sum((RationalPoly.monomial(2, 1, (0, j)) for j in range(1, 7)),
                   RationalPoly.zero(2))
        monkeypatch.setattr(polynomials, "MAX_TERMS", 12)
        assert (x + y).compose([low, high]) == low + high
        monkeypatch.setattr(polynomials, "MAX_TERMS", 11)
        with pytest.raises(PolynomialSizeError):
            (x + y).compose([low, high])

    @pytest.mark.parametrize("entry", [
        lambda dense: dense.mul(dense),
        lambda dense: PolyField([dense, dense]).compose([dense, dense]),
        lambda dense: iterate_poly_field(PolyField([dense, dense]), 2),
        lambda dense: check_poly(PolyField([dense, dense]), 2),
        lambda dense: cubic_asymmetry_coefficients(2),
    ], ids=["mul", "PolyField.compose", "iterate_poly_field", "check_poly",
            "cubic_asymmetry_coefficients"])
    def test_the_term_ceiling_is_read_at_every_entry(self, monkeypatch, entry):
        dense = sum((RationalPoly.monomial(2, 1, (i, j))
                     for i in range(6) for j in range(6)),
                    RationalPoly.zero(2))
        monkeypatch.setattr(polynomials, "MAX_TERMS", 10)
        with pytest.raises(PolynomialSizeError, match=r"term ceiling \(10 terms\)"):
            entry(dense)

    def test_each_monomial_is_formed_once_per_step(self, monkeypatch):
        # grad(x0^2 x1) = (2 x0 x1, x0^2): one product for x0 x1 and one for
        # x0^2 per step, whichever component uses them
        products = []
        mul = RationalPoly.mul

        def counted(self, *args, **kwargs):
            products.append(1)
            return mul(self, *args, **kwargs)

        monkeypatch.setattr(RationalPoly, "mul", counted)
        iterates = poly_iterates(PolyField.gradient_of(RationalPoly(2, {(2, 1): 1})))
        next(iterates)
        for _ in range(3):
            products.clear()
            next(iterates)
            assert len(products) == 2


class TestCanonicalText:
    def test_rendering(self):
        p = RationalPoly(2, {(3, 0): 4, (1, 2): -8})
        assert p.to_text() == "4*x0^3 + -8*x0^1*x1^2"
        assert RationalPoly.zero(2).to_text() == "0"
        assert RationalPoly.constant(2, Fraction(-1, 3)).to_text() == "-1/3"

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = randpoly(rng, nvars=3)
            assert parse_poly(p.to_text(), 3) == p

    def test_named_variables(self):
        p = RationalPoly(2, {(1, 1): 1})
        assert p.to_text(("a", "b")) == "1*a^1*b^1"
        assert parse_poly("1*a^1*b^1", 2, ("a", "b")) == p

    def test_binary_minus_and_bare_signs(self):
        assert parse_poly("x0^2 - x1", 2) == parse_poly("x0^2 + -1*x1", 2)
        assert parse_poly("-x0 - 1/2*x1^3 - 2", 2) == parse_poly("-1*x0 + -1/2*x1^3 + -2", 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("1*q^2", 2)
        for text in ("x0 ++ 1", "x0 - - 1", "x0 -", "x0^-1"):
            with pytest.raises(ValueError):
                parse_poly(text, 2)


class TestDivision:
    def test_exact_quotient(self):
        x = RationalPoly.variable(2, 0)
        y = RationalPoly.variable(2, 1)
        product = (x + y) * (x * x + y)
        assert divide_exact(product, x + y) == x * x + y

    def test_non_divisible(self):
        x = RationalPoly.variable(2, 0)
        y = RationalPoly.variable(2, 1)
        assert divide_exact(x * x + y, x + y) is None

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(RationalPoly.variable(1, 0), RationalPoly.zero(1))


class TestLinearAsymmetry:
    def test_example_matrix(self):
        kinds = [check_linear([[1, 2], [1, -1]], k).kind for k in (2, 3, 4)]
        assert kinds == ["exact-yes", "exact-no", "exact-yes"]

    def test_symmetric_matrix_all_k(self):
        for k in range(1, 8):
            assert check_linear([[0, 1], [1, 0]], k).kind == "exact-yes"

    def test_symbolic_factorizations(self):
        a, b, c, d = (RationalPoly.variable(4, i) for i in range(4))
        assert linear_asymmetry_symbolic(1) == b - c
        assert linear_asymmetry_symbolic(2) == (b - c) * (a + d)
        assert linear_asymmetry_symbolic(3) == (b - c) * (a * a + a * d + b * c + d * d)
        assert linear_asymmetry_symbolic(4) == (b - c) * (a + d) * (a * a + 2 * b * c + d * d)

    def test_symbolic_agrees_with_numeric(self):
        rng = np.random.default_rng(8)
        for k in (1, 2, 3, 4, 5):
            sym = linear_asymmetry_symbolic(k)
            entries = [Fraction(int(v)) for v in rng.integers(-4, 5, size=4)]
            assert sym.evaluate(entries) == power_asymmetry(*entries, k)


class TestAsymmetryMatrix:
    def test_antisymmetric(self):
        rng = np.random.default_rng(13)
        V = PolyField([randpoly(rng, terms=3, max_deg=2) for _ in range(2)])
        D = asymmetry_polys(V, 2)
        for i in range(2):
            for j in range(2):
                assert D[i][j] == -D[j][i]

    def test_gradient_first_iterate_is_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            potential = randpoly(rng, nvars=3, terms=5, max_deg=3)
            V = PolyField.gradient_of(potential)
            D = asymmetry_polys(V, 1)
            assert all(entry.is_zero() for row in D for entry in row)

    def test_linear_field_matches_matrix_power(self):
        rng = np.random.default_rng(19)
        for k in (1, 2, 3):
            entries = [int(v) for v in rng.integers(-3, 4, size=4)]
            V = PolyField.linear([[entries[0], entries[1]], [entries[2], entries[3]]])
            D = asymmetry_polys(V, k)
            expected = power_asymmetry(*entries, k)
            assert D[0][1] == RationalPoly.constant(2, expected)

    def test_diagonal_field_all_k(self):
        V = PolyField.linear([[2, 0], [0, 3]])
        for k in (1, 2, 3, 4):
            D = asymmetry_polys(V, k)
            assert D[0][1].is_zero()

    def test_jacobian_entries(self):
        V = PolyField.gradient_of(RationalPoly(2, {(2, 1): 1}))
        J = jacobian_polys(V)
        assert J[0][1] == RationalPoly(2, {(1, 0): 2})  # d(2xy)/dy
        assert J[1][0] == RationalPoly(2, {(1, 0): 2})  # d(x^2)/dx

    def test_matrix_matches_the_full_jacobian_difference(self):
        rng = np.random.default_rng(23)
        for n, k in ((2, 2), (3, 2), (4, 1)):
            V = PolyField([randpoly(rng, nvars=n, terms=3, max_deg=2) for _ in range(n)])
            J = jacobian_polys(iterate_poly_field(V, k))
            D = asymmetry_polys(V, k)
            for i in range(n):
                for j in range(n):
                    assert D[i][j] == J[i][j] - J[j][i]
                    assert D[i][j].terms == (J[i][j] - J[j][i]).terms

    @staticmethod
    def _count_partials(monkeypatch):
        calls = []
        partial = RationalPoly.partial

        def counted(self, var):
            calls.append(var)
            return partial(self, var)

        monkeypatch.setattr(RationalPoly, "partial", counted)
        return calls

    def test_each_pair_takes_two_partials(self, monkeypatch):
        V = PolyField.from_texts(["x0*x1", "x1*x2", "x2*x0", "x3^2"], 4)
        calls = self._count_partials(monkeypatch)
        asymmetry_polys(V, 1)
        assert len(calls) == 4 * 3

    def test_check_poly_stops_at_the_first_nonzero_pair(self, monkeypatch):
        # D[0][1] = d(x1)/dx1 - d(0)/dx0 = 1, so no later pair is formed
        V = PolyField.from_texts(["x1", "0", "x2^2"], 3)
        D = asymmetry_polys(V, 1)
        calls = self._count_partials(monkeypatch)
        verdict = check_poly(V, 1)
        assert len(calls) == 2
        assert verdict.kind == "exact-no" and verdict.certificate == D[0][1].to_text() == "1"


class TestExponentWidth:
    """Every exponent lives in an EXPONENT_BITS field of one int key; a
    polynomial of total degree past MAX_DEGREE is refused before an
    exponent could carry into its neighbour's field."""

    def test_square_tower_up_to_the_width(self):
        x = RationalPoly.variable(1, 0)
        iterates = poly_iterates(PolyField([x * x]))
        for k in range(1, EXPONENT_BITS):
            assert next(iterates).components[0].terms == {(2 ** k,): Fraction(1)}
        with pytest.raises(PolynomialSizeError, match="exponent width"):
            next(iterates)

    def test_full_fields_do_not_carry(self):
        x, y = RationalPoly.variable(2, 0), RationalPoly.variable(2, 1)
        top = RationalPoly.monomial(2, 3, (0, MAX_DEGREE - 1)) * y
        assert top.terms == {(0, MAX_DEGREE): Fraction(3)}
        assert top.degree() == MAX_DEGREE and top.leading_term() == ((0, MAX_DEGREE), 3)
        assert top.partial(1).terms == {(0, MAX_DEGREE - 1): Fraction(3 * MAX_DEGREE)}
        assert divide_exact(top, y).terms == {(0, MAX_DEGREE - 1): Fraction(3)}
        assert parse_poly(top.to_text(), 2) == top
        assert (x ** MAX_DEGREE).terms == {(MAX_DEGREE, 0): Fraction(1)}
        for product in (lambda: top * x, lambda: top * y, lambda: x ** (MAX_DEGREE + 1)):
            with pytest.raises(PolynomialSizeError, match="exponent width"):
                product()

    def test_composition_is_refused_before_it_starts(self):
        x, y = RationalPoly.variable(2, 0), RationalPoly.variable(2, 1)
        half = RationalPoly.monomial(2, 1, (0, MAX_DEGREE // 2 + 1))
        with pytest.raises(PolynomialSizeError, match="composition of degree"):
            (x * x + y).compose([half, y])

    @pytest.mark.parametrize("build", [
        lambda: RationalPoly(1, {(MAX_DEGREE + 1,): 1}),
        lambda: RationalPoly(2, {(MAX_DEGREE, 1): 1}),
        lambda: RationalPoly.monomial(3, 1, (0, 0, MAX_DEGREE + 1)),
        lambda: parse_poly(f"x0^{MAX_DEGREE + 1}", 1),
        lambda: parse_poly(f"x0^{MAX_DEGREE}*x1 + 1", 2),
        lambda: parse_poly(f"x1^{MAX_DEGREE} * x1", 2),
    ])
    def test_constructor_and_parser_refuse_past_the_width(self, build):
        with pytest.raises(PolynomialSizeError, match="exponent width"):
            build()


class TestCubicFamily:
    def test_gate_values(self):
        assert cubic_gate(0, 1, 0, 0) == -1
        assert cubic_gate(1, 0, 0, 1) == 0
        assert cubic_gate(1, 3, 3, 1) == 0

    def test_coefficients_match_factored_forms(self):
        g = cubic_gate_symbolic()
        a, b, c, d = (RationalPoly.variable(4, i) for i in range(4))
        coeffs = cubic_asymmetry_coefficients(2)
        assert coeffs[(3, 0)] == -4 * b * g
        assert coeffs[(2, 1)] == 4 * (3 * a - 2 * c) * g
        assert coeffs[(1, 2)] == 4 * (2 * b - 3 * d) * g
        assert coeffs[(0, 3)] == 4 * c * g

    def test_third_iterate_divisibility(self):
        g = cubic_gate_symbolic()
        coeffs = cubic_asymmetry_coefficients(3)
        assert len(coeffs) == 8
        assert {p.degree() for p in coeffs.values()} == {7}
        assert all(divide_exact(p, g) is not None for p in coeffs.values())


def test_group_by_vars():
    p = parse_poly("3*x0^1*x2^2 + 5*x1^1*x2^2 + 7*x0^1", 3)
    groups = group_by_vars(p, (2,))
    assert groups[(2,)] == parse_poly("3*x0^1 + 5*x1^1", 2)
    assert groups[(0,)] == parse_poly("7*x0^1", 2)


# ----- the ring against sympy's sparse polynomials over QQ -----

COEFFS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
RING_SETTINGS = settings(max_examples=40, deadline=None)
NONZERO = COEFFS.filter(bool)


def polys(nvars, max_degree=3, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_degree)] * nvars)
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(
        lambda terms: RationalPoly(nvars, terms))


def gens(nvars):
    return ring(",".join(f"x{i}" for i in range(nvars)), QQ)


def to_ring(R, p):
    return R({exps: QQ(c.numerator, c.denominator) for exps, c in p.terms.items()})


def from_ring(nvars, P):
    return RationalPoly(nvars, {exps: Fraction(int(c.numerator), int(c.denominator))
                                for exps, c in P.terms()})


def ring_compose(R, p, subs):
    """p with variable i replaced by subs[i], summed term by term in R."""
    total = R(0)
    for exps, c in p.terms.items():
        term = R(QQ(c.numerator, c.denominator))
        for sub, e in zip(subs, exps):
            if e:  # sympy refuses 0**0
                term *= sub ** e
        total += term
    return total


class TestAgainstSympyRing:
    @RING_SETTINGS
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), polys(n), polys(n))))
    def test_mul_add_sub(self, case):
        n, p, q = case
        R, *_ = gens(n)
        P, Q = to_ring(R, p), to_ring(R, q)
        assert p * q == from_ring(n, P * Q)
        assert p + q == from_ring(n, P + Q)
        assert p - q == from_ring(n, P - Q)
        assert -p == from_ring(n, -P)

    @RING_SETTINGS
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), polys(n), st.integers(0, n - 1))))
    def test_partial(self, case):
        n, p, var = case
        R, *xs = gens(n)
        assert p.partial(var) == from_ring(n, to_ring(R, p).diff(xs[var]))

    @RING_SETTINGS
    @given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda nm: st.tuples(st.just(nm[1]), polys(nm[0], 2),
                             st.lists(polys(nm[1], 1, 3), min_size=nm[0], max_size=nm[0]))))
    def test_compose(self, case):
        m, p, subs = case
        R, *_ = gens(m)
        want = ring_compose(R, p, [to_ring(R, s) for s in subs])
        assert p.compose(subs) == from_ring(m, want)

    @RING_SETTINGS
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(polys(n, 2), min_size=1, max_size=3),
        st.lists(polys(n, 1, 3), min_size=n, max_size=n))))
    def test_field_composition(self, case):
        comps, subs = case
        n = len(subs)
        R, *_ = gens(n)
        ring_subs = [to_ring(R, s) for s in subs]
        got = PolyField(comps).compose(subs)
        assert got.components == tuple(from_ring(n, ring_compose(R, p, ring_subs))
                                       for p in comps)

    @RING_SETTINGS
    @given(st.integers(1, 2).flatmap(lambda c: st.tuples(
        st.just(c), st.lists(polys(c + 1, 1, 3), min_size=c, max_size=c))))
    def test_iterates_carry_parameters(self, case):
        # one parameter variable rides along at index 0, the coordinates follow
        c, comps = case
        n = c + 1
        R, *xs = gens(n)
        V = [to_ring(R, p) for p in comps]
        V2 = [ring_compose(R, p, [xs[0], *V]) for p in comps]
        iterates = poly_iterates(PolyField(comps), range(1, n))
        for want in (V, V2):
            assert next(iterates).components == tuple(from_ring(n, P) for P in want)

    @RING_SETTINGS
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(polys(n), polys(n))))
    def test_divide_exact(self, case):
        q, g = case
        assume(g.degree() >= 1)
        assert divide_exact(q * g, g) == q
        assert divide_exact(q * g + 1, g) is None


# ----- term order: the packed keys against the exponent tuples -----

class TestTermOrder:
    @RING_SETTINGS
    @given(st.integers(0, 3).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
        st.tuples(*[st.integers(0, 5)] * n), NONZERO, max_size=6))))
    def test_terms_round_trip_in_order(self, case):
        n, terms = case
        got = RationalPoly(n, terms).terms
        assert list(got.items()) == list(terms.items())
        assert all(type(e) is tuple and type(c) is Fraction for e, c in got.items())
        with pytest.raises(TypeError):
            got[(0,) * n] = Fraction(1)

    @RING_SETTINGS
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.tuples(*[st.integers(0, 4)] * n), NONZERO), max_size=6))))
    def test_text_and_leading_term_follow_graded_lex(self, case):
        n, monomials = case
        p = sum((RationalPoly.monomial(n, c, e) for e, c in monomials), RationalPoly.zero(n))
        grlex = sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
        text = " + ".join("*".join([str(c), *(f"x{i}^{e}" for i, e in enumerate(exps) if e)])
                          for exps, c in grlex)
        assert p.to_text() == (text or "0")
        if grlex:
            assert p.leading_term() == grlex[0]
            assert p.degree() == sum(grlex[0][0])
