"""Property tests: the overflow policy on every evaluation path, the
closed-form model iterates against brute-force iteration, batched
potentials and closed-form checks against one point at a time, the integer
rational kernels against plain Fraction loops, exact verdicts on affine
and small polynomial fields against sampled ones, the polynomial text
form, and stacked FedAvg rounds against a per-client round loop."""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield.conservatism import DEFAULT_THRESHOLD, SamplingConfig, scan_k
from iterfield.fedavg import FedAvgConfig, QuadraticClient, run_fedavg
from iterfield.fields import (Affine, ChainProduct, CoordWise1D, GdMap, Iterate, Linear,
                              NonFiniteValueError, PolyExact, ScalarMap, compose, gd_map,
                              jacobian)
from iterfield import rationals
from iterfield.glm import (GlmSpec, closed_form_deviation, glm_gradient, iterated_glm,
                           iterated_glm_gd, surrogate_potential, surrogate_potentials)
from iterfield.polynomials import PolyField, RationalPoly, parse_poly
from iterfield.quadrature import QuadratureError

ACTIVATIONS = ("exp", "logistic", "quadratic")
WIDE = st.floats(-1e3, 1e3, allow_nan=False)
SETTINGS = settings(max_examples=60, deadline=None)


def finite_or_nonfinite_error(fn, refusals=()):
    """fn() is finite or raises NonFiniteValueError (or one of
    ``refusals``); any other error fails."""
    try:
        value = fn()
    except (NonFiniteValueError, *refusals):
        return
    assert np.all(np.isfinite(value))


def wide_fields(activation, k):
    spec = GlmSpec([[0.8, 0.0], [0.0, 1.3]], activation)
    grad = glm_gradient(spec)
    coordwise = CoordWise1D([ScalarMap("exp", math.exp, math.exp)] * 2)
    return spec, coordwise, [grad, iterated_glm(spec, k), iterated_glm_gd(spec, 0.4, k),
                             coordwise, gd_map(grad, 0.4), compose(grad, coordwise),
                             compose(iterated_glm(spec, k), gd_map(coordwise, 0.1))]


class TestOverflowPolicy:
    @SETTINGS
    @given(st.sampled_from(ACTIVATIONS), st.integers(1, 4), WIDE, WIDE)
    def test_fields_and_jacobians(self, activation, k, a, b):
        x = [a, b]
        _, _, fields = wide_fields(activation, k)
        for field in fields:
            finite_or_nonfinite_error(lambda: field(x))
            finite_or_nonfinite_error(lambda: jacobian(field, x))
        finite_or_nonfinite_error(lambda: jacobian(Iterate(fields[0], k), x, ChainProduct()))

    @SETTINGS
    @given(st.sampled_from(ACTIVATIONS), st.integers(1, 3), WIDE, WIDE)
    def test_potentials(self, activation, k, a, b):
        # QuadratureError is the integrator refusing an interval that would
        # need more than its 10^4-subinterval cap, not an overflow
        x = [a, b]
        spec, coordwise, _ = wide_fields(activation, k)
        finite_or_nonfinite_error(lambda: surrogate_potential(spec, x, k), (QuadratureError,))
        finite_or_nonfinite_error(
            lambda: surrogate_potential(spec, x, k, "gd-iterate", gamma=0.4),
            (QuadratureError,))
        finite_or_nonfinite_error(lambda: coordwise.potential(x), (QuadratureError,))


def relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


class TestClosedForms:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ACTIVATIONS), st.integers(1, 3),
           st.integers(1, 4), st.floats(0.05, 1.0))
    def test_match_brute_iteration(self, seed, activation, m, k, gamma):
        rng = np.random.default_rng(seed)
        n = 3
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spec = GlmSpec(Q[:, :m].T * rng.uniform(0.2, 0.7, m)[:, None], activation)
        grad = glm_gradient(spec)
        x = rng.uniform(-1.0, 1.0, n)
        pairs = [(iterated_glm(spec, k), Iterate(grad, k)),
                 (iterated_glm_gd(spec, gamma, k), Iterate(gd_map(grad, gamma), k))]
        for closed, brute in pairs:
            assert relative_gap(closed(x), brute(x)) <= 1e-9
            assert relative_gap(jacobian(closed, x),
                                jacobian(brute, x, ChainProduct())) <= 1e-9


# ----- batches: one point at a time is the reference -----

def random_orthogonal_spec(rng, activation, m, n=3):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return GlmSpec(Q[:, :m].T * rng.uniform(0.2, 0.7, m)[:, None], activation)


def loop_closed_form_deviation(spec, points, k_max, gamma=None):
    """closed_form_deviation one point and one k at a time, through the
    per-point closed forms and brute-force iteration."""
    grad = glm_gradient(spec)
    pairs = [(grad, lambda k: iterated_glm(spec, k))]
    if gamma is not None:
        pairs.append((gd_map(grad, gamma), lambda k: iterated_glm_gd(spec, gamma, k)))
    worst = 0.0
    for brute, closed in pairs:
        for x in points:
            ref = x
            for k in range(1, k_max + 1):
                ref = brute(ref)
                dev = np.linalg.norm(closed(k)(x) - ref) / max(1.0, np.linalg.norm(ref))
                worst = max(worst, float(dev))
    return worst


class TestBatches:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ACTIVATIONS), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from(("grad-iterate", "gd-iterate")),
           st.integers(1, 8))
    def test_potential_in_a_batch_is_its_potential_alone(self, seed, activation, m, k,
                                                         mode, count):
        rng = np.random.default_rng(seed)
        spec = random_orthogonal_spec(rng, activation, m)
        points = rng.uniform(-1.0, 1.0, (count, 3))
        batch = surrogate_potentials(spec, points, k, mode, 0.4)
        alone = np.array([surrogate_potential(spec, x, k, mode, 0.4) for x in points])
        assert batch.tobytes() == alone.tobytes()
        assert surrogate_potentials(spec, points[::-1], k, mode, 0.4).tobytes() \
            == batch[::-1].tobytes()

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ACTIVATIONS), st.integers(1, 3),
           st.integers(1, 5), st.one_of(st.none(), st.floats(0.05, 1.0)), st.integers(1, 12))
    def test_closed_form_deviation_matches_point_loop(self, seed, activation, m, k_max,
                                                      gamma, count):
        rng = np.random.default_rng(seed)
        spec = random_orthogonal_spec(rng, activation, m)
        points = rng.standard_normal((count, 3))
        points /= np.maximum(1.0, np.linalg.norm(points, axis=1))[:, None]
        got = closed_form_deviation(spec, points, k_max, gamma)
        assert abs(got - loop_closed_form_deviation(spec, points, k_max, gamma)) <= 1e-15


# ----- model products: the per-direction loops they replaced are the reference -----

def loop_gradient(spec, x):
    out = np.zeros(spec.dimension)
    for z in spec.directions:
        out += spec.activation.deriv(float(x @ z)) * z
    return out


def loop_gradient_jacobian(spec, x):
    J = np.zeros((spec.dimension, spec.dimension))
    for z in spec.directions:
        J += spec.activation.second(float(x @ z)) * np.outer(z, z)
    return J


def loop_closed_form(spec, x, k, gamma=None):
    """iterated_glm (or, given gamma, iterated_glm_gd) one direction at a time."""
    deriv = spec.activation.deriv
    out = np.array(x, dtype=float) if gamma is not None else np.zeros(spec.dimension)
    for z in spec.directions:
        w, s, total = float(z @ z), float(x @ z), 0.0
        for _ in range(k):
            v = deriv(s)
            total += v
            s = w * v if gamma is None else s - gamma * w * v
        out += v * z if gamma is None else -gamma * total * z
    return out


class TestModelProducts:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ACTIVATIONS), st.integers(1, 3),
           st.integers(1, 3))
    def test_match_per_direction_loops(self, seed, activation, m, k):
        # one Z @ x and one product per output move the last digits only
        rng = np.random.default_rng(seed)
        n = 3
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spec = GlmSpec(Q[:, :m].T * rng.uniform(0.2, 0.7, m)[:, None], activation)
        x = rng.uniform(-1.0, 1.0, n)
        grad = glm_gradient(spec)
        J = jacobian(grad, x)
        assert np.array_equal(J, J.T)
        assert relative_gap(J, loop_gradient_jacobian(spec, x)) <= 1e-13
        assert relative_gap(grad(x), loop_gradient(spec, x)) <= 1e-13
        assert relative_gap(iterated_glm(spec, k)(x), loop_closed_form(spec, x, k)) <= 1e-12
        assert relative_gap(iterated_glm_gd(spec, 0.4, k)(x),
                            loop_closed_form(spec, x, k, 0.4)) <= 1e-12


# ----- rational kernels: the plain Fraction loops they replaced are the reference -----

def reference_mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def reference_mat_vec(A, v):
    return [sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A))]


def reference_solve_linear(A, b):
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise rationals.SingularMatrixError(f"matrix is singular (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


ENTRIES = {
    "integer": st.integers(-9, 9).map(Fraction),
    "0.1-step": st.integers(-50, 50).map(lambda i: Fraction(i, 10)),
    "float": st.floats(-4.0, 4.0, allow_nan=False).map(Fraction),
    # denominators that do not divide one another
    "rational": st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
}


@st.composite
def square_systems(draw):
    """(A, B, v) of one size n = 1..8 and one entry kind, with zeros common
    enough to force row swaps; about half of the A are made singular by a
    zero column or a row that is a multiple of another."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(Fraction(0)), ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))])
    A, B = ([[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(2))
    v = [draw(entry) for _ in range(n)]
    singular = draw(st.sampled_from(("none", "zero-column", "dependent-row")))
    if singular == "zero-column":
        j = draw(st.integers(0, n - 1))
        for row in A:
            row[j] = Fraction(0)
    elif singular == "dependent-row" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(entry)
        A[j] = [c * x for x in A[i]]
    return A, B, v


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except rationals.SingularMatrixError as err:
        return type(err), str(err)


KERNEL_SETTINGS = settings(max_examples=100, deadline=None)


class TestRationalKernels:
    @KERNEL_SETTINGS
    @given(square_systems())
    def test_mat_mul(self, system):
        A, B, _ = system
        got = rationals.mat_mul(A, B)
        assert got == reference_mat_mul(A, B)
        assert all(isinstance(x, Fraction) for row in got for x in row)

    @KERNEL_SETTINGS
    @given(square_systems())
    def test_solve_linear(self, system):
        A, _, b = system
        got = outcome(rationals.solve_linear, A, b)
        assert got == outcome(reference_solve_linear, A, b)
        if got[0] == "value":
            assert reference_mat_vec(A, got[1]) == b


# ----- exact verdicts against sampled ones -----

@st.composite
def small_affine_fields(draw):
    """Linear or Affine fields with integer entries in [-3, 3], n = 1-3."""
    n = draw(st.integers(1, 3))
    entries = st.integers(-3, 3)
    A = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        return Linear(A)
    return Affine(A, draw(st.lists(entries, min_size=n, max_size=n)))


@st.composite
def small_polynomial_fields(draw):
    """PolyExact fields on n = 2-3 variables, each component of degree <= 3
    with integer coefficients in [-3, 3]; half are gradients of a quartic
    potential, which are conservative at k = 1."""
    n = draw(st.integers(2, 3))
    monomials = [e for e in itertools.product(range(5), repeat=n) if sum(e) <= 3]
    polys = st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3), max_size=4)
    if draw(st.booleans()):
        field = PolyField(RationalPoly(n, draw(polys)) for _ in range(n))
    else:
        potential = st.dictionaries(
            st.sampled_from([e for e in itertools.product(range(5), repeat=n) if sum(e) <= 4]),
            st.integers(-3, 3), max_size=5)
        field = PolyField.gradient_of(RationalPoly(n, draw(potential)))
    return PolyExact(field)


class TestExactAgreesWithNumeric:
    @staticmethod
    def agree(field, k_max):
        """Every exact verdict up to k_max equals the sampled one; a
        residual within 100x of the threshold could read either way."""
        exact = scan_k(field, k_max)
        numeric = scan_k(field, k_max, mode="numeric",
                         sampling=SamplingConfig(count=5, seed=0))
        for (k, e), (_, v) in zip(exact.entries, numeric.entries, strict=True):
            assert e.exact and not v.exact
            if DEFAULT_THRESHOLD / 100 < v.residual < DEFAULT_THRESHOLD * 100:
                continue
            assert e.is_yes == v.is_yes, (k, e, v)

    @SETTINGS
    @given(small_affine_fields(), st.integers(1, 5))
    def test_linear_and_affine(self, field, k_max):
        # entries of A^k stay below 2^53, so the chain products are exact
        self.agree(field, k_max)

    @settings(max_examples=150, deadline=None)
    @given(small_polynomial_fields(), st.integers(1, 2))
    def test_small_polynomial_fields(self, field, k_max):
        self.agree(field, k_max)


# ----- the polynomial text form -----

@st.composite
def rational_polys(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
    return RationalPoly(nvars, draw(st.dictionaries(exps, coeffs, max_size=6)))


class TestPolyText:
    @SETTINGS
    @given(rational_polys())
    def test_parse_inverts_render(self, p):
        assert parse_poly(p.to_text(), p.nvars) == p


# ----- stacked FedAvg rounds against a per-client round loop -----

@st.composite
def quadratic_configs(draw):
    """All-quadratic FedAvg runs: m = 1-6 clients, n = 1-5, k = 1-5, float
    SPD matrices or small-integer PSD ones (B B^T, entries of B in [-2, 2]);
    the larger steps make some runs overflow."""
    m, n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clients = []
    for _ in range(m):
        if integer:
            B = rng.integers(-2, 3, (n, n))
            clients.append(QuadraticClient(B @ B.T, rng.integers(-3, 4, n)))
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            A = Q @ np.diag(rng.uniform(0.1, 3.0, n)) @ Q.T
            clients.append(QuadraticClient((A + A.T) / 2, rng.uniform(-2, 2, n)))
    gamma = draw(st.sampled_from([0.05, 0.25, 0.5, 1.0, 1.5, 4.0]))
    eta = draw(st.sampled_from([1.0, 0.5, 1.5]))
    return FedAvgConfig(clients, gamma=gamma, eta=eta, k=k, rounds=200,
                        x0=rng.uniform(-3, 3, n))


def per_client_rounds(config):
    """Server iterates from one map per client, evaluated client by client:
    its exact k-step form rounded once (its k-step walk when an entry
    overflows a float), outputs accumulated in client order.  Returns the
    iterates and what ended the run early: "model" or "iterate" when one
    became non-finite, else None."""
    maps = []
    for c in config.clients:
        walk = Iterate(GdMap(c.gradient_field(), config.gamma), config.k)
        A, b = walk.as_affine()
        try:
            A = [[float(x) for x in row] for row in A]
            maps.append(Affine(A, rationals.to_float_vector(b)))
        except OverflowError:
            maps.append(walk)
    m = len(maps)
    xs = [config.x0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.rounds):
            x = xs[-1]
            try:
                ys = [f(x) for f in maps]
            except NonFiniteValueError:
                return np.array(xs), "model"
            v = np.zeros_like(x)
            for y in ys:
                v += (1.0 / m) * (x - y)
            x_next = x - config.eta * v
            if not np.isfinite(x_next).all():
                return np.array(xs), "iterate"
            xs.append(x_next)
    return np.array(xs), None


class TestStackedFedAvg:
    @SETTINGS
    @given(quadratic_configs())
    def test_matches_per_client_rounds(self, config):
        trace = run_fedavg(config)
        reference, stop = per_client_rounds(config)
        assert trace.rounds_completed == len(reference) - 1
        if stop is None:
            assert trace.note is None
        else:
            assert ("produced a non-finite value" if stop == "model"
                    else "iterate became non-finite") in trace.note
        gap = np.abs(trace.xs - reference).max(axis=1)
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(reference).max(axis=1)))
