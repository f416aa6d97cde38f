"""Federated averaging as iteration of the server vector field.

Each round, every client runs k local gradient-descent steps and the
server moves against the averaged model delta with step eta.  The server
update is exactly iteration of x -> x - eta * V_s(x) for the server field
V_s, so when the per-client iterated descent maps are gradient fields the
whole algorithm is gradient descent on a surrogate loss, and the
classical rates can be checked round by round.

Clients are always averaged in ascending index order: the mathematical
average is order-free, fixed order makes the floats reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rationals
from .conservatism import SamplingConfig, Verdict, check_numeric
from .fields import (Affine, Field, GdMap, Iterate, NonFiniteValueError, Sum,
                     as_matrix, as_vector)
from .glm import GlmSpec, glm_gradient, surrogate_potential
from .spectral import model_delta_field

FIXED_POINT_TOL = 1e-12
FIXED_POINT_CAP = 10**6
RATE_SLACK = 1e-9
EQUIVALENCE_TOL = 1e-12


class HyperparameterError(ValueError):
    """The run's hyperparameters are outside what the requested check assumes."""


class SurrogateUnavailableError(RuntimeError):
    pass


class ConvergenceError(RuntimeError):
    pass


class QuadraticClient:
    """Loss 0.5 (x - b)^T A (x - b) with symmetric positive semi-definite A."""

    def __init__(self, matrix, center, label: str = ""):
        A = as_matrix(matrix)
        if float(np.max(np.abs(A - A.T))) > 1e-12:
            raise ValueError("quadratic client matrix must be symmetric")
        self.matrix = A
        self.center = as_vector(center, A.shape[0])
        self.label = label or f"quadratic({A.shape[0]}d)"

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def gradient_field(self) -> Field:
        return Affine(self.matrix, -self.matrix @ self.center)

    def loss(self, x) -> float:
        d = as_vector(x, self.dimension) - self.center
        return 0.5 * float(d @ self.matrix @ d)

    def smoothness_bound(self) -> float:
        return float(np.max(np.linalg.eigvalsh(self.matrix)))

    def describe(self) -> str:
        return f"quadratic(A={self.matrix.tolist()}, b={self.center.tolist()})"


class GlmClient:
    """Loss given by a generalized linear model spec."""

    def __init__(self, spec: GlmSpec, label: str = ""):
        self.spec = spec
        self.label = label or spec.describe()

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def gradient_field(self) -> Field:
        return glm_gradient(self.spec)

    def loss(self, x) -> float:
        x = as_vector(x, self.dimension)
        act = self.spec.activation
        try:
            total = float(sum(act.fn(float(x @ z)) for z in self.spec.directions))
        except OverflowError as err:
            raise NonFiniteValueError(f"{self.label} loss overflowed at x={x.tolist()}") from err
        if not math.isfinite(total):
            raise NonFiniteValueError(f"{self.label} loss is {total} at x={x.tolist()}")
        return total

    def smoothness_bound(self) -> float:
        bound = self.spec.activation.curvature_bound
        if bound is None:
            raise ValueError(
                f"activation {self.spec.activation.name!r} has no curvature bound")
        return bound * float(np.max(self.spec.norms_squared()))

    def describe(self) -> str:
        return self.spec.describe()


def build_server_field_only(clients, gamma: float, k: int) -> Field:
    dims = {c.dimension for c in clients}
    if len(dims) != 1:
        raise ValueError(f"clients disagree on dimension: {sorted(dims)}")
    deltas = [model_delta_field(c.gradient_field(), gamma, k) for c in clients]
    return Sum(deltas, weights=[1.0 / len(deltas)] * len(deltas))


@dataclass
class ServerFieldInfo:
    field: Field
    dimension: int
    conservatism: Verdict
    surrogate_available: bool

    def to_dict(self):
        return {"dimension": self.dimension,
                "conservatism": self.conservatism.to_dict(),
                "surrogate_available": self.surrogate_available}


def _surrogate_available(clients) -> bool:
    if all(isinstance(c, QuadraticClient) for c in clients):
        return True
    return all(isinstance(c, GlmClient) and c.spec.orthogonal for c in clients)


def build_server_field(clients, gamma: float, k: int,
                       sampling: SamplingConfig | None = None) -> ServerFieldInfo:
    """Average of the clients' model-delta fields, plus sampled evidence
    that the average is itself a gradient field."""
    if not clients:
        raise ValueError("need at least one client")
    if not (gamma > 0) or k < 1:
        raise ValueError("need gamma > 0 and k >= 1")
    field = build_server_field_only(clients, gamma, k)
    verdict = check_numeric(field, 1, sampling or SamplingConfig())
    return ServerFieldInfo(field, field.dimension, verdict,
                           _surrogate_available(clients))


@dataclass
class FedAvgConfig:
    clients: list
    gamma: float
    eta: float
    k: int
    rounds: int
    x0: object
    seed: int = 0
    mode: str | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if not self.clients:
            raise ValueError("need at least one client")
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if not (self.eta > 0):
            raise ValueError("eta must be positive")
        if self.k < 1 or self.rounds < 1:
            raise ValueError("need k >= 1 and rounds >= 1")
        dims = {c.dimension for c in self.clients}
        if len(dims) != 1:
            raise ValueError(f"clients disagree on dimension: {sorted(dims)}")
        self.x0 = as_vector(self.x0, self.clients[0].dimension)


@dataclass
class FedAvgTrace:
    """Per-round server iterates with oracle distances when available.

    xs has rounds+1 entries including the start point.  dists, ratios and
    fs are None when no fixed point or surrogate is available; ratios are
    NaN on rounds whose distance is below resolution or past float range.
    """

    config: FedAvgConfig
    xs: np.ndarray
    server_values: np.ndarray
    dists: np.ndarray | None = None
    ratios: np.ndarray | None = None
    fs: np.ndarray | None = None
    fs_star: float | None = None
    fixed_point: np.ndarray | None = None
    fixed_point_method: str | None = None
    note: str | None = None

    @property
    def rounds_completed(self) -> int:
        return self.xs.shape[0] - 1


def _affine_server_parts(clients, gamma: float, k: int):
    """(M, v) with V_s(x) = M x + v, exact rationals; quadratic clients only."""
    field = build_server_field_only(clients, gamma, k)
    affine = field.as_affine()
    if affine is None:
        raise SurrogateUnavailableError("server field is not affine")
    return affine


def oracle_fixed_point(clients, gamma: float, k: int, x0=None,
                       tol: float = FIXED_POINT_TOL,
                       max_iterations: int = FIXED_POINT_CAP):
    """Zero of the server field.

    All-quadratic clients get the exact affine solve of M x = -v; anything
    else is refined iteratively with the unit-step server recursion until
    the field norm drops below tol.  Returns (point, method).
    """
    if all(isinstance(c, QuadraticClient) for c in clients):
        M, v = _affine_server_parts(clients, gamma, k)
        try:
            solution = rationals.solve_linear(M, [-x for x in v])
        except rationals.SingularMatrixError as err:
            cond = float(np.linalg.cond(rationals.to_float_matrix(M)))
            raise rationals.SingularMatrixError(
                f"{err}; float condition estimate {cond:.3e}") from err
        return rationals.to_float_vector(solution), "affine-solve"
    field = build_server_field_only(clients, gamma, k)
    return _descend(field, 1.0, x0, tol, max_iterations), "iterative"


def _descend(field: Field, step: float, x0=None, tol: float = FIXED_POINT_TOL,
             max_iterations: int = FIXED_POINT_CAP) -> np.ndarray:
    """Iterate x -> x - step * field(x) from x0 (default 0) until |field(x)| <= tol."""
    x = np.zeros(field.dimension) if x0 is None else as_vector(x0, field.dimension)
    for _ in range(max_iterations):
        v = field(x)
        if float(np.linalg.norm(v)) <= tol:
            return x
        x = x - step * v
        if float(np.linalg.norm(x)) > 1e12:
            raise ConvergenceError("fixed-point iteration diverged")
    raise ConvergenceError(
        f"fixed-point iteration did not reach {tol:g} within {max_iterations} steps")


def _oracle_eligible(clients) -> bool:
    """Families where the automatic fixed-point hunt makes sense: exact
    affine solves, or models whose curvature is bounded (a minimizer is at
    least plausible and the iteration cannot run away silently)."""
    if all(isinstance(c, QuadraticClient) for c in clients):
        return True
    return all(isinstance(c, GlmClient)
               and c.spec.activation.curvature_bound is not None
               for c in clients)


def server_surrogate(clients, gamma: float, k: int):
    """Scalar function f_s with grad f_s equal to the server field.

    Quadratic clients have the closed form 0.5 (x-b)^T (I - B) (x-b)
    per client with B the k-th descent-matrix power; orthogonal model
    clients integrate their per-direction scalar recursions.  Constants
    are fixed so each client's term vanishes where its own delta does.
    """
    if all(isinstance(c, QuadraticClient) for c in clients):
        parts = []
        for c in clients:
            n = c.dimension
            B = np.linalg.matrix_power(np.eye(n) - gamma * c.matrix, k)
            parts.append((np.eye(n) - B, c.center))

        def f_quad(x):
            x = np.asarray(x, dtype=float)
            total = 0.0
            for (Q, b) in parts:
                d = x - b
                total += 0.5 * float(d @ Q @ d)
            return total / len(parts)

        return f_quad
    if all(isinstance(c, GlmClient) and c.spec.orthogonal for c in clients):
        specs = [c.spec for c in clients]

        def f_glm(x):
            total = 0.0
            for spec in specs:
                total += gamma * surrogate_potential(spec, x, k, "gd-iterate", gamma)
            return total / len(specs)

        return f_glm
    raise SurrogateUnavailableError(
        "surrogate needs all-quadratic or all-orthogonal-model clients")


def _lowered(field: Field) -> Field:
    """The field as one float Affine, its exact (A, b) rounded once, so a
    round costs one matvec instead of k nested steps; the field itself when
    it has no affine form or an entry overflows a float."""
    affine = field.as_affine()
    if affine is None:
        return field
    try:
        return Affine(rationals.to_float_matrix(affine[0]),
                      rationals.to_float_vector(affine[1]))
    except OverflowError:
        return field


def _distance(p: np.ndarray, q: np.ndarray) -> float:
    """|p - q|, rescaled by its largest entry when the sum of squares
    overflows (as ``asymmetry`` does), so it is inf only past float range.
    The caller silences numpy's overflow warnings."""
    d = p - q
    dist = float(np.linalg.norm(d))
    if math.isinf(dist) and np.isfinite(d).all():
        scale = float(np.max(np.abs(d)))
        dist = scale * float(np.linalg.norm(d / scale))
    return dist


@np.errstate(over="ignore", invalid="ignore")
def run_fedavg(config: FedAvgConfig) -> FedAvgTrace:
    """Iterate the server update for the configured number of rounds.

    With eta = 1 every round is verified against the plain model-average
    recursion, which the delta update must reproduce to 1e-12 times
    max(1, |model average|_inf).  A non-finite iterate truncates the trace
    with a diagnostic instead of poisoning it, and numpy's overflow
    warnings are off for the whole run.  A client map with an exact
    affine form runs as one float operator (see ``_lowered``), and the
    surrogate is evaluated once per distinct iterate.
    """
    clients = config.clients
    client_maps = [_lowered(Iterate(GdMap(c.gradient_field(), config.gamma), config.k))
                   for c in clients]
    weight = 1.0 / len(client_maps)
    n = config.x0.shape[0]
    xs = [np.array(config.x0, dtype=float)]
    values = []
    note = None
    x = xs[0]
    for t in range(config.rounds):
        try:
            # One evaluation of each client map feeds both the server field
            # mean(x - y_c) and the model average mean(y_c).
            ys = [cm(x) for cm in client_maps]
            v = np.zeros(n)
            for y in ys:
                v += weight * (x - y)
            x_next = x - config.eta * v
            if not np.isfinite(x_next).all():
                raise NonFiniteValueError(f"iterate became non-finite at round {t + 1}")
            if config.eta == 1.0:
                avg = np.zeros(n)
                for y in ys:
                    avg += y
                avg /= len(ys)
                gap = float(np.max(np.abs((x - v) - avg)))
                if gap > EQUIVALENCE_TOL * max(1.0, float(np.max(np.abs(avg)))):
                    raise RuntimeError(
                        f"delta update and model average disagree by {gap:.3e} at round {t}")
            x = x_next
        except NonFiniteValueError as err:
            note = f"trace truncated at round {t}: {err}"
            break
        values.append(v)
        xs.append(x)
    trace = FedAvgTrace(config, np.array(xs), np.array(values) if values else np.zeros((0, n)),
                        note=note)

    fixed_point, method = None, None
    if _oracle_eligible(clients):
        try:
            fixed_point, method = oracle_fixed_point(clients, config.gamma, config.k)
        except (ConvergenceError, NonFiniteValueError, rationals.SingularMatrixError):
            fixed_point, method = None, None
    if fixed_point is not None:
        trace.fixed_point = fixed_point
        trace.fixed_point_method = method
        dists = np.array([_distance(p, fixed_point) for p in trace.xs])
        ratios = np.full(max(len(dists) - 1, 0), np.nan)
        for t in range(len(ratios)):
            if 1e-10 < dists[t] < math.inf and dists[t + 1] < math.inf:
                ratios[t] = dists[t + 1] / dists[t]
        trace.dists = dists
        trace.ratios = ratios
    if _surrogate_available(clients):
        f_s = server_surrogate(clients, config.gamma, config.k)
        # Converged rounds repeat the same float point: one evaluation
        # per distinct iterate, keyed by its bytes.
        f_at = functools.cache(lambda key: f_s(np.frombuffer(key)))
        trace.fs = np.array([f_at(p.tobytes()) for p in trace.xs])
        if fixed_point is not None:
            trace.fs_star = float(f_at(fixed_point.tobytes()))
    return trace


def closed_form_affine_trace(clients, config: FedAvgConfig) -> np.ndarray:
    """Iterates of the affine recursion x -> x - eta (M x + v) in closed form.

    Float reference for all-quadratic configurations; used to cross-check
    the simulated trace.
    """
    M, v = _affine_server_parts(clients, config.gamma, config.k)
    Mf, vf = rationals.to_float_matrix(M), rationals.to_float_vector(v)
    n = Mf.shape[0]
    step = np.eye(n) - config.eta * Mf
    xs = [np.array(config.x0, dtype=float)]
    for _ in range(config.rounds):
        xs.append(step @ xs[-1] - config.eta * vf)
    return np.array(xs)


@dataclass
class RateReport:
    mode: str
    rho: float | None
    bounds: list[float]
    observed: list[float]
    margins: list[float]
    worst_margin: float
    passed: bool

    def to_dict(self):
        return {"mode": self.mode, "rho": self.rho, "pass": self.passed,
                "worst_margin": self.worst_margin,
                "bounds": self.bounds, "observed": self.observed}


def verify_rate(trace: FedAvgTrace, alpha: float, beta: float, k: int,
                mode: str = "strongly-convex") -> RateReport:
    """Check the per-round convergence guarantee against the trace.

    strongly-convex: distances contract at least as fast as
    rho^(k t) with rho = (beta-alpha)/(beta+alpha); requires the run to
    have used gamma = 2/(alpha+beta) and eta = 1.  convex: surrogate
    suboptimality is below |x0 - x*|^2 / (2 t); requires gamma = 1/beta
    and eta = 1.  Anything else is refused rather than verified
    vacuously.
    """
    config = trace.config
    if k != config.k:
        raise HyperparameterError(f"trace used k={config.k}, not {k}")
    if config.eta != 1.0:
        raise HyperparameterError(f"rate guarantees assume eta=1, trace used {config.eta}")
    if mode == "strongly-convex":
        if not (0 < alpha <= beta):
            raise ValueError("need 0 < alpha <= beta")
        expected = 2.0 / (alpha + beta)
        if abs(config.gamma - expected) > 1e-12 * max(1.0, expected):
            raise HyperparameterError(
                f"strongly-convex rate assumes gamma=2/(alpha+beta)={expected}, "
                f"trace used {config.gamma}")
        if trace.dists is None:
            raise ValueError("trace has no oracle distances")
        rho = (beta - alpha) / (beta + alpha)
        d0 = float(trace.dists[0])
        bounds, observed, margins = [], [], []
        for t in range(len(trace.dists)):
            bound = (rho ** (k * t)) * d0 + RATE_SLACK
            bounds.append(bound)
            observed.append(float(trace.dists[t]))
            margins.append(bound - float(trace.dists[t]))
        worst = min(margins)
        return RateReport(mode, rho, bounds, observed, margins, worst, worst >= 0.0)
    if mode == "convex":
        if not (beta > 0):
            raise ValueError("need beta > 0")
        expected = 1.0 / beta
        if abs(config.gamma - expected) > 1e-12 * max(1.0, expected):
            raise HyperparameterError(
                f"convex rate assumes gamma=1/beta={expected}, trace used {config.gamma}")
        if trace.fs is None or trace.fs_star is None or trace.dists is None:
            raise ValueError("trace has no surrogate values or fixed point")
        d0sq = float(trace.dists[0]) ** 2
        bounds, observed, margins = [], [], []
        for t in range(1, len(trace.fs)):
            bound = d0sq / (2.0 * t) + RATE_SLACK
            gap = float(trace.fs[t]) - trace.fs_star
            bounds.append(bound)
            observed.append(gap)
            margins.append(bound - gap)
        worst = min(margins) if margins else 0.0
        return RateReport(mode, None, bounds, observed, margins, worst, worst >= 0.0)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class MinimizerComparison:
    surrogate_minimizer: np.ndarray
    average_minimizer: np.ndarray
    distance: float
    surrogate_method: str
    average_method: str

    def to_dict(self):
        return {"surrogate_minimizer": self.surrogate_minimizer.tolist(),
                "average_minimizer": self.average_minimizer.tolist(),
                "distance": self.distance,
                "surrogate_method": self.surrogate_method,
                "average_method": self.average_method}


def compare_minimizers(clients, gamma: float, k: int, x0=None) -> MinimizerComparison:
    """The server's limit point versus the minimizer of the plain average loss.

    They coincide at k = 1 (the algorithm is then gradient descent on the
    average) and can differ for k > 1; this reports both points and their
    distance without judging the gap.
    """
    x_s, method_s = oracle_fixed_point(clients, gamma, k, x0=x0)
    if all(isinstance(c, QuadraticClient) for c in clients):
        n = clients[0].dimension
        A_sum = rationals.zeros_matrix(n)
        rhs = rationals.zeros_vector(n)
        for c in clients:
            A = rationals.fraction_matrix(c.matrix)
            b = rationals.fraction_vector(c.center)
            A_sum = rationals.mat_add(A_sum, A)
            rhs = rationals.vec_add(rhs, rationals.mat_vec(A, b))
        x_star = rationals.to_float_vector(rationals.solve_linear(A_sum, rhs))
        method_star = "affine-solve"
    else:
        fields = [c.gradient_field() for c in clients]
        avg_grad = Sum(fields, weights=[1.0 / len(fields)] * len(fields))
        x_star, method_star = _descend(avg_grad, gamma, x0), "iterative"
    return MinimizerComparison(np.asarray(x_s), np.asarray(x_star),
                               float(np.linalg.norm(np.asarray(x_s) - np.asarray(x_star))),
                               method_s, method_star)
