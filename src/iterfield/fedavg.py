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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import IterfieldError, rationals
from .fields import (Affine, Compose, Field, GdMap, Iterate, Linear, NonFiniteValueError,
                     Sum, _require_count, as_matrix, as_vector)
from .glm import GlmGradient, GlmGradientStack, GlmSpec, glm_gradient, surrogate_potentials

if TYPE_CHECKING:
    from .conservatism import SamplingConfig, Verdict

FIXED_POINT_TOL = 1e-12
FIXED_POINT_CAP = 10**6
# The fixed-point hunt measures its contraction rate over this many steps.
FIXED_POINT_WINDOW = 1000
RATE_SLACK = 1e-9
EQUIVALENCE_TOL = 1e-12
# A quadratic client's matrix is a set of small rationals, kept exact, when
# no entry's denominator exceeds this; floats drawn at random exceed it.
SMALL_DENOMINATOR = 2**16


class HyperparameterError(IterfieldError, ValueError):
    """The run's hyperparameters are outside what the requested check assumes."""


class SurrogateUnavailableError(IterfieldError, RuntimeError):
    pass


class ConvergenceError(IterfieldError, RuntimeError):
    pass


class QuadraticClient:
    """Loss 0.5 (x - b)^T A (x - b) with symmetric positive semi-definite A.

    The client keeps read-only copies of A and b, so the descent maps it
    memoises (``_exact_form``, ``_float_map``) stay valid and the caller's
    arrays are never shared.  A matrix of small rationals (every entry's
    denominator, as ``float.as_integer_ratio`` reads it, at most
    SMALL_DENOMINATOR) is handled exactly; any other, such as a
    float-drawn matrix, is ``float_entered`` and handled in floats.
    """

    def __init__(self, matrix, center, label: str = ""):
        A = as_matrix(matrix)
        if float(np.max(np.abs(A - A.T))) > 1e-12:
            raise ValueError("quadratic client matrix must be symmetric")
        self.matrix = A.copy()
        self.center = as_vector(center, A.shape[0]).copy()
        self.matrix.flags.writeable = False
        self.center.flags.writeable = False
        self.label = label or f"quadratic({A.shape[0]}d)"
        self.float_entered = any(x.as_integer_ratio()[1] > SMALL_DENOMINATOR
                                 for x in A.ravel().tolist())
        self._forms, self._maps = {}, {}

    def _exact_form(self, gamma: float, k: int):
        """The map of k descent steps of step gamma in ``rationals``'
        augmented integer form, in lowest terms: built on the first request
        for (gamma, k) and kept."""
        key = (float(gamma), int(k))
        if key not in self._forms:
            walk = Iterate(GdMap(self.gradient_field(), gamma), k)
            self._forms[key] = rationals.lowest_terms(walk._affine_form())
        return self._forms[key]

    def _float_map(self, gamma: float, k: int):
        """The map of k descent steps as floats (A_k, b_k), x -> A_k x + b_k,
        or None when an entry is not finite: the exact form rounded once
        (``_lowered``) for a small-rational matrix, k float descent steps
        (``_descent_map``) for a float-entered one.  Built on the first
        request for (gamma, k) and kept, read-only: the rounds, the
        oracle, the closed form and the minimizer comparison share it."""
        key = (float(gamma), int(k))
        if key not in self._maps:
            form = (_descent_map(self.matrix, self.center, gamma, k) if self.float_entered
                    else _lowered(self._exact_form(gamma, k)))
            for part in form or ():
                part.flags.writeable = False
            self._maps[key] = form
        return self._maps[key]

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
        """sup |sigma''| times the largest eigenvalue of Z^T Z, which bounds
        the Hessian Z^T diag(sigma'') Z in norm; max |z|^2 when the Gram
        matrix Z Z^T is exactly diagonal, where the two agree."""
        bound = self.spec.activation.curvature_bound
        if bound is None:
            raise ValueError(
                f"activation {self.spec.activation.name!r} has no curvature bound")
        if self.spec.gram_residual == 0.0:
            return bound * float(np.max(self.spec.norms_squared()))
        Z = self.spec.directions
        return bound * float(np.linalg.eigvalsh(Z.T @ Z)[-1])

    def describe(self) -> str:
        return self.spec.describe()


def _dimension(clients) -> int:
    dims = {c.dimension for c in clients}
    if len(dims) != 1:
        raise ValueError(f"clients disagree on dimension: {sorted(dims)}")
    return dims.pop()


def _check_steps(gamma: float, k: int, rounds: int = 1):
    """Refuse a step size or count no run takes: gamma must be finite and
    positive, and k and rounds counts as ``fields._require_count`` takes."""
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be finite and positive")
    _require_count("k", k)
    _require_count("rounds", rounds)


def build_server_field_only(clients, gamma: float, k: int) -> Field:
    from .spectral import model_delta_field
    _dimension(clients)
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
    from .conservatism import SamplingConfig, check_numeric
    if not clients:
        raise ValueError("need at least one client")
    _check_steps(gamma, k)
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
        _check_steps(self.gamma, self.k, self.rounds)
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be finite and positive")
        self.x0 = as_vector(self.x0, _dimension(self.clients))


@dataclass
class FedAvgTrace:
    """Per-round server iterates with oracle distances when available.

    xs has rounds+1 entries including the start point.  dists, ratios and
    fs are None when no fixed point or surrogate is available; ratios are
    NaN on rounds whose distance is below resolution or past float range.
    fixed_point_residual is |V_s(x*)|_inf through the rounds' own operator,
    on "float-solve" fixed points only (an exact solve has none).
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
    fixed_point_residual: float | None = None
    note: str | None = None

    @property
    def rounds_completed(self) -> int:
        return self.xs.shape[0] - 1


def _server_models(clients, gamma: float, k: int):
    """models(x): every client's model at x after its k local descent
    steps, an (m, n) array in client order; the rounds, the "float-solve"
    residual and the iterative oracle all read it.

    The models come in batches.  Every quadratic client with a finite float
    k-step map (``QuadraticClient._float_map``: its exact form rounded
    once, or k float descent steps for a float-entered matrix) is one block
    of a stacked (s n, n) operator, so one product gives all their models.
    The C-ordered ``GlmGradient`` clients that share an activation and a
    direction count, two or more, walk as one ``GlmGradientStack`` orbit
    whose blocks are bit-equal to their own walks.  When a batch raises,
    or a stacked row is not finite, its clients walk alone, in index order
    with every client no batch covers: a quadratic one as ``Affine`` of its
    map, any other its k descent steps.  So the first client that fails
    alone raises its own error and no later one walks.  A batch that covers
    every client, the common case, gives its rows with no copy.  x is a
    finite point of the right dimension, and the caller silences numpy's
    overflow warnings.
    """
    m, n = len(clients), _dimension(clients)
    alone, maps, stacks = [], {}, {}
    for i, c in enumerate(clients):
        form = c._float_map(gamma, k) if isinstance(c, QuadraticClient) else None
        if form is not None:
            maps[i] = form
            # an Affine is built only when the stack fails, to name the map
            alone.append(lambda x, form=form: Affine(*form)._evaluate(x))
            continue
        grad = c.gradient_field()
        alone.append(Iterate(GdMap(grad, gamma), k)._evaluate)
        if isinstance(grad, GlmGradient) and grad.spec.directions.flags.c_contiguous:
            stacks.setdefault((grad.spec.activation, grad.spec.n_directions), {})[i] = grad.spec
    batches = []
    if maps:
        A, b = (np.concatenate(parts) for parts in zip(*maps.values()))

        def stacked(x):
            rows = (A @ x + b).reshape(-1, n)
            if not np.isfinite(rows).all():
                raise NonFiniteValueError("a stacked quadratic model is not finite")
            return rows

        batches.append((list(maps), stacked))
    for members in stacks.values():
        if len(members) > 1:
            walk = Iterate(GdMap(GlmGradientStack(list(members.values())), gamma), k)
            batches.append((list(members), lambda x, walk=walk, s=len(members):
                            walk._evaluate(np.concatenate([x] * s)).reshape(s, n)))

    def models(x):
        done = {}
        for members, batch in batches:
            try:
                rows = batch(x)
            except Exception:  # any error: each member raises it again alone, in turn
                continue
            if len(members) == m:
                return rows
            done.update(zip(members, rows))
        ys = np.empty((m, n))
        for i in range(m):
            ys[i] = done[i] if i in done else alone[i](x)
        return ys

    return models


def _server_system(clients, gamma: float, k: int):
    """(P, r, d) with the server field V_s(x) = w (P x - r) / d exactly,
    w = 1.0/m as a Fraction; quadratic clients only.

    The clients' exact k-step forms G_c(x) = A_c x + b_c (kept on each
    client, see ``QuadraticClient._exact_form``) are summed in integer
    numerators over one denominator, sum A_c = N / d and sum b_c = r / d;
    then P = m d I - N, with no Fraction made.
    """
    if not all(isinstance(c, QuadraticClient) for c in clients):
        raise SurrogateUnavailableError("server field is not affine")
    N, r, d = rationals.affine_split(rationals.affine_combination(
        [(1, c._exact_form(gamma, k)) for c in clients]))
    m = len(clients)
    return [[(m * d if i == j else 0) - s for j, s in enumerate(row)]
            for i, row in enumerate(N)], r, d


def _affine_server_parts(clients, gamma: float, k: int):
    """(M, v) with V_s(x) = M x + v as floats; quadratic clients only.

    V_s averages x - G_c(x) with the weights of ``build_server_field_only``'s
    Sum (1 and -1 inside a client's delta, w = 1.0/m across clients, each
    the exact value of its float), so M = w (m I - sum A_c) and
    v = -w sum b_c are the rationals ``Sum.as_affine`` gives.  Each entry
    is the float nearest its rational, from ``_server_system``'s integers
    (int / int is correctly rounded, as float(Fraction) is).
    """
    P, r, d = _server_system(clients, gamma, k)
    wn, wd = rationals.ratio(1.0 / len(clients))
    den = wd * d
    return [[wn * p / den for p in row] for row in P], [-wn * x / den for x in r]


def _float_maps(clients, gamma: float, k: int):
    """Every client's float k-step map (``QuadraticClient._float_map``)
    when the set is solved in floats: all clients quadratic, at least one
    of them float-entered, and every map finite.  None otherwise, and the
    set keeps its exact forms."""
    if not (all(isinstance(c, QuadraticClient) for c in clients)
            and any(c.float_entered for c in clients)):
        return None
    maps = [c._float_map(gamma, k) for c in clients]
    return None if any(f is None for f in maps) else maps


def _float_server_parts(maps):
    """(M, v) with V_s(x) = M x + v as floats, from the clients' float
    k-step maps (A_c, b_c): M = I - mean A_c and v = -mean b_c."""
    n = maps[0][1].shape[0]
    return (np.eye(n) - sum(A for A, _ in maps) / len(maps),
            -(sum(b for _, b in maps) / len(maps)))


def _float_solve(M, rhs) -> np.ndarray:
    """x with M x = rhs by ``np.linalg.solve``; a singular M, or a solution
    past float range, raises ``SingularMatrixError`` with M's float
    condition estimate."""
    try:
        x = np.linalg.solve(M, rhs)
        if np.isfinite(x).all():
            return x
        reason = "solution past float range"
    except np.linalg.LinAlgError as err:
        reason = str(err)
    raise rationals.SingularMatrixError(
        f"matrix is singular ({reason}); float condition estimate {np.linalg.cond(M):.3e}")


def oracle_fixed_point(clients, gamma: float, k: int, x0=None):
    """Zero of the server field.

    A set of quadratic clients with a float-entered matrix and finite float
    k-step maps (``_float_maps``) solves (I - mean A_c) x = mean b_c on
    those maps with ``np.linalg.solve``, labelled "float-solve".  Any other
    all-quadratic set gets the exact affine solve of M x = -v, posed as
    P x = r on ``_server_system``'s integers (the same equations scaled by
    d / w, so the same solution); anything else is refined iteratively with
    the unit-step server recursion x -> x - V_s(x) from x0 (default 0)
    until the field norm drops below FIXED_POINT_TOL (``_descend``).  Its
    rounds read the clients' models through the rounds' own operator
    (``_server_models``) and average their deltas as a round does, so a
    model that fails raises what a round raises there.  A set with no
    quadratic client is walked as ``build_server_field_only``'s Sum walks
    it, and the point is bit-equal to descending that Sum; a total that is
    not finite is left to the Sum, which raises the first failing client's
    error.
    Returns (point, method); a step size or count ``_check_steps`` refuses
    raises ValueError.
    """
    _check_steps(gamma, k)
    maps = _float_maps(clients, gamma, k)
    if maps is not None:
        M, v = _float_server_parts(maps)
        return _float_solve(M, -v), "float-solve"
    if all(isinstance(c, QuadraticClient) for c in clients):
        P, r, _ = _server_system(clients, gamma, k)
        try:
            solution = rationals.solve_linear(P, r)
        except rationals.SingularMatrixError as err:
            # M is P scaled by w / d, with the same condition number; P is
            # scaled by its largest entry, so no entry overflows a float
            top = max(abs(x) for row in P for x in row)
            cond = float(np.linalg.cond([[x / top for x in row] for row in P])) if top else math.inf
            raise rationals.SingularMatrixError(
                f"{err}; float condition estimate {cond:.3e}") from err
        return rationals.to_float_vector(solution), "affine-solve"
    models, weight = _server_models(clients, gamma, k), 1.0 / len(clients)

    def server_value(x):
        # The Sum accumulates from zeros, where cumsum keeps a leading -0.0:
        # adding 0.0 gives the Sum's signed zeros.
        total = (weight * (x - models(x))).cumsum(axis=0)[-1] + 0.0
        if not np.isfinite(total).all():
            return build_server_field_only(clients, gamma, k)(x)
        return total

    return _descend(server_value, _dimension(clients), 1.0, x0), "iterative"


@np.errstate(over="ignore", invalid="ignore")
def _descend(value, dimension: int, step: float, x0=None) -> np.ndarray:
    """Iterate x -> x - step * value(x) from x0 (default 0) until
    |value(x)| <= FIXED_POINT_TOL, for at most FIXED_POINT_CAP steps.  A
    norm past float range is inf, without numpy's overflow warning.

    A step is a function of its iterate's bytes, so an iterate that repeats
    an earlier one can never reach the tolerance: Brent's cycle detection
    (BIT 1980) compares each iterate with the one saved at the last power
    of two, in O(1) memory, and on a match replays the hunt from x0 to find
    the first repeated step, then raises ``ConvergenceError`` naming it and
    the period.

    A hunt that drifts without repeating is caught by its rate: every
    FIXED_POINT_WINDOW steps, |value| is compared with its value a window
    earlier, and a per-step ratio q that is at least 1, or that needs more
    than the steps left under FIXED_POINT_CAP to reach the tolerance,
    raises ``ConvergenceError`` naming the step and q."""
    x = start = np.zeros(dimension) if x0 is None else as_vector(x0, dimension)

    def advance(x):
        return x - step * value(x)

    saved, power, period = x.tobytes(), 1, 1
    for taken in range(FIXED_POINT_CAP):
        v = value(x)
        norm = float(np.linalg.norm(v))
        if norm <= FIXED_POINT_TOL:
            return x
        if taken % FIXED_POINT_WINDOW == 0:
            if taken:
                q = (norm / window_norm) ** (1 / FIXED_POINT_WINDOW)
                if q >= 1 or (taken + math.log(FIXED_POINT_TOL / norm) / math.log(q)
                              > FIXED_POINT_CAP):
                    raise ConvergenceError(
                        f"fixed-point iteration cannot reach {FIXED_POINT_TOL:g} within "
                        f"{FIXED_POINT_CAP} steps: at step {taken} |V| changes by "
                        f"q = {q:.6g} per step")
            window_norm = norm
        x = x - step * v
        if float(np.linalg.norm(x)) > 1e12:
            raise ConvergenceError("fixed-point iteration diverged")
        if x.tobytes() == saved:
            first, ahead = start, start
            for _ in range(period):
                ahead = advance(ahead)
            begin = 0
            while first.tobytes() != ahead.tobytes():
                first, ahead, begin = advance(first), advance(ahead), begin + 1
            raise ConvergenceError(
                f"fixed-point iteration repeats from step {begin} with period {period} "
                f"above {FIXED_POINT_TOL:g}")
        if period == power:
            saved, power, period = x.tobytes(), 2 * power, 0
        period += 1
    raise ConvergenceError(
        f"fixed-point iteration did not reach {FIXED_POINT_TOL:g} "
        f"within {FIXED_POINT_CAP} steps")


def _oracle_eligible(clients) -> bool:
    """Families where the automatic fixed-point hunt makes sense: exact
    affine solves, or models whose curvature is bounded (a minimizer is at
    least plausible and the iteration cannot run away silently)."""
    if all(isinstance(c, QuadraticClient) for c in clients):
        return True
    return all(isinstance(c, GlmClient)
               and c.spec.activation.curvature_bound is not None
               for c in clients)


def _points_or_one(batch):
    """f over the rows of an (N, n) array, or at one point as a float, from
    a function of (N, n) arrays."""
    def f(x):
        X = np.asarray(x, dtype=float)
        if X.ndim == 1:
            return float(batch(X[None, :])[0])
        return batch(X)

    return f


def server_surrogate(clients, gamma: float, k: int):
    """Scalar function f_s with grad f_s equal to the server field.

    Quadratic clients have the closed form 0.5 (x-b)^T (I - B) (x-b)
    per client with B the k-th descent-matrix power; orthogonal model
    clients integrate their per-direction scalar recursions.  Constants
    are fixed so each client's term vanishes where its own delta does.
    f_s takes one point, giving a float, or an (N, n) array of points,
    giving N values; a point's value is the same either way.
    """
    _check_steps(gamma, k)
    if all(isinstance(c, QuadraticClient) for c in clients):
        parts = []
        for c in clients:
            n = c.dimension
            B = np.linalg.matrix_power(np.eye(n) - gamma * c.matrix, k)
            parts.append((np.eye(n) - B, c.center))

        def f_quad(X):
            total = np.zeros(X.shape[0])
            for (Q, b) in parts:
                D = X - b
                total = total + 0.5 * np.einsum("ij,ij->i", D @ Q, D)
            return total / len(parts)

        return _points_or_one(f_quad)
    if all(isinstance(c, GlmClient) and c.spec.orthogonal for c in clients):
        specs = [c.spec for c in clients]

        def f_glm(X):
            total = 0.0
            for spec in specs:
                total = total + gamma * surrogate_potentials(spec, X, k, "gd-iterate", gamma)
            return total / len(specs)

        return _points_or_one(f_glm)
    raise SurrogateUnavailableError(
        "surrogate needs all-quadratic or all-orthogonal-model clients")


def _lowered(form):
    """A quadratic client's exact k-step form (augmented, integer) rounded
    once to floats (A, b), so its k local steps cost one product; None when
    an entry overflows a float, and the client then walks its k steps.
    Each entry is int / int, which is correctly rounded, as float(Fraction)
    is."""
    A, b, d = rationals.affine_split(form)
    try:
        return np.array([[x / d for x in row] for row in A]), np.array([x / d for x in b])
    except OverflowError:
        return None


@np.errstate(over="ignore", invalid="ignore")
def _descent_map(A: np.ndarray, b: np.ndarray, gamma: float, k: int):
    """(A_k, b_k) with x -> A_k x + b_k the map of k float descent steps
    x -> x - gamma (A x - A b): each step applied to the augmented matrix
    [[A_j, b_j], [0, 1]] of the steps before it, from the identity.  None
    when an entry is not finite, and the client then walks its k steps."""
    n = A.shape[0]
    grad = np.zeros((n + 1, n + 1))
    grad[:n, :n], grad[:n, n] = A, -(A @ b)
    F = np.eye(n + 1)
    for _ in range(k):
        F = F - gamma * (grad @ F)
    if not np.isfinite(F).all():
        return None
    return F[:n, :n].copy(), F[:n, n].copy()


def _check_model_average(xs: np.ndarray, models: np.ndarray):
    """Raise at the first round t whose x_(t+1), row t + 1 of the (T + 1, n)
    iterates xs, is not the average of round t's models, row t of the
    (T, m, n) stack, to 1e-12 times max(1, |average|_inf, |x_t|_inf): the
    delta update's x_t - (x_t - y) keeps only the digits of y at and above
    x_t's last place.  The cumsum adds the clients in order, as a round's
    own cumsum does, so each average has that round's bits."""
    avg = models.cumsum(axis=1)[:, -1] / models.shape[1]
    gap = np.abs(xs[1:] - avg).max(axis=1)
    scale = np.maximum(np.abs(avg).max(axis=1), np.abs(xs[:-1]).max(axis=1))
    bad = np.flatnonzero(gap > EQUIVALENCE_TOL * np.maximum(1.0, scale))
    if bad.size:
        t = int(bad[0])
        raise RuntimeError(
            f"delta update and model average disagree by {gap[t]:.3e} at round {t}")


def _distances(X: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|x - p| for every row x of X, as ``np.linalg.norm`` gives it (the
    square root of the row's dot with itself).  A finite row whose sum of
    squares overflows is rescaled by its largest entry (as ``asymmetry``
    does), so a distance is inf only past float range.  The caller
    silences numpy's overflow warnings."""
    D = X - p
    dists = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
    for i in np.flatnonzero(np.isinf(dists) & np.isfinite(D).all(axis=1)):
        scale = np.max(np.abs(D[i]))
        dists[i] = scale * np.linalg.norm(D[i] / scale)
    return dists


@np.errstate(over="ignore", invalid="ignore")
def run_fedavg(config: FedAvgConfig) -> FedAvgTrace:
    """Iterate the server update for the configured number of rounds.

    Each round reads every client's model through ``_server_models``:
    stacked quadratic maps, stacked GLM orbits and lone walks, failing as
    walking every client alone in index order fails, so the first client
    that fails raises its own error.  With eta = 1 the run is verified
    against the plain model-average recursion, which the delta update must
    reproduce to 1e-12 times max(1, |model average|_inf, |x_t|_inf): once
    per run, after the rounds, over every completed round's kept models,
    raising at the first round that disagrees (``_check_model_average``).
    A non-finite model or iterate truncates the trace with a diagnostic
    instead of poisoning it, and numpy's overflow warnings are off for the
    whole run.
    The fixed point's solve reads the same maps, or exact forms; a
    "float-solve" point records the server value there, through the same
    operator, as ``fixed_point_residual``.  The surrogate is evaluated in
    one call over the distinct iterates and the fixed point.
    """
    clients = config.clients
    n = config.x0.shape[0]
    models, weight = _server_models(clients, config.gamma, config.k), 1.0 / len(clients)
    xs = [np.array(config.x0, dtype=float)]
    values, round_models = [], []
    note = None
    x = xs[0]
    try:
        for t in range(config.rounds):
            try:
                # One evaluation of the client models feeds both the server
                # field mean(x - y_c) and, kept, the model average mean(y_c);
                # cumsum adds the rows in client order, where sum may pair them.
                ys = models(x)
                v = (weight * (x - ys)).cumsum(axis=0)[-1]
                x = x - config.eta * v
                if not np.isfinite(x).all():
                    raise NonFiniteValueError(f"iterate became non-finite at round {t + 1}")
            except NonFiniteValueError as err:
                note = f"trace truncated at round {t}: {err}"
                break
            round_models.append(ys)
            values.append(v)
            xs.append(x)
    finally:
        # also when a round raised: an earlier round that disagrees comes first
        if config.eta == 1.0 and round_models:
            _check_model_average(np.array(xs), np.array(round_models))
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
        if method == "float-solve":
            v = (weight * (fixed_point - models(fixed_point))).cumsum(axis=0)[-1]
            trace.fixed_point_residual = float(np.abs(v).max())
        dists = _distances(trace.xs, fixed_point)
        before, after = dists[:-1], dists[1:]
        trace.dists = dists
        trace.ratios = np.divide(after, before, out=np.full(len(before), np.nan),
                                 where=(1e-10 < before) & (before < math.inf) & (after < math.inf))
    if _surrogate_available(clients):
        f_s = server_surrogate(clients, config.gamma, config.k)
        # Converged rounds repeat the same float point: each distinct
        # point, keyed by its bytes, is evaluated once.
        points = list(trace.xs) + ([] if fixed_point is None else [fixed_point])
        index = {}
        for p in points:
            index.setdefault(p.tobytes(), len(index))
        values = f_s(np.array([np.frombuffer(key) for key in index]))
        fs = values[[index[p.tobytes()] for p in points]]
        trace.fs = fs[:len(trace.xs)]
        if fixed_point is not None:
            trace.fs_star = float(fs[-1])
    return trace


def closed_form_affine_trace(clients, config: FedAvgConfig) -> np.ndarray:
    """Iterates of the affine recursion x -> x - eta (M x + v) in closed form.

    Float reference for all-quadratic configurations; used to cross-check
    the simulated trace.  (M, v) come from the float k-step maps on a set
    the oracle solves in floats (``_float_maps``), else from the exact
    forms.
    """
    maps = _float_maps(clients, config.gamma, config.k)
    Mf, vf = (_float_server_parts(maps) if maps is not None
              else map(np.array, _affine_server_parts(clients, config.gamma, config.k)))
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
    if _require_count("k", k) != config.k:
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


def compare_minimizers(clients, gamma: float, k: int) -> MinimizerComparison:
    """The server's limit point versus the minimizer of the plain average loss.

    They coincide at k = 1 (the algorithm is then gradient descent on the
    average) and can differ for k > 1; this reports both points and their
    distance without judging the gap.  A set the oracle solves in floats
    finds the average minimizer by a float solve of
    sum A_c x = sum A_c b_c, labelled "float-solve".  The oracle, called
    first, refuses a step size or count as ``_check_steps`` does.
    """
    x_s, method_s = oracle_fixed_point(clients, gamma, k)
    if method_s == "float-solve":
        x_star = _float_solve(sum(c.matrix for c in clients),
                              sum(c.matrix @ c.center for c in clients))
        method_star = "float-solve"
    elif all(isinstance(c, QuadraticClient) for c in clients):
        # the average gradient sum A_c (x - b_c), exactly, is zero at x*
        n = clients[0].dimension
        S, v, _ = rationals.affine_split(Sum(
            [Compose(Linear(c.matrix), Affine(np.eye(n), -c.center)) for c in clients]
        )._affine_form())
        x_star = rationals.to_float_vector(rationals.solve_linear(S, [-x for x in v]))
        method_star = "affine-solve"
    else:
        fields = [c.gradient_field() for c in clients]
        avg_grad = Sum(fields, weights=[1.0 / len(fields)] * len(fields))
        x_star, method_star = _descend(avg_grad, avg_grad.dimension, gamma), "iterative"
    return MinimizerComparison(np.asarray(x_s), np.asarray(x_star),
                               float(np.linalg.norm(np.asarray(x_s) - np.asarray(x_star))),
                               method_s, method_star)
