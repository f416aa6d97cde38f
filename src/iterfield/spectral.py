"""Jacobian spectra at sample points and eigenvalue propagation checks.

Eigen-intervals always come from the symmetrized Jacobian (J + J^T)/2,
because numeric Jacobians of genuinely conservative fields are never
exactly symmetric.  Every conclusion here is sampled evidence on the
given point set; the definitions quantify over all of R^n, which sampling
cannot certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .conservatism import DEFAULT_THRESHOLD, sample_points
from .fields import (Field, GdMap, Iterate, Sum, _asymmetry, as_vector, asymmetry,
                     identity_field, jacobian, walk_orbit)

ZERO_BAND = 1e-10
PROPAGATION_TOL = 1e-8
CRITICAL_POINT_TOL = 1e-12

EVIDENCE_NOTE = "sampled evidence on the given point set"


class NotConservativeError(RuntimeError):
    """The field failed the sampled gradient-field check, so spectral
    reasoning about a potential does not apply."""


class StepSizeError(ValueError):
    """The step size is outside the range the claimed class supports."""


@dataclass(frozen=True)
class SpectrumSample:
    """Eigen-interval of the symmetrized Jacobian at one point."""

    point: tuple
    lambda_min: float
    lambda_max: float
    asymmetry: float

    def to_dict(self):
        return {"point": list(self.point), "lambda_min": self.lambda_min,
                "lambda_max": self.lambda_max, "asymmetry": self.asymmetry}


@dataclass(frozen=True)
class ConvexityClass:
    """Sampled convexity classification with its evidence range.

    kind: strongly-convex (alpha > 0), strictly-convex, convex,
    non-convex.  alpha_hat / beta_hat are the extreme sampled eigenvalues;
    a negative alpha_hat additionally gives weak-convexity evidence
    delta_hat = -alpha_hat.
    """

    kind: str
    alpha_hat: float
    beta_hat: float
    delta_hat: float | None = None

    def to_dict(self):
        out = {"class": self.kind, "alpha_hat": self.alpha_hat,
               "beta_hat": self.beta_hat, "note": EVIDENCE_NOTE}
        if self.delta_hat is not None:
            out["delta_hat"] = self.delta_hat
        return out


def _eigen_interval(J: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of (J + J^T)/2."""
    eigs = np.linalg.eigvalsh(0.5 * (J + J.T))
    return float(eigs[0]), float(eigs[-1])


def spectrum_at(field: Field, x, method=None) -> SpectrumSample:
    """Eigen-interval of (J + J^T)/2 at x, with the asymmetry recorded so
    callers can notice non-conservative fields."""
    J = jacobian(field, x, method)
    return SpectrumSample(tuple(float(v) for v in np.atleast_1d(x)),
                          *_eigen_interval(J), asymmetry(J))


def classify(field: Field, samples=None, threshold: float = DEFAULT_THRESHOLD) -> ConvexityClass:
    """Convexity class of the potential behind a gradient field, sampled.

    Refuses fields that fail the sampled conservatism check at k=1, since
    the eigenvalue definitions presume a Hessian.  Classification is by
    the sign of the worst sampled minimum eigenvalue, with a zero band of
    +-1e-10; strictly positive pointwise minima inside the band report as
    strictly convex.
    """
    spectra = [spectrum_at(field, p) for p in sample_points(field.dimension, samples)]
    residual = max(s.asymmetry for s in spectra)
    if residual > threshold:
        raise NotConservativeError(
            f"field failed the sampled gradient check (residual {residual:.3e}); "
            "refusing to classify convexity")
    alpha_hat = min(s.lambda_min for s in spectra)
    beta_hat = max(s.lambda_max for s in spectra)
    if alpha_hat > ZERO_BAND:
        return ConvexityClass("strongly-convex", alpha_hat, beta_hat)
    if abs(alpha_hat) <= ZERO_BAND:
        if all(s.lambda_min > 0 for s in spectra):
            return ConvexityClass("strictly-convex", alpha_hat, beta_hat)
        return ConvexityClass("convex", alpha_hat, beta_hat)
    # A sampled negative eigenvalue proves non-convexity on the samples and
    # simultaneously bounds weak convexity from below.
    return ConvexityClass("non-convex", alpha_hat, beta_hat, delta_hat=-alpha_hat)


@dataclass
class PropagationLevel:
    j: int
    lambda_min: float
    lambda_max: float
    bound_low: float
    bound_high: float
    passed: bool
    passed_k_level: bool

    def to_dict(self):
        return {"j": self.j, "interval": [self.lambda_min, self.lambda_max],
                "bound": [self.bound_low, self.bound_high],
                "pass": self.passed, "pass_k_exponent": self.passed_k_level}


@dataclass
class PropagationReport:
    alpha_hat: float
    beta_hat: float
    k: int
    levels: list[PropagationLevel] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(level.passed for level in self.levels)

    def to_dict(self):
        return {"alpha_hat": self.alpha_hat, "beta_hat": self.beta_hat,
                "k": self.k, "pass": self.passed, "note": EVIDENCE_NOTE,
                "levels": [level.to_dict() for level in self.levels]}


def check_propagation(f_grad: Field, k: int, samples=None,
                      threshold: float = DEFAULT_THRESHOLD,
                      tol_factor: float = PROPAGATION_TOL) -> PropagationReport:
    """Verify that iterate spectra stay inside powered eigen-bounds.

    alpha_hat and beta_hat calibrate over every point the check touches:
    the samples plus their forward orbits under the field.  Orbits leave
    any fixed sample region, so calibrating on the samples alone would
    compare iterate spectra against bounds the single-step Jacobian never
    promised along the orbit.  For each j <= k the sampled spectrum of
    the j-fold iterate's Jacobian (a chain product along the orbit) must
    lie in [alpha_hat^j, beta_hat^j] up to tol_factor * m^j, where
    m = max(|alpha_hat|, |beta_hat|).  Uses the per-level exponent j; the
    report also records whether the looser exponent-k interval holds, so
    the statement-level bound stays visible without being silently
    adopted.

    The paper's statement presumes a convex potential, 0 <= alpha <= beta.
    With a negative alpha_hat, [alpha_hat^j, beta_hat^j] can come out
    inverted, so level j is bounded by magnitude instead: [-m^j, m^j],
    since a product of j step Jacobians of norm <= m has norm <= m^j.

    Iterates that fail the sampled symmetry check are a refusal, not a
    verdict: the eigenvalue-product argument needs symmetric Jacobians.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    points = sample_points(f_grad.dimension, samples)
    alpha_hat = np.inf
    beta_hat = -np.inf
    per_j_low = [np.inf] * (k + 1)
    per_j_high = [-np.inf] * (k + 1)
    per_j_asym = [0.0] * (k + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in points:
            for j, (step, prefix) in enumerate(walk_orbit(f_grad, x, k, jacobians=True), start=1):
                lo, hi = _eigen_interval(step)
                alpha_hat, beta_hat = min(alpha_hat, lo), max(beta_hat, hi)
                per_j_asym[j] = max(per_j_asym[j], _asymmetry(prefix))
                lo, hi = _eigen_interval(prefix)
                per_j_low[j], per_j_high[j] = min(per_j_low[j], lo), max(per_j_high[j], hi)
    report = PropagationReport(alpha_hat, beta_hat, k)
    m = max(abs(alpha_hat), abs(beta_hat))
    for j in range(1, k + 1):
        if per_j_asym[j] > threshold:
            raise NotConservativeError(
                f"iterate {j} failed the sampled gradient check "
                f"(residual {per_j_asym[j]:.3e})")
        lo, hi = per_j_low[j], per_j_high[j]
        tol = tol_factor * m ** j
        if alpha_hat < 0:
            low_j, high_j, low_k, high_k = -m ** j, m ** j, -m ** k, m ** k
        else:
            low_j, high_j = alpha_hat ** j, beta_hat ** j
            low_k, high_k = alpha_hat ** k, beta_hat ** k
        passed = (lo >= low_j - tol) and (hi <= high_j + tol)
        passed_k = (lo >= min(low_k, low_j) - tol) and (hi <= max(high_k, high_j) + tol)
        report.levels.append(PropagationLevel(j, lo, hi, low_j, high_j, passed, passed_k))
    return report


def model_delta_field(f_grad: Field, gamma: float, j: int) -> Field:
    """The field x -> x - (x - gamma * f_grad)^j(x): one client's model delta."""
    return Sum([identity_field(f_grad.dimension), Iterate(GdMap(f_grad, gamma), j)],
               weights=[1.0, -1.0])


@dataclass
class GdPropagationLevel(PropagationLevel):
    critical_point_residuals: list[float]

    def to_dict(self):
        return {**super().to_dict(), "critical_point_residuals": self.critical_point_residuals}


@dataclass
class GdPropagationReport:
    claimed: str
    gamma: float
    lam: float
    k: int
    levels: list[GdPropagationLevel] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(level.passed and
                   all(r <= CRITICAL_POINT_TOL for r in level.critical_point_residuals)
                   for level in self.levels)

    def to_dict(self):
        return {"claimed": self.claimed, "gamma": self.gamma, "lambda": self.lam,
                "k": self.k, "pass": self.passed, "note": EVIDENCE_NOTE,
                "levels": [level.to_dict() for level in self.levels]}


def check_gd_propagation(f_grad: Field, gamma: float, k: int, samples=None,
                         claimed: str = "strongly-convex",
                         alpha: float | None = None, beta: float | None = None,
                         delta: float | None = None,
                         critical_points=(), tol: float = PROPAGATION_TOL) -> GdPropagationReport:
    """Verify spectra of the model-delta fields x - (gd map)^j against
    the contraction bounds the claimed convexity class implies.

    Claimed classes and their admissible step sizes:
      strongly-convex: gamma <= 2/(alpha+beta), contraction 1 - gamma*alpha;
      convex: gamma <= 2/beta (contraction 1; with gamma <= 1/beta the
        delta field is 1-Lipschitz);
      weakly-convex: delta <= beta and gamma <= 2/beta, contraction
        1 + gamma*delta.
    Spectra must lie in [1 - lambda^j, 1 + lambda^j] up to tol; supplied
    critical points of the underlying potential must stay critical for
    every delta field, to evaluation precision.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (gamma > 0):
        raise StepSizeError("gamma must be positive")
    if claimed == "strongly-convex":
        if alpha is None or beta is None or not (0 < alpha <= beta):
            raise ValueError("strongly-convex claims need 0 < alpha <= beta")
        if gamma > 2.0 / (alpha + beta) + 1e-15:
            raise StepSizeError(
                f"gamma={gamma} exceeds 2/(alpha+beta)={2.0 / (alpha + beta)}")
        lam = 1.0 - gamma * alpha
    elif claimed == "convex":
        if beta is None or not (beta > 0):
            raise ValueError("convex claims need beta > 0")
        if gamma > 2.0 / beta + 1e-15:
            raise StepSizeError(f"gamma={gamma} exceeds 2/beta={2.0 / beta}")
        lam = 1.0
    elif claimed == "weakly-convex":
        if beta is None or delta is None or not (0 < delta <= beta):
            raise ValueError("weakly-convex claims need 0 < delta <= beta")
        if gamma > 2.0 / beta + 1e-15:
            raise StepSizeError(f"gamma={gamma} exceeds 2/beta={2.0 / beta}")
        lam = 1.0 + gamma * delta
    else:
        raise ValueError(f"unknown claimed class {claimed!r}")

    points = sample_points(f_grad.dimension, samples)
    for y in critical_points:
        grad_norm = float(np.linalg.norm(f_grad(y)))
        if grad_norm > CRITICAL_POINT_TOL:
            raise ValueError(
                f"supplied point {np.asarray(y).tolist()} is not critical "
                f"(gradient norm {grad_norm:.3e})")
    # One descent-map walk per sample gives every delta Jacobian I - J(G^j);
    # one walk per critical point gives every delta residual |y - G^j(y)|.
    descent = GdMap(f_grad, gamma)
    eye = np.eye(f_grad.dimension)
    per_j_low = [np.inf] * (k + 1)
    per_j_high = [-np.inf] * (k + 1)
    for x in points:
        for j, (_, prefix) in enumerate(walk_orbit(descent, x, k, jacobians=True), start=1):
            lo, hi = _eigen_interval(eye - prefix)
            per_j_low[j], per_j_high[j] = min(per_j_low[j], lo), max(per_j_high[j], hi)
    residuals = [[float(np.linalg.norm(as_vector(y) - image))
                  for image in walk_orbit(descent, y, k)] for y in critical_points]
    report = GdPropagationReport(claimed, gamma, lam, k)
    for j in range(1, k + 1):
        lo, hi = per_j_low[j], per_j_high[j]
        if claimed == "convex":
            # Convex potentials give delta fields with spectra in [0, L],
            # L = 1 for gamma <= 1/beta and 2 otherwise.
            L = 1.0 if gamma <= 1.0 / beta + 1e-15 else 2.0
            low_j, high_j = 0.0, L
            low_k, high_k = 0.0, L
        else:
            low_j, high_j = 1.0 - lam ** j, 1.0 + lam ** j
            low_k, high_k = 1.0 - lam ** k, 1.0 + lam ** k
        passed = (lo >= low_j - tol) and (hi <= high_j + tol)
        passed_k = (lo >= min(low_j, low_k) - tol) and (hi <= max(high_j, high_k) + tol)
        report.levels.append(GdPropagationLevel(
            j, lo, hi, low_j, high_j, passed, passed_k, [r[j - 1] for r in residuals]))
    return report
