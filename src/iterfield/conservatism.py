"""Decide or estimate whether iterated fields are gradient fields.

Exact verdicts come from rational matrix powers (linear and affine
fields), integer divisibility (plane rotations), or exact polynomial
algebra.  Everything else gets a sampled Jacobian-symmetry test: a
necessary-condition check at finitely many points, reported as evidence,
never as proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import rationals
from .fields import (Field, Iterate, NonFiniteValueError, Rotation2D, _asymmetry,
                     walk_orbit)
from .polynomials import DEFAULT_MAX_TERMS, PolyField, asymmetry_polys, poly_iterates

DEFAULT_THRESHOLD = 1e-8

NUMERIC_NOTE = "sampled evidence at finitely many points, not a proof"


class SamplingError(RuntimeError):
    """Too many sample evaluations failed for a meaningful verdict."""


@dataclass(frozen=True)
class SamplingConfig:
    """Where numeric checks sample: a ball (default) or an axis-aligned box."""

    count: int = 50
    radius: float = 1.0
    seed: int = 0
    kind: str = "ball"

    def to_dict(self):
        return {"count": self.count, "radius": self.radius,
                "seed": self.seed, "kind": self.kind}


def draw_samples(dimension: int, config: SamplingConfig) -> np.ndarray:
    rng = np.random.default_rng(config.seed)
    if config.kind == "ball":
        g = rng.standard_normal((config.count, dimension))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radii = config.radius * rng.random(config.count) ** (1.0 / dimension)
        return g / norms * radii[:, None]
    if config.kind == "box":
        return rng.uniform(-config.radius, config.radius, size=(config.count, dimension))
    raise ValueError(f"unknown sampling kind {config.kind!r}")


def sample_points(dimension: int, samples=None) -> np.ndarray:
    """Points from a SamplingConfig (default when None) or an explicit array."""
    if samples is None:
        samples = SamplingConfig()
    if isinstance(samples, SamplingConfig):
        return draw_samples(dimension, samples)
    return np.atleast_2d(np.asarray(samples, dtype=float))


@dataclass
class Verdict:
    """Outcome of one k-conservatism check.

    kind is one of exact-yes, exact-no, numeric-pass, numeric-fail.
    Exact negatives carry a certificate (a nonzero polynomial or matrix
    entry); numeric verdicts carry the worst residual and, on failure,
    the witness point that produced it.
    """

    kind: str
    residual: float | None = None
    witness: list | None = None
    certificate: str | None = None
    skipped_samples: int = 0

    @property
    def is_yes(self) -> bool:
        return self.kind in ("exact-yes", "numeric-pass")

    @property
    def exact(self) -> bool:
        return self.kind.startswith("exact")

    def to_dict(self) -> dict:
        out = {"verdict": self.kind}
        if self.residual is not None:
            out["residual"] = self.residual
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.kind.startswith("numeric"):
            out["note"] = NUMERIC_NOTE
            if self.skipped_samples:
                out["skipped_samples"] = self.skipped_samples
        return out


def _symmetry_verdict(P, k: int) -> Verdict:
    n = len(P)
    for i in range(n):
        for j in range(i + 1, n):
            if P[i][j] != P[j][i]:
                gap = P[i][j] - P[j][i]
                return Verdict("exact-no", certificate=(
                    f"power {k} entry ({i + 1},{j + 1}) minus ({j + 1},{i + 1}) = {gap}"))
    return Verdict("exact-yes")


def check_linear(matrix, k: int) -> Verdict:
    """Exact verdict for x -> A x: is A^k symmetric?

    Entries convert to rationals exactly (floats are dyadic), so the test
    has no tolerance at all.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _symmetry_verdict(rationals.mat_power(rationals.fraction_matrix(matrix), k), k)


def check_rotation(j: int, k: int) -> Verdict:
    """Exact verdict for the rotation by pi/j: symmetric powers need j | k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % j == 0:
        return Verdict("exact-yes", certificate=f"{j} divides {k}: rotation angle is a multiple of pi")
    return Verdict("exact-no", certificate=f"{j} does not divide {k}: sin(k*pi/{j}) is nonzero")


def check_poly(polyfield: PolyField, k: int, max_terms: int = DEFAULT_MAX_TERMS) -> Verdict:
    """Exact verdict for a polynomial field via the symbolic asymmetry matrix."""
    D = asymmetry_polys(polyfield, k, max_terms=max_terms)
    n = len(D)
    for i in range(n):
        for j in range(i + 1, n):
            if not D[i][j].is_zero():
                return Verdict("exact-no", certificate=D[i][j].to_text())
    return Verdict("exact-yes")


def _orbit_residuals(field: Field, k_max: int, points: np.ndarray):
    """Per k = 1..k_max: worst residual, its witness (the first strict
    maximum) and the skip count, from one orbit walk per point.  A walk
    failing at step j skips its point for every k >= j."""
    worst = [-1.0] * k_max
    witness = [None] * k_max
    skipped = [0] * k_max
    with np.errstate(over="ignore", invalid="ignore"):
        for point in points:
            reached = 0
            try:
                for _, prefix in walk_orbit(field, point, k_max, jacobians=True):
                    residual = _asymmetry(prefix)
                    if residual > worst[reached]:
                        worst[reached], witness[reached] = residual, point
                    reached += 1
            except NonFiniteValueError:
                for j in range(reached, k_max):
                    skipped[j] += 1
    return worst, witness, skipped


def _numeric_verdict(worst: float, witness, skipped: int, total: int,
                     threshold: float) -> Verdict:
    if total - skipped < max(1, (total + 1) // 2):
        raise SamplingError(f"{skipped} of {total} samples failed to evaluate")
    if worst > threshold:
        return Verdict("numeric-fail", residual=worst,
                       witness=[float(v) for v in witness], skipped_samples=skipped)
    return Verdict("numeric-pass", residual=worst, skipped_samples=skipped)


def check_numeric(field: Field, k: int, samples=None,
                  threshold: float = DEFAULT_THRESHOLD) -> Verdict:
    """Sampled Jacobian-symmetry residuals of the k-fold iterate.

    Non-finite evaluations skip the sample; at least half the samples
    must survive.  Pass/fail compares the worst residual against the
    threshold; failure records the witness point.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    points = sample_points(field.dimension, samples)
    worst, witness, skipped = _orbit_residuals(field, k, points)
    return _numeric_verdict(worst[-1], witness[-1], skipped[-1], len(points), threshold)


def _exact_verdicts(field: Field, k_max: int):
    """Exact verdicts for k = 1..k_max (Iterate(V, m) on the powers of V),
    or None.  Towers carry forward: A^k = A A^(k-1), V^k = V o V^(k-1)."""
    inner, stride = (field.inner, field.k) if isinstance(field, Iterate) else (field, 1)
    powers = range(stride, stride * k_max + 1, stride)
    if isinstance(inner, Rotation2D):
        return [check_rotation(inner.j, p) for p in powers]
    affine = inner.as_affine()
    if affine is not None:
        # The Jacobian of an iterated affine map is the matrix power; the
        # offset does not affect symmetry.
        A = affine[0]
        tower = itertools.accumulate(itertools.repeat(A, powers[-1]),
                                     lambda P, _: rationals.mat_mul(A, P))
        return [_symmetry_verdict(P, p) for p, P in enumerate(tower, 1) if p % stride == 0]
    poly = inner.as_polyfield()
    if poly is not None:
        tower = zip(range(1, powers[-1] + 1), poly_iterates(poly))
        return [check_poly(V, 1) for p, V in tower if p % stride == 0]
    return None


@dataclass
class ConservatismReport:
    """Per-k verdicts for one field, with the sampling setup that produced them."""

    field_desc: str
    threshold: float
    sampling: SamplingConfig | None
    entries: list[tuple[int, Verdict]] = dataclass_field(default_factory=list)

    def verdict(self, k: int) -> Verdict:
        for kk, v in self.entries:
            if kk == k:
                return v
        raise KeyError(f"no verdict for k={k}")

    def pattern(self) -> dict[int, bool]:
        return {k: v.is_yes for k, v in self.entries}

    def to_dict(self) -> dict:
        return {
            "field": self.field_desc,
            "threshold": self.threshold,
            "sampling": self.sampling.to_dict() if self.sampling else None,
            "results": [{"k": k, **v.to_dict()} for k, v in self.entries],
        }


def scan_k(field: Field, k_max: int, mode: str = "auto",
           sampling: SamplingConfig | None = None,
           threshold: float = DEFAULT_THRESHOLD) -> ConservatismReport:
    """Check k-conservatism for every k up to k_max.

    mode "auto" uses the exact path whenever the field is recognizably a
    rotation, an exact affine map, or an exact polynomial field, and the
    sampled numeric path otherwise; mode "numeric" forces sampling.  Every
    k is read off one orbit walk per sample, or one exact tower: O(k_max).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if mode not in ("auto", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    report = ConservatismReport(field.describe(), threshold, None)
    verdicts = _exact_verdicts(field, k_max) if mode == "auto" else None
    if verdicts is None:
        report.sampling = sampling or SamplingConfig()
        points = draw_samples(field.dimension, report.sampling)
        verdicts = [_numeric_verdict(*per_k, len(points), threshold)
                    for per_k in zip(*_orbit_residuals(field, k_max, points))]
    report.entries.extend(enumerate(verdicts, start=1))
    return report
