"""Decide or estimate whether iterated fields are gradient fields.

Exact verdicts come from rational matrix powers (linear and affine
fields), integer divisibility (plane rotations), or exact polynomial
algebra.  Everything else gets a sampled Jacobian-symmetry test: a
necessary-condition check at finitely many points, reported as evidence,
never as proof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import IterfieldError, rationals
from .fields import Field, Iterate, Rotation2D, _asymmetry, _require_count, walk_rows

if TYPE_CHECKING:
    from .polynomials import PolyField

DEFAULT_THRESHOLD = 1e-8

NUMERIC_NOTE = "sampled evidence at finitely many points, not a proof"


class SamplingError(IterfieldError, RuntimeError):
    """Too many sample evaluations failed for a meaningful verdict."""


@dataclass(frozen=True)
class SamplingConfig:
    """Where numeric checks sample: a ball (default) or an axis-aligned box."""

    count: int = 50
    radius: float = 1.0
    seed: int = 0
    kind: str = "ball"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"sample count must be at least 1, got {self.count}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"sampling radius must be finite and positive, got {self.radius}")
        if self.kind not in ("ball", "box"):
            raise ValueError(f"unknown sampling kind {self.kind!r}")

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
    return rng.uniform(-config.radius, config.radius, size=(config.count, dimension))


def sample_points(dimension: int, samples=None) -> np.ndarray:
    """Points from a SamplingConfig (default when None) or an explicit array."""
    if samples is None:
        samples = SamplingConfig()
    if isinstance(samples, SamplingConfig):
        return draw_samples(dimension, samples)
    points = np.atleast_2d(np.asarray(samples, dtype=float))
    if points.size == 0:
        raise ValueError("need at least one sample point")
    return points


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


def _symmetry_verdict(P, den: int, k: int) -> Verdict:
    """Is the k-th power P / den symmetric?  Compares integer numerators;
    a Fraction is made only for the certificate's gap."""
    n = len(P)
    for i in range(n):
        for j in range(i + 1, n):
            if P[i][j] != P[j][i]:
                gap = Fraction(P[i][j] - P[j][i], den)
                return Verdict("exact-no", certificate=(
                    f"power {k} entry ({i + 1},{j + 1}) minus ({j + 1},{i + 1}) = "
                    f"{rationals.fraction_text(gap)}"))
    return Verdict("exact-yes")


def check_linear(matrix, k: int) -> Verdict:
    """Exact verdict for x -> A x: is A^k symmetric?

    Entries convert to rationals exactly (floats are dyadic), so the test
    has no tolerance at all.
    """
    k = _require_count("k", k)
    return _symmetry_verdict(*rationals.power(*rationals.numerators(matrix), k), k)


def check_rotation(j: int, k: int) -> Verdict:
    """Exact verdict for the rotation by pi/j: symmetric powers need j | k."""
    j, k = _require_count("j", j), _require_count("k", k)
    if k % j == 0:
        return Verdict("exact-yes", certificate=f"{j} divides {k}: rotation angle is a multiple of pi")
    return Verdict("exact-no", certificate=f"{j} does not divide {k}: sin(k*pi/{j}) is nonzero")


def check_poly(polyfield: PolyField, k: int) -> Verdict:
    """Exact verdict for a polynomial field via the symbolic asymmetry matrix:
    its first nonzero entry above the diagonal, in row order, is the
    certificate, and the entries after it are not formed."""
    from .polynomials import asymmetry_pairs
    for _, _, entry in asymmetry_pairs(polyfield, k):
        if not entry.is_zero():
            return Verdict("exact-no", certificate=entry.to_text())
    return Verdict("exact-yes")


def _orbit_residuals(field: Field, k_max: int, points: np.ndarray):
    """Per k = 1..k_max: worst residual, its witness (the first strict
    maximum, in point order) and the skip count, from one walk of all the
    points.  A point whose walk fails at step j is skipped for every
    k >= j; a point that is not finite is refused, by ``walk_rows``."""
    worst = [-1.0] * k_max
    witness = [None] * k_max
    skipped = [0] * k_max
    with np.errstate(over="ignore", invalid="ignore"):
        walk = walk_rows(field, points, k_max, jacobians=True)
        for j, (live, _, prefix) in enumerate(walk):
            skipped[j] = len(points) - len(live)
            if len(live):
                residuals = _asymmetry(prefix)
                r = int(np.argmax(residuals))
                worst[j], witness[j] = float(residuals[r]), points[live[r]]
    return worst, witness, skipped


def _require_threshold(threshold: float) -> None:
    """A residual threshold is finite and >= 0: a NaN or infinite one
    would pass every residual."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")


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
    must survive.  An explicit sample point that is not finite is
    refused, as every sampled check refuses it.  Pass/fail compares the
    worst residual against the threshold; failure records the witness
    point.
    """
    k = _require_count("k", k)
    _require_threshold(threshold)
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
    affine = inner._affine_form()
    if affine is not None:
        # The Jacobian of an iterated affine map is the matrix power; the
        # offset does not affect symmetry.  A^p is N^p / d^p.
        N, _, d = rationals.affine_split(affine)
        tower = itertools.accumulate(itertools.repeat(N, powers[-1] - 1),
                                     lambda P, _: rationals.product(N, P), initial=N)
        return [_symmetry_verdict(P, d ** p, p) for p, P in enumerate(tower, 1)
                if p % stride == 0]
    poly = inner.as_polyfield()
    if poly is not None:
        from .polynomials import poly_iterates
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
    k_max = _require_count("k_max", k_max)
    if mode not in ("auto", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_threshold(threshold)
    report = ConservatismReport(field.describe(), threshold, None)
    verdicts = _exact_verdicts(field, k_max) if mode == "auto" else None
    if verdicts is None:
        report.sampling = sampling or SamplingConfig()
        points = draw_samples(field.dimension, report.sampling)
        verdicts = [_numeric_verdict(*per_k, len(points), threshold)
                    for per_k in zip(*_orbit_residuals(field, k_max, points))]
    report.entries.extend(enumerate(verdicts, start=1))
    return report
