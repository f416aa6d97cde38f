"""Named, runnable verification bundles for the library's headline claims.

Each entry re-derives a documented result end to end (exact certificate,
counterexample, closed form, or convergence bound), checks it against the
expected outcome, and reports pass/fail with the observed values.  The
whole set runs in seconds and is wired to the command line as
``iterfield paper-suite <id>``.
"""

from __future__ import annotations

import numpy as np

from . import fedavg as fa
from . import polynomials as poly
from .conservatism import SamplingConfig, check_poly, scan_k
from .fields import Iterate, Linear, compose, gd_map
from .glm import (GlmSpec, NonOrthogonalError, closed_form_deviation, glm_gradient,
                  iterated_glm, iterated_glm_gd, orthogonality_check, surrogate_potentials)
from .spectral import check_gd_propagation, check_propagation

COEFF_NAMES = ("a", "b", "c", "d")


def _orthogonal_directions(rng, n, m):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    low, high = 0.3, 0.6
    scales = low + (high - low) * rng.random(m)
    return Q[:, :m].T * scales[:, None]


def linear_pattern() -> dict:
    """The matrix [[1,2],[1,-1]] is 2- and 4-conservative but not 1- or
    3-conservative, and the symbolic asymmetry factors as expected."""
    report = scan_k(Linear([[1, 2], [1, -1]]), 4)
    pattern = report.pattern()
    expected = {1: False, 2: True, 3: False, 4: True}
    a, b, c, d = (poly.RationalPoly.variable(4, i) for i in range(4))
    identities = {
        "k2": (poly.linear_asymmetry_symbolic(2), (b - c) * (a + d)),
        "k3": (poly.linear_asymmetry_symbolic(3), (b - c) * (a * a + a * d + b * c + d * d)),
        "k4": (poly.linear_asymmetry_symbolic(4), (b - c) * (a + d) * (a * a + 2 * b * c + d * d)),
    }
    identity_ok = {key: got == want for key, (got, want) in identities.items()}
    passed = pattern == expected and all(identity_ok.values())
    return {"name": "linear-pattern", "passed": passed,
            "pattern": {str(k): v for k, v in pattern.items()},
            "identities": {key: identities[key][0].to_text(COEFF_NAMES)
                           for key in identities},
            "identity_match": identity_ok}


def rotation_divisibility() -> dict:
    """Rotation by pi/j is k-conservative exactly when j divides k; the
    numeric residuals separate the two cases by ten orders of magnitude."""
    from .fields import Rotation2D
    details = {}
    passed = True
    for j in (2, 3, 4, 6):
        rot = Rotation2D(j)
        exact = scan_k(rot, 12).pattern()
        exact_ok = all(exact[k] == (k % j == 0) for k in range(1, 13))
        residuals = [v.residual for _, v in scan_k(rot, 12, mode="numeric").entries]
        numeric_ok = all(
            (residuals[k - 1] < 1e-10) if k % j == 0 else (residuals[k - 1] > 0.1)
            for k in range(1, 13))
        details[f"j{j}"] = {"exact_ok": exact_ok, "numeric_ok": numeric_ok,
                            "max_divisible_residual": max(
                                (residuals[k - 1] for k in range(1, 13) if k % j == 0)),
                            "min_nondivisible_residual": min(
                                (residuals[k - 1] for k in range(1, 13) if k % j != 0))}
        passed = passed and exact_ok and numeric_ok
    return {"name": "rotation-divisibility", "passed": passed, "cases": details}


def nilpotent() -> dict:
    """A nonzero matrix squaring to zero: not conservative, but k-conservative
    for every k >= 2, and the second iterate is identically zero."""
    field = Linear([[-1, -1], [1, 1]])
    pattern = scan_k(field, 6).pattern()
    expected = {k: (k >= 2) for k in range(1, 7)}
    at_zero = Iterate(field, 2)(np.array([3.0, -7.0]))
    passed = pattern == expected and np.allclose(at_zero, 0.0, atol=0.0)
    return {"name": "nilpotent", "passed": passed,
            "pattern": {str(k): v for k, v in pattern.items()},
            "second_iterate_at_(3,-7)": at_zero.tolist()}


def constant_fields() -> dict:
    """Constant fields are k-conservative for every k."""
    from .fields import Constant
    pattern = scan_k(Constant([2.0, -1.0, 0.5]), 5).pattern()
    passed = all(pattern.values())
    return {"name": "constant-fields", "passed": passed,
            "pattern": {str(k): v for k, v in pattern.items()}}


def cubic_counterexample() -> dict:
    """The gradient of x^2 y composes with itself into (4x^3 y, 4x^2 y^2),
    whose Jacobian asymmetry 4x^3 - 8xy^2 is a nonzero certificate."""
    f = poly.RationalPoly(2, {(2, 1): 1})
    V = poly.PolyField.gradient_of(f)
    V2 = poly.iterate_poly_field(V, 2)
    expected_iterate = ["4*x0^3*x1^1", "4*x0^2*x1^2"]
    verdict = check_poly(V, 2)
    cert_ok = verdict.kind == "exact-no" and verdict.certificate == "4*x0^3 + -8*x0^1*x1^2"
    clairaut_ok = check_poly(V, 1).kind == "exact-yes"
    passed = V2.to_texts() == expected_iterate and cert_ok and clairaut_ok
    return {"name": "cubic-counterexample", "passed": passed,
            "second_iterate": V2.to_texts(), "certificate": verdict.certificate,
            "first_iterate_conservative": clairaut_ok}


def cubic_hypersurface() -> dict:
    """For gradients of plane cubics, the degree-two gate 3ac - b^2 + 3bd - c^2
    divides every coefficient of the second-iterate asymmetry, and at the
    third iterate all eight degree-7 coefficients as well."""
    g = poly.cubic_gate_symbolic()
    a, b, c, d = (poly.RationalPoly.variable(4, i) for i in range(4))
    expected = {
        (3, 0): -4 * b * g,
        (2, 1): 4 * (3 * a - 2 * c) * g,
        (1, 2): 4 * (2 * b - 3 * d) * g,
        (0, 3): 4 * c * g,
    }
    coeffs2 = poly.cubic_asymmetry_coefficients(2)
    texts = {}
    byte_ok = True
    divisible2 = True
    for key, want in expected.items():
        got = coeffs2.get(key, poly.RationalPoly.zero(4))
        texts[f"x^{key[0]}*y^{key[1]}"] = got.to_text(COEFF_NAMES)
        byte_ok = byte_ok and got.to_text(COEFF_NAMES) == want.to_text(COEFF_NAMES)
        divisible2 = divisible2 and poly.divide_exact(got, g) is not None
    coeffs3 = poly.cubic_asymmetry_coefficients(3)
    degrees = sorted({p.degree() for p in coeffs3.values()})
    divisible3 = all(poly.divide_exact(p, g) is not None for p in coeffs3.values())
    gate_checks = (poly.cubic_gate(0, 1, 0, 0) == -1
                   and poly.cubic_gate(1, 0, 0, 1) == 0
                   and poly.cubic_gate(1, 3, 3, 1) == 0)
    passed = (byte_ok and divisible2 and divisible3 and gate_checks
              and len(coeffs3) == 8 and degrees == [7])
    return {"name": "cubic-hypersurface", "passed": passed,
            "gate": g.to_text(COEFF_NAMES), "coefficients_k2": texts,
            "byte_for_byte": byte_ok, "divisible_k2": divisible2,
            "k3_coefficient_count": len(coeffs3), "k3_degrees": degrees,
            "divisible_k3": divisible3}


def non_closure() -> dict:
    """Two symmetric (hence forever-conservative) linear fields whose
    composition is a rotation by pi/2: not conservative at all."""
    composed = compose(Linear([[0, 1], [1, 0]]), Linear([[1, 0], [0, -1]]))
    verdict = scan_k(composed, 1).verdict(1)
    value = composed(np.array([1.0, 0.0]))
    passed = verdict.kind == "exact-no" and np.allclose(value, [0.0, 1.0], atol=0.0)
    return {"name": "non-closure", "passed": passed,
            "verdict": verdict.to_dict(), "image_of_e1": value.tolist()}


def glm_counterexample() -> dict:
    """Summing the models exp(x) and exp(x+y), each with a forever-conservative
    gradient, yields a gradient field whose second iterate is not conservative."""
    spec = GlmSpec([[1.0, 0.0], [1.0, 1.0]], "exp")
    field = glm_gradient(spec)
    box = SamplingConfig(count=50, radius=1.0, seed=3, kind="box")
    v1, v2 = (v for _, v in scan_k(field, 2, sampling=box).entries)
    passed = v1.kind == "numeric-pass" and v2.kind == "numeric-fail" and v2.residual > 0.1
    return {"name": "glm-counterexample", "passed": passed,
            "k1": v1.to_dict(), "k2": v2.to_dict(),
            "gram_residual": spec.gram_residual}


def glm_orthogonal() -> dict:
    """Closed-form iterates of orthogonal-model gradients (and of their
    descent maps) match brute-force iteration at seeded random points."""
    rng = np.random.default_rng(11)
    points, k_max, tol = 100, 5, 1e-9
    gamma = 0.5
    worst = 0.0
    checks = 0
    for act in ("quadratic", "exp", "logistic"):
        for m in (1, 2, 3):
            spec = GlmSpec(_orthogonal_directions(rng, 3, m), act)
            samples = rng.standard_normal((points, 3))
            samples /= np.maximum(1.0, np.linalg.norm(samples, axis=1))[:, None]
            worst = max(worst, closed_form_deviation(spec, samples, k_max, gamma))
            checks += 2 * k_max * len(samples)
    try:
        iterated_glm(GlmSpec([[1.0, 0.0], [1.0, 1.0]], "exp"), 2)
        raises = False
    except NonOrthogonalError:
        raises = True
    passed = worst <= tol and raises
    return {"name": "glm-orthogonal", "passed": passed, "checks": checks,
            "worst_relative_deviation": worst, "tolerance": tol,
            "non_orthogonal_raises": raises}


def glm_opposite() -> dict:
    """The model with directions z and -z fails the orthogonality gate yet its
    gradient field passes every sampled conservatism check (it is a
    coordinate-wise field in disguise)."""
    directions = np.array([[1.0, 0.0], [-1.0, 0.0]])
    residual = orthogonality_check(directions)
    spec = GlmSpec(directions, "exp")
    field = glm_gradient(spec)
    verdicts = {k: v.kind for k, v in scan_k(field, 4, mode="numeric").entries}
    passed = (residual == 1.0 and not spec.orthogonal
              and all(v == "numeric-pass" for v in verdicts.values()))
    return {"name": "glm-opposite", "passed": passed,
            "gram_residual": residual,
            "verdicts": {str(k): v for k, v in verdicts.items()}}


def surrogate_gradient() -> dict:
    """Central-difference gradients of the integral potentials reproduce the
    closed-form iterates."""
    rng = np.random.default_rng(23)
    points, k_max, tol = 50, 4, 1e-6
    gamma = 0.4
    h = 1e-6
    worst = 0.0
    steps = h * np.eye(3)
    for act in ("quadratic", "exp", "logistic"):
        spec = GlmSpec(_orthogonal_directions(rng, 3, 2), act)
        for k in range(1, k_max + 1):
            xs = []
            for _ in range(points // k_max):
                x = rng.standard_normal(3)
                xs.append(x / max(1.0, float(np.linalg.norm(x))))
            X = np.array(xs)
            # each closed form over every point in one batch, each row
            # bit-equal to its one-point value
            with np.errstate(over="ignore", invalid="ignore"):
                refs = {"grad-iterate": iterated_glm(spec, k)._evaluate_rows(X),
                        "gd-iterate": (X - iterated_glm_gd(spec, gamma, k)._evaluate_rows(X))
                        / gamma}
            # every point's +h and -h stencil in one batch of potentials
            stencil = np.concatenate([X[:, None, :] + steps,
                                      X[:, None, :] - steps]).reshape(-1, 3)
            for mode, ref_rows in refs.items():
                plus, minus = surrogate_potentials(spec, stencil, k, mode, gamma).reshape(2, -1, 3)
                for grad_fd, ref in zip((plus - minus) / (2 * h), ref_rows):
                    dev = np.linalg.norm(grad_fd - ref) / max(1.0, np.linalg.norm(ref))
                    worst = max(worst, dev)
    passed = worst <= tol
    return {"name": "surrogate-gradient", "passed": passed,
            "worst_relative_deviation": worst, "tolerance": tol}


def spectral_propagation() -> dict:
    """Iterate spectra stay inside powered eigen-bounds; descent deltas stay
    inside contraction bounds and preserve critical points."""
    details = {}
    lin = check_propagation(Linear(np.diag([0.5, 0.75])), 3)
    details["linear"] = lin.to_dict()
    spec = GlmSpec([[1.0, 0.0], [0.0, 2.0]], "quadratic")
    glm_rep = check_propagation(glm_gradient(spec), 2)
    details["glm"] = glm_rep.to_dict()
    cosh_field = glm_gradient(GlmSpec([[1.0], [-1.0]], "exp"))
    cosh_rep = check_propagation(cosh_field, 2, SamplingConfig(count=30, radius=1.0, seed=5))
    details["exp-pair"] = cosh_rep.to_dict()
    quad = fa.QuadraticClient(np.diag([1.0, 3.0]), [0.5, -0.25])
    gd_rep = check_gd_propagation(quad.gradient_field(), 0.5, 2,
                                  claimed="strongly-convex", alpha=1.0, beta=3.0,
                                  critical_points=[quad.center])
    details["gd-strongly-convex"] = gd_rep.to_dict()
    log_spec = GlmSpec(np.eye(2), "logistic")
    conv_rep = check_gd_propagation(glm_gradient(log_spec), 4.0, 3,
                                    claimed="convex", beta=0.25)
    details["gd-convex"] = conv_rep.to_dict()
    glm_expected = glm_rep.levels[1].bound_low == 1.0 and glm_rep.levels[1].bound_high == 16.0
    passed = (lin.passed and glm_rep.passed and cosh_rep.passed
              and gd_rep.passed and conv_rep.passed and glm_expected)
    return {"name": "spectral-propagation", "passed": passed, "details": details}


def _heterogeneous_quadratics():
    return [fa.QuadraticClient(np.diag([1.0, 3.0]), [1.0, 2.0]),
            fa.QuadraticClient(np.diag([3.0, 1.0]), [-1.0, 0.0])]


def fedavg_strongly_convex() -> dict:
    """Heterogeneous quadratic clients contract to the surrogate minimizer at
    the promised geometric rate, and the simulation matches the closed-form
    affine recursion."""
    clients = _heterogeneous_quadratics()
    alpha, beta = 1.0, 3.0
    details = {}
    passed = True
    for k in (1, 2, 4):
        config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=k, rounds=30,
                                 x0=[5.0, -3.0])
        trace = fa.run_fedavg(config)
        rate = fa.verify_rate(trace, alpha, beta, k, "strongly-convex")
        reference = fa.closed_form_affine_trace(clients, config)
        sim_gap = float(np.max(np.abs(reference - trace.xs)))
        ok = rate.passed and sim_gap <= 1e-9
        details[f"k{k}"] = {"rate_pass": rate.passed, "worst_margin": rate.worst_margin,
                            "closed_form_gap": sim_gap, "rho": rate.rho}
        passed = passed and ok
    return {"name": "fedavg-strongly-convex", "passed": passed, "cases": details}


def fedavg_convex() -> dict:
    """Logistic-model clients with opposing direction sets: the surrogate
    suboptimality obeys the 1/(2t) bound for two hundred rounds.  The
    single-local-step trace runs alongside for comparison; no speed verdict
    is drawn from it."""
    c1 = fa.GlmClient(GlmSpec([[1.0, 0.0], [0.0, 0.8]], "logistic"))
    c2 = fa.GlmClient(GlmSpec([[-1.0, 0.0], [0.0, -0.8]], "logistic"))
    beta = max(c1.smoothness_bound(), c2.smoothness_bound())
    config = fa.FedAvgConfig([c1, c2], gamma=1.0 / beta, eta=1.0, k=3, rounds=200,
                             x0=[1.5, -0.75])
    trace = fa.run_fedavg(config)
    rate = fa.verify_rate(trace, 0.0, beta, 3, "convex")
    baseline_cfg = fa.FedAvgConfig([c1, c2], gamma=1.0 / beta, eta=1.0, k=1,
                                   rounds=200, x0=[1.5, -0.75])
    baseline = fa.run_fedavg(baseline_cfg)
    checkpoints = (1, 10, 50, 200)
    passed = rate.passed and trace.fixed_point_method == "iterative"
    return {"name": "fedavg-convex", "passed": passed, "beta": beta,
            "gamma": config.gamma, "worst_margin": rate.worst_margin,
            "fixed_point": list(trace.fixed_point),
            "fixed_point_method": trace.fixed_point_method,
            "suboptimality_k3": {str(t): float(trace.fs[t] - trace.fs_star)
                                 for t in checkpoints},
            "suboptimality_k1": {str(t): float(baseline.fs[t] - baseline.fs_star)
                                 for t in checkpoints}}


def fedavg_reduction() -> dict:
    """With a unit server step and one local step the algorithm is plain
    gradient descent on the average loss, and the delta update reproduces the
    model-average recursion exactly."""
    clients = _heterogeneous_quadratics()
    config = fa.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=1, rounds=20,
                             x0=[2.0, 2.0])
    trace = fa.run_fedavg(config)
    grads = [c.gradient_field() for c in clients]
    x = np.array([2.0, 2.0])
    worst_gd = 0.0
    worst_avg = 0.0
    maps = [Iterate(gd_map(g, config.gamma), config.k) for g in grads]
    for t in range(config.rounds):
        avg = np.zeros(2)
        for m in maps:
            avg += m(x)
        avg /= len(maps)
        grad = np.zeros(2)
        for g in grads:
            grad += g(x)
        grad /= len(grads)
        x = x - config.gamma * grad
        worst_gd = max(worst_gd, float(np.max(np.abs(x - trace.xs[t + 1]))))
        worst_avg = max(worst_avg, float(np.max(np.abs(avg - trace.xs[t + 1]))))
    passed = worst_gd <= 1e-12 and worst_avg <= 1e-12
    return {"name": "fedavg-reduction", "passed": passed,
            "max_gap_vs_gradient_descent": worst_gd,
            "max_gap_vs_model_average": worst_avg}


def minimizer_gap() -> dict:
    """The surrogate minimizer equals the average-loss minimizer at one local
    step and for identical clients, and moves strictly away for heterogeneous
    clients with many local steps."""
    clients = _heterogeneous_quadratics()
    same = [fa.QuadraticClient(np.diag([1.0, 2.0]), [0.3, -0.7]),
            fa.QuadraticClient(np.diag([1.0, 2.0]), [0.3, -0.7])]
    k1 = fa.compare_minimizers(clients, 0.5, 1)
    k5 = fa.compare_minimizers(clients, 0.5, 5)
    ident = fa.compare_minimizers(same, 0.5, 4)
    passed = (k1.distance <= 1e-10 and ident.distance <= 1e-10
              and k5.distance > 1e-6)
    return {"name": "minimizer-gap", "passed": passed,
            "k1": k1.to_dict(), "k5": k5.to_dict(), "identical": ident.to_dict()}


SUITES = {
    "linear-pattern": linear_pattern,
    "rotation-divisibility": rotation_divisibility,
    "nilpotent": nilpotent,
    "constant-fields": constant_fields,
    "cubic-counterexample": cubic_counterexample,
    "cubic-hypersurface": cubic_hypersurface,
    "non-closure": non_closure,
    "glm-counterexample": glm_counterexample,
    "glm-orthogonal": glm_orthogonal,
    "glm-opposite": glm_opposite,
    "surrogate-gradient": surrogate_gradient,
    "spectral-propagation": spectral_propagation,
    "fedavg-strongly-convex": fedavg_strongly_convex,
    "fedavg-convex": fedavg_convex,
    "fedavg-reduction": fedavg_reduction,
    "minimizer-gap": minimizer_gap,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite entry {name!r}; known: {sorted(SUITES)}")
    return SUITES[name]()


def run_all() -> list[dict]:
    return [SUITES[name]() for name in sorted(SUITES)]
