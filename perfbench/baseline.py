"""Cross-check against the baseline table in ROADMAP.md (a report, not a gate),
and the reference count that tells whether the tracer sees every call.

The ROADMAP figures were single runs (or best of 3) on a shared 2-vCPU
virtual machine with Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and sympy 1.14.0.
"""

from __future__ import annotations

import os
import tempfile
import time

# Seed-code count for the reference scan below: 50 samples x (1 + 2 + ... + 20)
# step Jacobians, because each k re-walks the orbit from the start.  An O(k)
# walk needs 50 x 20; fewer than that means the tracer missed calls.
REFERENCE_STEP_JACOBIANS = 10_500
REFERENCE_SAMPLES, REFERENCE_K_MAX = 50, 20

ROADMAP_ROWS = {
    "numeric-orbit": [("scan_k numeric logistic 3-D, k_max=5", 24.0),
                      ("scan_k numeric logistic 3-D, k_max=10", 83.0),
                      ("scan_k numeric logistic 3-D, k_max=20", 392.0),
                      ("scan_k numeric logistic 3-D, k_max=40", 1611.0)],
    "exact-certificates": [("scan_k exact linear 6x6, k_max=10", 24.0),
                           ("scan_k exact linear 6x6, k_max=20", 60.0),
                           ("scan_k exact linear 6x6, k_max=40", 158.0),
                           ("cubic tower asymmetry, k=2", 3.1),
                           ("cubic tower asymmetry, k=3", 75.0)],
    "fedavg-rounds": [("run_fedavg, 2 logistic clients, k=3, T=200", 154.0)],
    "paper-suite": [("paper-suite full (ROADMAP: CLI process, here in-process)", 2700.0)],
}
STARTUP_ROADMAP_MS = (800.0, 1000.0)


def _logistic_3d(itf):
    return itf.glm_gradient(itf.GlmSpec([[1.0, 0.0, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 0.6]],
                                        "logistic"))


def _time_ms(fn):
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1000.0


def _calls(name, itf):
    """The calls behind each ROADMAP row of one workload, in table order."""
    if name == "numeric-orbit":
        field = _logistic_3d(itf)
        return [lambda k=k: itf.scan_k(field, k) for k in (5, 10, 20, 40)]
    if name == "exact-certificates":
        matrix = [[(3 * i + 5 * j) % 7 - 3 for j in range(6)] for i in range(6)]
        field = itf.Linear(matrix)
        return ([lambda k=k: itf.scan_k(field, k) for k in (10, 20, 40)]
                + [lambda k=k: itf.cubic_asymmetry_coefficients(k) for k in (2, 3)])
    if name == "fedavg-rounds":
        from iterfield import fedavg as fa
        c1 = fa.GlmClient(itf.GlmSpec([[1.0, 0.0], [0.0, 0.8]], "logistic"))
        c2 = fa.GlmClient(itf.GlmSpec([[-1.0, 0.0], [0.0, -0.8]], "logistic"))
        beta = max(c1.smoothness_bound(), c2.smoothness_bound())
        config = fa.FedAvgConfig([c1, c2], gamma=1.0 / beta, eta=1.0, k=3, rounds=200,
                                 x0=[1.5, -0.75])
        return [lambda: fa.run_fedavg(config)]
    from iterfield import cli

    def full_pass():
        with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".perfbench_tmp")) as out:
            cli.main(["paper-suite", "full", "--outdir", out])

    return [full_pass]


def measure(name, itf, setup_s):
    """Rows of (label, measured ms, ROADMAP ms) for one workload, untraced."""
    rows = [("startup (import + build inputs)", setup_s * 1000.0, STARTUP_ROADMAP_MS)]
    for (label, reference), call in zip(ROADMAP_ROWS[name], _calls(name, itf)):
        rows.append((label, _time_ms(call), reference))
    return rows


def format_rows(rows):
    lines = ["baseline cross-check against ROADMAP.md (not a gate):"]
    for label, ours, reference in rows:
        lo, hi = reference if isinstance(reference, (tuple, list)) else (reference, reference)
        ratio = ours / hi if ours > hi else ours / lo
        note = "" if 0.5 <= ratio <= 2.0 else f"  DEVIATES x{ratio:.2f}"
        ref_text = f"{lo:g}-{hi:g}" if lo != hi else f"{lo:g}"
        lines.append(f"  {label:<58} {ours:10.1f} ms   ROADMAP {ref_text} ms{note}")
    return lines


def reference_count(itf, tracer):
    """Step Jacobians the tracer counts for the logistic 3-D scan at k_max=20."""
    before = tracer.counts["fields.jacobian_step.calls"]
    itf.scan_k(_logistic_3d(itf), REFERENCE_K_MAX,
               sampling=itf.SamplingConfig(count=REFERENCE_SAMPLES, seed=0))
    steps = tracer.counts["fields.jacobian_step.calls"] - before
    return {"jacobian_steps": steps, "floor": REFERENCE_SAMPLES * REFERENCE_K_MAX,
            "seed_code": REFERENCE_STEP_JACOBIANS}
