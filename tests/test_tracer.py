"""The benchmark's out-of-package tracer still installs on this code.

perfbench/tracer.py wraps iterfield functions and methods by name; a name
it wraps that the package no longer has would only show when the traced
benchmark runs.  This runs the tracer in a fresh process, as the benchmark
does, on 5-sample scans of a model gradient, its descent map, its
compositions with a Linear field on either side, a scale and a sum, and
on 5-sample propagation checks, and pins their leaf Jacobian counts, with
the benchmark's reference count.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracer
recorder = tracer.Tracer()
tracer.install(recorder)
import iterfield
spec = iterfield.GlmSpec([[1.0, 0.0], [0.0, 0.8]], "logistic")
grad = iterfield.glm_gradient(spec)
sampling = iterfield.SamplingConfig(count=5, seed=1)
iterfield.scan_k(grad, 3, sampling=sampling)
assert recorder.calls["conservatism.scan_k"] == 1, recorder.calls
assert recorder.counts["fields.jacobian_step.calls"] == 15, recorder.counts
# composed fields still make one leaf Jacobian call per leaf, point and step
iterfield.scan_k(iterfield.gd_map(grad, 0.5), 3, mode="numeric", sampling=sampling)
assert recorder.counts["fields.jacobian_step.calls"] == 15 + 15, recorder.counts
linear = iterfield.Linear([[0.9, 0.1], [0.0, 0.8]])
iterfield.scan_k(iterfield.compose(linear, grad), 3, mode="numeric", sampling=sampling)
assert recorder.counts["fields.jacobian_step.calls"] == 15 + 15 + 30, recorder.counts
# so do the other batched composites: a scale, a sum, and a composition
# whose outer field is not Linear
before = recorder.counts["fields.jacobian_step.calls"]
iterfield.scan_k(iterfield.Scale(-0.5, grad), 3, mode="numeric", sampling=sampling)
assert recorder.counts["fields.jacobian_step.calls"] == before + 15, recorder.counts
iterfield.scan_k(iterfield.Sum([grad, linear], [0.5, 1.0]), 3, mode="numeric", sampling=sampling)
assert recorder.counts["fields.jacobian_step.calls"] == before + 15 + 30, recorder.counts
iterfield.scan_k(iterfield.compose(grad, linear), 3, mode="numeric", sampling=sampling)
assert recorder.counts["fields.jacobian_step.calls"] == before + 15 + 30 + 30, recorder.counts
# the batched propagation checks too: one leaf call per point and step
before = recorder.counts["fields.jacobian_step.calls"]
iterfield.check_propagation(grad, 3, sampling)
assert recorder.counts["fields.jacobian_step.calls"] == before + 15, recorder.counts
iterfield.check_gd_propagation(grad, 0.5, 3, sampling, claimed="convex", beta=0.25)
assert recorder.counts["fields.jacobian_step.calls"] == before + 15 + 15, recorder.counts
import baseline
reference = baseline.reference_count(iterfield, recorder)
assert reference["jacobian_steps"] == reference["floor"] == 1000, reference
"""


def test_tracer_installs_and_counts_a_scan():
    script = SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"),
                           src=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
