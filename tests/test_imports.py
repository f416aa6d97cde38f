"""What ``import iterfield``, ``iterfield.cli`` and each path load: each
submodule on first use, and only the layers the path runs.  Every check
runs in a fresh process, whose ``sys.modules`` shows what got imported."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PRELUDE = """
import sys
sys.path.insert(0, {src!r})
import iterfield as itf

def loaded():
    return {{name[len("iterfield."):] for name in sys.modules if name.startswith("iterfield.")}}
"""

SCRIPTS = {
    "bare-import": """
assert loaded() == set(), loaded()
""",
    "exact-checks": """
report = itf.scan_k(itf.Linear([[1, 2], [1, -1]]), k_max=4)
assert report.pattern() == {1: False, 2: True, 3: False, 4: True}
itf.scan_k(itf.Affine([[0.5, 0.1], [0.1, 0.2]], [1, 0]), k_max=3)
V = itf.PolyField.gradient_of(itf.parse_poly("1*x0^2*x1^1", 2))
assert itf.check_poly(V, 2).certificate == "4*x0^3 + -8*x0^1*x1^2"
assert not loaded() & {"glm", "quadrature", "spectral", "fedavg"}, loaded()
""",
    "numeric-glm": """
grad = itf.glm_gradient(itf.GlmSpec([[0.5, 0.0], [0.0, 0.4]], "logistic"))
itf.scan_k(grad, k_max=5)
itf.check_propagation(grad, k=3)
assert {"glm", "spectral"} <= loaded(), loaded()
assert not loaded() & {"fedavg", "quadrature", "polynomials"}, loaded()
""",
    "numeric-glm-and-linear": """
# a GLM has no polynomial form, so a composition with a Linear, on either
# side, never forms the Linear's
grad = itf.glm_gradient(itf.GlmSpec([[0.5, 0.0], [0.0, 0.4]], "logistic"))
linear = itf.Linear([[0.8, 0.1], [-0.1, 0.7]])
itf.scan_k(itf.compose(grad, linear), k_max=3)
itf.scan_k(itf.compose(linear, grad), k_max=3)
assert "glm" in loaded(), loaded()
assert not loaded() & {"fedavg", "quadrature", "polynomials"}, loaded()
""",
    "fedavg-run": """
quadratic = [itf.QuadraticClient([[2, 0], [0, 1]], [1, -1]),
             itf.QuadraticClient([[1, 0], [0, 3]], [0, 2])]
logistic = [itf.GlmClient(itf.GlmSpec([[0.8, 0.0], [0.0, 0.5]], "logistic")),
            itf.GlmClient(itf.GlmSpec([[-0.6, 0.0], [0.0, -0.4]], "logistic"))]
for clients in (quadratic, logistic):
    trace = itf.run_fedavg(itf.FedAvgConfig(clients, gamma=0.5, eta=1.0, k=2, rounds=5,
                                            x0=[0.5, -0.5]))
    assert trace.fixed_point is not None and trace.fs is not None
assert {"fedavg", "glm"} <= loaded(), loaded()
assert not loaded() & {"conservatism", "spectral", "polynomials", "configs", "reports",
                       "suites"}, loaded()
""",
    "cli-fedavg": """
import contextlib, io, json, os, tempfile
from iterfield.cli import main
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "run.json")
    with open(path, "w") as handle:
        json.dump({"clients": [{"kind": "quadratic", "matrix": [[2, 0], [0, 1]],
                                "center": [1, -1]},
                               {"kind": "glm", "activation": "logistic",
                                "directions": [[-0.8, 0.0], [0.0, -0.5]]}],
                   "gamma": 0.5, "k": 2, "rounds": 5, "x0": [0.5, -0.5]}, handle)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fedavg", "--config", path, "--outdir", tmp]) == 0
assert {"fedavg", "configs"} <= loaded(), loaded()
assert not loaded() & {"conservatism", "spectral", "polynomials", "suites"}, loaded()
""",
    "cli-scan-glm-field": """
import contextlib, io
from iterfield.cli import main
field = '{"variant": "glm", "activation": "logistic", "directions": [[0.5, 0.0], [0.0, 0.4]]}'
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["scan", "--field", field, "--k-max", "3"]) == 0
assert {"glm", "conservatism", "configs"} <= loaded(), loaded()
assert not loaded() & {"fedavg", "polynomials", "spectral", "suites"}, loaded()
""",
    "every-name": """
import importlib
for module, names in itf._EXPORTS.items():
    sub = importlib.import_module("iterfield." + module)
    assert getattr(itf, module) is sub, module
    for name in names:
        assert getattr(itf, name) is getattr(sub, name), name
assert set(itf.__all__) == (set(itf._EXPORTS) | {n for ns in itf._EXPORTS.values() for n in ns}
                           | {"IterfieldError"})
assert set(itf.__all__) <= set(dir(itf))
assert len(itf._EXPORTS) == 8
""",
    "cli-import": """
import iterfield.cli
assert loaded() == {"cli"}, loaded()
""",
    "cli-check-linear": """
import contextlib, io
from iterfield.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check", "--linear", "[[1,2],[1,-1]]", "--k", "1..4"]) == 0
assert not loaded() & {"glm", "spectral", "fedavg", "quadrature", "suites", "configs",
                       "polynomials"}, loaded()
""",
    "star-import": """
from iterfield import *
assert scan_k is itf.conservatism.scan_k and fedavg is itf.fedavg
assert run_fedavg is fedavg.run_fedavg
""",
    "unknown-name": """
try:
    itf.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err), err
else:
    raise AssertionError("no AttributeError")
assert not hasattr(itf, "reports") and loaded() == set(), loaded()
""",
}


@pytest.mark.parametrize("case", sorted(SCRIPTS))
def test_submodules_load_on_first_use(case):
    script = PRELUDE.format(src=SRC) + SCRIPTS[case]
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
