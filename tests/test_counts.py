"""One rule for iteration counts at every public entry: an int or numpy
integer, not a bool, and at least 1.  Anything else is refused with a
ValueError, never truncated, read as 1 or left to fail deep inside."""

import numpy as np
import pytest

from iterfield import fedavg as fa
from iterfield.conservatism import (check_linear, check_numeric, check_poly, check_rotation,
                                    scan_k)
from iterfield.fields import Iterate, Linear, Rotation2D
from iterfield.glm import (GlmSpec, closed_form_deviation, iterated_glm, iterated_glm_gd,
                           surrogate_potential, surrogate_potentials)
from iterfield.polynomials import (PolyField, asymmetry_polys, cubic_asymmetry_coefficients,
                                   iterate_poly_field, linear_asymmetry_symbolic, parse_poly)
from iterfield.spectral import check_gd_propagation, check_propagation, model_delta_field

SPEC = GlmSpec([[0.5, 0.0], [0.0, 0.4]], "logistic")
LINEAR = Linear([[1, 2], [1, -1]])
POLY = PolyField.gradient_of(parse_poly("x0^2*x1", 2))
DIAGONAL = Linear([[1.0, 0.0], [0.0, 3.0]])
CLIENTS = [fa.QuadraticClient([[2, 0], [0, 1]], [1, -1]),
           fa.QuadraticClient([[1, 0], [0, 3]], [0, 2])]
POINT = [0.3, -0.2]


def _run(**counts):
    """A FedAvg run of CLIENTS at gamma = 2/(alpha+beta) for their spectra
    in [1, 3]."""
    config = fa.FedAvgConfig(CLIENTS, gamma=0.5, eta=1.0, x0=[0.5, -0.5],
                             **{"k": 2, "rounds": 3, **counts})
    return fa.run_fedavg(config)


TRACE = _run()


# entry name -> a call of that entry with one count replaced, giving a
# value that compares equal for equal counts
ENTRIES = {
    "check_rotation(j)": lambda c: check_rotation(c, 4),
    "check_rotation(k)": lambda c: check_rotation(2, c),
    "check_linear": lambda c: check_linear([[1, 2], [1, -1]], c),
    "check_numeric": lambda c: check_numeric(LINEAR, c),
    "check_poly": lambda c: check_poly(POLY, c),
    "scan_k": lambda c: scan_k(LINEAR, c).to_dict(),
    "iterate_poly_field": lambda c: iterate_poly_field(POLY, c),
    "asymmetry_polys": lambda c: asymmetry_polys(POLY, c),
    "cubic_asymmetry_coefficients": cubic_asymmetry_coefficients,
    "linear_asymmetry_symbolic": linear_asymmetry_symbolic,
    "Iterate": lambda c: Iterate(LINEAR, c)(POINT).tolist(),
    "Rotation2D": lambda c: Rotation2D(c).matrix.tolist(),
    "iterated_glm": lambda c: iterated_glm(SPEC, c)(POINT).tolist(),
    "iterated_glm_gd": lambda c: iterated_glm_gd(SPEC, 0.5, c)(POINT).tolist(),
    "closed_form_deviation": lambda c: closed_form_deviation(SPEC, [POINT], c),
    "surrogate_potential": lambda c: surrogate_potential(SPEC, POINT, c),
    "surrogate_potentials": lambda c: surrogate_potentials(SPEC, [POINT], c).tolist(),
    "check_propagation": lambda c: check_propagation(DIAGONAL, c).to_dict(),
    "check_gd_propagation": lambda c: check_gd_propagation(
        DIAGONAL, 0.5, c, alpha=1.0, beta=3.0).to_dict(),
    "model_delta_field": lambda c: model_delta_field(DIAGONAL, 0.5, c)(POINT).tolist(),
    "FedAvgConfig(k)": lambda c: _run(k=c).xs.tolist(),
    "FedAvgConfig(rounds)": lambda c: _run(rounds=c).xs.tolist(),
    "oracle_fixed_point": lambda c: fa.oracle_fixed_point(CLIENTS, 0.5, c)[0].tolist(),
    "server_surrogate": lambda c: fa.server_surrogate(CLIENTS, 0.5, c)(POINT),
    "compare_minimizers": lambda c: fa.compare_minimizers(CLIENTS, 0.5, c).to_dict(),
    "build_server_field": lambda c: fa.build_server_field(CLIENTS, 0.5, c).to_dict(),
    "verify_rate": lambda c: fa.verify_rate(TRACE, 1.0, 3.0, c).to_dict(),
}


@pytest.mark.parametrize("name", ENTRIES)
@pytest.mark.parametrize("count", [0, -1, 2.5, 2.0, True, "2", np.int64(0)],
                         ids=["0", "-1", "2.5", "2.0", "True", "'2'", "np.int64(0)"])
def test_a_count_that_is_not_an_integer_of_at_least_one_is_refused(name, count):
    with pytest.raises(ValueError, match=r"must be an integer >= 1, got "):
        ENTRIES[name](count)


@pytest.mark.parametrize("name", ENTRIES)
def test_a_numpy_integer_counts_as_the_equal_int(name):
    assert ENTRIES[name](np.int64(2)) == ENTRIES[name](2)
