"""One-dimensional adaptive quadrature used for potentials.

Thin wrapper over scipy's adaptive Gauss-Kronrod integrator with a strict
absolute tolerance and a subinterval cap; non-convergence is an error that
names the interval instead of a silently loose value.  Overflow or a
non-finite value, in the integrand or in the integral, raises
NonFiniteValueError: potentials keep the fields' overflow policy.
"""

from __future__ import annotations

import math
from typing import Callable

from .fields import NonFiniteValueError

ABS_TOL = 1e-10
SUBINTERVAL_CAP = 10**4


class QuadratureError(RuntimeError):
    """The adaptive integrator failed to converge on an interval."""


def integrate(fn: Callable[[float], float], a: float, b: float,
              tol: float = ABS_TOL, limit: int = SUBINTERVAL_CAP) -> float:
    if a == b:
        return 0.0
    from scipy.integrate import quad  # here, so commands that never integrate skip it

    def finite(t):
        value = fn(t)
        if not math.isfinite(value):
            raise NonFiniteValueError(f"integrand is {value} at t={t} on [{a}, {b}]")
        return value

    try:
        result = quad(finite, a, b, epsabs=tol, epsrel=1e-12, limit=limit, full_output=True)
    except OverflowError as err:
        raise NonFiniteValueError(f"integrand overflowed on [{a}, {b}]") from err
    value, abserr = result[0], result[1]
    if not (math.isfinite(value) and math.isfinite(abserr)):
        raise NonFiniteValueError(f"integral or its error estimate overflowed on [{a}, {b}]")
    if len(result) > 3:
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: {result[3]}")
    if abserr > max(tol, 1e-8 * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance on [{a}, {b}]")
    return value
