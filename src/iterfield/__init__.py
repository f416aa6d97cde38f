"""Iterated vector fields: conservatism, exact certificates, closed-form
model iterates, spectral propagation, and federated averaging experiments."""

__version__ = "0.1.0"

from .fields import (Affine, Analytic, Callback, CentralDifference, ChainProduct,
                     Compose, Constant, CoordWise1D, DimensionMismatchError, Field,
                     FieldError, GdMap, Iterate, JacobianMethodError, Linear,
                     NonFiniteValueError, PolyExact, Rotation2D, Scale, ScalarMap,
                     Sum, asymmetry, compose, evaluate, gd_map, identity_field,
                     jacobian)
from .polynomials import (PolyField, PolynomialSizeError, RationalPoly,
                          asymmetry_polys, cubic_asymmetry_coefficients,
                          cubic_gate, cubic_gate_symbolic, divide_exact,
                          iterate_poly_field, jacobian_polys, linear_asymmetry,
                          linear_asymmetry_symbolic, parse_poly)
from .conservatism import (ConservatismReport, SamplingConfig, SamplingError,
                           Verdict, check_linear, check_numeric, check_poly,
                           check_rotation, draw_samples, scan_k)
from .glm import (ACTIVATIONS, Activation, GlmGdIterate, GlmGradient, GlmIterate,
                  GlmSpec, NonOrthogonalError, activation_from_expression,
                  derivative_residual, get_activation, glm_gradient,
                  iterated_glm, iterated_glm_gd, orthogonality_check,
                  surrogate_potential, surrogate_potentials)
from .spectral import (ConvexityClass, GdPropagationReport, NotConservativeError,
                       PropagationReport, SpectrumSample, StepSizeError,
                       check_gd_propagation, check_propagation, classify,
                       model_delta_field, spectrum_at)
from .fedavg import (ConvergenceError, FedAvgConfig, FedAvgTrace,
                     GlmClient, HyperparameterError, MinimizerComparison,
                     QuadraticClient, RateReport, ServerFieldInfo,
                     SurrogateUnavailableError, build_server_field,
                     closed_form_affine_trace, compare_minimizers,
                     oracle_fixed_point, run_fedavg, server_surrogate, verify_rate)
from .quadrature import QuadratureError, integrate, integrate_batch
