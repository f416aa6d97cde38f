"""Iterated vector fields: conservatism, exact certificates, closed-form
model iterates, spectral propagation, and federated averaging experiments.

Each submodule loads the first time it, or one of its names below, is
used: ``import iterfield`` loads none of them."""

__version__ = "0.1.0"


class IterfieldError(Exception):
    """Base of every exception iterfield defines, so one ``except`` clause
    catches each way the library refuses to decide."""


from importlib import import_module as _import_module

# The public names, by the submodule that defines them.
_EXPORTS = {
    "fields": (
        "Affine", "Analytic", "Callback", "CentralDifference", "ChainProduct", "Compose",
        "Constant", "CoordWise1D", "DimensionMismatchError", "Field", "FieldError",
        "GdMap", "Iterate", "JacobianMethodError", "Linear", "NonFiniteValueError",
        "PolyExact", "Rotation2D", "Scale", "ScalarMap", "Sum", "asymmetry", "compose",
        "evaluate", "gd_map", "identity_field", "jacobian"),
    "polynomials": (
        "PolyField", "PolynomialSizeError", "RationalPoly", "asymmetry_polys",
        "cubic_asymmetry_coefficients", "cubic_gate", "cubic_gate_symbolic",
        "divide_exact", "iterate_poly_field", "jacobian_polys", "linear_asymmetry_symbolic",
        "parse_poly"),
    "conservatism": (
        "ConservatismReport", "SamplingConfig", "SamplingError", "Verdict",
        "check_linear", "check_numeric", "check_poly", "check_rotation", "draw_samples",
        "scan_k"),
    "glm": (
        "ACTIVATIONS", "Activation", "GlmGdIterate", "GlmGradient", "GlmIterate",
        "GlmSpec", "NonOrthogonalError", "activation_from_expression",
        "derivative_residual", "get_activation", "glm_gradient", "iterated_glm",
        "iterated_glm_gd", "orthogonality_check", "surrogate_potential",
        "surrogate_potentials"),
    "spectral": (
        "ConvexityClass", "GdPropagationReport", "NotConservativeError",
        "PropagationReport", "SpectrumSample", "StepSizeError", "check_gd_propagation",
        "check_propagation", "classify", "model_delta_field", "spectrum_at"),
    "fedavg": (
        "ConvergenceError", "FedAvgConfig", "FedAvgTrace", "GlmClient",
        "HyperparameterError", "MinimizerComparison", "QuadraticClient", "RateReport",
        "ServerFieldInfo", "SurrogateUnavailableError", "build_server_field",
        "closed_form_affine_trace", "compare_minimizers", "oracle_fixed_point",
        "run_fedavg", "server_surrogate", "verify_rate"),
    "quadrature": ("QuadratureError", "integrate", "integrate_batch"),
    "rationals": (),
}
# name -> submodule; a submodule names itself
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted([*_ORIGIN, "IterfieldError"])


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
