"""A census of the public signatures: the parameter names of every callable
that ``iterfield`` exports (functions, and the ``__init__`` of classes that
define one), pinned here.  Each parameter is a setting the tests and the
benchmark must cover, so a new one, or a removed one, shows up as an edit
of this file."""

import inspect

import iterfield

SIGNATURES = {
    "Activation": ("name", "fn", "deriv", "second", "curvature_bound", "deriv_array"),
    "activation_from_expression": ("expression",),
    "Affine": ("matrix", "offset"),
    "Analytic": (),
    "asymmetry": ("M",),
    "asymmetry_polys": ("field", "k", "coord_vars"),
    "build_server_field": ("clients", "gamma", "k", "sampling"),
    "Callback": ("fn", "dimension", "jacobian", "name"),
    "CentralDifference": ("h",),
    "ChainProduct": ("base",),
    "check_gd_propagation": ("f_grad", "gamma", "k", "samples", "claimed", "alpha", "beta",
                             "delta", "critical_points"),
    "check_linear": ("matrix", "k"),
    "check_numeric": ("field", "k", "samples", "threshold"),
    "check_poly": ("polyfield", "k"),
    "check_propagation": ("f_grad", "k", "samples", "threshold"),
    "check_rotation": ("j", "k"),
    "classify": ("field", "samples", "threshold"),
    "closed_form_affine_trace": ("clients", "config"),
    "compare_minimizers": ("clients", "gamma", "k"),
    "Compose": ("outer", "inner"),
    "compose": ("outer", "inner"),
    "ConservatismReport": ("field_desc", "threshold", "sampling", "entries"),
    "Constant": ("value",),
    "ConvexityClass": ("kind", "alpha_hat", "beta_hat", "delta_hat"),
    "CoordWise1D": ("maps",),
    "cubic_asymmetry_coefficients": ("k",),
    "cubic_gate": ("a", "b", "c", "d"),
    "cubic_gate_symbolic": (),
    "derivative_residual": ("activation", "ts"),
    "divide_exact": ("dividend", "divisor"),
    "draw_samples": ("dimension", "config"),
    "evaluate": ("field", "x"),
    "FedAvgConfig": ("clients", "gamma", "eta", "k", "rounds", "x0", "seed", "mode", "alpha",
                     "beta"),
    "FedAvgTrace": ("config", "xs", "server_values", "dists", "ratios", "fs", "fs_star",
                    "fixed_point", "fixed_point_method", "fixed_point_residual", "note"),
    "gd_map": ("f_grad", "gamma"),
    "GdMap": ("inner", "gamma"),
    "GdPropagationReport": ("claimed", "gamma", "lam", "k", "levels"),
    "get_activation": ("name",),
    "glm_gradient": ("spec",),
    "GlmClient": ("spec", "label"),
    "GlmGdIterate": ("spec", "gamma", "k"),
    "GlmGradient": ("spec",),
    "GlmIterate": ("spec", "k"),
    "GlmSpec": ("directions", "activation"),
    "identity_field": ("n",),
    "integrate": ("fn", "a", "b"),
    "integrate_batch": ("fn", "a", "b"),
    "Iterate": ("inner", "k"),
    "iterate_poly_field": ("field", "k", "coord_vars"),
    "iterated_glm": ("spec", "k"),
    "iterated_glm_gd": ("spec", "gamma", "k"),
    "jacobian": ("field", "x", "method"),
    "jacobian_polys": ("field", "coord_vars"),
    "Linear": ("matrix",),
    "linear_asymmetry_symbolic": ("k",),
    "MinimizerComparison": ("surrogate_minimizer", "average_minimizer", "distance",
                            "surrogate_method", "average_method"),
    "model_delta_field": ("f_grad", "gamma", "j"),
    "NonFiniteValueError": ("message", "iterate_index"),
    "oracle_fixed_point": ("clients", "gamma", "k", "x0"),
    "orthogonality_check": ("directions",),
    "parse_poly": ("text", "nvars", "names"),
    "PolyExact": ("polyfield",),
    "PolyField": ("components",),
    "PropagationReport": ("alpha_hat", "beta_hat", "k", "levels"),
    "QuadraticClient": ("matrix", "center", "label"),
    "RateReport": ("mode", "rho", "bounds", "observed", "margins", "worst_margin", "passed"),
    "RationalPoly": ("nvars", "terms"),
    "Rotation2D": ("j",),
    "run_fedavg": ("config",),
    "SamplingConfig": ("count", "radius", "seed", "kind"),
    "ScalarMap": ("name", "fn", "deriv"),
    "Scale": ("c", "inner"),
    "scan_k": ("field", "k_max", "mode", "sampling", "threshold"),
    "server_surrogate": ("clients", "gamma", "k"),
    "ServerFieldInfo": ("field", "dimension", "conservatism", "surrogate_available"),
    "spectrum_at": ("field", "x"),
    "SpectrumSample": ("point", "lambda_min", "lambda_max", "asymmetry"),
    "Sum": ("fields", "weights"),
    "surrogate_potential": ("spec", "x", "k", "mode", "gamma"),
    "surrogate_potentials": ("spec", "points", "k", "mode", "gamma"),
    "Verdict": ("kind", "residual", "witness", "certificate", "skipped_samples"),
    "verify_rate": ("trace", "alpha", "beta", "k", "mode"),
}


def _census():
    found = {}
    for names in iterfield._EXPORTS.values():
        for name in names:
            obj = getattr(iterfield, name)
            if inspect.isclass(obj):
                # exceptions and helpers that inherit object's or
                # Exception's constructor take nothing of their own
                if inspect.isfunction(obj.__init__):
                    found[name] = tuple(inspect.signature(obj.__init__).parameters)[1:]
            elif callable(obj):
                found[name] = tuple(inspect.signature(obj).parameters)
    return found


def test_every_public_signature_is_pinned():
    assert _census() == SIGNATURES
