"""In-memory tracing of iterfield's layers, installed from outside the package.

The tracer replaces public functions and methods with wrappers that record
call counts, self time (span duration minus the time covered by child
spans) and a few domain counters.  A function is replaced under every name
that refers to it in any ``iterfield`` module, so ``from .fields import
jacobian`` in another module is traced too.  Methods are replaced on the
class, so calls through ``Field.__call__`` or ``RationalPoly.mul`` are seen
whichever module makes them.  Nothing is written until the benchmark asks
for the aggregates.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Field variants whose jacobian_analytic delegates to other fields; every
# other variant with its own jacobian_analytic is a leaf, and one leaf call
# is one per-step Jacobian.
COMPOSITE_FIELDS = {"GdMap", "Iterate", "Sum", "Scale", "Compose"}

SPANS = (
    "fields.call", "fields.jacobian",
    "conservatism.scan_k", "conservatism.check_numeric",
    "conservatism.check_linear", "conservatism.check_poly",
    "polynomials.iterate_poly_field", "polynomials.asymmetry_polys",
    "polynomials.compose", "polynomials.mul",
    "rationals.mat_power", "rationals.mat_mul", "rationals.solve_linear",
    "glm.closed_form", "glm.surrogate_potential",
    "quadrature.integrate",
    "spectral.check_propagation", "spectral.check_gd_propagation",
    "fedavg.run_fedavg", "fedavg.oracle_fixed_point", "fedavg.verify_rate",
    "fedavg.compare_minimizers",
    "reports.canonical_json", "reports.write",
    "configs.parse", "cli.main",
)

COUNTS = (
    "fields.jacobian_step.calls", "fields.nonfinite.errors",
    "conservatism.skipped_samples", "conservatism.sampling.errors",
    "polynomials.terms_out", "polynomials.size.errors",
    "quadrature.integrate.errors", "spectral.spectrum_at.calls",
    "fedavg.rounds", "fedavg.oracle.affine_solve", "fedavg.oracle.iterative",
    "reports.canonical_json.bytes",
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self._stack: list[list[float]] = []
        self._scan_depth = 0
        self.scan_useful_steps = 0
        self.scan_steps = 0

    # ----- recording -----

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``after(result, args)`` may add counters."""
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._error(err)
                raise
            finally:
                duration = clock() - t0
                stack.pop()
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(result, args)
            return result

        return functools.update_wrapper(wrapper, fn)

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if self._scan_depth:
                self.scan_steps += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _error(self, err):
        # Count an exception once, where it first leaves a traced span; a
        # re-raised copy chained to a counted one is the same failure.
        link = err
        while link is not None:
            if getattr(link, "_perfbench_seen", False):
                return
            link = link.__cause__ or link.__context__
        try:
            err._perfbench_seen = True
        except AttributeError:
            return
        kind = type(err).__name__
        key = {"NonFiniteValueError": "fields.nonfinite.errors",
               "SamplingError": "conservatism.sampling.errors",
               "PolynomialSizeError": "polynomials.size.errors",
               "QuadratureError": "quadrature.integrate.errors"}.get(kind)
        if key is not None:
            self.counts[key] += 1

    # ----- aggregates -----

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for one seed."""
        out = {f"{name}.calls": int(self.calls[name]) for name in sorted(self.calls)}
        out.update({name: int(self.counts[name]) for name in sorted(self.counts)})
        return out

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "scan_useful_steps": self.scan_useful_steps,
                "scan_steps": self.scan_steps}


def _replace_everywhere(original, replacement):
    """Rebind every module-level name in iterfield that refers to original."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "iterfield" or mod_name.startswith("iterfield.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _denominator_bits(value) -> int:
    rows = value if isinstance(value, list) else [value]
    best = 0
    for row in rows:
        for x in (row if isinstance(row, list) else [row]):
            den = getattr(x, "denominator", 1)
            best = max(best, int(den).bit_length())
    return best


def install(tracer: Tracer) -> None:
    """Wrap iterfield's layers; call once per process, before any op."""
    import iterfield
    import iterfield.cli
    from iterfield import (configs, conservatism, fedavg, fields, glm,
                           polynomials, quadrature, rationals, reports,
                           spectral, suites)

    def wrap_function(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.span(name, original, after))

    def wrap_method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.span(name, cls.__dict__[attr], after))

    counts, maxima = tracer.counts, tracer.maxima

    # fields
    wrap_method(fields.Field, "__call__", "fields.call")
    wrap_function(fields, "jacobian", "fields.jacobian")
    stack = [fields.Field]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__name__ not in COMPOSITE_FIELDS and "jacobian_analytic" in cls.__dict__ \
                and cls is not fields.Field:
            setattr(cls, "jacobian_analytic",
                    tracer.counter("fields.jacobian_step.calls", cls.__dict__["jacobian_analytic"]))

    # conservatism
    scan_original = conservatism.scan_k

    def scan_entry(*args, **kwargs):
        tracer._scan_depth += 1
        try:
            report = scan_original(*args, **kwargs)
        finally:
            tracer._scan_depth -= 1
        numeric_ks = [k for k, v in report.entries if v.kind.startswith("numeric")]
        if numeric_ks:
            tracer.scan_useful_steps += report.sampling.count * max(numeric_ks)
        return report

    _replace_everywhere(scan_original, tracer.span(
        "conservatism.scan_k", functools.update_wrapper(scan_entry, scan_original)))

    def add_skipped(verdict, _args):
        counts["conservatism.skipped_samples"] += verdict.skipped_samples

    wrap_function(conservatism, "check_numeric", "conservatism.check_numeric", add_skipped)
    wrap_function(conservatism, "check_linear", "conservatism.check_linear")
    wrap_function(conservatism, "check_poly", "conservatism.check_poly")

    # polynomials
    def add_terms(result, _args):
        counts["polynomials.terms_out"] += len(result.terms)

    wrap_function(polynomials, "iterate_poly_field", "polynomials.iterate_poly_field")
    wrap_function(polynomials, "asymmetry_polys", "polynomials.asymmetry_polys")
    wrap_method(polynomials.RationalPoly, "compose", "polynomials.compose", add_terms)
    wrap_method(polynomials.RationalPoly, "mul", "polynomials.mul")

    # rationals
    def add_bits(result, _args):
        bits = _denominator_bits(result)
        if bits > maxima["rationals.denominator_bits_max"]:
            maxima["rationals.denominator_bits_max"] = bits

    wrap_function(rationals, "mat_power", "rationals.mat_power", add_bits)
    wrap_function(rationals, "mat_mul", "rationals.mat_mul")
    wrap_function(rationals, "solve_linear", "rationals.solve_linear", add_bits)

    # glm
    wrap_method(glm.GlmIterate, "_eval", "glm.closed_form")
    wrap_method(glm.GlmGdIterate, "_eval", "glm.closed_form")
    wrap_function(glm, "surrogate_potential", "glm.surrogate_potential")

    # quadrature
    wrap_function(quadrature, "integrate", "quadrature.integrate")

    # spectral
    wrap_function(spectral, "check_propagation", "spectral.check_propagation")
    wrap_function(spectral, "check_gd_propagation", "spectral.check_gd_propagation")
    spectrum_original = spectral.spectrum_at

    def spectrum_counted(*args, **kwargs):
        counts["spectral.spectrum_at.calls"] += 1
        return spectrum_original(*args, **kwargs)

    _replace_everywhere(spectrum_original,
                        functools.update_wrapper(spectrum_counted, spectrum_original))

    # fedavg
    def add_rounds(trace, _args):
        counts["fedavg.rounds"] += trace.rounds_completed

    def add_method(result, _args):
        counts[f"fedavg.oracle.{result[1].replace('-', '_')}"] += 1

    wrap_function(fedavg, "run_fedavg", "fedavg.run_fedavg", add_rounds)
    wrap_function(fedavg, "oracle_fixed_point", "fedavg.oracle_fixed_point", add_method)
    wrap_function(fedavg, "verify_rate", "fedavg.verify_rate")
    wrap_function(fedavg, "compare_minimizers", "fedavg.compare_minimizers")

    # reports, configs, cli, suites
    def add_bytes(text, _args):
        counts["reports.canonical_json.bytes"] += len(text.encode("utf-8"))

    wrap_function(reports, "canonical_json", "reports.canonical_json", add_bytes)
    wrap_function(reports, "write_text", "reports.write")
    wrap_function(configs, "fedavg_config_from_obj", "configs.parse")
    wrap_function(configs, "field_from_obj", "configs.parse")
    wrap_function(iterfield.cli, "main", "cli.main")
    for entry, fn in list(suites.SUITES.items()):
        suites.SUITES[entry] = tracer.span(f"suites.{entry}", fn)
