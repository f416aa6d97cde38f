"""Command-line interface: parse configs, dispatch, emit deterministic reports.

Exit codes: 0 on success, 1 on a verified failure (an asserted expectation
did not hold), 2 on anything that keeps a command from deciding.  A
refusal (a ValueError, an OverflowError from an input too large to
convert, or an IterfieldError such as too many overflowing samples) prints
one ``error:`` line; any other exception prints its traceback.  No
exception exits 1.
All artifacts are written atomically and are byte-identical across reruns
with the same seed; the ITERFIELD_SEED environment variable overrides
config seeds.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import IterfieldError, __version__

USAGE_ERROR = 2
VERIFIED_FAIL = 1


def _resolve_seed(seed: int | None) -> int | None:
    from .reports import ConfigError
    env = os.environ.get("ITERFIELD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise ConfigError(f"ITERFIELD_SEED must be an integer, got {env!r}") from err
    return seed


def _parse_k_range(text: str) -> list[int]:
    from .reports import ConfigError
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(text)]
    except ValueError as err:
        raise ConfigError(f"bad k range {text!r}; use e.g. '3' or '1..4'") from err
    if ks and ks[0] < 1:
        raise ConfigError(f"k range {text!r} must start at 1 or above")
    return ks


def _field_from_args(args) -> tuple:
    """Build the field plus a JSON-able description of how it was requested."""
    from .fields import Linear, PolyExact, Rotation2D
    from .reports import ConfigError, load_json_file, load_json_text
    chosen = [name for name in ("linear", "rotation", "poly", "field")
              if getattr(args, name, None) is not None]
    if len(chosen) != 1:
        raise ConfigError("give exactly one of --linear, --rotation, --poly, --field")
    kind = chosen[0]
    if kind == "linear":
        matrix = load_json_text(args.linear, origin="--linear")
        return Linear(matrix), {"variant": "linear", "matrix": matrix}
    if kind == "rotation":
        return Rotation2D(args.rotation), {"variant": "rotation", "j": args.rotation}
    if kind == "poly":
        from .polynomials import PolyField
        components = [p.strip() for p in args.poly.split(";") if p.strip()]
        try:
            return (PolyExact(PolyField.from_texts(components, len(components))),
                    {"variant": "poly", "components": components})
        except ValueError as err:
            raise ConfigError(f"bad --poly: {err}") from err
    text = args.field
    obj = load_json_text(text, origin="--field") if text.lstrip().startswith("{") \
        else load_json_file(text)
    from .configs import field_from_obj
    return field_from_obj(obj), obj


def _sampling_from_args(args):
    from .conservatism import SamplingConfig
    return SamplingConfig(count=args.samples, radius=args.radius,
                          seed=_resolve_seed(args.seed),
                          kind="box" if args.box else "ball")


def _emit(args, payload: dict) -> None:
    from .reports import canonical_json, write_json
    if getattr(args, "out", None):
        write_json(args.out, payload)
        print(args.out)
    else:
        sys.stdout.write(canonical_json(payload))


def _add_field_arguments(parser):
    parser.add_argument("--linear", help="inline JSON matrix for a linear field")
    parser.add_argument("--rotation", type=int, help="rotation field order j (angle pi/j)")
    parser.add_argument("--poly", help="semicolon-separated polynomial components in x0, x1, ...")
    parser.add_argument("--field", help="field definition: inline JSON object or a path to one")


def _add_sampling_arguments(parser):
    parser.add_argument("--samples", type=int, default=50, help="sample count (default 50)")
    parser.add_argument("--radius", type=float, default=1.0, help="sampling radius (default 1)")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    parser.add_argument("--box", action="store_true", help="sample a box instead of a ball")
    parser.add_argument("--threshold", type=float, default=1e-8,
                        help="numeric residual threshold (default 1e-8)")


def _cmd_check(args) -> int:
    from .conservatism import scan_k
    from .reports import ConfigError, run_manifest
    field, field_obj = _field_from_args(args)
    ks = _parse_k_range(args.k)
    sampling = _sampling_from_args(args)
    if ks:
        report = scan_k(field, max(ks), sampling=sampling, threshold=args.threshold)
        results = [{"k": k, **report.verdict(k).to_dict()} for k in ks]
        field_desc = report.field_desc
        sampling_used = report.sampling.to_dict() if report.sampling else None
    else:
        results = []
        field_desc = field.describe()
        sampling_used = None
    resolved = {"command": "check", "field": field_obj, "k": ks,
                "sampling": sampling.to_dict(), "threshold": args.threshold,
                "expect": args.expect}
    payload = {"command": "check",
               "manifest": run_manifest(resolved, sampling.seed),
               "field": field_desc, "threshold": args.threshold,
               "sampling": sampling_used,
               "results": results}
    code = 0
    if args.expect:
        wanted = [w.strip().lower() for w in args.expect.split(",")]
        if len(wanted) != len(ks):
            raise ConfigError(f"--expect lists {len(wanted)} verdicts for {len(ks)} values of k")
        got = ["yes" if r["verdict"] in ("exact-yes", "numeric-pass") else "no" for r in results]
        payload["expected"] = wanted
        payload["observed"] = got
        payload["expectation_met"] = wanted == got
        if wanted != got:
            code = VERIFIED_FAIL
    _emit(args, payload)
    return code


def _cmd_scan(args) -> int:
    from .conservatism import scan_k
    from .reports import run_manifest
    field, field_obj = _field_from_args(args)
    sampling = _sampling_from_args(args)
    report = scan_k(field, args.k_max, sampling=sampling, threshold=args.threshold)
    resolved = {"command": "scan", "field": field_obj, "k_max": args.k_max,
                "sampling": sampling.to_dict(), "threshold": args.threshold}
    payload = {"command": "scan",
               "manifest": run_manifest(resolved, sampling.seed),
               **report.to_dict()}
    _emit(args, payload)
    return 0


def _cmd_glm_verify(args) -> int:
    import numpy as np

    from .configs import glm_spec_from_obj
    from .glm import closed_form_deviation
    from .reports import ConfigError, load_json_text, run_manifest
    directions = load_json_text(args.directions, origin="--directions")
    spec_obj = {"activation": args.activation, "directions": directions}
    spec = glm_spec_from_obj(spec_obj)
    if not spec.orthogonal:
        raise ConfigError(
            f"directions are not mutually orthogonal (gram residual "
            f"{spec.gram_residual:.3e}); the closed forms do not apply")
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    if not 0 <= args.tol < float("inf"):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol}")
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((args.points, spec.dimension))
    points /= np.maximum(1.0, np.linalg.norm(points, axis=1))[:, None]
    worst = closed_form_deviation(spec, points, args.k, args.gamma)
    passed = worst <= args.tol
    resolved = {"command": "glm-verify", "spec": spec_obj, "k": args.k,
                "gamma": args.gamma, "points": args.points, "tol": args.tol,
                "seed": seed}
    payload = {"command": "glm-verify",
               "manifest": run_manifest(resolved, seed),
               "spec": spec.describe(), "gram_residual": spec.gram_residual,
               "k_max": args.k, "gamma": args.gamma, "points": args.points,
               "worst_relative_deviation": worst, "tolerance": args.tol,
               "pass": passed}
    _emit(args, payload)
    return 0 if passed else VERIFIED_FAIL


def _cmd_spectral(args) -> int:
    from .conservatism import _require_threshold
    from .reports import ConfigError, run_manifest
    from .spectral import (NotConservativeError, check_gd_propagation, check_propagation,
                           classify)
    field, field_obj = _field_from_args(args)
    sampling = _sampling_from_args(args)
    _require_threshold(args.threshold)
    resolved = {"command": "spectral", "field": field_obj, "k": args.k,
                "sampling": sampling.to_dict(), "threshold": args.threshold, "gd": args.gd,
                "gamma": args.gamma, "claimed": args.claimed, "alpha": args.alpha,
                "beta": args.beta, "delta": args.delta}
    payload = {"command": "spectral",
               "manifest": run_manifest(resolved, sampling.seed),
               "field": field.describe()}
    try:
        if args.gd:
            if args.gamma is None:
                raise ConfigError("--gd needs --gamma")
            report = check_gd_propagation(field, args.gamma, args.k, sampling,
                                          claimed=args.claimed, alpha=args.alpha,
                                          beta=args.beta, delta=args.delta)
            payload["gd_propagation"] = report.to_dict()
            passed = report.passed
        else:
            payload["classification"] = classify(field, sampling,
                                                 threshold=args.threshold).to_dict()
            report = check_propagation(field, args.k, sampling, threshold=args.threshold)
            payload["propagation"] = report.to_dict()
            passed = report.passed
    except NotConservativeError as err:
        payload["refused"] = str(err)
        _emit(args, payload)
        return VERIFIED_FAIL
    payload["pass"] = passed
    _emit(args, payload)
    return 0 if passed else VERIFIED_FAIL


def _cmd_fedavg(args) -> int:
    from . import fedavg as fa
    from .configs import fedavg_config_from_obj
    from .reports import ConfigError, load_json_file, run_manifest, write_json, write_trace_csv
    obj = load_json_file(args.config)
    config = fedavg_config_from_obj(obj, seed_override=_resolve_seed(None))
    trace = fa.run_fedavg(config)
    outdir = args.outdir
    csv_path = os.path.join(outdir, "fedavg_trace.csv")
    summary_path = os.path.join(outdir, "fedavg_summary.json")
    resolved = dict(obj)
    resolved["seed"] = config.seed
    summary = {
        "command": "fedavg",
        "manifest": run_manifest(resolved, config.seed,
                                 ["fedavg_trace.csv", "fedavg_summary.json"]),
        "clients": [c.describe() for c in config.clients],
        "gamma": config.gamma, "eta": config.eta, "k": config.k,
        "rounds": config.rounds, "rounds_completed": trace.rounds_completed,
        "x0": list(config.x0),
        "final_iterate": list(trace.xs[-1]),
        "fixed_point": list(trace.fixed_point) if trace.fixed_point is not None else None,
        "fixed_point_method": trace.fixed_point_method,
        "final_distance": float(trace.dists[-1]) if trace.dists is not None else None,
        "surrogate_at_fixed_point": trace.fs_star,
        "note": trace.note,
    }
    if trace.fixed_point_residual is not None:
        summary["fixed_point_residual"] = trace.fixed_point_residual
    code = 0
    if config.mode:
        if config.alpha is None or config.beta is None:
            raise ConfigError(f"mode {config.mode!r} needs alpha and beta")
        rate = fa.verify_rate(trace, config.alpha, config.beta, config.k, config.mode)
        summary["rate"] = rate.to_dict()
        code = 0 if rate.passed else VERIFIED_FAIL
    # written only after the rate check, so a refused run leaves no file
    write_trace_csv(csv_path, trace)
    write_json(summary_path, summary)
    print(csv_path)
    print(summary_path)
    return code


def _cmd_paper_suite(args) -> int:
    from . import suites
    from .reports import ConfigError, run_manifest, write_json
    if args.id == "full":
        results = suites.run_all()
    else:
        try:
            results = [suites.run_suite(args.id)]
        except KeyError as err:
            raise ConfigError(str(err)) from err
    outdir = args.outdir
    written = []
    for result in results:
        name = result["name"]
        path = os.path.join(outdir, f"{name}.json")
        resolved = {"command": "paper-suite", "id": name}
        write_json(path, {"manifest": run_manifest(resolved, 0, [f"{name}.json"]),
                          **result})
        written.append(f"{name}.json")
        print(f"{'PASS' if result['passed'] else 'FAIL'}  {name}")
    index = {"manifest": run_manifest({"command": "paper-suite", "id": args.id}, 0,
                                      written + ["index.json"]),
             "entries": [{"name": r["name"], "passed": r["passed"]} for r in results],
             "all_passed": all(r["passed"] for r in results)}
    write_json(os.path.join(outdir, "index.json"), index)
    return 0 if index["all_passed"] else VERIFIED_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterfield",
        description="Iterated vector fields: conservatism checks, closed-form "
                    "model iterates, spectra, and federated-averaging runs.")
    parser.add_argument("--version", action="version", version=f"iterfield {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="k-conservatism verdicts for chosen k values")
    _add_field_arguments(p)
    _add_sampling_arguments(p)
    p.add_argument("--k", required=True, help="single k or range, e.g. 2 or 1..4")
    p.add_argument("--expect", help="comma-separated yes/no list; mismatches exit 1")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("scan", help="k-conservatism verdicts for every k up to k-max")
    _add_field_arguments(p)
    _add_sampling_arguments(p)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("glm-verify",
                       help="closed-form model iterates against brute-force iteration")
    p.add_argument("--activation", required=True)
    p.add_argument("--directions", required=True, help="inline JSON list of vectors")
    p.add_argument("--k", type=int, required=True, help="verify iterates 1..k")
    p.add_argument("--gamma", type=float, help="also verify the descent-map iterates")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_glm_verify)

    p = sub.add_parser("spectral", help="sampled spectra and eigenvalue propagation")
    _add_field_arguments(p)
    _add_sampling_arguments(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gd", action="store_true",
                   help="check descent-delta propagation instead of iterate spectra")
    p.add_argument("--gamma", type=float)
    p.add_argument("--claimed", default="strongly-convex",
                   choices=["strongly-convex", "convex", "weakly-convex"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("fedavg", help="run federated averaging from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default=".")
    p.set_defaults(handler=_cmd_fedavg)

    p = sub.add_parser("paper-suite", help="named verification bundles; 'full' runs all")
    p.add_argument("id")
    p.add_argument("--outdir", default=".")
    p.set_defaults(handler=_cmd_paper_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs far more than a parse,
    and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, IterfieldError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        import traceback
        traceback.print_exc()
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
