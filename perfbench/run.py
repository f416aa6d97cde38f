"""iterfield benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload numeric-orbit --seed 1 --seconds 20 --trace 0

Run it from the repository root; it measures the iterfield found in ./src.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json from
fresh single-threaded processes: several set-up probes and one timed
closed-loop run, whose op latencies are scaled to a reference machine speed
by a reference loop run between ops (calibrate.py).  With --trace 1 it reports the per-layer metrics from a
traced run of a fixed op list, next to an untraced run of the same ops.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import baseline  # noqa: E402
import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 2, 2
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    env.pop("SOURCE_DATE_EPOCH", None)
    env.pop("ITERFIELD_SEED", None)
    return env


def child(mode, args, *extra):
    """Run one fresh measuring process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Op latencies come in groups (one per op template),
    and a plain order statistic that falls between two groups jumps with
    the noise on a single op; this estimate weighs the ranks around it."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, edges, edges[1:]))


def end_to_end(args):
    probes = [child("setup", args) for _ in range(SETUP_PROBES_BEFORE)]
    run = child("run", args, "--seconds", str(args.seconds))
    probes.append(run)
    probes += [child("setup", args) for _ in range(SETUP_PROBES_AFTER)]
    setups = [probe["setup_s"] for probe in probes]
    raw = run["latencies"]
    lat = calibrate.scaled(raw, run["loops"])
    attempted, failed = len(lat), len(run["failures"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (attempted / sum(lat), "1/s"),
        "op_p50_ms": (quantile(lat, 0.5) * 1000.0, "ms"),
        "op_p90_ms": (quantile(lat, 0.9) * 1000.0, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    kinds = {}
    for kind, t in zip(run["kinds"], raw):
        kinds.setdefault(kind, []).append(t)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in "
          f"{run['wall_s']:.1f} s wall, {sum(raw):.1f} s in iterfield calls; "
          f"{sum(1 for t in lat if t > quantile(lat, 0.9))} ops beyond p90")
    loop_ms = [t * 1000.0 for t in run["loops"]]
    print(f"reference loop: median {statistics.median(loop_ms):.3f} ms "
          f"(min {min(loop_ms):.3f}, max {max(loop_ms):.3f}; "
          f"{calibrate.REFERENCE_S * 1000:g} ms is the reference speed)")
    print(f"raw, unscaled: {attempted / sum(raw):.4f} ops/s, "
          f"p50 {quantile(raw, 0.5) * 1000:.3f} ms, p90 {quantile(raw, 0.9) * 1000:.3f} ms")
    print(f"versions: {json.dumps(run['versions'], sort_keys=True)}")
    raw_setups = ", ".join(f"{probe['setup_raw_s']:.3f}" for probe in probes)
    print(f"set-up probes (s): {', '.join(f'{s:.3f}' for s in setups)} at the reference "
          f"speed; raw {raw_setups}")
    for kind in sorted(kinds):
        ts = kinds[kind]
        print(f"  {kind:<24} n={len(ts):4d}  raw median {statistics.median(ts) * 1000:9.2f} ms")
    for failure in run["failures"][:20]:
        print(f"FAILED {failure}")
    return attempted, failed, metrics


def per_layer(args):
    plain = child("fixed", args)
    traced = child("fixed", args, "--trace")
    snap = traced["trace"]
    total = traced["op_time_s"]
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    metrics = {}
    for name in tracer.SPANS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_pct"] = (100.0 * self_s.get(name, 0.0) / total, "%")
    for entry in workloads.PAPER_ENTRIES:
        metrics[f"suites.{entry}.self_pct"] = (100.0 * self_s.get(f"suites.{entry}", 0.0) / total,
                                               "%")
    for name in tracer.COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    steps = snap["scan_steps"]
    metrics["fields.jacobian_step_efficiency"] = (
        snap["scan_useful_steps"] / steps if steps else 0.0, "ratio")
    metrics["rationals.denominator_bits_max"] = (
        snap["maxima"].get("rationals.denominator_bits_max", 0), "bits")
    metrics["trace.ops"] = (traced["ops"], "count")
    metrics["trace.op_time_s"] = (total, "s")
    metrics["trace.untraced_op_time_s"] = (plain["op_time_s"], "s")
    slowdown = traced["scaled_op_time_s"] / plain["scaled_op_time_s"]
    metrics["trace.slowdown"] = (slowdown, "x")
    metrics["trace.reference_jacobian_steps"] = (traced["reference"]["jacobian_steps"], "count")

    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "layers": snap,
                   "ops": traced["op_spans"]}, handle, indent=1, sort_keys=True)
    ref = traced["reference"]
    print(f"workload {args.workload}, seed {args.seed}: {traced['ops']} ops traced; "
          f"tracing overhead x{slowdown:.2f} at the reference speed "
          f"({plain['op_time_s']:.2f} s untraced, {total:.2f} s traced, raw)")
    print(f"reference scan (logistic 3-D, k_max={baseline.REFERENCE_K_MAX}, "
          f"{baseline.REFERENCE_SAMPLES} samples): {ref['jacobian_steps']} step Jacobians; "
          f"seed code made {ref['seed_code']}, an O(k) walk needs {ref['floor']}")
    print(f"versions: {json.dumps(traced['versions'], sort_keys=True)}")
    print(f"per-op layer self times written to {os.path.relpath(trace_path)}")
    for line in baseline.format_rows(plain["baseline"]):
        print(line)
    failures = plain["failures"] + traced["failures"]
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    attempted = plain["ops"] + traced["ops"]
    return attempted, len(failures), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(os.getcwd(), "src", "iterfield", "__init__.py")):
        print("error: run from the repository root; src/iterfield not found", file=sys.stderr)
        return 2
    try:
        attempted, failed, metrics = (per_layer if args.trace else end_to_end)(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        # A child killed on timeout leaves its scratch directory behind.
        shutil.rmtree(os.path.join(os.getcwd(), ".perfbench_tmp"), ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
