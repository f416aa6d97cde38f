"""One measuring process of the benchmark; started fresh by run.py.

    python3 perfbench/child.py setup --workload W --seed S
    python3 perfbench/child.py run   --workload W --seed S --seconds R
    python3 perfbench/child.py fixed --workload W --seed S [--trace]

``setup`` times importing iterfield and building one block of op inputs,
between reference loops that give the machine speed around it.
``run`` does the same, then runs ops in a closed loop for R seconds (and at
least the workload's minimum op count), then checks every output.
``fixed`` runs the workload's first ``trace_ops`` ops, untraced or traced,
and adds the baseline cross-check rows.  In ``run`` and ``fixed`` the
reference loop of calibrate.py runs before every op and after the last.  Whatever iterfield prints goes to
/dev/null; the result is one JSON line on the original standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402


def _import_program(workload):
    sys.path.insert(0, SRC)
    import iterfield
    if not os.path.abspath(iterfield.__file__).startswith(SRC + os.sep):
        raise ImportError(f"iterfield imported from {iterfield.__file__}, not {SRC}")
    if workload.imports_cli:
        import iterfield.cli  # noqa: F401
    return iterfield


SETUP_LOOPS = 5


def setup(workload, seed, workdir):
    """Import iterfield and build the first block of inputs.

    Returns (itf, specs, built, seconds, seconds scaled to the reference
    speed by the reference loops run just before and just after)."""
    specs = [workload.spec(seed, i) for i in range(len(workload.block))]
    # The first loops of a fresh process run cold; only the later ones count.
    loops = [calibrate.reference_loop() for _ in range(2 * SETUP_LOOPS)][SETUP_LOOPS:]
    t0 = time.perf_counter()
    itf = _import_program(workload)
    built = [workload.build(itf, spec, workdir) for spec in specs]
    seconds = time.perf_counter() - t0
    loops += [calibrate.reference_loop() for _ in range(SETUP_LOOPS)]
    return itf, specs, built, seconds, calibrate.scale(seconds, loops)


class OpRunner:
    """Runs ops in order, timing only the call into iterfield, with one
    reference loop before each op (see calibrate.py)."""

    WARMUP_LOOPS = 5

    def __init__(self, workload, itf, seed, workdir, specs, built, tracer=None):
        self.workload, self.itf, self.seed, self.workdir = workload, itf, seed, workdir
        self.prebuilt = dict(enumerate(zip(specs, built)))
        self.latencies, self.kinds, self.results = [], [], []
        self.tracer, self.op_spans = tracer, []
        for _ in range(self.WARMUP_LOOPS):
            calibrate.reference_loop()
        self.loops = []

    def op(self, index, keep=True):
        w = self.workload
        if index in self.prebuilt:
            spec, built = self.prebuilt.pop(index)
        else:
            spec = w.spec(self.seed, index)
            built = w.build(self.itf, spec, self.workdir)
        if self.tracer is not None:
            before = dict(self.tracer.self_s)
        self.loops.append(calibrate.reference_loop())
        t0 = time.perf_counter()
        try:
            output = w.run(self.itf, spec, built)
        except Exception:
            elapsed = time.perf_counter() - t0
            summary, error = None, "raised " + traceback.format_exc(limit=3)
        else:
            elapsed = time.perf_counter() - t0
            try:
                summary, error = w.summarize(spec, built, output), None
            except Exception:
                summary, error = None, "summary failed " + traceback.format_exc(limit=3)
        w.release(spec, built)
        if self.tracer is not None and keep:
            layers = {name: t - before.get(name, 0.0) for name, t in self.tracer.self_s.items()}
            self.op_spans.append({"op": index, "kind": spec["kind"], "seconds": elapsed,
                                  "self_s": {k: v for k, v in layers.items() if v > 0}})
        self.latencies.append(elapsed)
        self.kinds.append(spec["kind"])
        if keep:
            self.results.append((spec, summary, error))
        return elapsed

    def close(self):
        """The reference loop after the last op."""
        self.loops.append(calibrate.reference_loop())

    def check_all(self):
        failures = []
        for spec, summary, error in self.results:
            if error is None:
                try:
                    error = self.workload.check(spec, summary)
                except Exception:
                    error = "check raised " + traceback.format_exc(limit=3)
            if error is not None:
                failures.append(f"op {spec['index']} ({spec['kind']}): {error}")
        return failures


def versions():
    import numpy
    import scipy
    import sympy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "nproc": os.cpu_count()}


def mode_run(workload, seed, seconds, workdir):
    itf, specs, built, setup_raw, setup_s = setup(workload, seed, workdir)
    runner = OpRunner(workload, itf, seed, workdir, specs, built)
    block = len(workload.block)
    cap = min(4.0 * seconds, 120.0)
    start = time.perf_counter()
    index = 0
    while True:
        runner.op(index)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= cap:
            break
        if elapsed >= seconds and index >= workload.min_ops and (
                index % block == 0 or elapsed >= 3.0 * seconds):
            break
    runner.close()
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = runner.check_all()
    return {"setup_s": setup_s, "setup_raw_s": setup_raw, "latencies": runner.latencies, "loops": runner.loops,
            "kinds": runner.kinds, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0, "failures": failures,
            "versions": versions()}


def mode_fixed(workload, seed, workdir, traced):
    import baseline
    import tracer as tracing

    itf, specs, built, setup_s, _ = setup(workload, seed, workdir)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner = OpRunner(workload, itf, seed, workdir, specs, built, tracer)
    n = workload.trace_ops
    repeat = max(1, n // 4)
    partial = None
    for index in range(n):
        runner.op(index)
        if tracer is not None and index == repeat - 1:
            partial = tracer.exact_counts()
    runner.close()
    failures = runner.check_all()
    scaled = calibrate.scaled(runner.latencies, runner.loops)
    out = {"setup_s": setup_s, "op_time_s": sum(runner.latencies),
           "scaled_op_time_s": sum(scaled), "ops": n,
           "failures": failures, "versions": versions()}
    if tracer is None:
        out["baseline"] = baseline.measure(workload.name, itf, setup_s)
        return out
    out["trace"] = tracer.snapshot()
    out["op_spans"] = runner.op_spans
    # Self-check: the first ops again, in a fresh tracer state, must give the
    # same exact counts as the first time through.
    before = tracer.exact_counts()
    for index in range(repeat):
        runner.op(index, keep=False)
    after = tracer.exact_counts()
    again = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    again = {key: value for key, value in again.items() if value}
    partial = {key: value for key, value in partial.items() if value}
    if again != partial:
        diff = sorted(set(again.items()) ^ set(partial.items()))
        failures.append(f"trace counts differ on a repeat of the first {repeat} ops: {diff[:6]}")
    reference = baseline.reference_count(itf, tracer)
    out["reference"] = reference
    if reference["jacobian_steps"] < reference["floor"]:
        failures.append(f"reference scan made {reference['jacobian_steps']} step Jacobians, "
                        f"fewer than the {reference['floor']} any orbit walk needs: "
                        "the tracer missed calls")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run", "fixed"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    result_fd = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.mode == "setup":
            _, _, _, setup_raw, setup_s = setup(workload, args.seed, workdir)
            result = {"setup_s": setup_s, "setup_raw_s": setup_raw}
        elif args.mode == "run":
            result = mode_run(workload, args.seed, args.seconds, workdir)
        else:
            result = mode_fixed(workload, args.seed, workdir, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        sys.stdout.flush()
    with os.fdopen(result_fd, "w") as handle:
        handle.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
