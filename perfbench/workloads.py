"""The benchmark's workloads: seeded inputs, the ops that call iterfield, and
the checks that compare each op's output with an oracle.

Each workload generates plain data from (seed, op index), so the same seed
gives the same inputs and every op gets a distinct input.  ``build`` turns
that data into iterfield objects (the part of set-up the program pays for),
``run`` is the timed call, ``summarize`` reduces the output to what the
check needs, and ``check`` returns None or a description of the mismatch.
A workload's ``block`` lists op templates: a kind plus the sizes that set
its cost.  Every block of ops runs each template once, in an order
shuffled from the seed, so a run's op mix and sizes do not drift with the
seed; the seed picks the numbers inside each input.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil

import numpy as np

import oracles

NUMERIC_THRESHOLD = 1e-8
# A residual within this factor of the threshold may fall either side of it
# when the oracle and the program round differently.
AMBIGUOUS_FACTOR = 100.0


def _rng(workload, seed, index):
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([tag, seed, index])


def _templates(kind, shapes, count):
    """count templates of one kind, cycling through its size tuples."""
    return [(kind, shapes[i % len(shapes)]) for i in range(count)]


class Workload:
    name = ""
    block: list[tuple[str, tuple]] = []
    min_ops = 100
    trace_ops = 0
    imports_cli = False

    def template_at(self, seed, index):
        block_no, pos = divmod(index, len(self.block))
        order = list(self.block)
        random.Random(f"{self.name}:{seed}:{block_no}").shuffle(order)
        return order[pos]

    def spec(self, seed, index):
        kind, shape = self.template_at(seed, index)
        make = getattr(self, f"make_{kind.replace('-', '_')}")
        spec = make(_rng(self.name, seed, index), *shape)
        spec["kind"] = kind
        spec["index"] = index
        return spec

    def build(self, itf, spec, workdir):
        raise NotImplementedError

    def run(self, itf, spec, built):
        raise NotImplementedError

    def summarize(self, spec, built, output):
        return output

    def check(self, spec, summary):
        raise NotImplementedError

    def release(self, spec, built):
        """Drop files an op wrote; called after summarize."""


# ===================== numeric-orbit =====================

_SCALES = {"exp": (0.1, 0.3), "logistic": (0.5, 1.5), "quadratic": (0.3, 0.8)}


def _directions(rng, n, m, orthogonal, activation):
    lo, hi = _SCALES[activation]
    scales = rng.uniform(lo, hi, m)
    if orthogonal:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rows = Q.T[:m]
    else:
        rows = rng.standard_normal((m, n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return (rows * scales[:, None]).tolist()


# (n, directions, form, activation, orthogonal) for scans, cycled in order.
_SCAN_SHAPES = [
    (2, 2, "grad", "logistic", False), (3, 2, "gd", "exp", True),
    (4, 3, "grad", "quadratic", False), (2, 1, "linear-after", "logistic", False),
    (3, 3, "grad", "exp", True), (4, 2, "gd", "logistic", False),
    (2, 2, "gd", "quadratic", True), (3, 2, "linear-before", "quadratic", False),
    (4, 4, "grad", "logistic", True), (2, 2, "grad", "exp", False),
    (3, 3, "gd", "logistic", True), (4, 2, "grad", "quadratic", True),
]
# (n, directions, activation, k) for propagation and closed-form ops.
_PROP_SHAPES = [(2, 2, "logistic", 3), (3, 3, "exp", 4), (4, 2, "quadratic", 2),
                (3, 2, "logistic", 5), (2, 1, "exp", 2), (4, 4, "quadratic", 3)]
# (n, activation, k) for descent-map propagation.
_GD_PROP_SHAPES = [(2, "logistic", 2), (3, "quadratic", 3), (4, "logistic", 4),
                   (3, "logistic", 3)]


def _glm_spec(itf, fs):
    return itf.GlmSpec(fs["directions"], fs["activation"])


def _numeric_field(itf, fs):
    grad = itf.glm_gradient(_glm_spec(itf, fs))
    form = fs["form"]
    if form == "grad":
        return grad
    if form == "gd":
        return itf.gd_map(grad, fs["gamma"])
    linear = itf.Linear(fs["matrix"])
    if form == "linear-after":
        return itf.compose(linear, grad)
    return itf.compose(grad, linear)


class NumericOrbit(Workload):
    name = "numeric-orbit"
    # 50 ops: 24 scans, 7 of them long orbits (k_max >= 20) so that p90
    # falls inside that class, plus propagation and closed-form ops.
    block = (_templates("scan-5", _SCAN_SHAPES, 12) + _templates("scan-10", _SCAN_SHAPES, 5)
             + _templates("scan-20", _SCAN_SHAPES, 6) + _templates("scan-40", _SCAN_SHAPES, 1)
             + _templates("prop", _PROP_SHAPES, 6) + _templates("gd-prop", _GD_PROP_SHAPES, 5)
             + _templates("closed-form", _PROP_SHAPES, 15))
    min_ops = 100
    trace_ops = 20

    @staticmethod
    def _field_spec(rng, n, m, form, activation, orthogonal):
        """A GLM gradient, its descent map, or its composition with a contraction Linear."""
        fs = {"n": n, "activation": activation, "orthogonal": orthogonal, "form": form,
              "directions": _directions(rng, n, m, orthogonal, activation)}
        if form == "gd":
            fs["gamma"] = float(rng.uniform(0.3, 1.0))
        if form.startswith("linear"):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            fs["matrix"] = (Q * rng.uniform(0.5, 1.0, n)).tolist()
        return fs

    def _scan(self, rng, k_max, *shape):
        return {"field": self._field_spec(rng, *shape), "k_max": k_max,
                "sample_seed": int(rng.integers(0, 2**31))}

    def make_scan_5(self, rng, *shape):
        return self._scan(rng, 5, *shape)

    def make_scan_10(self, rng, *shape):
        return self._scan(rng, 10, *shape)

    def make_scan_20(self, rng, *shape):
        return self._scan(rng, 20, *shape)

    def make_scan_40(self, rng, *shape):
        return self._scan(rng, 40, *shape)

    def make_prop(self, rng, n, m, activation, k):
        return {"field": self._field_spec(rng, n, m, "grad", activation, True), "k": k,
                "sample_seed": int(rng.integers(0, 2**31))}

    def make_gd_prop(self, rng, n, activation, k):
        m = n if activation == "quadratic" else max(1, n - 1)
        dirs = _directions(rng, n, m, True, activation)
        norms = [float(np.dot(z, z)) for z in dirs]
        spec = {"field": {"n": n, "activation": activation, "directions": dirs,
                          "form": "grad", "orthogonal": True},
                "k": k, "sample_seed": int(rng.integers(0, 2**31))}
        if activation == "quadratic":
            alpha, beta = min(norms), max(norms)
            spec.update(claimed="strongly-convex", alpha=alpha, beta=beta,
                        gamma=float(rng.uniform(0.5, 1.0)) * 2.0 / (alpha + beta))
        else:
            beta = 0.25 * max(norms)
            spec.update(claimed="convex", alpha=None, beta=beta,
                        gamma=float(rng.uniform(0.5, 1.0)) / beta)
        return spec

    def make_closed_form(self, rng, n, m, activation, k):
        fs = self._field_spec(rng, n, m, "grad", activation, True)
        points = oracles.ball_samples(n, 20, int(rng.integers(0, 2**31)))
        return {"field": fs, "k": k, "gamma": float(rng.uniform(0.2, 0.8)),
                "points": points.tolist()}

    def build(self, itf, spec, workdir):
        kind = spec["kind"]
        if kind == "closed-form":
            glm_spec = _glm_spec(itf, spec["field"])
            return {"spec": glm_spec, "points": np.array(spec["points"])}
        built = {"field": _numeric_field(itf, spec["field"]),
                 "sampling": itf.SamplingConfig(count=50, seed=spec["sample_seed"])}
        return built

    def run(self, itf, spec, built):
        kind = spec["kind"]
        if kind.startswith("scan"):
            return itf.scan_k(built["field"], spec["k_max"], sampling=built["sampling"])
        if kind == "prop":
            return itf.check_propagation(built["field"], spec["k"], built["sampling"])
        if kind == "gd-prop":
            return itf.check_gd_propagation(built["field"], spec["gamma"], spec["k"],
                                            built["sampling"], claimed=spec["claimed"],
                                            alpha=spec["alpha"], beta=spec["beta"])
        glm_spec, k, gamma = built["spec"], spec["k"], spec["gamma"]
        grad = itf.glm_gradient(glm_spec)
        closed, brute = itf.iterated_glm(glm_spec, k), itf.Iterate(grad, k)
        closed_gd = itf.iterated_glm_gd(glm_spec, gamma, k)
        brute_gd = itf.Iterate(itf.gd_map(grad, gamma), k)
        return [(closed(x), brute(x), closed_gd(x), brute_gd(x)) for x in built["points"]]

    def summarize(self, spec, built, output):
        kind = spec["kind"]
        if kind.startswith("scan"):
            return [(k, v.kind, v.residual, v.skipped_samples) for k, v in output.entries]
        if kind in ("prop", "gd-prop"):
            return {"passed": output.passed, "levels": len(output.levels)}
        return np.array([[np.asarray(v) for v in row] for row in output])

    def check(self, spec, summary):
        kind = spec["kind"]
        fs = spec["field"]
        if kind.startswith("scan"):
            points = oracles.ball_samples(fs["n"], 50, spec["sample_seed"])
            expected = oracles.chain_residuals(fs, points, spec["k_max"])
            if [k for k, *_ in summary] != list(range(1, spec["k_max"] + 1)):
                return "scan did not report every k"
            for k, verdict, residual, _skipped in summary:
                if not verdict.startswith("numeric"):
                    return f"k={k}: expected a numeric verdict, got {verdict}"
                ref, _ = expected[k]
                if ref is None:
                    return f"k={k}: oracle found no finite sample"
                if fs["orthogonal"] and fs["form"] in ("grad", "gd") and verdict != "numeric-pass":
                    return f"k={k}: orthogonal model iterate reported {verdict}"
                if NUMERIC_THRESHOLD / AMBIGUOUS_FACTOR < ref < NUMERIC_THRESHOLD * AMBIGUOUS_FACTOR:
                    continue
                want = "numeric-fail" if ref > NUMERIC_THRESHOLD else "numeric-pass"
                if verdict != want:
                    return f"k={k}: verdict {verdict}, oracle residual {ref:.3e}"
            return None
        if kind in ("prop", "gd-prop"):
            k = spec["k"]
            if not summary["passed"] or summary["levels"] != k:
                return f"propagation check did not pass at every level up to {k}"
            return None
        points = np.array(spec["points"])
        k, gamma = spec["k"], spec["gamma"]
        closed, brute, closed_gd, brute_gd = (summary[:, i] for i in range(4))
        ref = oracles.closed_glm_iterate(fs["directions"], fs["activation"], k, points)
        ref_gd = oracles.closed_glm_gd_iterate(fs["directions"], fs["activation"], gamma, k, points)
        gaps = {"closed vs brute": oracles.relative_gap(closed, brute),
                "gd closed vs brute": oracles.relative_gap(closed_gd, brute_gd),
                "closed vs oracle": oracles.relative_gap(closed, ref),
                "gd closed vs oracle": oracles.relative_gap(closed_gd, ref_gd)}
        bad = {name: gap for name, gap in gaps.items() if not gap <= 1e-9}
        return f"deviations above 1e-9: {bad}" if bad else None


# ===================== exact-certificates =====================

# (n, k_max, structure, affine) per entry type; sizes that take seconds per
# op (float-entered 8x8 at k_max = 40 takes about 2 s) are left out.
_LINEAR_INT_SHAPES = [(4, 40, "random", False), (5, 20, "blocks", True),
                      (6, 20, "symmetric", False), (7, 10, "random", True),
                      (8, 10, "blocks", False)]
_LINEAR_FLOAT_SHAPES = [(4, 40, "blocks", True), (5, 20, "random", False),
                        (6, 10, "random", True), (7, 10, "symmetric", False),
                        (8, 10, "blocks", True)]
# (potential degree, variables, k, separable); quartics at k = 4 and
# 3-variable cubics at k = 4 take seconds and are left out.
_POLY_SHAPES = [(3, 2, 4, False), (3, 3, 3, False), (4, 2, 3, False), (4, 3, 2, False),
                (3, 2, 3, True), (3, 3, 2, False)]


def _small_entry(rng, entries):
    if entries == "int":
        return int(rng.integers(-3, 4))
    return int(rng.integers(-9, 10)) / 10


def _linear_matrix(rng, n, entries, structure):
    if structure == "blocks":
        # 2x2 blocks [[a, b], [c, -a]] square to (a^2 + bc) I, so even powers
        # are symmetric and odd powers are not when b != c.
        M = [[0] * n for _ in range(n)]
        for s in range(0, n - 1, 2):
            a, b = _small_entry(rng, entries), _small_entry(rng, entries)
            c = _small_entry(rng, entries)
            while c == b:
                c = _small_entry(rng, entries)
            M[s][s], M[s][s + 1], M[s + 1][s], M[s + 1][s + 1] = a, b, c, -a
        if n % 2:
            M[n - 1][n - 1] = _small_entry(rng, entries)
        return M
    M = [[_small_entry(rng, entries) for _ in range(n)] for _ in range(n)]
    if structure == "symmetric":
        for i in range(n):
            for j in range(i):
                M[i][j] = M[j][i]
    return M


class ExactCertificates(Workload):
    name = "exact-certificates"
    block = (_templates("linear-int", _LINEAR_INT_SHAPES, 5)
             + _templates("linear-float", _LINEAR_FLOAT_SHAPES, 5)
             + _templates("rotation", [()], 2) + _templates("poly", _POLY_SHAPES, 6)
             + _templates("cubic-tower", [()], 2))
    min_ops = 100
    trace_ops = 40

    @staticmethod
    def _linear(rng, entries, n, k_max, structure, affine):
        spec = {"entries": entries, "n": n, "k_max": k_max, "structure": structure,
                "matrix": _linear_matrix(rng, n, entries, structure)}
        if affine:
            spec["offset"] = [_small_entry(rng, entries) for _ in range(n)]
        return spec

    def make_linear_int(self, rng, *shape):
        return self._linear(rng, "int", *shape)

    def make_linear_float(self, rng, *shape):
        return self._linear(rng, "float", *shape)

    def make_rotation(self, rng):
        return {"j": int(rng.integers(1, 13)), "k_max": int(rng.integers(10, 41))}

    def make_poly(self, rng, degree, nvars, k, separable):
        """Every monomial of total degree 2..degree (pure powers only when
        separable) with a random nonzero coefficient in -3..3."""
        terms = {}
        for exps in itertools.product(range(degree + 1), repeat=nvars):
            total = sum(exps)
            if 2 <= total <= degree and not (separable and max(exps) != total):
                terms[exps] = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        return {"degree": degree, "nvars": nvars, "k": k, "separable": separable,
                "terms": [[list(e), c] for e, c in sorted(terms.items())]}

    def make_cubic_tower(self, rng):
        scales = [int(rng.integers(1, 4)) * int(rng.choice([-1, 1])) for _ in range(4)]
        return {"scales": scales, "k": 3}

    def build(self, itf, spec, workdir):
        kind = spec["kind"]
        if kind.startswith("linear"):
            if "offset" in spec:
                return itf.Affine(spec["matrix"], spec["offset"])
            return itf.Linear(spec["matrix"])
        if kind == "rotation":
            return itf.Rotation2D(spec["j"])
        if kind == "poly":
            terms = {tuple(e): c for e, c in spec["terms"]}
            return itf.PolyField.gradient_of(itf.RationalPoly(spec["nvars"], terms))
        RP = itf.RationalPoly
        r1, r2, r3, r4 = spec["scales"]

        def mono(coeff, *exps):
            return RP.monomial(6, coeff, exps)

        gx = mono(3 * r1, 1, 0, 0, 0, 2, 0) + mono(2 * r2, 0, 1, 0, 0, 1, 1) \
            + mono(r3, 0, 0, 1, 0, 0, 2)
        gy = mono(r2, 0, 1, 0, 0, 2, 0) + mono(2 * r3, 0, 0, 1, 0, 1, 1) \
            + mono(3 * r4, 0, 0, 0, 1, 0, 2)
        return itf.PolyField([gx, gy])

    def run(self, itf, spec, built):
        kind = spec["kind"]
        if kind.startswith("linear") or kind == "rotation":
            return itf.scan_k(built, spec["k_max"])
        if kind == "poly":
            return itf.check_poly(built, spec["k"])
        from iterfield import polynomials
        D = itf.asymmetry_polys(built, spec["k"], coord_vars=polynomials.CUBIC_COORD_VARS)
        return polynomials.group_by_vars(D[0][1], polynomials.CUBIC_COORD_VARS)

    def summarize(self, spec, built, output):
        kind = spec["kind"]
        if kind.startswith("linear") or kind == "rotation":
            return [(k, v.kind, v.certificate) for k, v in output.entries]
        if kind == "poly":
            return (output.kind, output.certificate)
        return {key: dict(p.terms) for key, p in output.items()}

    def check(self, spec, summary):
        kind = spec["kind"]
        if kind == "rotation":
            for k, verdict, _ in summary:
                want = "exact-yes" if k % spec["j"] == 0 else "exact-no"
                if verdict != want:
                    return f"rotation j={spec['j']} k={k}: {verdict}, expected {want}"
            return None if len(summary) == spec["k_max"] else "missing k"
        if kind.startswith("linear"):
            expected = oracles.linear_scan(spec["matrix"], spec["k_max"])
            if len(summary) != spec["k_max"]:
                return "missing k"
            for k, verdict, certificate in summary:
                ref = expected[k]
                if ref is None:
                    if verdict != "exact-yes":
                        return f"k={k}: {verdict}, power is symmetric"
                elif verdict != "exact-no" or oracles.parse_matrix_certificate(certificate) != ref:
                    return f"k={k}: {verdict} {certificate!r}, expected entry {ref}"
            return None
        if kind == "poly":
            verdict, certificate = summary
            entries = oracles.poly_asymmetry(spec["terms"], spec["nvars"], spec["k"])
            first = next((terms for terms in entries.values() if terms), None)
            if first is None:
                return None if verdict == "exact-yes" else f"{verdict}, asymmetry is zero"
            if spec["separable"]:
                return "separable potential gave a nonzero asymmetry in the oracle"
            if verdict != "exact-no":
                return f"{verdict}, asymmetry is nonzero"
            got = oracles.parse_poly_text(certificate, spec["nvars"])
            return None if got == first else "certificate differs from the oracle's entry"
        expected = oracles.cubic_tower(spec["scales"], spec["k"])
        return None if summary == expected else "cubic tower coefficients differ from the oracle"


# ===================== fedavg-rounds =====================

def _spd(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(rng.uniform(1.1, 2.9, n)) @ Q.T
    return ((A + A.T) / 2).tolist()


def _quadratic_clients(rng, m, n):
    return [{"kind": "quadratic", "matrix": _spd(rng, n),
             "center": rng.uniform(-2, 2, n).tolist()} for _ in range(m)]


def _logistic_clients(rng, n, count, orthogonal):
    """Two or three logistic clients whose directions oppose, so a minimizer exists."""
    if orthogonal:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        base = Q.T
    else:
        # Tilted away from an orthonormal basis but kept well conditioned, so
        # the iterative fixed-point oracle converges in a bounded number of steps.
        base = np.zeros((n, n))
        while not 1.2 < np.linalg.cond(base) < 2.0:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            base = Q.T + 0.3 * rng.standard_normal((n, n))
            base /= np.linalg.norm(base, axis=1, keepdims=True)
    scale = rng.uniform(0.6, 1.0, n)[:, None]
    clients = [base * scale, -base * scale * rng.uniform(0.9, 1.0, n)[:, None]]
    if count == 3:
        clients.append(base * scale * np.where(rng.random(n) < 0.5, -1.0, 1.0)[:, None])
    return [{"kind": "glm", "activation": "logistic", "directions": Z.tolist()} for Z in clients]


# (clients m, dimension n, local steps k); m = n = 10 with k = 5 takes
# about 1.5 s per run and is left out.
_QUADRATIC_SHAPES = [(2, 2, 1), (2, 5, 2), (2, 10, 5), (5, 2, 5), (5, 5, 1), (10, 2, 2),
                     (10, 10, 1)]
_QUADRATIC_CLI_SHAPES = [(2, 5, 1), (5, 2, 2), (2, 10, 2)]
_MINIMIZER_SHAPES = [(2, 2, 1), (2, 3, 2), (2, 5, 3), (3, 2, 4), (3, 3, 5), (3, 5, 1),
                     (5, 2, 2), (5, 3, 3), (5, 5, 4)]
# (dimension n, clients)
_LOGISTIC_SHAPES = [(2, 2), (3, 3), (2, 3), (3, 2)]


def _build_client(itf, c):
    from iterfield import fedavg as fa
    if c["kind"] == "quadratic":
        return fa.QuadraticClient(c["matrix"], c["center"])
    return fa.GlmClient(itf.GlmSpec(c["directions"], c["activation"]))


def _smoothness(clients):
    """Largest Hessian norm over the logistic clients: sup sigma'' = 1/4 times
    the top eigenvalue of Z^T Z (max |z|^2 when the directions are orthogonal)."""
    return max(0.25 * float(np.linalg.eigvalsh(np.asarray(c["directions"]).T
                                               @ np.asarray(c["directions"]))[-1])
               for c in clients)


class FedAvgRounds(Workload):
    name = "fedavg-rounds"
    block = (_templates("quadratic", _QUADRATIC_SHAPES, 7)
             + _templates("quadratic-cli", _QUADRATIC_CLI_SHAPES, 3)
             + _templates("logistic", _LOGISTIC_SHAPES, 3)
             + _templates("logistic-cli", _LOGISTIC_SHAPES[3:], 1)
             + _templates("non-orthogonal", _LOGISTIC_SHAPES[1:], 2)
             + _templates("minimizers", _MINIMIZER_SHAPES, 9))
    min_ops = 100
    trace_ops = 20
    imports_cli = True

    def make_quadratic(self, rng, m, n, k):
        return {"clients": _quadratic_clients(rng, m, n), "gamma": 0.5, "k": k,
                "rounds": 200, "x0": rng.uniform(-3, 3, n).tolist(),
                "mode": "strongly-convex", "alpha": 1.0, "beta": 3.0}

    make_quadratic_cli = make_quadratic

    def make_logistic(self, rng, n, count, orthogonal=True):
        clients = _logistic_clients(rng, n, count, orthogonal)
        beta = _smoothness(clients)
        return {"clients": clients, "gamma": 1.0 / beta, "k": 3, "rounds": 200,
                "x0": rng.uniform(-1.5, 1.5, n).tolist(),
                "mode": "convex" if orthogonal else None, "alpha": 0.0, "beta": beta}

    make_logistic_cli = make_logistic

    def make_non_orthogonal(self, rng, n, count):
        return self.make_logistic(rng, n, count, orthogonal=False)

    def make_minimizers(self, rng, m, n, k):
        return {"clients": _quadratic_clients(rng, m, n), "gamma": 0.5, "k": k}

    def build(self, itf, spec, workdir):
        kind = spec["kind"]
        if kind.endswith("-cli"):
            opdir = os.path.join(workdir, f"op{spec['index']}")
            os.makedirs(opdir, exist_ok=True)
            config = {"schema_version": 1, "clients": spec["clients"], "gamma": spec["gamma"],
                      "eta": 1.0, "k": spec["k"], "rounds": spec["rounds"], "x0": spec["x0"],
                      "mode": spec["mode"], "alpha": spec["alpha"], "beta": spec["beta"]}
            path = os.path.join(opdir, "config.json")
            with open(path, "w") as handle:
                json.dump(config, handle)
            return {"argv": ["fedavg", "--config", path, "--outdir", opdir], "dir": opdir}
        from iterfield import fedavg as fa
        clients = [_build_client(itf, c) for c in spec["clients"]]
        if kind == "minimizers":
            return {"clients": clients}
        return {"clients": clients,
                "config": fa.FedAvgConfig(clients, gamma=spec["gamma"], eta=1.0, k=spec["k"],
                                          rounds=spec["rounds"], x0=spec["x0"])}

    def run(self, itf, spec, built):
        from iterfield import cli, fedavg as fa
        kind = spec["kind"]
        if kind.endswith("-cli"):
            return cli.main(built["argv"])
        if kind == "minimizers":
            return fa.compare_minimizers(built["clients"], spec["gamma"], spec["k"])
        trace = fa.run_fedavg(built["config"])
        out = {"trace": trace}
        if kind == "quadratic":
            out["closed"] = fa.closed_form_affine_trace(built["clients"], built["config"])
        if spec["mode"]:
            out["rate"] = fa.verify_rate(trace, spec["alpha"], spec["beta"], spec["k"],
                                         spec["mode"])
        return out

    def summarize(self, spec, built, output):
        kind = spec["kind"]
        if kind.endswith("-cli"):
            with open(os.path.join(built["dir"], "fedavg_summary.json")) as handle:
                summary = json.load(handle)
            return {"exit": output, "xs_last": summary["final_iterate"],
                    "rounds": summary["rounds_completed"],
                    "fixed_point": summary["fixed_point"],
                    "rate_pass": summary.get("rate", {}).get("pass")}
        if kind == "minimizers":
            return {"surrogate": output.surrogate_minimizer, "average": output.average_minimizer,
                    "distance": output.distance}
        trace = output["trace"]
        summary = {"xs": trace.xs, "fixed_point": trace.fixed_point,
                   "method": trace.fixed_point_method, "has_surrogate": trace.fs is not None,
                   "rate_pass": output["rate"].passed if "rate" in output else None}
        if "closed" in output:
            summary["closed_gap"] = float(np.max(np.abs(output["closed"] - trace.xs)))
        return summary

    def release(self, spec, built):
        if spec["kind"].endswith("-cli"):
            shutil.rmtree(built["dir"], ignore_errors=True)

    def check(self, spec, summary):
        kind = spec["kind"]
        clients, gamma, k = spec["clients"], spec["gamma"], spec["k"]
        if kind == "minimizers":
            want_s = oracles.quadratic_fixed_point(clients, gamma, k)
            want_a = oracles.quadratic_average_minimizer(clients)
            gap_s = oracles.relative_gap(summary["surrogate"], want_s)
            gap_a = oracles.relative_gap(summary["average"], want_a)
            if gap_s > 1e-8 or gap_a > 1e-8:
                return f"minimizers off the float solve by {gap_s:.2e} / {gap_a:.2e}"
            if k == 1 and summary["distance"] > 1e-10:
                return f"k=1 minimizers differ by {summary['distance']:.2e}"
            return None
        xs = oracles.server_trace(clients, gamma, k, spec["rounds"], spec["x0"])
        fixed = summary["fixed_point"]
        if fixed is None:
            return "no fixed point"
        if kind.endswith("-cli"):
            if summary["exit"] != 0 or summary["rounds"] != spec["rounds"]:
                return f"exit code {summary['exit']}, rounds {summary['rounds']}"
            if summary["rate_pass"] is not True:
                return "rate check did not pass"
            if oracles.relative_gap(summary["xs_last"], xs[-1]) > 1e-9:
                return "final iterate differs from the model-average recursion"
        else:
            if summary["xs"].shape != xs.shape or oracles.relative_gap(summary["xs"], xs) > 1e-9:
                return "trace differs from the model-average recursion"
            if spec["mode"] and summary["rate_pass"] is not True:
                return f"{spec['mode']} rate check did not pass"
            if kind == "quadratic" and not summary["closed_gap"] <= 1e-9:
                return f"closed-form affine trace gap {summary['closed_gap']:.2e}"
            if kind == "non-orthogonal" and summary["has_surrogate"]:
                return "non-orthogonal clients reported a surrogate"
        if kind.startswith("quadratic"):
            if oracles.relative_gap(fixed, oracles.quadratic_fixed_point(clients, gamma, k)) > 1e-8:
                return "fixed point differs from the float solve"
        elif oracles.server_field_norm(clients, gamma, k, fixed) > 1e-10:
            return "fixed point is not a zero of the server field"
        return None


# ===================== paper-suite =====================

PAPER_ENTRIES = (
    "constant-fields", "cubic-counterexample", "cubic-hypersurface", "fedavg-convex",
    "fedavg-reduction", "fedavg-strongly-convex", "glm-counterexample", "glm-opposite",
    "glm-orthogonal", "linear-pattern", "minimizer-gap", "nilpotent", "non-closure",
    "rotation-divisibility", "spectral-propagation", "surrogate-gradient",
)


class PaperSuite(Workload):
    """Every entry of ``paper-suite`` in sorted order, pass after pass.

    The entries take no input, so the seed only names the output
    directories; the check is that every pass writes the same bytes.
    """

    name = "paper-suite"
    block = [(entry, ()) for entry in PAPER_ENTRIES]
    min_ops = 7 * len(PAPER_ENTRIES)
    trace_ops = len(PAPER_ENTRIES)
    imports_cli = True

    def __init__(self):
        self.first_pass: dict[str, str] = {}

    def spec(self, seed, index):
        return {"kind": PAPER_ENTRIES[index % len(PAPER_ENTRIES)], "index": index,
                "pass": index // len(PAPER_ENTRIES)}

    def build(self, itf, spec, workdir):
        opdir = os.path.join(workdir, f"pass{spec['pass']}")
        return {"argv": ["paper-suite", spec["kind"], "--outdir", opdir], "dir": opdir}

    def run(self, itf, spec, built):
        from iterfield import cli
        return cli.main(built["argv"])

    def summarize(self, spec, built, output):
        digest = hashlib.sha256()
        for name in (f"{spec['kind']}.json", "index.json"):
            with open(os.path.join(built["dir"], name), "rb") as handle:
                digest.update(handle.read())
        with open(os.path.join(built["dir"], f"{spec['kind']}.json")) as handle:
            passed = json.load(handle)["passed"]
        return {"exit": output, "digest": digest.hexdigest(), "passed": passed}

    def release(self, spec, built):
        if spec["kind"] == PAPER_ENTRIES[-1]:
            shutil.rmtree(built["dir"], ignore_errors=True)

    def check(self, spec, summary):
        if summary["exit"] != 0 or summary["passed"] is not True:
            return f"{spec['kind']}: exit {summary['exit']}, passed {summary['passed']}"
        first = self.first_pass.setdefault(spec["kind"], summary["digest"])
        if summary["digest"] != first:
            return f"{spec['kind']}: pass {spec['pass']} wrote different bytes"
        return None


WORKLOADS = {w.name: w for w in (NumericOrbit(), ExactCertificates(), FedAvgRounds(),
                                 PaperSuite())}
