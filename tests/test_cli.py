"""Command-line behavior: exit codes, artifacts, determinism."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import iterfield
from iterfield import polynomials, reports
from iterfield.cli import main
from iterfield.polynomials import EXPONENT_BITS, MAX_DEGREE

FED_CONFIG = {
    "schema_version": 1,
    "clients": [
        {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 3.0]], "center": [1.0, 2.0]},
        {"kind": "quadratic", "matrix": [[3.0, 0.0], [0.0, 1.0]], "center": [-1.0, 0.0]},
    ],
    "gamma": 0.5, "eta": 1.0, "k": 2, "rounds": 15, "x0": [5.0, -3.0],
    "seed": 7, "mode": "strongly-convex", "alpha": 1.0, "beta": 3.0,
}


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestCheck:
    def test_linear_pattern_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["check", "--linear", "[[1,2],[1,-1]]", "--k", "1..4", "--out", out])
        assert code == 0
        report = read_json(out)
        verdicts = [r["verdict"] for r in report["results"]]
        assert verdicts == ["exact-no", "exact-yes", "exact-no", "exact-yes"]
        assert "manifest" in report

    def test_expectation_met(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["check", "--linear", "[[1,2],[1,-1]]", "--k", "1..4",
                     "--expect", "no,yes,no,yes", "--out", out])
        assert code == 0

    def test_expectation_violated_exits_one(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["check", "--linear", "[[1,2],[1,-1]]", "--k", "1..2",
                     "--expect", "yes,yes", "--out", out])
        assert code == 1

    def test_empty_k_range_valid_report(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["check", "--linear", "[[0,1],[1,0]]", "--k", "2..1", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["results"] == []
        assert "manifest" in report

    def test_rotation_field(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["check", "--rotation", "3", "--k", "3..6", "--out", out]) == 0
        report = read_json(out)
        assert [r["verdict"] for r in report["results"]] == [
            "exact-yes", "exact-no", "exact-no", "exact-yes"]

    def test_bad_matrix_json_exits_two(self):
        assert main(["check", "--linear", "[[1,2],[1,-1]", "--k", "1"]) == 2

    def test_two_field_options_exits_two(self):
        assert main(["check", "--linear", "[[1]]", "--rotation", "2", "--k", "1"]) == 2


class TestScan:
    def test_glm_field_json(self, tmp_path):
        out = str(tmp_path / "r.json")
        field = json.dumps({"variant": "glm", "activation": "exp",
                            "directions": [[1.0, 0.0], [1.0, 1.0]]})
        code = main(["scan", "--field", field, "--k-max", "2", "--box", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["results"][0]["verdict"] == "numeric-pass"
        assert report["results"][1]["verdict"] == "numeric-fail"

    def test_unknown_activation_exits_two(self):
        field = json.dumps({"variant": "glm", "activation": "warp",
                            "directions": [[1.0, 0.0]]})
        assert main(["scan", "--field", field, "--k-max", "1"]) == 2

    def test_poly_field(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["scan", "--poly", "2*x0^1*x1^1; 1*x0^2", "--k-max", "2",
                     "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["results"][1]["certificate"] == "4*x0^3 + -8*x0^1*x1^2"

    def test_poly_square_tower_runs_up_to_the_exponent_width(self, tmp_path):
        # x0 -> x0^2 iterated k times is x0^(2^k), which fits below the width
        # up to k = EXPONENT_BITS - 1 (the next k is refused, exit 2)
        out = str(tmp_path / "r.json")
        k_max = EXPONENT_BITS - 1
        assert main(["scan", "--poly", "x0^2", "--k-max", str(k_max), "--out", out]) == 0
        results = read_json(out)["results"]
        assert [r["k"] for r in results] == list(range(1, k_max + 1))
        assert {r["verdict"] for r in results} == {"exact-yes"}

    def test_poly_binary_minus_reads_as_adding_the_negated_term(self, tmp_path):
        reports = []
        for text in ("x0^2 - x1; x0", "x0^2 + -1*x1; x0"):
            out = str(tmp_path / "r.json")
            assert main(["scan", "--poly", text, "--k-max", "3", "--out", out]) == 0
            reports.append(read_json(out)["results"])
        assert reports[0] == reports[1]

    def test_coordwise_field(self, tmp_path):
        out = str(tmp_path / "r.json")
        field = json.dumps({"variant": "coordwise", "functions": ["exp", "quadratic"]})
        code = main(["scan", "--field", field, "--k-max", "3", "--out", out])
        assert code == 0
        report = read_json(out)
        assert all(r["verdict"] == "numeric-pass" for r in report["results"])

    @pytest.mark.parametrize("field", [
        {"variant": "glm", "activation": "exp", "directions": [[6, 0], [0, 6]]},
        {"variant": "coordwise", "functions": ["exp", "logistic"]},
    ])
    def test_too_many_overflowing_samples_exits_two(self, field, capsys):
        # most orbits overflow, so the scan cannot decide: a usage-level
        # error with one line, not a traceback that reads as a failed check
        assert main(["scan", "--field", json.dumps(field), "--k-max", "5"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "samples failed to evaluate" in err[0]

    def test_expression_activation_field(self, tmp_path):
        out = str(tmp_path / "r.json")
        field = json.dumps({"variant": "glm", "activation": "t^2/2",
                            "directions": [[1.0, 0.0], [0.0, 1.0]]})
        assert main(["scan", "--field", field, "--k-max", "2", "--out", out]) == 0

    def test_bad_expression_activation_exits_two(self):
        field = json.dumps({"variant": "glm", "activation": "a*t+q",
                            "directions": [[1.0, 0.0]]})
        assert main(["scan", "--field", field, "--k-max", "1"]) == 2


class TestGlmVerify:
    def test_orthogonal_passes(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["glm-verify", "--activation", "logistic",
                     "--directions", "[[0.5,0,0],[0,0.4,0]]",
                     "--k", "4", "--gamma", "0.5", "--points", "30", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["pass"] is True
        assert report["worst_relative_deviation"] <= 1e-9

    def test_non_orthogonal_exits_two(self):
        code = main(["glm-verify", "--activation", "exp",
                     "--directions", "[[1,0],[1,1]]", "--k", "2"])
        assert code == 2


class TestSpectral:
    def test_propagation_report(self, tmp_path):
        out = str(tmp_path / "r.json")
        field = json.dumps({"variant": "glm", "activation": "quadratic",
                            "directions": [[1.0, 0.0], [0.0, 2.0]]})
        code = main(["spectral", "--field", field, "--k", "2", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["propagation"]["pass"] is True
        assert report["classification"]["class"] == "strongly-convex"

    def test_gd_mode(self, tmp_path):
        out = str(tmp_path / "r.json")
        field = json.dumps({"variant": "linear", "matrix": [[1.0, 0.0], [0.0, 3.0]]})
        code = main(["spectral", "--field", field, "--k", "2", "--gd",
                     "--gamma", "0.5", "--alpha", "1", "--beta", "3", "--out", out])
        assert code == 0

    def test_gd_bad_gamma_exits_two(self):
        field = json.dumps({"variant": "linear", "matrix": [[1.0, 0.0], [0.0, 3.0]]})
        assert main(["spectral", "--field", field, "--k", "2", "--gd",
                     "--gamma", "0.9", "--alpha", "1", "--beta", "3"]) == 2

    def test_gd_weakly_convex_claim(self, tmp_path, capsys):
        # potential x^T diag(-0.5, 2) x / 2: weakly convex with delta 0.5, beta 2
        out = str(tmp_path / "r.json")
        field = json.dumps({"variant": "linear", "matrix": [[-0.5, 0.0], [0.0, 2.0]]})
        argv = ["spectral", "--field", field, "--k", "3", "--gd", "--gamma", "0.5",
                "--claimed", "weakly-convex", "--beta", "2"]
        assert main([*argv, "--delta", "0.5", "--out", out]) == 0
        report = read_json(out)["gd_propagation"]
        assert report["pass"] is True and report["lambda"] == 1.25
        for refused in ([*argv, "--delta", "3"], argv):
            capsys.readouterr()
            assert main(refused) == 2
            err = capsys.readouterr().err
            assert err == "error: weakly-convex claims need 0 < delta <= beta\n"

    def test_threshold_is_part_of_the_config_hash(self, tmp_path):
        field = json.dumps({"variant": "glm", "activation": "exp",
                            "directions": [[1.0, 0.0], [1.0, 1.0]]})
        hashes = []
        for threshold in ("1e-8", "0.5"):
            out = str(tmp_path / "r.json")
            main(["spectral", "--field", field, "--k", "2", "--box", "--threshold", threshold,
                  "--out", out])
            hashes.append(read_json(out)["manifest"]["config_hash"])
        assert hashes[0] != hashes[1]

    def test_non_conservative_field_exits_one(self, tmp_path):
        out = str(tmp_path / "r.json")
        field = json.dumps({"variant": "linear", "matrix": [[0.0, 1.0], [-1.0, 0.0]]})
        assert main(["spectral", "--field", field, "--k", "1", "--out", out]) == 1
        assert "refused" in read_json(out)


class TestFedavg:
    def test_run_writes_artifacts(self, tmp_path):
        config = write_config(tmp_path, FED_CONFIG)
        outdir = str(tmp_path / "run")
        code = main(["fedavg", "--config", config, "--outdir", outdir])
        assert code == 0
        with open(os.path.join(outdir, "fedavg_trace.csv")) as handle:
            csv_text = handle.read()
        assert csv_text.startswith("round,x0,x1,dist,ratio,fs\n")
        assert len(csv_text.strip().splitlines()) == 17  # header + 16 rows
        summary = read_json(os.path.join(outdir, "fedavg_summary.json"))
        assert summary["rate"]["pass"] is True
        assert summary["fixed_point_method"] == "affine-solve"

    def test_rate_refusal_is_config_error(self, tmp_path):
        bad = dict(FED_CONFIG)
        bad["gamma"] = 0.4
        config = write_config(tmp_path, bad)
        assert main(["fedavg", "--config", config, "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("changes", [
        {"gamma": 0.4}, {"alpha": None}, {"mode": "linear"}])
    def test_refused_rate_check_writes_no_file(self, tmp_path, changes):
        # a refused run neither overwrites an earlier run's pair nor starts
        # a new one
        outdir, empty = tmp_path / "run", tmp_path / "empty"
        assert main(["fedavg", "--config", write_config(tmp_path, FED_CONFIG),
                     "--outdir", str(outdir)]) == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        config = write_config(tmp_path, {**FED_CONFIG, **changes}, "refused.json")
        for target in (outdir, empty):
            assert main(["fedavg", "--config", config, "--outdir", str(target)]) == 2
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before
        assert not empty.exists()

    def test_integral_float_counts_are_refused(self, tmp_path):
        # "k": 2.0 is refused as FedAvgConfig(k=2.0) is, and writes no file
        outdir = tmp_path / "run"
        for changes in ({"k": 2.0}, {"rounds": 15.0}):
            config = write_config(tmp_path, {**FED_CONFIG, **changes})
            assert main(["fedavg", "--config", config, "--outdir", str(outdir)]) == 2
        assert not outdir.exists()
        config = write_config(tmp_path, {**FED_CONFIG, "k": 2, "rounds": 15})
        assert main(["fedavg", "--config", config, "--outdir", str(outdir)]) == 0

    def test_eta_one_run_far_from_the_model_average_exits_zero(self, tmp_path):
        # x_t - (x_t - y) keeps y only to x_t's last place, 1.2e-10 near 1e6:
        # the first round's update and model average differ by 4.7e-11,
        # inside 1e-12 of |x_0|
        config = write_config(tmp_path, {
            "schema_version": 1, "gamma": 1.0, "eta": 1.0, "k": 1, "rounds": 3,
            "clients": [{"kind": "quadratic", "matrix": [[1.0]], "center": [0.3]}],
            "x0": [1000000.1]})
        assert main(["fedavg", "--config", config, "--outdir", str(tmp_path / "run")]) == 0

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["fedavg", "--config", str(tmp_path / "none.json")]) == 2

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"clients\": [,]\n}")
        assert main(["fedavg", "--config", str(path)]) == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, FED_CONFIG)
        outdir = str(tmp_path / "run")
        monkeypatch.setenv("ITERFIELD_SEED", "123")
        main(["fedavg", "--config", config, "--outdir", outdir])
        summary = read_json(os.path.join(outdir, "fedavg_summary.json"))
        assert summary["manifest"]["seed"] == 123

    def test_bad_env_seed_exits_two(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, FED_CONFIG)
        monkeypatch.setenv("ITERFIELD_SEED", "abc")
        assert main(["fedavg", "--config", config, "--outdir", str(tmp_path)]) == 2
        assert "ITERFIELD_SEED must be an integer" in capsys.readouterr().err


LINEAR = ["--linear", "[[1,2],[1,-1]]"]
DIRECTIONS = ["--activation", "logistic", "--directions", "[[0.5,0,0],[0,0.4,0]]"]
DIAGONAL = ["--field", '{"variant":"linear","matrix":[[1,0],[0,3]]}']
LINEAR_FIELD = {"variant": "linear", "matrix": [[1, 2], [1, -1]]}
B = 10**400  # too large for a float or a machine size


def _fedavg(**changes):
    """A fedavg run of FED_CONFIG with these changes, as JSON text that
    the test writes to a config file."""
    return ["fedavg", "--config", json.dumps({**FED_CONFIG, **changes})]


def _scan_field(obj):
    return ["scan", "--field", json.dumps(obj), "--k-max", "2"]


def _nested_scales(depth):
    """LINEAR_FIELD inside ``depth`` nested scale fields."""
    field = LINEAR_FIELD
    for _ in range(depth):
        field = {"variant": "scale", "c": 1, "inner": field}
    return field


def _nested_lists(depth):
    """0 inside ``depth`` nested lists."""
    value = 0
    for _ in range(depth):
        value = [value]
    return value


class TestBoundaryRefusals:
    """Arguments and configs the library refuses exit 2 with one error line,
    instead of a traceback (exit 1) or a pass that checked nothing."""

    @pytest.mark.parametrize("argv, reason", [
        (["scan", *LINEAR, "--k-max", "0"], "k_max must be an integer >= 1"),
        (["scan", *LINEAR, "--k-max", "3", "--samples", "-3"], "sample count must be at least 1"),
        (["scan", *LINEAR, "--k-max", "3", "--samples", "0"], "sample count must be at least 1"),
        (["scan", "--field", '{"variant":"glm","activation":"exp","directions":[[1,0],[0,1]]}',
          "--k-max", "3", "--samples", "0"], "sample count must be at least 1"),
        (["scan", *LINEAR, "--k-max", "3", "--radius", "inf"], "radius must be finite"),
        (["scan", *LINEAR, "--k-max", "3", "--radius", "0"], "radius must be finite"),
        (["scan", "--rotation", "0", "--k-max", "3"], "rotation order"),
        (["glm-verify", *DIRECTIONS, "--k", "2", "--gamma", "-1"],
         "gamma must be finite and positive"),
        (["glm-verify", *DIRECTIONS, "--k", "2", "--points", "-2"], "--points must be at least 1"),
        (["glm-verify", *DIRECTIONS, "--k", "0"], "k_max must be an integer >= 1"),
        (["glm-verify", *DIRECTIONS, "--k", "2", "--points", "0"], "--points must be at least 1"),
        (["spectral", *DIAGONAL, "--k", "2", "--gd", "--gamma", "0.5", "--alpha", "1",
          "--beta", "3", "--samples", "0"], "sample count must be at least 1"),
        (["spectral", *DIAGONAL, "--k", "2", "--samples", "0"], "sample count must be at least 1"),
        (["scan", "--field", '{"variant":"glm","activation":"exp","directions":[[1e308,0]]}',
          "--k-max", "2"], "squared norms overflow"),
        (_fedavg(clients=[5]), "client must be an object"),
        (_fedavg(clients=5), "clients must be a list"),
        (_fedavg(seed=[1]), "bad run config"),
        (["fedavg", "--config", json.dumps([FED_CONFIG])], "run config must be an object"),
        (_fedavg(mode="convex", beta="x"), "could not convert string to float"),
        (["fedavg", "--config", json.dumps(FED_CONFIG).replace('"gamma": 0.5', '"gamma": 1e400')],
         "gamma must be finite and positive"),
        (_fedavg(clients=[{"kind": "glm", "activation": "exp", "directions": [[1e308, 0]]}]),
         "squared norms overflow"),
        (["check", "--linear", f"[[{B}]]", "--k", "1"], "too large to convert"),
        (["scan", "--linear", f"[[1,2],[3,{B}]]", "--k-max", "2"], "too large to convert"),
        (["spectral", "--linear", f"[[{B}]]", "--k", "1"], "too large to convert"),
        (["glm-verify", "--activation", "exp", "--directions", f"[[{B},0]]", "--k", "2"],
         "too large to convert"),
        (_scan_field({"variant": "glm", "activation": "exp", "directions": [[B, 0]]}),
         "too large to convert"),
        (_scan_field({"variant": "rotation", "j": B}), "too large to convert"),
        (_scan_field({"variant": "iterate", "k": B, "inner": LINEAR_FIELD}),
         "too large to convert"),
        (_scan_field({"variant": "scale", "c": B, "inner": LINEAR_FIELD}),
         "too large to convert"),
        (_scan_field({"variant": "gd", "gamma": B, "inner": LINEAR_FIELD}),
         "too large to convert"),
        (_fedavg(clients=[{"kind": "quadratic", "matrix": [[1.0]], "center": [B]}], x0=[1.0]),
         "too large to convert"),
        (_fedavg(alpha=B), "too large to convert"),
        (_fedavg(gamma=B), "too large to convert"),
        (["check", "--field", '{"variant":"glm","activation":"exp","directions":[[1,0],[1,1]]}',
          "--k", "2", "--box", "--seed", "3", "--expect", "yes", "--threshold", "nan"],
         "threshold must be finite and >= 0"),
        (["scan", *LINEAR, "--k-max", "3", "--threshold", "-1"],
         "threshold must be finite and >= 0"),
        (["spectral", *DIAGONAL, "--k", "2", "--threshold", "inf"],
         "threshold must be finite and >= 0"),
        (["glm-verify", *DIRECTIONS, "--k", "2", "--tol", "nan"], "--tol must be finite and >= 0"),
        *[(["spectral", *DIAGONAL, "--k", "2", "--gd", "--gamma", "0.5", "--alpha", "1",
            "--beta", "3", "--threshold", t], "threshold must be finite and >= 0")
          for t in ("nan", "inf", "-1")],
        (_scan_field(_nested_scales(150)), "field definition nested deeper than 100 levels"),
        # an unknown key nested deeper than any config needs, in both ways a
        # config enters
        (_scan_field({**LINEAR_FIELD, "note": _nested_lists(700)}),
         "JSON nested deeper than 256 levels"),
        (_fedavg(note=_nested_lists(700)), "JSON nested deeper than 256 levels"),
        # a fractional or boolean seed or variable count would be truncated
        # to another run than the one the config names
        (_fedavg(seed=1.5), "seed must be an integer, got 1.5"),
        (_scan_field({"variant": "poly", "components": ["x0", "x1"], "nvars": 2.5}),
         "poly nvars must be an integer"),
        # a degree past the exponent width of the polynomial ring
        (["scan", "--poly", "x0^2", "--k-max", str(EXPONENT_BITS)], "exceeds the exponent width"),
        (["scan", "--poly", f"x0^{MAX_DEGREE + 1}", "--k-max", "1"],
         "exceeds the exponent width"),
        (_scan_field({"variant": "poly", "components": [f"x0*x1^{MAX_DEGREE}", "x1"],
                      "nvars": 2}), "exceeds the exponent width"),
        # an infinite step defines no descent map
        (["glm-verify", *DIRECTIONS, "--k", "2", "--gamma", "inf"],
         "gamma must be finite and positive"),
    ])
    def test_exits_two_with_one_error_line(self, argv, reason, tmp_path, capsys):
        assert main(self._config_argv(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert reason in lines[0]

    @pytest.mark.parametrize("count", [2.0, 2.7, True, "2", None],
                             ids=["integral-float", "fraction", "bool", "string", "null"])
    @pytest.mark.parametrize("argv, message", [
        (lambda c: _fedavg(k=c), "bad run config: k must be an integer >= 1, got {!r}"),
        (lambda c: _fedavg(rounds=c), "bad run config: rounds must be an integer >= 1, got {!r}"),
        # T stands in for rounds only when rounds is absent
        (lambda c: _fedavg(rounds=c, T=5),
         "bad run config: rounds must be an integer >= 1, got {!r}"),
        (lambda c: ["fedavg", "--config", json.dumps(
            {**{key: v for key, v in FED_CONFIG.items() if key != "rounds"}, "T": c})],
         "bad run config: rounds must be an integer >= 1, got {!r}"),
        (lambda c: _scan_field({"variant": "rotation", "j": c}),
         "bad rotation field definition: rotation order j must be an integer >= 1, got {!r}"),
        (lambda c: _scan_field({"variant": "iterate", "k": c, "inner": LINEAR_FIELD}),
         "bad iterate field definition: k must be an integer >= 1, got {!r}"),
    ], ids=["run-k", "rounds", "rounds-over-T", "T", "rotation-j", "iterate-k"])
    def test_a_config_count_follows_the_library_count_rule(self, argv, message, count,
                                                           tmp_path, capsys):
        # a config count is refused as the library refuses it, an integral
        # float or a numeric string too: neither runs as another value
        # than the one the config, and its hash, names
        assert main(self._config_argv(argv(count), tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(count)}\n"

    @pytest.mark.parametrize("step", [True, "0.5", None, 0, -0.5, [0.5]],
                             ids=["bool", "string", "null", "zero", "negative", "list"])
    @pytest.mark.parametrize("key", ["gamma", "eta"])
    def test_a_config_step_follows_the_library_step_rule(self, key, step, tmp_path, capsys):
        # a config step size is refused as the library refuses it: a
        # numeric string or a boolean is not read as a number
        assert main(self._config_argv(_fedavg(**{key: step}), tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == (f"error: bad run config: step size {key} must be finite and positive, "
                       f"got {step!r}\n")

    @staticmethod
    def _config_argv(argv, tmp_path):
        """argv with a fedavg run's JSON text written to a config file."""
        if argv[0] != "fedavg":
            return argv
        config = tmp_path / "config.json"
        config.write_text(argv[2])
        return ["fedavg", "--config", str(config), "--outdir", str(tmp_path)]

    def test_the_term_ceiling_exits_two_with_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(polynomials, "MAX_TERMS", 10)
        assert main(["scan", "--poly", "x0^3 + x0*x1^2; x1^3 + x0^2*x1", "--k-max", "3"]) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "term ceiling (10 terms)" in lines[0]

    def test_deeply_nested_json_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text('{"variant": "linear", "matrix": ' + "[" * 50000 + "]" * 50000 + "}")
        assert main(["check", "--field", str(path), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), err

    def test_any_other_exception_exits_two_with_its_traceback(self, capsys, monkeypatch):
        # an exception that is not the library's is a failure, neither a
        # refusal nor a verdict
        def scan_k(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(iterfield.conservatism, "scan_k", scan_k)
        assert main(_scan_field(LINEAR_FIELD)) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "RecursionError" in err

    def test_field_nesting_up_to_the_limit_is_accepted(self, capsys):
        assert main(_scan_field(_nested_scales(99))) == 0
        assert main(_scan_field(_nested_scales(100))) == 2
        assert "nested deeper than 100 levels" in capsys.readouterr().err

    def test_json_depth_bound_admits_the_deepest_field(self, capsys):
        # a chain of sums nests two JSON levels per field level: 100 field
        # levels around a matrix leaf take 201, inside the bound
        field = LINEAR_FIELD
        for _ in range(99):
            field = {"variant": "sum", "fields": [field]}
        assert reports._nesting(field) == 201 <= reports.MAX_JSON_DEPTH
        assert main(_scan_field(field)) == 0
        assert main(_scan_field({"variant": "sum", "fields": [field]})) == 2
        assert "field definition nested deeper than 100 levels" in capsys.readouterr().err

    def test_every_library_exception_is_an_iterfield_error(self):
        classes = []
        for info in pkgutil.iter_modules(iterfield.__path__):
            module = importlib.import_module(f"iterfield.{info.name}")
            classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                        if cls.__module__ == module.__name__
                        and issubclass(cls, BaseException)]
        assert len(classes) >= 16
        assert all(issubclass(cls, iterfield.IterfieldError) for cls in classes), classes


class TestPaperSuite:
    def test_single_entry(self, tmp_path, capsys):
        outdir = str(tmp_path / "suite")
        code = main(["paper-suite", "glm-counterexample", "--outdir", outdir])
        assert code == 0
        assert "PASS  glm-counterexample" in capsys.readouterr().out
        entry = read_json(os.path.join(outdir, "glm-counterexample.json"))
        assert entry["passed"] is True
        index = read_json(os.path.join(outdir, "index.json"))
        assert index["all_passed"] is True

    def test_unknown_entry_exits_two(self, tmp_path):
        assert main(["paper-suite", "nonsense", "--outdir", str(tmp_path)]) == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv_template", [
        ["check", "--linear", "[[1,2],[1,-1]]", "--k", "1..4", "--out", "{out}"],
        ["scan", "--field",
         '{{"variant": "glm", "activation": "logistic", "directions": [[0.7, 0.0], [0.0, 0.5]]}}',
         "--k-max", "3", "--out", "{out}"],
        ["glm-verify", "--activation", "exp", "--directions", "[[0.5,0],[0,0.4]]",
         "--k", "3", "--gamma", "0.5", "--points", "20", "--out", "{out}"],
    ])
    def test_reports_byte_identical(self, tmp_path, argv_template):
        texts = []
        for run in ("a", "b"):
            out = str(tmp_path / f"{run}.json")
            argv = [part.format(out=out) for part in argv_template]
            assert main(argv) in (0, 1)
            with open(out, "rb") as handle:
                texts.append(handle.read())
        assert texts[0] == texts[1]

    def test_fedavg_artifacts_byte_identical(self, tmp_path):
        config = write_config(tmp_path, FED_CONFIG)
        blobs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            main(["fedavg", "--config", config, "--outdir", str(outdir)])
            blobs.append(((outdir / "fedavg_trace.csv").read_bytes(),
                          (outdir / "fedavg_summary.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_paper_suite_byte_identical(self, tmp_path):
        blobs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            main(["paper-suite", "linear-pattern", "--outdir", str(outdir)])
            blobs.append((outdir / "linear-pattern.json").read_bytes())
        assert blobs[0] == blobs[1]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NO_SCIPY_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from iterfield.cli import main
from iterfield.polynomials import EXPONENT_BITS, MAX_DEGREE
for entry in ("surrogate-gradient", "fedavg-convex", "glm-orthogonal"):
    assert main(["paper-suite", entry, "--outdir", {outdir!r}]) == 0, entry
assert "scipy" not in sys.modules
"""


def test_potentials_and_closed_forms_run_without_scipy(tmp_path):
    # the integrator is numpy only; a fresh process shows what got imported
    script = NO_SCIPY_SCRIPT.format(src=SRC, outdir=str(tmp_path))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    from iterfield import cli
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        outdir = str(tmp_path)
        assert main(["paper-suite", "nilpotent", "--outdir", outdir]) == 0
        with pytest.raises(SystemExit) as info:
            main(["check", "--linear", "[[1]]"])
        assert info.value.code == 2
        assert main(["paper-suite", "nilpotent", "--outdir", outdir]) == 0
        assert built == [1]
    finally:
        cli._parser.cache_clear()
