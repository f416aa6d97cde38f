"""The exact affine layer against plain Fraction arithmetic: ``as_affine``
on random combinator trees, ``as_polyfield`` on trees with polynomial
leaves, exact scan verdicts and certificates against a per-k reference
power, and the FedAvg pieces that read the same integer forms (the
singular solve past float range, the oracle distances)."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield import fedavg as fa
from iterfield import rationals
from iterfield.cli import main
from iterfield.conservatism import check_linear, scan_k
from iterfield.fields import (Affine, Callback, Compose, Constant, GdMap, Iterate, Linear,
                              PolyExact, Scale, Sum)
from iterfield.polynomials import PolyField, RationalPoly

SETTINGS = settings(max_examples=60, deadline=None)


# ----- the Fraction-by-Fraction reference: one Fraction per operation -----

def ref_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def ref_mat_mul(A, B):
    n = len(B)
    return [[sum((A[i][t] * B[t][j] for t in range(n)), Fraction(0)) for j in range(len(B[0]))]
            for i in range(len(A))]


def ref_mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in A]


def ref_fractions(values):
    return [Fraction(float(x)) for x in values]


def ref_affine(field):
    """(A, b) of an affine combinator tree, the way the rationals were built
    before the integer form: every entry a Fraction, every step a Fraction
    operation; None when a leaf has no exact affine form."""
    n = field.dimension
    if isinstance(field, Constant):
        return [[Fraction(0)] * n for _ in range(n)], ref_fractions(field.value)
    if isinstance(field, Linear):
        return [ref_fractions(row) for row in field.matrix], [Fraction(0)] * n
    if isinstance(field, Affine):
        return [ref_fractions(row) for row in field.matrix], ref_fractions(field.offset)
    if isinstance(field, GdMap):
        inner = ref_affine(field.inner)
        if inner is None:
            return None
        g = Fraction(field.gamma)
        return ([[e - g * a for e, a in zip(erow, arow)]
                 for erow, arow in zip(ref_identity(n), inner[0])],
                [-g * x for x in inner[1]])
    if isinstance(field, Scale):
        inner = ref_affine(field.inner)
        if inner is None:
            return None
        c = Fraction(field.c)
        return [[c * a for a in row] for row in inner[0]], [c * x for x in inner[1]]
    if isinstance(field, Sum):
        A, b = [[Fraction(0)] * n for _ in range(n)], [Fraction(0)] * n
        for w, f in zip(field.weights, field.fields):
            part = ref_affine(f)
            if part is None:
                return None
            w = Fraction(w)
            A = [[s + w * a for s, a in zip(srow, arow)] for srow, arow in zip(A, part[0])]
            b = [s + w * x for s, x in zip(b, part[1])]
        return A, b
    if isinstance(field, Compose):
        outer, inner = ref_affine(field.outer), ref_affine(field.inner)
        if outer is None or inner is None:
            return None
        return (ref_mat_mul(outer[0], inner[0]),
                [y + c for y, c in zip(ref_mat_vec(outer[0], inner[1]), outer[1])])
    if isinstance(field, Iterate):
        inner = ref_affine(field.inner)
        if inner is None:
            return None
        A, b = inner
        Ak, bk = A, b
        for _ in range(field.k - 1):
            bk = [y + c for y, c in zip(ref_mat_vec(A, bk), b)]
            Ak = ref_mat_mul(A, Ak)
        return Ak, bk
    return None


def ref_power(A, p):
    """A^p in Fractions by repeated squaring."""
    P, base = ref_identity(len(A)), A
    while p:
        if p & 1:
            P = ref_mat_mul(P, base)
        base, p = ref_mat_mul(base, base), p >> 1
    return P


def ref_decimal(n):
    """str(n) for an integer of any length: split in halves by a power of
    ten until each piece is short enough for str."""
    if n < 0:
        return "-" + ref_decimal(-n)
    if n < 10 ** 1000:
        return str(n)
    half = n.bit_length() * 3 // 20
    high, low = divmod(n, 10 ** half)
    return ref_decimal(high) + ref_decimal(low).zfill(half)


def ref_fraction_text(q):
    """str(q), past Python's int-to-str digit limit."""
    if q.denominator == 1:
        return ref_decimal(q.numerator)
    return f"{ref_decimal(q.numerator)}/{ref_decimal(q.denominator)}"


def parse_fraction(text):
    """Fraction(text), reading long digit strings 500 digits at a time."""
    def integer(digits):
        sign = -1 if digits.startswith("-") else 1
        digits = digits.lstrip("-")
        value = 0
        for start in range(0, len(digits), 500):
            chunk = digits[start:start + 500]
            value = value * 10 ** len(chunk) + int(chunk)
        return sign * value

    num, _, den = text.partition("/")
    return Fraction(integer(num), integer(den) if den else 1)


def ref_scan_results(A, stride, k_max):
    """The exact scan's result dicts for the field whose Jacobian is A,
    iterated ``stride`` times per k: A^p computed afresh for every
    p = k * stride, checked entry by entry in Fractions."""
    n = len(A)
    results = []
    for k in range(1, k_max + 1):
        p = k * stride
        P = ref_power(A, p)
        entry = {"k": k, "verdict": "exact-yes"}
        gaps = [(i, j) for i in range(n) for j in range(i + 1, n) if P[i][j] != P[j][i]]
        if gaps:
            i, j = gaps[0]
            entry = {"k": k, "verdict": "exact-no", "certificate": (
                f"power {p} entry ({i + 1},{j + 1}) minus ({j + 1},{i + 1}) = "
                f"{ref_fraction_text(P[i][j] - P[j][i])}")}
        results.append(entry)
    return results


# ----- random combinator trees over Constant / Linear / Affine leaves -----

ENTRIES = {
    "integer": st.integers(-3, 3).map(float),
    "0.1-step": st.integers(-12, 12).map(lambda i: i / 10),
    "float": st.floats(-2.0, 2.0, allow_nan=False),
}
STEPS = st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 1.7])


def opaque(n):
    """A field with no exact form."""
    return Callback(lambda x: x, n, name="opaque")


LEAF_KINDS = ("linear", "affine", "constant", "opaque")


@st.composite
def leaves(draw, n, entry, kinds=LEAF_KINDS):
    kind = draw(st.sampled_from(kinds))
    vector = st.lists(entry, min_size=n, max_size=n)
    if kind == "constant":
        return Constant(draw(vector))
    if kind == "opaque":
        return opaque(n)
    if kind == "poly":
        # components of degree <= 2 with integer coefficients in [-2, 2]
        monomials = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
        poly = st.dictionaries(st.sampled_from(monomials), st.integers(-2, 2), max_size=3)
        return PolyExact(PolyField(RationalPoly(n, draw(poly)) for _ in range(n)))
    matrix = draw(st.lists(vector, min_size=n, max_size=n))
    return Linear(matrix) if kind == "linear" else Affine(matrix, draw(vector))


@st.composite
def trees(draw, n, entry, depth=3, kinds=LEAF_KINDS, ks=st.integers(1, 3)):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(leaves(n, entry, kinds))
    kind = draw(st.sampled_from(["gd", "scale", "sum", "compose", "iterate"]))
    sub = trees(n, entry, depth - 1, kinds, ks)
    if kind == "gd":
        return GdMap(draw(sub), draw(STEPS))
    if kind == "scale":
        return Scale(draw(entry), draw(sub))
    if kind == "sum":
        fields = draw(st.lists(sub, min_size=1, max_size=3))
        return Sum(fields, draw(st.lists(entry, min_size=len(fields), max_size=len(fields))))
    if kind == "compose":
        return Compose(draw(sub), draw(sub))
    return Iterate(draw(sub), draw(ks))


@st.composite
def combinator_trees(draw):
    n = draw(st.integers(1, 4))
    return draw(trees(n, ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]))


@st.composite
def polynomial_trees(draw):
    """Trees of depth <= 2 over exact leaves, PolyExact among them, with
    Iterate at k = 2; deeper trees can take minutes to expand."""
    n = draw(st.integers(1, 3))
    return draw(trees(n, ENTRIES["integer"], depth=2,
                      kinds=("linear", "affine", "constant", "poly"), ks=st.just(2)))


class TestAffineForms:
    @SETTINGS
    @given(combinator_trees())
    def test_as_affine_equals_fraction_reference(self, field):
        got = field.as_affine()
        want = ref_affine(field)
        assert got == want
        if got is not None:
            assert all(isinstance(x, Fraction) for row in got[0] for x in row)
            assert all(isinstance(x, Fraction) for x in got[1])

    @SETTINGS
    @given(st.sampled_from(sorted(ENTRIES)).flatmap(
        lambda kind: st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(ENTRIES[kind].map(Fraction), min_size=n, max_size=n),
            min_size=n, max_size=n))), st.integers(0, 6))
    def test_mat_power_equals_repeated_products(self, A, k):
        want = ref_identity(len(A))
        for _ in range(k):
            want = ref_mat_mul(want, A)
        got = rationals.mat_power(A, k)
        assert got == want
        assert all(isinstance(x, Fraction) for row in got for x in row)

    def test_float_entries_enter_exactly(self):
        A, b = Affine([[0.1, 1e-300], [2.0**60, -0.3]], [1 / 3, 5e-324]).as_affine()
        assert A == [[Fraction(0.1), Fraction(1e-300)], [Fraction(2**60), Fraction(-0.3)]]
        assert b == [Fraction(1 / 3), Fraction(5e-324)]

    def test_probing_stops_at_first_operand_without_a_form(self, monkeypatch):
        built = []
        for name in ("_affine_form", "as_polyfield"):
            original = getattr(Linear, name)

            def counting(self, original=original):
                built.append(self)
                return original(self)

            monkeypatch.setattr(Linear, name, counting)
        linear = Linear([[1.0, 2.0], [3.0, 4.0]])
        for field in (Compose(linear, opaque(2)), Sum([opaque(2), linear])):
            assert field.as_affine() is None
            assert field.as_polyfield() is None
            assert scan_k(field, 3, mode="auto").sampling is not None
        assert built == []


# ----- exact scans: the integer tower against a per-k reference power -----

@st.composite
def exact_scan_fields(draw):
    """(field, A, stride): a Linear or Affine field with A its matrix, or a
    small tree with an exact form, possibly iterated twice per k."""
    n = draw(st.integers(1, 4))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    inner = draw(trees(n, entry, depth=1))
    if inner.as_affine() is None:
        inner = Linear(np.eye(n))
    field = Iterate(inner, draw(st.integers(1, 2)))
    if field.k == 1:
        field = inner
    base, stride = (field.inner, field.k) if isinstance(field, Iterate) else (field, 1)
    return field, ref_affine(base)[0], stride


def outcome(fn):
    try:
        return "value", fn()
    except ValueError as err:
        return type(err), str(err)


class TestExactScanTower:
    @settings(max_examples=40, deadline=None)
    @given(exact_scan_fields())
    def test_verdicts_and_certificates_equal_reference_powers(self, case):
        # Tiny float entries at high powers give gaps of more than 4300
        # decimal digits, past Python's int-to-str limit; both sides render
        # them in pieces.
        field, A, stride = case
        got = outcome(lambda: scan_k(field, 12).to_dict()["results"])
        assert got == outcome(lambda: ref_scan_results(A, stride, 12))
        if got[0] == "value":
            assert scan_k(field, 12).sampling is None

    @SETTINGS
    @given(exact_scan_fields(), st.integers(1, 12))
    def test_check_linear_equals_reference_power(self, case, k):
        _, A, _ = case
        got = outcome(lambda: {"k": k, **check_linear(A, k).to_dict()})
        assert got == outcome(lambda: ref_scan_results(A, 1, k)[-1])

    def test_gap_past_the_digit_limit_renders(self, tmp_path, capsys):
        matrix = [[0, 0, 0], [0, 1e-300, 0], [0, 1, 0]]
        out = tmp_path / "scan.json"
        assert main(["scan", "--field", '{"variant": "linear", "matrix": '
                     '[[0, 0, 0], [0, 1e-300, 0], [0, 1, 0]]}',
                     "--k-max", "20", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        results = json.loads(out.read_text())["results"]
        P = ref_power([[Fraction(v) for v in row] for row in matrix], 20)
        prefix = "power 20 entry (2,3) minus (3,2) = "
        assert results[-1]["certificate"].startswith(prefix)
        text = results[-1]["certificate"][len(prefix):]
        assert len(text) > 4300
        assert parse_fraction(text) == P[1][2] - P[2][1]

    def test_fraction_text_on_both_sides_of_the_limit(self):
        for q in (Fraction(0), Fraction(-7), Fraction(3, 4), Fraction(-10 ** 599, 3),
                  Fraction(10 ** 600), Fraction(-(10 ** 1200) + 1, 7 ** 900)):
            assert rationals.fraction_text(q) == str(q) == ref_fraction_text(q)
        for q in (Fraction(10 ** 6000), Fraction(-(10 ** 4400) + 1, 7 ** 3000),
                  Fraction(3 * 10 ** 4800 + 7, 2 ** 20000)):
            assert rationals.fraction_text(q) == ref_fraction_text(q)
            assert parse_fraction(rationals.fraction_text(q)) == q

    def test_float_entered_certificate(self):
        report = scan_k(Linear([[0.1, 0.2], [0.3, 0.4]]), 2)
        gap = Fraction(0.2) - Fraction(0.3)
        assert report.verdict(1).certificate == f"power 1 entry (1,2) minus (2,1) = {gap}"


class TestPolynomialForms:
    """``as_polyfield`` through every combinator: the exact polynomials
    evaluate to the float field, and on affine trees they are the exact
    affine form's polynomials."""

    @settings(max_examples=120, deadline=None)
    @given(polynomial_trees(), st.integers(0, 2**32 - 1))
    def test_as_polyfield_equals_the_field(self, field, seed):
        poly = field.as_polyfield()
        assert poly is not None
        for x in np.random.default_rng(seed).uniform(-1.0, 1.0, (3, field.dimension)):
            want = [float(v) for v in poly.evaluate([Fraction(t) for t in x])]
            got = field(x)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
        affine = field.as_affine()
        if affine is not None:
            assert poly == PolyField.linear(*affine)


# ----- FedAvg: a singular exact system past float range -----

def far_singular_client():
    # x -> (I - A)^k x + ...: the second diagonal entry is (-999)^k, past
    # float range for k >= 103, and the first column of P = I - A_k is zero
    return fa.QuadraticClient([[0, 0], [0, 1000]], [1, 2])


class TestSingularPastFloatRange:
    def test_run_reports_no_fixed_point(self):
        for k in (60, 103, 120):
            config = fa.FedAvgConfig([far_singular_client()], gamma=1.0, eta=1.0, k=k,
                                     rounds=3, x0=[0.5, 0.5])
            trace = fa.run_fedavg(config)
            assert trace.fixed_point is None and trace.fixed_point_method is None

    def test_oracle_reports_condition(self):
        try:
            fa.oracle_fixed_point([far_singular_client()], 1.0, 103)
        except rationals.SingularMatrixError as err:
            assert str(err) == ("matrix is singular (no pivot in column 0); "
                                "float condition estimate inf")
        else:
            raise AssertionError("the system is singular")

    def test_cli_exits_zero_without_traceback(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            '{"schema_version": 1, "clients": [{"kind": "quadratic", '
            '"matrix": [[0, 0], [0, 1000]], "center": [1, 2]}], "gamma": 1.0, '
            '"eta": 1.0, "k": 103, "rounds": 3, "x0": [0.5, 0.5], "seed": 1}')
        outdir = tmp_path / "run"
        assert main(["fedavg", "--config", str(config), "--outdir", str(outdir)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        summary = (outdir / "fedavg_summary.json").read_text()
        assert '"fixed_point": null' in summary
        assert '"fixed_point_method": null' in summary


# ----- FedAvg: oracle distances in one pass -----

def loop_distances(X, p):
    """|x - p| one row at a time, rescaled by the row's largest entry when
    its norm overflows, and the ratios of consecutive resolvable ones."""
    dists = []
    for x in X:
        d = x - p
        dist = float(np.linalg.norm(d))
        if math.isinf(dist) and np.isfinite(d).all():
            scale = float(np.max(np.abs(d)))
            dist = scale * float(np.linalg.norm(d / scale))
        dists.append(dist)
    ratios = [dists[t + 1] / dists[t]
              if 1e-10 < dists[t] < math.inf and dists[t + 1] < math.inf else math.nan
              for t in range(len(dists) - 1)]
    return np.array(dists), np.array(ratios)


class TestDistances:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 30))
    def test_equal_the_per_row_loop(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        # past 1e154 a row's sum of squares overflows and is rescaled
        X = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-12, 307, (rows, 1))
        X[rng.random(rows) < 0.2] = 0.0
        p = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            got = fa._distances(X, p)
            want, _ = loop_distances(X, p)
        assert got.tobytes() == want.tobytes()

    def test_trace_ratios_equal_the_loop(self):
        clients = [fa.QuadraticClient([[1.0, 0.0], [0.0, 3.0]], [1.0, 2.0]),
                   fa.QuadraticClient([[3.0, 0.0], [0.0, 1.0]], [-1.0, 0.0])]
        for gamma, rounds in ((0.5, 60), (3.0, 2000)):
            trace = fa.run_fedavg(fa.FedAvgConfig(clients, gamma=gamma, eta=1.0, k=3,
                                                  rounds=rounds, x0=[0.5, -0.75]))
            with np.errstate(over="ignore"):
                dists, ratios = loop_distances(trace.xs, trace.fixed_point)
            assert trace.dists.tobytes() == dists.tobytes()
            assert trace.ratios.tobytes() == ratios.tobytes()
