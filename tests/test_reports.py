"""Canonical JSON text: sorted keys at every depth, 17-significant-digit
floats that read back bit for bit, null for non-finite floats, and text
that re-emits to itself once parsed."""

import json
import math
import struct
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iterfield.cli import main
from iterfield.reports import canonical_json, trace_csv

SETTINGS = settings(max_examples=100, deadline=None)

KEYS = st.one_of(st.text(max_size=8), st.sampled_from(
    ("fixed_point", "fixed_point_method", "fixed_point_residual", "note", "a", "B", "_")))
# -0.0 drawn on its own too, so every run writes and reads it back
FINITE = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), FINITE,
                    st.text(max_size=12))
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(KEYS, inner, max_size=5)),
    max_leaves=30)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def keys_sorted(pairs_doc) -> bool:
    """Every object's keys, read in text order as pairs, are sorted."""
    if isinstance(pairs_doc, list) and all(isinstance(p, tuple) for p in pairs_doc) and pairs_doc:
        keys = [k for k, _ in pairs_doc]
        return keys == sorted(keys) and all(keys_sorted(v) for _, v in pairs_doc)
    if isinstance(pairs_doc, list):
        return all(keys_sorted(v) for v in pairs_doc)
    return True


def numbers_of(doc):
    """Every number of a parsed document, in order: dict values by sorted key."""
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc
    elif isinstance(doc, dict):
        for key in sorted(doc):
            yield from numbers_of(doc[key])
    elif isinstance(doc, list):
        for v in doc:
            yield from numbers_of(v)


class TestCanonicalJson:
    @SETTINGS
    @given(DOCUMENTS)
    def test_keys_sorted_at_every_depth(self, doc):
        text = canonical_json(doc)
        assert keys_sorted(json.loads(text, object_pairs_hook=lambda pairs: pairs))

    @SETTINGS
    @given(DOCUMENTS)
    def test_reemitting_the_parsed_text_gives_the_same_text(self, doc):
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text

    @SETTINGS
    @given(st.lists(FINITE, min_size=1, max_size=20))
    def test_floats_read_back_bit_for_bit(self, values):
        parsed = json.loads(canonical_json({"values": values}))["values"]
        assert [bits(float(x)) for x in parsed] == [bits(x) for x in values]

    @SETTINGS
    @given(DOCUMENTS)
    def test_every_float_of_a_document_reads_back(self, doc):
        parsed = json.loads(canonical_json(doc))
        assert ([bits(float(x)) for x in numbers_of(parsed)]
                == [bits(float(x)) for x in numbers_of(doc)])

    @SETTINGS
    @given(st.lists(st.sampled_from((math.inf, -math.inf, math.nan)), min_size=1, max_size=5),
           FINITE)
    def test_non_finite_floats_are_null(self, bad, good):
        doc = {"bad": bad, "nested": [{"x": bad[0]}], "numpy": np.array(bad), "good": good}
        assert json.loads(canonical_json(doc)) == {
            "bad": [None] * len(bad), "nested": [{"x": None}], "numpy": [None] * len(bad),
            "good": good}

    def test_negative_zero_keeps_its_value(self):
        assert json.loads(canonical_json([-0.0])) == [0.0]

    def test_negative_zero_keeps_its_sign(self):
        text = canonical_json({"x": [-0.0, 0.0, np.float64(-0.0)]})
        assert '"x": [\n    -0.0,\n    0,\n    -0.0\n  ]' in text
        assert [math.copysign(1.0, x) for x in json.loads(text)["x"]] == [-1.0, 1.0, -1.0]

    def test_fedavg_summary_reemits_to_itself_with_and_without_a_residual(self, tmp_path):
        # a float-entered matrix (0.1 and 1.3 have denominators 2^55 and
        # 2^52) moves the set to the float solve and adds the residual key;
        # small rationals keep the exact solve and the old key set
        small = {"kind": "quadratic", "matrix": [[2.0, 0.5], [0.5, 1.0]], "center": [-1.0, 0.0]}
        drawn = {"kind": "quadratic", "matrix": [[1.3, 0.1], [0.1, 2.2]], "center": [0.5, -0.25]}
        for clients, method in (([drawn, small], "float-solve"), ([small], "affine-solve")):
            config = tmp_path / f"{method}.json"
            config.write_text(json.dumps({
                "schema_version": 1, "seed": 1, "gamma": 0.3, "eta": 1.0, "k": 3, "rounds": 20,
                "x0": [1.0, -1.0], "clients": clients}))
            outdir = tmp_path / method
            assert main(["fedavg", "--config", str(config), "--outdir", str(outdir)]) == 0
            text = (outdir / "fedavg_summary.json").read_text()
            summary = json.loads(text)
            assert summary["fixed_point_method"] == method
            assert canonical_json(summary) == text
            if method == "float-solve":
                assert 0.0 <= summary["fixed_point_residual"] <= 1e-12
            else:
                assert "fixed_point_residual" not in summary


# ----- the one-pass writers against the two-pass ones they replace -----

def reference_jsonable(obj):
    """The normalization pass ``canonical_json`` used to make first."""
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def reference_emit(obj, pieces, indent):
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        text = format(obj, ".17g") if math.isfinite(obj) else "null"
        pieces.append("-0.0" if text == "-0" else text)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(obj)
        for idx, key in enumerate(keys):
            pieces.append(pad + "  " + json.dumps(str(key), ensure_ascii=True) + ": ")
            reference_emit(obj[key], pieces, indent + 1)
            pieces.append(",\n" if idx < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for idx, item in enumerate(obj):
            pieces.append(pad + "  ")
            reference_emit(item, pieces, indent + 1)
            pieces.append(",\n" if idx < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_canonical_json(obj) -> str:
    """``canonical_json`` as two passes: normalize the whole document, then
    emit it."""
    pieces = []
    reference_emit(reference_jsonable(obj), pieces, 0)
    return "".join(pieces) + "\n"


def reference_cell(value) -> str:
    if value is None:
        return ""
    v = float(value)
    return format(v, ".17g") if math.isfinite(v) else ""


def reference_trace_csv(trace) -> str:
    """``trace_csv`` cell by cell, row by row."""
    n = trace.xs.shape[1]
    lines = ["round," + ",".join(f"x{i}" for i in range(n)) + ",dist,ratio,fs"]
    for t in range(trace.xs.shape[0]):
        cells = [str(t)]
        cells.extend(reference_cell(v) for v in trace.xs[t])
        cells.append(reference_cell(trace.dists[t]) if trace.dists is not None else "")
        ratio = trace.ratios[t - 1] if trace.ratios is not None and t >= 1 else None
        cells.append(reference_cell(ratio))
        cells.append(reference_cell(trace.fs[t]) if trace.fs is not None else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


ANY_FLOAT = st.one_of(st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan)), st.floats())
NUMPY_SCALARS = st.one_of(
    ANY_FLOAT.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(-128, 127).map(np.int8),
    st.booleans().map(np.bool_))
ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
               elements=ANY_FLOAT),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=4)),
    hnp.arrays(np.bool_, st.integers(0, 4)))
LEAVES = st.one_of(SCALARS, ANY_FLOAT, NUMPY_SCALARS, ARRAYS,
                   st.fractions(max_denominator=10**6),
                   st.lists(ANY_FLOAT, max_size=6), st.just([]), st.just({}), st.just(()))
# str(key) is the key written: ints, floats, bools, None and Fractions, and
# keys whose texts collide ("1" and 1), where the last one given is kept
ANY_KEYS = st.one_of(KEYS, st.integers(-3, 3), st.sampled_from((1.5, -0.0, True, None)),
                     st.fractions(max_denominator=4), st.sampled_from(("1", "0", "True")))
MIXED_DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(ANY_KEYS, inner, max_size=5)),
    max_leaves=30)


class TestOnePassWriters:
    @SETTINGS
    @given(MIXED_DOCUMENTS)
    def test_canonical_json_matches_the_two_pass_writer(self, doc):
        assert canonical_json(doc) == reference_canonical_json(doc)

    @pytest.mark.parametrize("doc", [{1: "int", "1": "str"}, {"1": "str", 1: "int"},
                                     {None: 0, "None": 1, 0.5: [], "0.5": {}},
                                     {Fraction(1, 2): 1, "1/2": 2}])
    def test_keys_with_the_same_text_keep_the_last(self, doc):
        assert canonical_json(doc) == reference_canonical_json(doc)

    @pytest.mark.parametrize("bad", [1j, np.complex128(1j), np.array([1j]), {"x": [object()]},
                                     np.datetime64("2020-01-01")])
    def test_what_neither_writer_can_serialize_raises_alike(self, bad):
        with pytest.raises(TypeError) as want:
            reference_canonical_json(bad)
        with pytest.raises(TypeError) as got:
            canonical_json(bad)
        assert str(got.value) == str(want.value)

    def test_a_zero_dimensional_array_writes_its_value(self):
        # the two-pass writer iterated a 0-d array's scalar and raised
        assert canonical_json({"x": np.array(2.5)}) == '{\n  "x": 2.5\n}\n'

    @SETTINGS
    @given(st.data())
    def test_trace_csv_matches_the_cell_by_cell_writer(self, data):
        rows, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))

        def column(length):
            return data.draw(st.one_of(st.none(), hnp.arrays(np.float64, length,
                                                             elements=ANY_FLOAT)))

        trace = SimpleNamespace(
            xs=data.draw(hnp.arrays(np.float64, (rows, n), elements=ANY_FLOAT)),
            dists=column(rows), ratios=column(rows - 1), fs=column(rows))
        assert trace_csv(trace) == reference_trace_csv(trace)
