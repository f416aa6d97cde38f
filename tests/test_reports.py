"""Canonical JSON text: sorted keys at every depth, 17-significant-digit
floats that read back bit for bit, null for non-finite floats, and text
that re-emits to itself once parsed."""

import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iterfield.cli import main
from iterfield.reports import canonical_json

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
