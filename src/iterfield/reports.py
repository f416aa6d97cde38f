"""JSON input loading, deterministic report serialization and atomic
artifact writes.

Identical inputs must produce byte-identical outputs: keys are sorted,
floats render with 17 significant digits, and the run manifest's
timestamp comes from SOURCE_DATE_EPOCH (null when unset) rather than the
wall clock.  Files are written to a temp name and renamed into place.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np

from . import IterfieldError, __version__

SCHEMA_VERSION = 1


class ConfigError(IterfieldError, ValueError):
    """Malformed configuration: bad JSON, unknown names, missing keys."""


# Deeper than any config needs: a field definition MAX_FIELD_DEPTH = 100
# levels deep nests at most 201 JSON levels (a chain of sums around a
# matrix leaf).  The recursive walks over a loaded document
# (``canonical_json``'s ``_emit`` takes one frame a level) stay far inside
# Python's default recursion limit.
MAX_JSON_DEPTH = 256


def _nesting(obj) -> int:
    """How many levels of lists and objects obj nests, found without
    recursion; 0 for a scalar."""
    deepest, stack = 0, [(obj, 1)]
    while stack:
        item, depth = stack.pop()
        if isinstance(item, dict):
            item = item.values()
        elif not isinstance(item, list):
            continue
        deepest = max(deepest, depth)
        stack.extend((v, depth + 1) for v in item)
    return deepest


def load_json_text(text: str, origin: str = "<config>"):
    """The document in text; one nested deeper than ``MAX_JSON_DEPTH`` is
    refused before anything reads it."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{origin}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise ConfigError(f"{origin}: JSON nested too deeply to parse") from err
    if _nesting(obj) > MAX_JSON_DEPTH:
        raise ConfigError(f"{origin}: JSON nested deeper than {MAX_JSON_DEPTH} levels")
    return obj


def load_json_file(path: str):
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return load_json_text(text, origin=path)


def _float_text(x: float) -> str:
    """A float as 17 significant digits, null when not finite."""
    if not math.isfinite(x):
        return "null"
    text = format(x, ".17g")
    # "-0" would read back as the integer 0
    return "-0.0" if text == "-0" else text


def _emit(obj, pieces: list, pad: str):
    """Append obj's canonical text, indented by pad, to pieces.  numpy
    scalars and arrays, Fractions (as their text) and non-str keys (as
    str(key), the last of equal texts kept) are normalized on the way, so
    each nesting level takes one frame and each value one type dispatch;
    a list whose items are all floats is joined in one call."""
    cls = type(obj)
    if cls is float:
        pieces.append(_float_text(obj))
    elif cls is str:
        pieces.append(json.dumps(obj, ensure_ascii=True))
    elif obj is None:
        pieces.append("null")
    elif obj is True or obj is False:
        pieces.append("true" if obj else "false")
    elif cls is int:
        pieces.append(str(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        items = {str(key): value for key, value in obj.items()}
        inner = pad + "  "
        pieces.append("{\n")
        for idx, key in enumerate(sorted(items)):
            pieces.append(("" if idx == 0 else ",\n") + inner
                          + json.dumps(key, ensure_ascii=True) + ": ")
            _emit(items[key], pieces, inner)
        pieces.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        inner = pad + "  "
        if all(type(item) is float for item in obj):
            pieces.append("[\n" + inner + (",\n" + inner).join(map(_float_text, obj))
                          + "\n" + pad + "]")
            return
        pieces.append("[\n")
        for idx, item in enumerate(obj):
            pieces.append(inner if idx == 0 else ",\n" + inner)
            _emit(item, pieces, inner)
        pieces.append("\n" + pad + "]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), pieces, pad)
    elif isinstance(obj, np.floating):
        pieces.append(_float_text(float(obj)))
    elif isinstance(obj, np.integer):
        pieces.append(str(int(obj)))
    elif isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, Fraction):
        pieces.append(json.dumps(str(obj), ensure_ascii=True))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(_float_text(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=True))
    else:
        raise TypeError(f"cannot serialize {cls.__name__}")


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(obj, pieces, "")
    return "".join(pieces) + "\n"


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def run_manifest(resolved_config, seed, outputs=()) -> dict:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(resolved_config),
        "seed": seed,
        "tool_version": __version__,
        "timestamp": int(epoch) if epoch else None,
        "outputs": sorted(outputs),
    }


def write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    write_text(path, canonical_json(obj))


def _cells(values) -> list[str]:
    """Each value of a float array as a CSV cell: 17 significant digits,
    blank when not finite."""
    return [format(v, ".17g") if math.isfinite(v) else "" for v in values.tolist()]


def trace_csv(trace) -> str:
    """Per-round CSV: round, iterate components, distance, contraction ratio,
    surrogate loss.  Unavailable cells are blank.  Every round of the trace
    is a row, the rounds ``run_fedavg`` copied after a float fixed point
    too.  Each column is formatted from one ``tolist()``, then the rows are
    joined."""
    rows, n = trace.xs.shape
    blank = [""] * rows
    columns = [[str(t) for t in range(rows)]] + [_cells(x) for x in trace.xs.T]
    columns.append(blank if trace.dists is None else _cells(trace.dists))
    columns.append(blank if trace.ratios is None else [""] + _cells(trace.ratios))
    columns.append(blank if trace.fs is None else _cells(trace.fs))
    header = "round," + ",".join(f"x{i}" for i in range(n)) + ",dist,ratio,fs"
    return "\n".join([header] + [",".join(row) for row in zip(*columns)]) + "\n"


def write_trace_csv(path: str, trace) -> None:
    write_text(path, trace_csv(trace))
