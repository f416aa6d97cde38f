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
# (``jsonable`` takes two frames a level) stay far inside Python's default
# recursion limit.
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


def jsonable(obj):
    """Normalize numpy scalars/arrays, fractions, and containers for JSON."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _emit(obj, pieces: list, indent: int):
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
        # "-0" would read back as the integer 0
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
            _emit(obj[key], pieces, indent + 1)
            pieces.append(",\n" if idx < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for idx, item in enumerate(obj):
            pieces.append(pad + "  ")
            _emit(item, pieces, indent + 1)
            pieces.append(",\n" if idx < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(jsonable(obj), pieces, 0)
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


def _cell(value) -> str:
    if value is None:
        return ""
    v = float(value)
    if not math.isfinite(v):
        return ""
    return format(v, ".17g")


def trace_csv(trace) -> str:
    """Per-round CSV: round, iterate components, distance, contraction ratio,
    surrogate loss.  Unavailable cells are blank."""
    n = trace.xs.shape[1]
    header = "round," + ",".join(f"x{i}" for i in range(n)) + ",dist,ratio,fs"
    lines = [header]
    for t in range(trace.xs.shape[0]):
        cells = [str(t)]
        cells.extend(_cell(v) for v in trace.xs[t])
        cells.append(_cell(trace.dists[t]) if trace.dists is not None else "")
        ratio = None
        if trace.ratios is not None and t >= 1:
            ratio = trace.ratios[t - 1]
        cells.append(_cell(ratio))
        cells.append(_cell(trace.fs[t]) if trace.fs is not None else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str, trace) -> None:
    write_text(path, trace_csv(trace))
