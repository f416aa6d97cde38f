"""JSON experiment-config parsing: fields, model specs, clients, runs.

The schema is versioned; see the README for the full description.  Field
definitions are nested variant objects; matrices are row-major arrays of
numbers; activations and coordinate maps are named by string.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fields import (Affine, Compose, Constant, CoordWise1D, Field, GdMap,
                     Iterate, Linear, PolyExact, Rotation2D, Scale, ScalarMap, Sum)
from .glm import GlmSpec, get_activation, glm_gradient
from .reports import ConfigError

if TYPE_CHECKING:
    from .fedavg import FedAvgConfig

SCHEMA_VERSION = 1
# Deeper than any hand-written field, far inside what the recursive walks
# over a field (parsing, describing, hashing, evaluating) reach before
# Python's default recursion limit: a chain of 450 scale fields scans.
MAX_FIELD_DEPTH = 100


def _object(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object, got {type(obj).__name__}")
    return obj


def _need(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"{context}: missing key {key!r}")
    return obj[key]


def _integer(value, what: str) -> int:
    """A count or seed as an int.  A boolean or a fractional number is
    refused: truncating it would run another value than the one the
    config, and its hash, names."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def glm_spec_from_obj(obj: dict) -> GlmSpec:
    name = _need(obj, "activation", "glm spec")
    try:
        activation = get_activation(name)
    except (KeyError, ValueError) as err:
        raise ConfigError(str(err)) from err
    return GlmSpec(_need(obj, "directions", "glm spec"), activation)


def coordwise_maps_from_names(names) -> list[ScalarMap]:
    maps = []
    for name in names:
        try:
            act = get_activation(name)
        except KeyError as err:
            raise ConfigError(str(err)) from err
        # A named coordinate map is the activation's derivative: quadratic
        # gives the identity map, exp gives e^t, logistic gives the sigmoid.
        maps.append(ScalarMap(name, act.deriv, act.second))
    return maps


def field_from_obj(obj, depth: int = 1) -> Field:
    """The field a definition at nesting level ``depth`` describes; past
    ``MAX_FIELD_DEPTH`` it is refused before any field is built."""
    if depth > MAX_FIELD_DEPTH:
        raise ConfigError(f"field definition nested deeper than {MAX_FIELD_DEPTH} levels")
    variant = _need(_object(obj, "field definition"), "variant", "field")
    try:
        if variant == "constant":
            return Constant(_need(obj, "value", variant))
        if variant == "linear":
            return Linear(_need(obj, "matrix", variant))
        if variant == "affine":
            return Affine(_need(obj, "matrix", variant), _need(obj, "offset", variant))
        if variant == "rotation":
            return Rotation2D(_integer(_need(obj, "j", variant), "rotation j"))
        if variant in ("glm", "glm_gradient"):
            return glm_gradient(glm_spec_from_obj(obj))
        if variant in ("gd", "gd_map"):
            return GdMap(field_from_obj(_need(obj, "inner", variant), depth + 1),
                         float(_need(obj, "gamma", variant)))
        if variant == "iterate":
            return Iterate(field_from_obj(_need(obj, "inner", variant), depth + 1),
                           _integer(_need(obj, "k", variant), "iterate k"))
        if variant == "sum":
            fields = [field_from_obj(f, depth + 1) for f in _need(obj, "fields", variant)]
            return Sum(fields, obj.get("weights"))
        if variant == "scale":
            return Scale(float(_need(obj, "c", variant)),
                         field_from_obj(_need(obj, "inner", variant), depth + 1))
        if variant == "compose":
            return Compose(field_from_obj(_need(obj, "outer", variant), depth + 1),
                           field_from_obj(_need(obj, "inner", variant), depth + 1))
        if variant == "poly":
            from .polynomials import PolyField
            components = _need(obj, "components", variant)
            nvars = _integer(obj.get("nvars", len(components)), "poly nvars")
            return PolyExact(PolyField.from_texts(components, nvars))
        if variant == "coordwise":
            return CoordWise1D(coordwise_maps_from_names(_need(obj, "functions", variant)))
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {variant} field definition: {err}") from err
    raise ConfigError(f"unknown field variant {variant!r}")


def client_from_obj(obj: dict):
    from .fedavg import GlmClient, QuadraticClient
    kind = _need(_object(obj, "client"), "kind", "client")
    label = obj.get("label", "")
    try:
        if kind == "quadratic":
            return QuadraticClient(_need(obj, "matrix", kind),
                                   _need(obj, "center", kind), label)
        if kind == "glm":
            return GlmClient(glm_spec_from_obj(obj), label)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {kind} client definition: {err}") from err
    raise ConfigError(f"unknown client kind {kind!r}")


def fedavg_config_from_obj(obj: dict, seed_override: int | None = None) -> FedAvgConfig:
    from .fedavg import FedAvgConfig
    version = _object(obj, "run config").get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    clients = _need(obj, "clients", "run config")
    if not isinstance(clients, list):
        raise ConfigError(f"run config: clients must be a list, got {type(clients).__name__}")
    clients = [client_from_obj(c) for c in clients]
    rounds = obj.get("rounds", obj.get("T"))
    if rounds is None:
        raise ConfigError("run config: missing key 'rounds'")
    try:
        seed = (_integer(obj.get("seed", 0), "seed") if seed_override is None
                else int(seed_override))
        return FedAvgConfig(
            clients=clients,
            gamma=float(_need(obj, "gamma", "run config")),
            eta=float(obj.get("eta", 1.0)),
            k=_integer(_need(obj, "k", "run config"), "k"),
            rounds=_integer(rounds, "rounds"),
            x0=_need(obj, "x0", "run config"),
            seed=seed,
            mode=obj.get("mode"),
            alpha=None if obj.get("alpha") is None else float(obj["alpha"]),
            beta=None if obj.get("beta") is None else float(obj["beta"]),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad run config: {err}") from err
