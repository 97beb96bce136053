"""JSON Schemas and loaders for the parameter files the CLI accepts.

Two file shapes exist.  Complex Fox-Wright parameters:

    {"upper": [[re, im, weight], ...],
     "lower": [[re, im, weight], ...],
     "K": 32}                # optional truncation start for state building

and bicomplex parameters, with values in idempotent components and
hyperbolic weights:

    {"upper": [{"value": {"z1": [re, im], "z2": [re, im]},
                "weight": {"c1": w1, "c2": w2}}, ...],
     "lower": [...]}

Validation is strict (unknown keys rejected).  Syntax errors surface
with their line and column; schema violations with their JSON path.

The two schemas are the one statement of the format.  A small checker in
this module interprets the JSON Schema keywords they use (type,
properties, required, additionalProperties, items, minItems, maxItems and
minimum) and refuses at import a schema with any other keyword.  It
reports the error that jsonschema's Draft 2020-12 validator sorts first
by path, in the same words, so loading a file imports no third-party
package; the tests check it against jsonschema.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ValidationError
from .foxwright import FWParams
from .foxwright_bc import BCFWParams

_TRIPLE = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 3,
    "maxItems": 3,
}

FW_PARAMS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "upper": {"type": "array", "items": _TRIPLE},
        "lower": {"type": "array", "items": _TRIPLE},
        "K": {"type": "integer", "minimum": 1},
    },
    "required": ["upper", "lower"],
    "additionalProperties": False,
}

_COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_BICOMPLEX = {
    "type": "object",
    "properties": {"z1": _COMPLEX_PAIR, "z2": _COMPLEX_PAIR},
    "required": ["z1", "z2"],
    "additionalProperties": False,
}

_HYPERBOLIC = {
    "type": "object",
    "properties": {"c1": {"type": "number"}, "c2": {"type": "number"}},
    "required": ["c1", "c2"],
    "additionalProperties": False,
}

_BC_ENTRY = {
    "type": "object",
    "properties": {"value": _BICOMPLEX, "weight": _HYPERBOLIC},
    "required": ["value", "weight"],
    "additionalProperties": False,
}

BC_PARAMS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "upper": {"type": "array", "items": _BC_ENTRY},
        "lower": {"type": "array", "items": _BC_ENTRY},
    },
    "required": ["upper", "lower"],
    "additionalProperties": False,
}


# JSON Schema's type names, as Draft 2020-12 defines them on parsed JSON:
# a bool is neither a number nor an integer, and 2.0 is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (
        isinstance(v, int) and not isinstance(v, bool)
        or isinstance(v, float) and v.is_integer()
    ),
}


def _type(name, obj, schema, path):
    if not _TYPES[name](obj):
        yield path, f"{obj!r} is not of type {name!r}"


def _properties(props, obj, schema, path):
    if isinstance(obj, dict):
        for name, sub in props.items():
            if name in obj:
                yield from _errors(obj[name], sub, path + (name,))


def _required(names, obj, schema, path):
    if isinstance(obj, dict):
        for name in names:
            if name not in obj:
                yield path, f"{name!r} is a required property"


def _additional_properties(allowed, obj, schema, path):
    # only `false` is used, and _check_schema holds that
    if isinstance(obj, dict):
        extras = sorted(k for k in obj if k not in schema.get("properties", {}))
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            listed = ", ".join(map(repr, extras))
            yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"


def _items(sub, obj, schema, path):
    if isinstance(obj, list):
        for index, item in enumerate(obj):
            yield from _errors(item, sub, path + (index,))


def _min_items(least, obj, schema, path):
    if isinstance(obj, list) and len(obj) < least:
        yield path, f"{obj!r} is too short"


def _max_items(most, obj, schema, path):
    if isinstance(obj, list) and len(obj) > most:
        yield path, f"{obj!r} is too long"


def _minimum(least, obj, schema, path):
    if _TYPES["number"](obj) and obj < least:
        yield path, f"{obj!r} is less than the minimum of {least!r}"


# every keyword the checker knows, with its check; "$schema" only names the draft
_KEYWORDS = {
    "$schema": lambda *_: (),
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _minimum,
}


def _errors(obj, schema, path):
    """(path, message) of every violation, keywords in schema order."""
    for keyword, value in schema.items():
        yield from _KEYWORDS[keyword](value, obj, schema, path)


def _check_schema(schema: dict) -> None:
    """Refuse a schema that uses what the checker does not interpret."""
    unknown = set(schema) - set(_KEYWORDS)
    if unknown:
        raise TypeError(f"schema keywords {sorted(unknown)} have no check")
    if schema.get("additionalProperties") not in (None, False):
        raise TypeError("additionalProperties other than false has no check")
    for sub in schema.get("properties", {}).values():
        _check_schema(sub)
    if "items" in schema:
        _check_schema(schema["items"])


def _json_path(path: tuple) -> str:
    # the schemas' property names are plain identifiers, which jsonschema
    # writes as `.name` without escapes
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


for _schema in (FW_PARAMS_SCHEMA, BC_PARAMS_SCHEMA):
    _check_schema(_schema)


def _load_json(path: str | Path) -> object:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _validate(obj: object, schema: dict, path: str | Path) -> None:
    # the first error by path, ties in the order found, as a stable sort gives
    first = min(_errors(obj, schema, ()), key=lambda e: e[0], default=None)
    if first is not None:
        raise ValidationError(f"{path}: at {_json_path(first[0])}: {first[1]}")


def load_fw_params(path: str | Path) -> tuple[FWParams, int | None]:
    """Load and validate a complex parameter file; returns (params, K)."""
    obj = _load_json(path)
    _validate(obj, FW_PARAMS_SCHEMA, path)
    return FWParams.from_json(obj), obj.get("K")


def load_bc_params(path: str | Path) -> BCFWParams:
    """Load and validate a bicomplex parameter file."""
    obj = _load_json(path)
    _validate(obj, BC_PARAMS_SCHEMA, path)
    return BCFWParams.from_json(obj)
