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
    import jsonschema
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        raise ValidationError(f"{path}: at {err.json_path}: {err.message}")


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
