"""The in-package parameter-file checker against jsonschema.

schemas._validate must report, for every document, the error that
jsonschema's Draft 2020-12 validator sorts first by path, in the same
words: `{file}: at {json_path}: {message}`, or nothing for a valid
document.  The corpus mutates documents of both schemas at every node:
wrong types (bool, null, strings, nested lists), arrays too short or too
long, missing and extra keys, and K values JSON Schema refuses or takes.
jsonschema is a test oracle only; the package never imports it.
"""

import json
import math

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwstates import schemas
from fwstates.errors import ValidationError

FILE = "params.json"

# a wrong value for any node
_JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["", "a", "1.5", "upper"]),
    st.lists(st.lists(st.floats(-2, 2), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["z1", "c1", "x"]), st.integers(-1, 1), max_size=2),
)
# numbers as JSON gives them, NaN and the infinities included
_NUMBER = st.one_of(st.integers(-5, 5), st.floats(allow_nan=True, allow_infinity=True))
# K values the format refuses, and some it takes
_K = st.sampled_from([0, -3, 2.5, -0.5, 2.0, True, False, math.inf, -math.inf, math.nan, 1, 32, 1e15])
_EXTRA_KEYS = ["foo", "bar", "K2", "Z", "value_", "0"]


def _valid(schema):
    """Documents that `schema` accepts."""
    kind = schema["type"]
    if kind == "integer":
        return st.integers(1, 64)
    if kind == "number":
        return _NUMBER
    if kind == "array":
        least, most = schema.get("minItems", 0), schema.get("maxItems", 2)
        return st.lists(_valid(schema["items"]), min_size=least, max_size=most)
    props = {name: _valid(sub) for name, sub in schema["properties"].items()}
    required = schema.get("required", ())
    return st.fixed_dictionaries(
        {name: props[name] for name in required},
        optional={name: s for name, s in props.items() if name not in required},
    )


def _nodes(node, schema, parent, key):
    """(parent, key, node, schema) for the node and every node below it."""
    yield parent, key, node, schema
    if isinstance(node, dict):
        for name, sub in schema.get("properties", {}).items():
            if name in node:
                yield from _nodes(node[name], sub, node, name)
    elif isinstance(node, list) and "items" in schema:
        for index, item in enumerate(node):
            yield from _nodes(item, schema["items"], node, index)


@st.composite
def _mutated(draw, schema):
    """A valid document with one to three edits at nodes of any depth: a
    wrong value, a key dropped, keys added, an array item added or removed."""
    holder = {"": draw(_valid(schema))}  # so that the root can be replaced too
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node, sub = draw(st.sampled_from(list(_nodes(holder[""], schema, holder, ""))))
        edits = ["replace"]
        if isinstance(node, dict):
            edits += ["extra"] + (["drop"] if node else [])
        if isinstance(node, list) and "items" in sub:
            edits += ["append"] + (["pop"] if node else [])
        edit = draw(st.sampled_from(edits))
        if edit == "replace":
            parent[key] = draw(st.one_of(_K, _JUNK) if sub.get("type") == "integer" else _JUNK)
        elif edit == "extra":
            for name in draw(st.lists(st.sampled_from(_EXTRA_KEYS), min_size=1, max_size=3)):
                node[name] = draw(_JUNK)
        elif edit == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        elif edit == "append":
            node.append(draw(_valid(sub["items"])))
        else:
            node.pop(draw(st.integers(0, len(node) - 1)))
    return holder[""]


def _oracle(obj, schema):
    errors = jsonschema.Draft202012Validator(schema).iter_errors(obj)
    errors = sorted(errors, key=lambda e: list(e.absolute_path))
    return f"{FILE}: at {errors[0].json_path}: {errors[0].message}" if errors else None


def _checked(obj, schema):
    try:
        schemas._validate(obj, schema, FILE)
    except ValidationError as exc:
        return str(exc)
    return None


def _same_as_oracle(doc, schema):
    obj = json.loads(json.dumps(doc))  # what a parameter file parses to
    assert _checked(obj, schema) == _oracle(obj, schema)


_FW_ENTRY = [1.5, 0.0, 1.0]
_BC_ENTRY = {"value": {"z1": [1.5, 0.0], "z2": [1.5, 0.0]}, "weight": {"c1": 1.0, "c2": 1.0}}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_mutated(schemas.FW_PARAMS_SCHEMA))
@example({"upper": [], "lower": []})
@example({"upper": [[1.0, 0.0]], "lower": [_FW_ENTRY * 2]})
@example({"lower": [[True, None, "a"]], "foo": 1, "bar": 2})
@example({"upper": [[[1.0], 0.0, 1.0]], "lower": [], "K": 2.5})
def test_fw_errors_match_jsonschema(doc):
    _same_as_oracle(doc, schemas.FW_PARAMS_SCHEMA)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_mutated(schemas.BC_PARAMS_SCHEMA))
@example({"upper": [_BC_ENTRY], "lower": []})
@example({"upper": [{"value": {"z1": [1.5], "z3": 0}, "weight": {"c1": False}}], "lower": None})
@example({"upper": [{"weight": {"c2": "1", "c1": [1.0]}, "x": 1, "bar": 2}], "lower": [[]]})
def test_bc_errors_match_jsonschema(doc):
    _same_as_oracle(doc, schemas.BC_PARAMS_SCHEMA)


@pytest.mark.parametrize("text, message", [
    ("0", "0 is less than the minimum of 1"),
    ("-3", "-3 is less than the minimum of 1"),
    ("2.5", "2.5 is not of type 'integer'"),
    ("true", "True is not of type 'integer'"),
    ("1e400", "inf is not of type 'integer'"),
    ("NaN", "nan is not of type 'integer'"),
    ("2.0", None),
])
def test_k_through_the_loader(tmp_path, text, message):
    path = tmp_path / FILE
    path.write_text(f'{{"upper": [], "lower": [], "K": {text}}}', encoding="utf-8")
    obj = json.loads(path.read_text(encoding="utf-8"))
    expected = _oracle(obj, schemas.FW_PARAMS_SCHEMA)
    if message is None:
        assert expected is None
        assert schemas.load_fw_params(path)[1] == 2.0
        return
    assert expected == f"{FILE}: at $.K: {message}"
    with pytest.raises(ValidationError) as info:
        schemas.load_fw_params(path)
    assert str(info.value) == f"{path}: at $.K: {message}"


def test_extra_keys_are_sorted():
    doc = {"upper": [], "lower": [], "foo": 1, "bar": 2}
    assert _checked(doc, schemas.FW_PARAMS_SCHEMA) == (
        f"{FILE}: at $: Additional properties are not allowed ('bar', 'foo' were unexpected)"
    )


@pytest.mark.parametrize("schema", [
    {"type": "object", "properties": {"a": {"type": "number", "maximum": 1}}},
    {"type": "array", "items": {"type": "array", "items": {"uniqueItems": True}}},
    {"type": "object", "additionalProperties": {"type": "number"}},
])
def test_unknown_schema_use_is_refused(schema):
    with pytest.raises(TypeError):
        schemas._check_schema(schema)
