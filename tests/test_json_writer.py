"""The CLI's JSON writer against json.dumps(obj, indent=1, sort_keys=True),
the format every command prints and writes."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezmin.cli import _json_text

SRC = Path(__file__).resolve().parent.parent / "src" / "bezmin"

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]),
    st.builds(np.float64, st.floats(allow_nan=True, allow_infinity=True)),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(),
    st.sampled_from(["é", " ", "\\", '"', "\n\t\x00", "\U0001f600", "\ud800"]),
    FLOATS,
)
KEYS = st.one_of(
    st.text(),
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)


def _dicts(values):
    # a sort_keys run compares the keys, so one dict holds one key type
    return st.one_of(*(st.dictionaries(keys, values, max_size=4) for keys in (
        st.text(), st.integers(), st.floats(allow_nan=False), st.booleans(),
        st.none(),
    )))


DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(FLOATS, max_size=4),
        st.lists(FLOATS, min_size=1, max_size=4).map(lambda xs: [*xs, 1]),
        _dicts(inner),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
def test_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=1, sort_keys=True)


@given(st.dictionaries(KEYS, st.integers(), max_size=3))
def test_writer_keys_match_json_dumps(obj):
    try:
        expected = json.dumps(obj, indent=1, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            _json_text(obj)
    else:
        assert _json_text(obj) == expected


@pytest.mark.parametrize("obj", [
    np.int64(3),
    1j,
    [1.0, np.float32(2.0)],
    [0.5, 1j],
    {"a": [1.0, {"b": np.bool_(True)}]},
    {(1, 2): 0},
    {1: 0, "a": 0},
    {1.5: 0, None: 0},
    object(),
    {1.0, 2.0},
])
def test_writer_raises_where_json_dumps_raises(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=1, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(obj)


def test_src_calls_no_json_dump():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("dump", "dumps")
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    ]
    assert calls == []
