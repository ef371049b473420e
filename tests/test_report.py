"""report.to_json against the stdlib encoder it replaced: the same bytes
as json.dumps(sort_keys=True, indent=2) plus a newline, on every value
type the report sections build, and a TypeError on any other."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from stringcoh.report import to_json

# characters the escaper treats specially: quote, backslash, controls,
# DEL, non-ASCII, astral (written as a surrogate pair) and a lone surrogate
SPECIAL = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80é€ \ud800\U0001f600\U0010ffff'

strings = st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=8)
ints = st.integers() | st.integers(-2**200, 2**200)
scalars = st.none() | st.booleans() | ints | strings
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(strings, inner, max_size=4)),
    max_leaves=30)


def dumped(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(values)
@example({})
@example([])
@example({"": [], "a": {}, "b": [[], {}, [[]], {"c": {}}]})
@example([-1, 0, 2**64, -2**64 - 1, True, False, None])
@example({"\ud800": "\U0001f600", "é": '"\\', "\x00": "\x7f"})
def test_matches_json_dumps(value):
    assert to_json(value) == dumped(value)


@pytest.mark.parametrize("value, name", [
    (1.5, "float"),
    ({"a": [0.0]}, "float"),
    ((1, 2), "tuple"),
    ({"a": {"b": (1,)}}, "tuple"),
    ({1, 2}, "set"),
    ([{"a": frozenset()}], "frozenset"),
    ({1: "a"}, "int"),
    ({"a": 1, 2: "b"}, "int"),
    ({"a": {None: 1}}, "NoneType"),
], ids=["float", "nested float", "tuple", "nested tuple", "set",
        "nested frozenset", "int key", "mixed keys", "nested None key"])
def test_other_types_raise(value, name):
    with pytest.raises(TypeError, match=name):
        to_json(value)
