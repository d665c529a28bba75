"""The report writer: cli.json_text(value) is json.dumps(value, indent=2, sort_keys=True), byte for byte."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd.cli import json_text


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


FLOATS = (st.floats() | st.floats().map(np.float64)
          | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-310, np.float64("nan"),
                             np.float64(-0.0), np.float64("-inf")]))
INTS = st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-2**64)
# st.text draws control and non-ASCII characters; a lone surrogate, line separators and escapes are added
TEXT = st.text(max_size=8) | st.sampled_from(["", "\x00\x1f\x7f", "\xe9\u2028\u2029", "\U0001f600", "\ud800", '"\\/'])
LEAVES = st.none() | FLOATS | INTS | TEXT
TREES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_writer_text_is_json_dumps_text(value):
    assert json_text(value) == reference(value)


@pytest.mark.parametrize("value", [
    {2: "a", 10: "b", -1: "c", 2**70: "d"},
    {1.5: 1, float("inf"): 2, -0.0: 3, float("-inf"): 4, np.float64(2.5): 5},
    {float("nan"): 1},
    {True: 1, False: 2},
    {None: 1},
    {"b": {}, "a": [], "c": ()},
], ids=["int", "float", "nan", "bool", "none", "empty"])
def test_writer_converts_keys_and_empty_containers_as_json(value):
    assert json_text(value) == reference(value)


@pytest.mark.parametrize("value", [
    np.asarray(1.0), np.int64(3), {1, 2}, {"a": [1.0, np.asarray([2.0])]}, {"a": {"b": np.int64(1)}},
    {(1, 2): 3}, {1: 0, "a": 0},
], ids=["0-d array", "np.int64", "set", "nested array", "nested np.int64", "tuple key", "mixed keys"])
def test_writer_refuses_what_json_refuses_with_its_message(value):
    with pytest.raises(TypeError) as want:
        reference(value)
    with pytest.raises(TypeError) as got:
        json_text(value)
    assert str(got.value) == str(want.value)
