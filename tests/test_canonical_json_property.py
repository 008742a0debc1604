"""Property tests: the artifact writer's bytes are those of the indented
``json.dumps``, on any JSON document, and a NaN or an infinity fails it
with json's own error."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsikit.records import json_bytes

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1]
)
BEYOND_DOUBLES = st.integers(min_value=2**53 + 1, max_value=2**80)  # where floats skip integers
INTS = st.integers() | BEYOND_DOUBLES | BEYOND_DOUBLES.map(lambda v: -v)
SCALARS = (
    st.none() | st.booleans() | INTS | FLOATS | FLOATS.map(np.float64) | st.text(max_size=6)
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4)
    # The writer's own paths: lists of floats alone, of ints alone, and
    # of ints and bools.
    | st.lists(FLOATS, min_size=1, max_size=6)
    | st.lists(INTS, min_size=1, max_size=6)
    | st.lists(INTS | st.booleans(), min_size=1, max_size=6),
    max_leaves=24,
)


def dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_the_writer_writes_the_bytes_of_json_dumps(doc):
    assert json_bytes(doc) == dumps(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda v: v,
        lambda v: [1.0, v],
        lambda v: {"a": {"b": [v, 2.0]}},
        lambda v: [[0.5], [v]],
        lambda v: [1, v],
        lambda v: {"a": np.float64(v)},
    ],
    ids=["alone", "float-list", "nested", "list-of-lists", "mixed-list", "numpy-scalar"],
)
def test_a_value_that_is_not_finite_raises_json_s_error(bad, place):
    doc = place(bad)
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(ValueError) as caught:
        json_bytes(doc)
    assert str(caught.value) == str(expected.value)


def test_finite_floats_whose_sum_overflows_are_written():
    doc = {"big": [1.7976931348623157e308, 1.7976931348623157e308, -1.0]}
    assert json_bytes(doc) == dumps(doc)
