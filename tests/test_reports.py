"""The one-pass report writer against the encoder it replaces.

``reports.canonical_json(x)`` must equal ``json.dumps(canonical(x),
sort_keys=True, indent=2) + "\\n"`` byte for byte, on any value tree a report
can hold.
"""
import enum
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpmspace.reports import canonical, canonical_json


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Jsonable:
    """An object serialized through its ``to_jsonable``."""

    def __init__(self, value):
        self.value = value

    def to_jsonable(self):
        return self.value


class Opaque:
    """An object with neither ``item`` nor ``to_jsonable``: serialized as its str."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


TRICKY = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "☃", "\ud800", "\udfff",
          "\U0001f600", "/", "a"]
TEXT = st.text(st.sampled_from(TRICKY) | st.characters(exclude_categories=()), max_size=8)
FLOATS = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2, 1 / 3, 123456789012.5])
INTS = st.booleans() | st.integers() | st.sampled_from([2 ** 70, -(2 ** 64) - 1, Level.LOW, Level.HIGH])
NUMPY = (st.floats(width=32).map(np.float32) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
         | st.booleans().map(np.bool_) | FLOATS.map(np.float64))
LEAVES = st.none() | TEXT | FLOATS | INTS | NUMPY | TEXT.map(Opaque)
KEYS = TEXT | st.integers(-3, 3) | st.sampled_from([1, "1", None, "None", True, 2.5, Level.HIGH])


def trees():
    return st.recursive(
        LEAVES,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(KEYS, inner, max_size=4) | inner.map(Jsonable)),
        max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(trees())
@example({1: "int key", "1": "str key"})
@example({"1": "str key", 1: "int key"})
@example([[], {}, (), [[]], {"a": {}}])
@example({"z": [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 0.1 + 0.2]})
@example([True, False, 2 ** 70, Level.HIGH, np.float32(0.1), np.int64(-7), np.bool_(True)])
@example(Jsonable({"w": Jsonable((1, 2.5, Opaque("o")))}))
def test_writer_matches_the_indenting_encoder(tree):
    assert canonical_json(tree) == json.dumps(canonical(tree), sort_keys=True, indent=2) + "\n"


def test_colliding_keys_keep_the_last_value():
    assert canonical_json({1: "a", "1": "b"}) == '{\n  "1": "b"\n}\n'
    assert canonical_json({"1": "a", 1: "b"}) == '{\n  "1": "b"\n}\n'


def test_scalars_and_empty_containers():
    assert canonical_json(math.nan) == '"nan"\n'
    assert canonical_json(0.1 + 0.2) == "0.3\n"
    assert canonical_json(-0.0) == "-0.0\n"
    assert canonical_json("\ud800é") == '"\\ud800\\u00e9"\n'
    assert canonical_json({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}\n'
