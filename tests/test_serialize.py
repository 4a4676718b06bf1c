"""serialize.dumps writes the bytes json.dumps(indent=2) would."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorscope import parse_mixed, parse_real_map
from milnorscope.fiber import sample_fiber
from milnorscope.serialize import dumps, fiber_json, structure_json
from milnorscope.structure import analyze


def _finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def reference(obj) -> str:
    """The standard library's encoder after every non-finite float is None."""
    return json.dumps(_finite(obj), indent=2, ensure_ascii=False, allow_nan=False) + "\n"


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                   1e16, 1e-7, 0.1, 1.7976931348623157e308, math.inf, -math.inf, math.nan]

floats = st.one_of(
    st.floats(),                       # includes nan and both infinities
    st.sampled_from(_SPECIAL_FLOATS),
    st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)).map(np.float64),
)
strings = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t é✓𝔽 ab'), max_size=8),
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, strings)
documents = st.recursive(
    st.one_of(scalars, st.lists(floats, min_size=1, max_size=6)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(strings, kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(documents)
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == reference(doc)


def test_dumps_matches_json_dumps_on_reports():
    psi = parse_mixed("(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~")
    fiber = sample_fiber(parse_real_map("(x*y + z^2, x) vars x,y,z"), [1.0, 0.0], 3.0,
                         count=200, rng_seed=1)
    for doc in (structure_json(analyze(psi)), fiber_json(fiber)):
        assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{"a": np.int64(1)}, [np.float32(1.0)], object()])
def test_dumps_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_dumps_takes_only_str_keys(key):
    # json.dumps would write these keys as strings; dumps refuses them
    assert reference({key: 0}) == '{\n  "%s": 0\n}\n' % json.dumps(key)
    with pytest.raises(TypeError):
        dumps({key: 0})


_ROWS = [[0.1, -0.0, 2.5e-310], [1.0, math.nan, 3.0], [math.inf], [-math.inf, 0.5], [],
         [1, 2.0], [True, 0.25], [False], [1.7976931348623157e308, 1.7976931348623157e308],
         [np.float64(0.5), 1.5], [[0.5, 1.5], [2.5]]]


@pytest.mark.parametrize("doc", [
    _ROWS,
    [row for row in _ROWS if row and all(type(v) is float for v in row)],
    [[0.1, 0.2, 0.3], [-0.0, 4.0, 5e-324]],
    [[0.1, 0.2], []],
    {"points": [[0.1, 0.2], [0.3, 0.4]], "labels": [0, 1], "row": [0.1, -0.0],
     "mixed": [0.1, 1], "bools": [0.1, True], "flags": [[True], [0.5]]},
    tuple(tuple(row) for row in _ROWS if isinstance(row, list)),
])
def test_dumps_writes_float_rows_as_json_does(doc):
    # float lists and lists of them take one join per row; everything
    # else, non-finite floats included, keeps the general walk
    expected = json.dumps(_finite(doc), indent=2, ensure_ascii=False) + "\n"
    assert dumps(doc) == expected
