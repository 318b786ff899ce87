"""The report writer prints exactly what ``json.dumps(doc, indent=2)`` prints,
with complex arrays as nested [re, im] float pairs.

Complex arrays are filled into cached templates; the docs here mix them,
at several nesting depths, with every other JSON value: ints, big ints,
bools, None, unicode strings and non-finite floats.  Hypothesis runs
derandomized, as in ``test_metamorphic``.
"""

import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commchain import cli, models
from commchain.groundspace import degeneracy, spectral_census

from conftest import full_pipeline, pairs_list

SETTINGS = settings(max_examples=8, derandomize=True, deadline=None, database=None)


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, default=pairs_list)


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1e-300, 1e300])
_shapes = st.one_of(
    st.just((0,)),
    st.tuples(st.integers(1, 4)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3)),
)


@st.composite
def _complex_arrays(draw):
    shape = draw(_shapes)
    size = int(np.prod(shape))
    a = np.empty(shape, dtype=complex)
    # Set the parts one by one: re + 1j * im would turn an infinite im into a NaN re.
    a.real = np.reshape(draw(st.lists(_floats, min_size=size, max_size=size)), shape)
    a.imag = np.reshape(draw(st.lists(_floats, min_size=size, max_size=size)), shape)
    return a


_leaves = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**40, -(10**299), 2**1000]),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    _floats,
    _complex_arrays(),
)
_docs = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.tuples(kids, _complex_arrays())
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=16,
)


@SETTINGS
@given(doc=_docs, array=_complex_arrays())
def test_writer_equals_json_dumps(doc, array):
    for whole in (doc, {"doc": doc, "array": array}, [array, doc]):
        assert cli._dumps(whole) == _reference(whole)


@SETTINGS
@given(arrays=st.lists(_complex_arrays(), min_size=1, max_size=3), depth=st.integers(0, 4))
def test_writer_equals_json_dumps_at_depth(arrays, depth):
    doc = {"h": {"d": 2, "matrix": arrays[0]}, "states": arrays, "k": 2**80, "tag": "é\n"}
    for _ in range(depth):
        doc = {"nested": [doc, None, {"x": arrays[-1]}]}
    assert cli._dumps(doc) == _reference(doc)


def test_writer_reads_back_the_codec_array():
    a = np.array([[1 + 2j, -0.0 - 1j], [np.inf, np.nan * 1j]])
    doc = {"matrix": a, "state": a[0], "empty": np.zeros(0, dtype=complex)}
    text = cli._dumps(doc)
    assert text == _reference(doc)
    back = json.loads(text)
    assert np.array_equal(cli.complex_from_json(back["matrix"]), a, equal_nan=True)
    assert "NaN" in text and "Infinity" in text and "-0.0" in text


def test_writer_leaves_plain_nested_lists_alone():
    # An int matrix is a nested list, not an array: it prints 1, not 1.0.
    doc = {"M": [[1, 0], [2, 1]], "S": np.eye(2, dtype=complex)}
    text = cli._dumps(doc)
    assert text == _reference(doc)
    assert '"M": [\n    [\n      1,' in text


def test_writer_non_string_keys_fall_back_to_json_dumps():
    doc = {1: np.array([1j]), None: [np.array([2.0 + 0j])], 2.5: True}
    assert cli._dumps({"a": doc}) == _reference({"a": doc})


def test_writer_refuses_an_integer_past_the_print_limit(capsys):
    for doc in (
        {"S": np.eye(2, dtype=complex), "dims": {"0": 10**5000}},
        {"dims": {"0": 1, "1": 10**5000}},
    ):
        with pytest.raises(ValueError):
            _reference(doc)
        with pytest.raises(ValueError):
            cli._dumps(doc)
        with pytest.raises(cli._ReportTooLarge):
            cli._emit(doc, argparse.Namespace(seed=0, tol=1e-9))
    assert capsys.readouterr().out == ""


def test_int_dicts_are_written_as_json_dumps_writes_them():
    # Census dims and the degeneracy map at the census bounds, and the
    # dicts that must stay off the int-dict template: empty, bool-valued,
    # mixed, non-str keys.
    docs = []
    for name, n in (("fig2", 2047), ("ising", 6208)):
        g = full_pipeline(models.builtin(name))[3]
        census = {str(n): spectral_census(g, n).to_dict()}
        docs.append({"census": census, "seed": 0, "tol": 1e-9})
        docs.append({"degeneracy": {str(k): degeneracy(g, k) for k in (1, 2, n)}, "seed": 0})
    docs += [
        {"dims": {}},
        {"dims": {"0": True, "1": False}},
        {"dims": {"0": 1, "1": True}},
        {"dims": {"0": 1, "1": 2.0}},
        {"dims": {0: 1, 1: 2}},
        {"dims": {"é\n\"": -(2**70), "": 0}},
        [{"1": 2}, {}, np.array([1j])],
    ]
    for doc in docs:
        assert cli._dumps(doc) == _reference(doc)

