"""Property tests: ``Record.from_dict`` either returns a record or
raises ValueError, whatever a run's report.json or predictions.json
holds once one entry, at any depth, is deleted or replaced by any JSON
value; no KeyError, TypeError or AttributeError leaks out of a decode."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsikit import __version__
from hsikit.cli import RunPredictions, RunReport
from hsikit.evaluation import evaluate

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

DOCS = {
    RunReport: RunReport(
        __version__, "svm/original", 3, 4, evaluate([1, 2, 2, 3], [1, 2, 3, 3], 3)
    ).to_dict(),
    RunPredictions: RunPredictions(
        {"height": 2, "width": 3, "bands": 4}, 1, 0.7, "svm/original",
        [0, 2, 5], [1, 2, 2], [1, 2, 1],
    ).to_dict(),
}


def _paths(node, prefix=()):
    """Every key or list index path inside ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


CASES = [(cls, path) for cls, doc in DOCS.items() for path in _paths(doc)]


@pytest.mark.parametrize("cls", list(DOCS))
def test_every_document_decodes(cls):
    # A document that does not decode would leave the property below
    # checking only rejections.
    doc = json.loads(json.dumps(DOCS[cls]))
    assert cls.from_dict(doc).to_dict() == DOCS[cls]


@settings(max_examples=600, deadline=None, database=None)
@given(case=st.sampled_from(CASES), delete=st.booleans(), value=JSON_VALUES)
def test_a_mangled_document_decodes_or_raises_value_error(case, delete, value):
    cls, path = case
    doc = copy.deepcopy(DOCS[cls])
    node = doc
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    try:
        record = cls.from_dict(doc)
    except ValueError:
        return
    assert isinstance(record, cls)

