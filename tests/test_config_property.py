"""Property tests: resolve_config either returns a stable snapshot or
raises UsageError, whatever JSON value a config field holds, and it
rejects every key it does not know, in any object of a config."""

import copy
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsikit.cli import UsageError, resolve_config

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

BASES = (
    {
        "cube": "a.hsih",
        "ground_truth": "b.hsih",
        "output": "out",
        "train_fraction": 0.7,
        "seed": 0,
        "reduction": {"method": "rpca", "components": 4, "oversampling": 10, "power_iterations": 2},
        "classifier": {
            "kind": "svm",
            "params": {"c": 600.0, "gamma": 0.5, "tolerance": 1e-3, "max_iter": 100},
            "grid": {"c": [1.0, 10.0], "gamma": [0.5], "folds": 3},
        },
    },
    {
        "cube": "a.hsih",
        "ground_truth": "b.hsih",
        "reduction": {"method": "pca", "components": 3},
        "classifier": {
            "kind": "gbdt",
            "params": {
                "num_trees": 5,
                "learning_rate": 0.1,
                "max_leaves": 31,
                "min_samples_leaf": 20,
                "num_bins": 64,
                "goss_top_rate": 0.2,
                "goss_other_rate": 0.1,
                "seed": 0,
            },
        },
    },
)


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


CASES = [(base, path) for base in BASES for path in _paths(base)]


@settings(max_examples=600, deadline=None, database=None)
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_resolve_config_accepts_or_rejects_with_usage_error(case, value):
    base, path = case
    config = copy.deepcopy(base)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        snapshot = resolve_config(config, {})
    except UsageError:
        return
    # The snapshot is written as config.json; read back, it resolves to itself.
    assert resolve_config(json.loads(json.dumps(snapshot)), {}) == snapshot


def _objects(node, prefix=()):
    """The key path of every object inside ``node``, ``node`` included."""
    if isinstance(node, dict):
        yield prefix
        for key, child in node.items():
            yield from _objects(child, prefix + (key,))


OBJECTS = [(base, path) for base in BASES for path in _objects(base)]


@settings(max_examples=300, deadline=None, database=None)
@given(case=st.sampled_from(OBJECTS), key=st.text(max_size=6), value=JSON_VALUES)
def test_resolve_config_rejects_any_extra_key(case, key, value):
    base, path = case
    config = copy.deepcopy(base)
    node = config
    for part in path:
        node = node[part]
    assume(key not in node)
    node[key] = value
    with pytest.raises(UsageError):
        resolve_config(config, {})
