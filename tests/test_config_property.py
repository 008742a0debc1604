"""Property tests: resolve_config either returns a stable snapshot or
raises UsageError, whatever JSON value a config field holds, and it
rejects every key it does not know, in any object of a config;
run_pipeline rejects a config exactly when resolve_config does."""

import copy
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hsikit.cli import StageError, UsageError, resolve_config, run_pipeline

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


@pytest.mark.parametrize("base", BASES)
def test_every_base_resolves(base):
    # A base that resolve_config rejects would leave the properties below
    # checking only rejections.
    snapshot = resolve_config(base, {})
    assert resolve_config(json.loads(json.dumps(snapshot)), {}) == snapshot


def _mutated(base, path, value):
    """A copy of ``base`` whose entry at ``path`` holds ``value``."""
    config = copy.deepcopy(base)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


@settings(max_examples=600, deadline=None, database=None)
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_resolve_config_accepts_or_rejects_with_usage_error(case, value):
    config = _mutated(*case, value)
    try:
        snapshot = resolve_config(config, {})
    except UsageError:
        return
    # The snapshot is written as config.json; read back, it resolves to itself.
    assert resolve_config(json.loads(json.dumps(snapshot)), {}) == snapshot


# tmp_path holds no file for the runs to read or write, whichever example runs.
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_run_pipeline_rejects_exactly_what_resolve_config_rejects(
    tmp_path, monkeypatch, case, value
):
    monkeypatch.chdir(tmp_path)  # where a relative output path would write
    base, path = case
    missing = {"cube": str(tmp_path / "a.hsih"), "ground_truth": str(tmp_path / "b.hsih")}
    config = _mutated({**base, **missing}, path, value)
    try:
        resolve_config(config, {})
        expected = None
    except UsageError as exc:
        expected = str(exc)
    with pytest.raises((UsageError, StageError)) as caught:
        run_pipeline(copy.deepcopy(config))
    if expected is None:  # the config is valid, and its cube is missing
        assert isinstance(caught.value, StageError) and caught.value.stage == "load"
    else:
        assert type(caught.value) is UsageError and str(caught.value) == expected
    assert list(tmp_path.iterdir()) == []


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
