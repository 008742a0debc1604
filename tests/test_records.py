"""Records built from numpy numbers are written as plain JSON.

The settings classes and ``check_int`` accept numpy's integer scalars,
so a record can hold them, or numpy values computed from them; its
``to_dict`` must still give what ``json.dumps`` writes and
``from_dict`` reads back. A field that does not decode is named by its
path, and so is an object that is not one or holds a key its class does
not know, and a missing field, before any field is decoded. The
settings classes are records too. ``coerce`` checks every JSON kind,
lists and objects among them.
"""

import json

import numpy as np
import pytest

from hsikit.classify import (
    GbdtModel,
    GbdtParams,
    SvmGrid,
    SvmModel,
    SvmParams,
    gbdt_train,
    svm_train,
)
from hsikit.dimred import PcaModel, fit_rpca
from hsikit.evaluation import EvalReport, evaluate
from hsikit.hsi_data import SampleSet
from hsikit.linalg import RandomizedSvdParams
from hsikit.records import coerce
from hsikit.rng import SplitMix64


def samples() -> SampleSet:
    features = SplitMix64(3).normal_matrix(60, 4)
    labels = np.repeat([1, 2, 3], 20)
    features[:, 0] += 3.0 * labels
    return SampleSet(features, labels, np.arange(60))


def pca_record():
    x = SplitMix64(4).normal_matrix(40, 8)
    return fit_rpca(x, np.int64(2), oversampling=np.int32(3), seed=np.uint64(5))


def svm_record():
    return svm_train(samples(), SvmParams(max_iter=np.int64(50)))


def gbdt_record():
    return gbdt_train(samples(), GbdtParams(num_trees=np.int64(2)))


def eval_record():
    return evaluate([1, 2, 2, 3], [1, 2, 3, 3], np.int64(3))


@pytest.mark.parametrize(
    "build, cls",
    [
        (pca_record, PcaModel),
        (svm_record, SvmModel),
        (gbdt_record, GbdtModel),
        (eval_record, EvalReport),
    ],
    ids=["pca", "svm", "gbdt", "evaluation"],
)
def test_records_of_numpy_numbers_round_trip_through_json(build, cls):
    d = build().to_dict()
    back = cls.from_dict(json.loads(json.dumps(d)))
    assert back.to_dict() == d
    assert json.dumps(back.to_dict(), sort_keys=True) == json.dumps(d, sort_keys=True)


def test_a_nested_field_is_named_by_its_path():
    d = json.loads(json.dumps(svm_record().to_dict()))
    d["params"]["max_iter"] = 2.5
    with pytest.raises(ValueError, match=r"^params\.max_iter must be an integer, got 2\.5$"):
        SvmModel.from_dict(d)


def _set(path, value):
    """An edit of a document that puts ``value`` at the key ``path``."""

    def edit(doc):
        *parents, key = path
        for parent in parents:
            doc = doc[parent]
        doc[key] = value

    return edit


@pytest.mark.parametrize(
    "build, cls, edit, message",
    [
        (svm_record, SvmModel, lambda doc: [doc], "SvmModel must be an object, got [{"),
        (svm_record, SvmModel, _set(["params"], 3), "params must be an object, got 3"),
        (svm_record, SvmModel, _set(["machines", 0], [1.0]),
         "machines must be an object, got [1.0]"),
        (svm_record, SvmModel, _set(["warnings"], 5), "warnings must be a list, got 5"),
        (svm_record, SvmModel, _set(["machines"], {"a": 1}),
         "machines must be a list, got {'a': 1}"),
        (pca_record, PcaModel, _set(["method_params"], [1]),
         "method_params must be an object, got [1]"),
        (svm_record, SvmModel, _set(["params", "cc"], 1.0),
         "unknown params fields ['cc']; allowed: ['c', 'gamma', 'max_iter', 'tolerance']"),
        (svm_record, SvmModel, _set(["extra"], 1),
         "unknown SvmModel fields ['extra']; allowed: ['classes', 'feature_min', "
         "'feature_range', 'machines', 'params', 'schema', 'warnings']"),
    ],
    ids=["document", "nested", "list-entry", "list", "list-an-object", "dict", "nested-key",
         "key"],
)
def test_a_field_of_the_wrong_shape_is_named_by_its_path(build, cls, edit, message):
    doc = json.loads(json.dumps(build().to_dict()))
    doc = edit(doc) or doc  # an edit in place returns None
    with pytest.raises(ValueError) as caught:
        cls.from_dict(doc)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize(
    "build, cls, edit, message",
    [
        (svm_record, SvmModel, lambda doc: doc["params"].pop("max_iter"),
         "params is missing fields ['max_iter']"),
        (eval_record, EvalReport, lambda doc: doc.pop("n_test"),
         "EvalReport is missing fields ['n_test']"),
        (svm_record, SvmModel, lambda doc: doc["machines"][0].pop("dual_coef"),
         "machines is missing fields ['dual_coef']"),
    ],
    ids=["nested", "top-level", "list-entry"],
)
def test_a_missing_field_is_named_by_its_path(build, cls, edit, message):
    doc = json.loads(json.dumps(build().to_dict()))
    edit(doc)
    with pytest.raises(ValueError) as caught:
        cls.from_dict(doc)
    assert str(caught.value) == message


def test_a_class_rule_is_named_by_the_path_given():
    d = {"c": -1.0, "gamma": 0.5, "tolerance": 1e-3, "max_iter": 10}
    with pytest.raises(ValueError, match=r"^c must be > 0, got -1\.0$"):
        SvmParams.from_dict(d)
    with pytest.raises(ValueError, match=r"^classifier\.params\.c must be > 0, got -1\.0$"):
        SvmParams.from_dict(d, "classifier.params")


@pytest.mark.parametrize(
    "obj",
    [
        SvmParams(c=np.float64(2.5), gamma=0.25, tolerance=1e-4, max_iter=np.int64(7)),
        SvmGrid(c=[1, 2.5], gamma=[np.float32(0.5)], folds=np.int64(3)),
        GbdtParams(num_trees=np.int64(3), learning_rate=0.3, goss_top_rate=0.0,
                   goss_other_rate=0.0),
        RandomizedSvdParams(np.int64(4), oversampling=0, power_iterations=np.int32(1), seed=9),
    ],
    ids=["svm-params", "svm-grid", "gbdt-params", "randomized-svd-params"],
)
def test_settings_round_trip_through_json(obj):
    d = json.loads(json.dumps(obj.to_dict()))
    assert type(obj).from_dict(d) == obj
    assert type(obj).from_dict(obj.to_dict()) == obj


def test_coerce_takes_a_list_or_an_object_as_given():
    values = [1, "a"]
    obj = {"k": [2.5]}
    assert coerce(values, list, "x") is values
    assert coerce(obj, dict, "x") is obj
    with pytest.raises(ValueError) as caught:
        coerce({}, list, "x")
    assert str(caught.value) == "x must be a list, got {}"
    with pytest.raises(ValueError) as caught:
        coerce([], dict, "x")
    assert str(caught.value) == "x must be an object, got []"
