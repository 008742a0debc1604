"""Records built from numpy numbers are written as plain JSON.

The settings classes and ``check_int`` accept numpy's integer scalars,
so a record can hold them, or numpy values computed from them; its
``to_dict`` must still give what ``json.dumps`` writes and
``from_dict`` reads back. A field that does not decode is named by its
path.
"""

import json

import numpy as np
import pytest

from hsikit.classify import GbdtModel, GbdtParams, SvmModel, SvmParams, gbdt_train, svm_train
from hsikit.dimred import PcaModel, fit_rpca
from hsikit.evaluation import EvalReport, evaluate
from hsikit.hsi_data import SampleSet
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
