"""Both classifiers train the same model on float32 samples, as
``load_split`` reads them, as on their float64 copy."""

import json

import numpy as np
import pytest

from hsikit.classify.gbdt import GbdtParams, gbdt_predict, gbdt_train
from hsikit.classify.svm import SvmParams, svm_predict, svm_train
from hsikit.hsi_data import SampleSet
from hsikit.rng import SplitMix64

TRAINERS = {
    "gbdt": (gbdt_train, gbdt_predict,
             GbdtParams(num_trees=3, goss_top_rate=0.0, min_samples_leaf=5)),
    "svm": (svm_train, svm_predict, SvmParams()),
}


@pytest.mark.parametrize("kind", TRAINERS)
def test_float32_samples_train_the_model_of_their_float64_copy(kind):
    train, predict, params = TRAINERS[kind]
    # Magnitudes over many octaves, so a quantile or range rounded in
    # float32 would differ from the float64 one.
    rng = SplitMix64(45)
    wide = rng.normal_matrix(400, 4) * np.exp(4.0 * rng.normal_matrix(400, 4))
    narrow = wide.astype(np.float32)
    labels = np.arange(400) % 3 + 1
    sets = [SampleSet(x, labels, np.arange(400)) for x in (narrow, narrow.astype(np.float64))]
    assert sets[0].features.dtype == np.float32
    models = [train(s, params) for s in sets]
    first, second = (json.dumps(m.to_dict(), sort_keys=True) for m in models)
    assert first == second
    rows = SplitMix64(46).normal_matrix(300, 4).astype(np.float32)
    assert np.array_equal(predict(models[0], rows), predict(models[1], rows))
