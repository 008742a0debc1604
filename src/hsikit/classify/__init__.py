"""Pixel classifiers: one-vs-one RBF SVM and softmax GBDT."""

from .gbdt import (
    GbdtModel,
    GbdtParams,
    Tree,
    gbdt_predict,
    gbdt_train,
    softmax_cross_entropy,
    softmax_gradients,
    softmax_probabilities,
)
from .svm import (
    DEFAULT_C_GRID,
    DEFAULT_FOLDS,
    DEFAULT_GAMMA_GRID,
    BinarySvm,
    SvmModel,
    SvmParams,
    grid_search_cv,
    rbf_kernel,
    svm_predict,
    svm_train,
)

__all__ = [
    "SvmParams",
    "SvmModel",
    "BinarySvm",
    "rbf_kernel",
    "svm_train",
    "svm_predict",
    "grid_search_cv",
    "DEFAULT_C_GRID",
    "DEFAULT_GAMMA_GRID",
    "DEFAULT_FOLDS",
    "GbdtParams",
    "GbdtModel",
    "Tree",
    "gbdt_train",
    "gbdt_predict",
    "softmax_probabilities",
    "softmax_cross_entropy",
    "softmax_gradients",
]
