"""Pixel classifiers: one-vs-one RBF SVM and softmax GBDT."""

from . import gbdt, svm
from .gbdt import *
from .svm import *

__all__ = svm.__all__ + gbdt.__all__
