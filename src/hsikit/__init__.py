"""Hyperspectral image classification with randomized dimensionality
reduction.

The toolkit covers the full small-scene workflow: container IO for
cubes and ground truth, PCA / randomized PCA on training spectra,
RBF-SVM and gradient-boosted tree classifiers, accuracy reports with
McNemar significance tests, and rendered classification maps. The
``hsikit`` command line wires the pieces into reproducible runs.

All randomness flows through the seeded counter-based generator in
``hsikit.rng``, so a run's artifacts are byte-identical for a fixed
numpy/BLAS build and BLAS thread count. Across thread counts fitted
floats may change in their last digits; predictions held in the tested
runs (see the README's Determinism section).

Every name a library module lists in its ``__all__`` is re-exported
here, so ``hsikit.__all__`` is ``__version__`` followed by those lists.
"""

__version__ = "0.1.0"

from . import classify, dimred, errors, evaluation, hsi_data, linalg, rng, synthetic
from .classify import *
from .dimred import *
from .errors import *
from .evaluation import *
from .hsi_data import *
from .linalg import *
from .rng import *
from .synthetic import *

__all__ = ["__version__"]
for _module in (rng, errors, linalg, dimred, hsi_data, classify, evaluation, synthetic):
    __all__ += _module.__all__
del _module
