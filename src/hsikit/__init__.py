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
"""

__version__ = "0.1.0"

from .classify import (
    DEFAULT_C_GRID,
    DEFAULT_FOLDS,
    DEFAULT_GAMMA_GRID,
    GbdtModel,
    GbdtParams,
    SvmModel,
    SvmParams,
    gbdt_predict,
    gbdt_train,
    grid_search_cv,
    rbf_kernel,
    svm_predict,
    svm_train,
)
from .dimred import (
    PcaModel,
    explained_variance_ratio,
    fit_pca,
    fit_rpca,
    principal_angles,
    transform,
)
from .errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateDataError,
    HsikitError,
)
from .evaluation import (
    PALETTE,
    EvalReport,
    McNemarResult,
    chi_square_sf,
    evaluate,
    mcnemar,
    render_map,
    write_ppm,
)
from .hsi_data import (
    GroundTruth,
    HsiCube,
    SampleSet,
    extract_labeled,
    load_cube,
    load_ground_truth,
    parse_header,
    save_cube,
    save_ground_truth,
    stratified_split,
)
from .linalg import (
    RandomizedSvdParams,
    SvdResult,
    exact_svd,
    householder_qr,
    randomized_range_finder,
    randomized_svd,
)
from .rng import SplitMix64
from .synthetic import gaussian_scene

__all__ = [
    "__version__",
    "SplitMix64",
    "HsikitError",
    "DataFormatError",
    "ConvergenceError",
    "DegenerateDataError",
    "SvdResult",
    "RandomizedSvdParams",
    "householder_qr",
    "exact_svd",
    "randomized_range_finder",
    "randomized_svd",
    "PcaModel",
    "fit_pca",
    "fit_rpca",
    "transform",
    "explained_variance_ratio",
    "principal_angles",
    "HsiCube",
    "GroundTruth",
    "SampleSet",
    "parse_header",
    "load_cube",
    "save_cube",
    "load_ground_truth",
    "save_ground_truth",
    "extract_labeled",
    "stratified_split",
    "SvmParams",
    "SvmModel",
    "rbf_kernel",
    "svm_train",
    "svm_predict",
    "grid_search_cv",
    "DEFAULT_C_GRID",
    "DEFAULT_GAMMA_GRID",
    "DEFAULT_FOLDS",
    "GbdtParams",
    "GbdtModel",
    "gbdt_train",
    "gbdt_predict",
    "EvalReport",
    "evaluate",
    "McNemarResult",
    "mcnemar",
    "chi_square_sf",
    "PALETTE",
    "render_map",
    "write_ppm",
    "gaussian_scene",
]
