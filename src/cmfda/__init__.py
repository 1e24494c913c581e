"""Harmonic-model deforestation detection for 16-day reflectance series."""

from .core import (
    Band,
    DeforestationLabel,
    DefoType,
    Observation,
    PixelSeries,
    Reliability,
    SiteGrid,
    is_clear,
)
from .detection import (
    CubeCovarianceTable,
    DetectionResult,
    MahalanobisRule,
    MultivariateRule,
    UnivariateRule,
    estimate_cube_covariances,
    mahalanobis_index,
    multivariate_flag,
    univariate_flag,
)
from .harmonic import HarmonicModel, design_vector, fit, predict, residual
from .indices import EviParams, evi, ndvi
from .pipeline import detect_pixel
from .standardize import Scheme, Standardizer, fit_standardizer, transform
from .training import (
    AnnealConfig,
    ConfusionCounts,
    accuracies,
    anneal_multivariate,
    confusion,
    cross_validate,
    grid_search_univariate,
    sweep_fixed,
    tss,
)
from .windows import WindowPair, clear_dates, make_windows

__all__ = [
    "AnnealConfig",
    "Band",
    "ConfusionCounts",
    "CubeCovarianceTable",
    "DeforestationLabel",
    "DefoType",
    "DetectionResult",
    "EviParams",
    "HarmonicModel",
    "MahalanobisRule",
    "MultivariateRule",
    "Observation",
    "PixelSeries",
    "Reliability",
    "Scheme",
    "SiteGrid",
    "Standardizer",
    "UnivariateRule",
    "WindowPair",
    "accuracies",
    "anneal_multivariate",
    "clear_dates",
    "confusion",
    "cross_validate",
    "design_vector",
    "detect_pixel",
    "estimate_cube_covariances",
    "evi",
    "fit",
    "fit_standardizer",
    "grid_search_univariate",
    "is_clear",
    "mahalanobis_index",
    "make_windows",
    "multivariate_flag",
    "ndvi",
    "predict",
    "residual",
    "sweep_fixed",
    "transform",
    "tss",
    "univariate_flag",
]
