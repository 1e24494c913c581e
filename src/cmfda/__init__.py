"""Harmonic-model deforestation detection for 16-day reflectance series."""

from .core import (
    Band,
    DeforestationLabel,
    DefoType,
    Observation,
    PixelSeries,
    Reliability,
    SiteGrid,
)
from .detection import (
    CubeCovarianceTable,
    DetectionResult,
    MahalanobisRule,
    MultivariateRule,
    UnivariateRule,
    estimate_cube_covariances,
    mahalanobis_index,
    univariate_flag,
)
from .harmonic import HarmonicModel
from .indices import EviParams, evi, ndvi
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
from .windows import WindowPair, make_windows

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
    "confusion",
    "cross_validate",
    "estimate_cube_covariances",
    "evi",
    "fit_standardizer",
    "grid_search_univariate",
    "mahalanobis_index",
    "make_windows",
    "ndvi",
    "sweep_fixed",
    "transform",
    "tss",
    "univariate_flag",
]
