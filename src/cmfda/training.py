"""Threshold training: skill metrics, grid search, simulated annealing,
cross-validation and fixed-threshold sweeps.

The optimizers exploit the fact that for a fixed pixel and consecutive
count, the set of thresholds at which the pixel is flagged is exactly
(0, flag_level): one pass over each error series yields the whole
threshold response.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import Band
from .detection import (
    CubeCovarianceTable,
    DetectionRule,
    WindowErrors,
    flag_level,
    index_series,
    mahalanobis_series,
    scan_window_errors,
)
from .errors import (
    DegenerateClass,
    InitOffGrid,
    KeyMismatch,
    TooFewPositives,
)


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts: s/t/u/v name the hit, miss, correct
    rejection and false alarm cells (1 = deforestation)."""

    s: int  # predicted 1, observed 1
    t: int  # predicted 0, observed 1
    u: int  # predicted 0, observed 0
    v: int  # predicted 1, observed 0

    def __post_init__(self):
        if min(self.s, self.t, self.u, self.v) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def r(self) -> int:  # total predicted 1
        return self.v + self.s

    @property
    def w(self) -> int:  # total predicted 0
        return self.u + self.t

    @property
    def n0(self) -> int:  # total observed 0
        return self.u + self.v

    @property
    def n1(self) -> int:  # total observed 1
        return self.t + self.s

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.s + other.s, self.t + other.t, self.u + other.u, self.v + other.v
        )


def confusion(preds: Mapping[str, int], labels: Mapping[str, int]) -> ConfusionCounts:
    if set(preds) != set(labels):
        raise KeyMismatch("prediction and label maps cover different pixels")
    s = t = u = v = 0
    for pixel, predicted in preds.items():
        observed = labels[pixel]
        if predicted and observed:
            s += 1
        elif predicted and not observed:
            v += 1
        elif not predicted and observed:
            t += 1
        else:
            u += 1
    return ConfusionCounts(s, t, u, v)


def tss(c: ConfusionCounts) -> float:
    """True skill statistic: hit rate plus correct-rejection rate minus 1."""
    if c.n0 == 0 or c.n1 == 0:
        raise DegenerateClass("tss undefined when a class is empty")
    return c.s / c.n1 + c.u / c.n0 - 1.0


def accuracies(c: ConfusionCounts) -> tuple[float, Optional[float]]:
    """(producer's, user's) accuracy; user's is None when nothing was
    flagged rather than a fabricated value."""
    if c.n1 == 0:
        raise DegenerateClass("producer's accuracy undefined without positives")
    producer = c.s / c.n1
    user = c.s / c.r if c.r > 0 else None
    return producer, user


# --- training datasets ------------------------------------------------------


@dataclass
class PixelTrainingData:
    """One pixel's labelled, per-window prediction errors."""

    pixel_id: str
    site_id: str
    col: int
    row: int
    label: int
    window_errors: list[WindowErrors]


def _check_two_classes(dataset: Sequence[PixelTrainingData]) -> np.ndarray:
    labels = np.array([p.label for p in dataset])
    if labels.size == 0 or labels.min() == labels.max():
        raise DegenerateClass("training labels must contain both classes")
    return labels


def fill_dataset_index(
    dataset: Sequence[PixelTrainingData], covariances: CubeCovarianceTable
) -> None:
    """Store every window's Mahalanobis index once: thresholds and C never
    change it, so every later scan of the dataset reads it."""
    for p in dataset:
        for we in p.window_errors:
            we.index = mahalanobis_series(we, covariances, p.site_id, p.col, p.row)


def _flag_levels(
    dataset: Sequence[PixelTrainingData],
    values_of: Callable[[WindowErrors], np.ndarray],
    consecutive: int,
    two_sided: bool,
) -> np.ndarray:
    """Per-pixel supremum threshold at which the pixel still flags."""
    return np.array([
        max((flag_level(values_of(we), we.start_ok, consecutive, two_sided)
             for we in p.window_errors), default=-math.inf)
        for p in dataset
    ])


def univariate_flag_levels(
    dataset: Sequence[PixelTrainingData], band: Band, consecutive: int
) -> np.ndarray:
    return _flag_levels(dataset, lambda we: we.errors[band], consecutive, two_sided=True)


def mahalanobis_flag_levels(
    dataset: Sequence[PixelTrainingData], consecutive: int
) -> np.ndarray:
    """Levels of the filled index series; the index is nonnegative, so the
    runs are one-sided."""
    return _flag_levels(dataset, index_series, consecutive, two_sided=False)


def _tss_of_flags(flags: np.ndarray, labels: np.ndarray) -> float:
    n1 = int(labels.sum())
    n0 = labels.size - n1
    s = int((flags & (labels == 1)).sum())
    u = int((~flags & (labels == 0)).sum())
    return s / n1 + u / n0 - 1.0


def evaluate_rule(
    dataset: Sequence[PixelTrainingData], rule: DetectionRule
) -> ConfusionCounts:
    """Confusion of a fixed rule over the dataset."""
    preds = {}
    labels = {}
    for p in dataset:
        result = scan_window_errors(p.window_errors, rule, pixel_id=p.pixel_id)
        preds[p.pixel_id] = int(result.flagged)
        labels[p.pixel_id] = p.label
    return confusion(preds, labels)


# --- grid search ------------------------------------------------------------


def _grid_search_levels(
    levels: np.ndarray, labels: np.ndarray, grid: Sequence[float]
) -> tuple[float, float]:
    if len(grid) == 0:
        raise ValueError("threshold grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("threshold grid must be strictly ascending")
    best_threshold = None
    best_tss = -math.inf
    for threshold in grid:
        score = _tss_of_flags(levels > threshold, labels)
        if score > best_tss:
            best_tss = score
            best_threshold = threshold
    return best_threshold, best_tss


def grid_search_univariate(
    dataset: Sequence[PixelTrainingData],
    band: Band,
    consecutive: int,
    grid: Sequence[float],
) -> tuple[float, float]:
    """Exhaustive search; ties break toward the smallest threshold, which
    favours earlier detection."""
    labels = _check_two_classes(dataset)
    levels = univariate_flag_levels(dataset, band, consecutive)
    return _grid_search_levels(levels, labels, grid)


def grid_search_mahalanobis(
    dataset: Sequence[PixelTrainingData],
    consecutive: int,
    grid: Sequence[float],
) -> tuple[float, float]:
    """Grid search over the filled index series (see fill_dataset_index)."""
    labels = _check_two_classes(dataset)
    levels = mahalanobis_flag_levels(dataset, consecutive)
    return _grid_search_levels(levels, labels, grid)


# --- simulated annealing ----------------------------------------------------


@dataclass(frozen=True)
class AnnealConfig:
    """Geometric cooling schedule with a bounded random-neighbor walk."""

    initial_temp: float = 0.1
    cooling: float = 0.95
    steps_per_temp: int = 200
    temp_levels: int = 20

    @property
    def total_steps(self) -> int:
        return self.steps_per_temp * self.temp_levels


def anneal_on_grid(
    utility: Callable[[int, int], float],
    shape: tuple[int, int],
    init: tuple[int, int],
    config: AnnealConfig,
    seed: int,
) -> tuple[tuple[int, int], float]:
    """Maximize a utility over grid indices; returns the best point seen.

    The proposal moves to one of the (up to 8) grid neighbors chosen
    uniformly; downhill moves are accepted with probability exp(delta/T).
    Reproducible for a given seed and never worse than the start point.
    """
    n_i, n_j = shape
    rng = random.Random(seed)
    cache: dict[tuple[int, int], float] = {}
    best_holder: list = [init, None]

    def value(point):
        if point not in cache:
            cache[point] = utility(*point)
            if best_holder[1] is None or cache[point] > best_holder[1]:
                best_holder[0] = point
                best_holder[1] = cache[point]
        return cache[point]

    current = init
    current_value = value(init)
    temp = config.initial_temp
    for _ in range(config.temp_levels):
        for _ in range(config.steps_per_temp):
            i, j = current
            neighbors = [
                (i + di, j + dj)
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                if (di, dj) != (0, 0) and 0 <= i + di < n_i and 0 <= j + dj < n_j
            ]
            proposal = rng.choice(neighbors)
            delta = value(proposal) - current_value
            if delta > 0 or rng.random() < math.exp(delta / temp):
                current = proposal
                current_value = cache[proposal]
        temp *= config.cooling
    return tuple(best_holder[0]), best_holder[1]


def anneal_multivariate(
    dataset: Sequence[PixelTrainingData],
    consecutive: int,
    nir_grid: Sequence[float],
    ndvi_grid: Sequence[float],
    init: tuple[float, float],
    config: AnnealConfig = AnnealConfig(),
    seed: int = 0,
) -> tuple[tuple[float, float], float]:
    """Joint (NIR, NDVI) threshold search by simulated annealing."""
    labels = _check_two_classes(dataset)
    nir_grid = list(nir_grid)
    ndvi_grid = list(ndvi_grid)
    if init[0] not in nir_grid or init[1] not in ndvi_grid:
        raise InitOffGrid(f"initial thresholds {init} are not on the search grid")
    nir_levels = univariate_flag_levels(dataset, Band.NIR, consecutive)
    ndvi_levels = univariate_flag_levels(dataset, Band.NDVI, consecutive)

    def utility(i: int, j: int) -> float:
        flags = (nir_levels > nir_grid[i]) | (ndvi_levels > ndvi_grid[j])
        return _tss_of_flags(flags, labels)

    init_idx = (nir_grid.index(init[0]), ndvi_grid.index(init[1]))
    (bi, bj), best_tss = anneal_on_grid(
        utility, (len(nir_grid), len(ndvi_grid)), init_idx, config, seed
    )
    return (nir_grid[bi], ndvi_grid[bj]), best_tss


# --- cross-validation -------------------------------------------------------


@dataclass(frozen=True)
class FoldResult:
    counts: ConfusionCounts
    tss: float


@dataclass(frozen=True)
class CvResult:
    folds: tuple[FoldResult, ...]
    tss_mean: float
    pooled: ConfusionCounts
    tss_pooled: float
    producer_acc: float
    user_acc: Optional[float]


def cross_validate(
    dataset: Sequence[PixelTrainingData],
    trainer: Callable[[list[PixelTrainingData]], DetectionRule],
    k: int = 5,
    seed: int = 0,
) -> CvResult:
    """Stratified k-fold over pixels (never over dates within a pixel, so a
    pixel's errors cannot leak between its own train and test folds)."""
    if k < 2:
        raise ValueError("cross-validation needs k >= 2")
    _check_two_classes(dataset)
    positives = [p for p in dataset if p.label == 1]
    negatives = [p for p in dataset if p.label == 0]
    if len(positives) < k or len(negatives) < k:
        raise TooFewPositives(
            f"need at least {k} pixels of each class to stratify {k} folds"
        )
    rng = random.Random(seed)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    folds: list[list[PixelTrainingData]] = [[] for _ in range(k)]
    for i, p in enumerate(positives):
        folds[i % k].append(p)
    for i, p in enumerate(negatives):
        folds[i % k].append(p)

    fold_results = []
    pooled = ConfusionCounts(0, 0, 0, 0)
    for held_out in range(k):
        train = [p for f in range(k) if f != held_out for p in folds[f]]
        rule = trainer(train)
        counts = evaluate_rule(folds[held_out], rule)
        fold_results.append(FoldResult(counts, tss(counts)))
        pooled = pooled + counts
    producer, user = accuracies(pooled)
    return CvResult(
        folds=tuple(fold_results),
        tss_mean=float(np.mean([f.tss for f in fold_results])),
        pooled=pooled,
        tss_pooled=tss(pooled),
        producer_acc=producer,
        user_acc=user,
    )


# --- fixed-threshold sweep over C -------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    consecutive: int
    n_flagged: int
    tss: Optional[float]
    producer_acc: Optional[float]
    user_acc: Optional[float]


def sweep_fixed(
    dataset: Sequence[PixelTrainingData],
    rule: DetectionRule,
    c_values: Sequence[int] = (2, 3, 4, 5, 6),
) -> list[SweepRow]:
    """Re-apply one trained threshold across consecutive counts.

    Rows are emitted even when the skill metrics are undefined (single
    label class), with None in place of the undefined values.
    """
    rows = []
    for c in c_values:
        counts = evaluate_rule(dataset, replace(rule, consecutive=c))
        try:
            score = tss(counts)
        except DegenerateClass:
            score = None
        try:
            producer, user = accuracies(counts)
        except DegenerateClass:
            producer = user = None
        rows.append(SweepRow(c, counts.r, score, producer, user))
    return rows


# --- report structure --------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    scope: str                      # "all" or a site id
    consecutive: int
    thresholds: tuple[float, ...]   # one entry, or (nir, ndvi)
    train_tss: Optional[float]
    cv_tss: Optional[float]
    producer_acc: Optional[float]
    user_acc: Optional[float]


@dataclass(frozen=True)
class TrainReport:
    rule_kind: str                  # univariate | multivariate | mahalanobis
    band: Optional[Band]
    rows: tuple[ReportRow, ...]
