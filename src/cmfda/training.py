"""Threshold training: skill metrics, grid search, simulated annealing,
cross-validation and fixed-threshold sweeps.

A training set holds its pixels' errors in the flat form of detection. For
a fixed pixel and consecutive count, the thresholds at which the pixel is
flagged are exactly (0, level) (``detection.flag_levels``), so its level
fixes its whole threshold response: on an ascending grid, its rank (how
many thresholds the level exceeds), which is counted. A level is the
maximum over the pixel's own runs, whichever subset of pixels asks, so a
``LevelTable`` holds each (series, C) computed once over a whole set, and
every search, fold and sweep row indexes it.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .core import Band
from .detection import (
    CubeCovarianceTable,
    DetectionRule,
    FlatErrors,
    INDEX,
    flag_levels,
    mahalanobis_series,
    rule_series,
    scan_window_errors,  # noqa: F401 (perfbench/tracing.py wraps it at this name)
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


def _counts(flags: np.ndarray, observed: np.ndarray) -> ConfusionCounts:
    """Confusion of predicted against observed flags, as bool arrays."""
    s, v = int((flags & observed).sum()), int((flags & ~observed).sum())
    return ConfusionCounts(s, int(observed.sum()) - s, int((~observed).sum()) - v, v)


def confusion(preds: Mapping[str, int], labels: Mapping[str, int]) -> ConfusionCounts:
    if set(preds) != set(labels):
        raise KeyMismatch("prediction and label maps cover different pixels")
    return _counts(*(np.array([bool(table[k]) for k in labels], dtype=bool)
                     for table in (preds, labels)))


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


def skill(c: ConfusionCounts) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """(TSS, producer's accuracy, user's accuracy) of a fixed rule's counts,
    each None where undefined (see :func:`tss` and :func:`accuracies`)."""
    try:
        score = tss(c)
    except DegenerateClass:
        score = None
    try:
        return (score, *accuracies(c))
    except DegenerateClass:
        return score, None, None


# --- training datasets ------------------------------------------------------


@dataclass
class PixelTrainingData:
    """One pixel's labelled prediction errors, one WindowErrors per window."""

    pixel_id: str
    site_id: str
    col: int
    row: int
    label: int
    window_errors: list[FlatErrors]


@dataclass(eq=False)
class TrainingSet:
    """Labelled pixels and their prediction errors in one flat form: pixel
    k is ``pixel_ids[k]``, at (``cols[k]``, ``rows[k]``) in site
    ``site_ids[k]``, labelled ``labels[k]``, and owns the segments of
    ``errors`` numbered k."""

    pixel_ids: np.ndarray
    site_ids: np.ndarray
    cols: np.ndarray
    rows: np.ndarray
    labels: np.ndarray
    errors: FlatErrors

    def __len__(self) -> int:
        return self.labels.size

    @classmethod
    def of(cls, dataset: "Dataset") -> "TrainingSet":
        """A training set as it is, or pixels with their windows end to end."""
        if isinstance(dataset, TrainingSet):
            return dataset
        pixels = list(dataset)
        return cls(
            np.array([p.pixel_id for p in pixels], dtype=object),
            np.array([p.site_id for p in pixels], dtype=object),
            np.array([p.col for p in pixels], dtype=np.int64),
            np.array([p.row for p in pixels], dtype=np.int64),
            np.array([p.label for p in pixels], dtype=np.int64),
            FlatErrors.concat(
                [we for p in pixels for we in p.window_errors],
                [k for k, p in enumerate(pixels) for _ in p.window_errors],
            ),
        )

    @classmethod
    def concat(cls, sets: Sequence["TrainingSet"]) -> "TrainingSet":
        sets = list(sets)
        sizes = np.array([len(part) for part in sets], dtype=np.intp)
        return cls(
            *(np.concatenate([getattr(part, name) for part in sets]) for name in _PIXEL_FIELDS),
            FlatErrors.concat([part.errors for part in sets], np.cumsum(sizes) - sizes),
        )


_PIXEL_FIELDS = ("pixel_ids", "site_ids", "cols", "rows", "labels")

# What the training functions accept: a training set, or the pixels of one.
Dataset = Union[TrainingSet, Sequence[PixelTrainingData]]

# Consecutive counts every training run covers; the sweep re-applies C=3.
C_VALUES = (2, 3, 4, 5, 6)


def _check_two_classes(table: "LevelTable") -> np.ndarray:
    """The pixels' labels as bools, when both classes occur."""
    observed = table.labels != 0
    if observed.all() or not observed.any():
        raise DegenerateClass("training labels must contain both classes")
    return observed


def fill_dataset_index(dataset: TrainingSet, covariances: CubeCovarianceTable) -> None:
    """Store the Mahalanobis index of every entry once: thresholds and C
    never change it, so every later level table of the set reads it. A
    table made before a refill keeps the levels of the index it read."""
    dataset.errors.index = mahalanobis_series(
        dataset.errors, covariances, dataset.site_ids, dataset.cols, dataset.rows
    )


def univariate_flag_levels(dataset: TrainingSet, band: Band, consecutive: int) -> np.ndarray:
    """Per-pixel supremum threshold at which the pixel still flags."""
    errors = dataset.errors
    return flag_levels(errors, errors.series(band), consecutive, True, len(dataset))


def mahalanobis_flag_levels(dataset: TrainingSet, consecutive: int) -> np.ndarray:
    """Levels of the filled index (one-sided runs, see ``rule_series``)."""
    errors = dataset.errors
    return flag_levels(errors, errors.series(INDEX), consecutive, False, len(dataset))


@dataclass(frozen=True, eq=False)
class LevelTable:
    """Each pixel's level of each series (``rule_series``) and C: pixel k,
    labelled ``labels[k]`` in site ``site_ids[k]``, has ``levels[series, c][k]``."""

    labels: np.ndarray
    site_ids: np.ndarray
    levels: Mapping[tuple[Union[Band, str], int], np.ndarray]

    @classmethod
    def of(cls, dataset: Union[Dataset, "LevelTable"],
           series: Optional[Sequence[Union[Band, str]]] = None,
           c_values: Sequence[int] = C_VALUES) -> "LevelTable":
        """A level table as it is; or a dataset's levels of ``series`` (by default
        its bands, and the index once filled) at each C, one call per (series, C)."""
        if isinstance(dataset, LevelTable):
            return dataset
        dataset = TrainingSet.of(dataset)
        if series is None:
            series = [*dataset.errors.errors] + [INDEX] * (dataset.errors.index is not None)
        return cls(dataset.labels, dataset.site_ids, {
            (key, c): mahalanobis_flag_levels(dataset, c) if key == INDEX
            else univariate_flag_levels(dataset, key, c)
            for c in c_values for key in series
        })

    def take(self, pixels) -> "LevelTable":
        """The given pixels, in that order."""
        return LevelTable(self.labels[pixels], self.site_ids[pixels],
                          {key: level[pixels] for key, level in self.levels.items()})


def evaluate_rule(dataset: Union[Dataset, LevelTable], rule: DetectionRule) -> ConfusionCounts:
    """Confusion of a fixed rule over the dataset: a pixel flags when its
    level of a series the rule reads exceeds that series' threshold."""
    series = rule_series(rule)
    table = LevelTable.of(dataset, [key for key, _ in series], [rule.consecutive])
    flags = [table.levels[key, rule.consecutive] > threshold for key, threshold in series]
    return _counts(np.logical_or.reduce(flags), table.labels != 0)


# --- grid search ------------------------------------------------------------


def _grid_ranks(levels: np.ndarray, grid: Sequence[float]) -> np.ndarray:
    """How many thresholds of the ascending grid each level exceeds, 0 for a
    NaN level: a pixel flags at ``grid[k]`` exactly when its rank > k."""
    thresholds = np.asarray(grid, dtype=float)
    if thresholds.size == 0:
        raise ValueError("threshold grid is empty")
    if not (thresholds[1:] > thresholds[:-1]).all():
        raise ValueError("threshold grid must be strictly ascending")
    return np.where(np.isnan(levels), 0, np.searchsorted(thresholds, levels))


def _grid_scores(levels: np.ndarray, observed: np.ndarray, grid: Sequence[float]) -> np.ndarray:
    """The TSS of every threshold of the grid from one count of the ranks,
    each equal bit for bit to ``tss`` of that threshold's confusion."""
    ranks = _grid_ranks(levels, grid)
    # the pixels of a class left unflagged at grid[k] are those ranked <= k
    missed, rejected = (np.cumsum(np.bincount(ranks[cls], minlength=len(grid) + 1)[:-1])
                        for cls in (observed, ~observed))
    n1 = int(observed.sum())
    n0 = observed.size - n1
    return (n1 - missed) / n1 + rejected / n0 - 1.0


def _grid_search_levels(levels, observed, grid) -> tuple[float, float]:
    scores = _grid_scores(levels, observed, grid)
    best = int(np.argmax(scores))  # the first maximum: ties go to the smallest threshold
    return grid[best], float(scores[best])


def grid_search_univariate(dataset: Union[Dataset, LevelTable], band: Band, consecutive: int,
                           grid: Sequence[float]) -> tuple[float, float]:
    """Exhaustive search; ties break toward the smallest threshold, which
    favours earlier detection."""
    table = LevelTable.of(dataset, [band], [consecutive])
    return _grid_search_levels(table.levels[band, consecutive], _check_two_classes(table), grid)


def grid_search_mahalanobis(dataset: Union[Dataset, LevelTable], consecutive: int,
                            grid: Sequence[float]) -> tuple[float, float]:
    """Grid search over the filled index (see fill_dataset_index)."""
    table = LevelTable.of(dataset, [INDEX], [consecutive])
    return _grid_search_levels(table.levels[INDEX, consecutive], _check_two_classes(table), grid)


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

    offsets: dict = {}  # a point's neighbors as offsets, by the grid edges it lies on
    current = init
    current_value = value(init)
    if shape == (1, 1):   # no neighbor to move to
        return tuple(init), current_value
    temp = config.initial_temp
    for _ in range(config.temp_levels):
        for _ in range(config.steps_per_temp):
            i, j = current
            inside = (i > 0, i < n_i - 1, j > 0, j < n_j - 1)
            if inside not in offsets:
                offsets[inside] = [
                    (di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                    if (di, dj) != (0, 0) and 0 <= i + di < n_i and 0 <= j + dj < n_j
                ]
            di, dj = rng.choice(offsets[inside])
            proposal = (i + di, j + dj)
            delta = value(proposal) - current_value
            if delta > 0 or rng.random() < math.exp(delta / temp):
                current = proposal
                current_value = cache[proposal]
        temp *= config.cooling
    return tuple(best_holder[0]), best_holder[1]


def _pair_utility(nir_levels, ndvi_levels, observed, nir_grid, ndvi_grid):
    """The TSS of the pair rule at (nir_grid[i], ndvi_grid[j]), equal bit for
    bit to ``tss`` of its confusion, counted from the pixels' ranks: a pixel
    stays unflagged there when its NIR rank is <= i and its NDVI rank <= j."""
    nir_ranks = _grid_ranks(nir_levels, nir_grid)
    ndvi_ranks = _grid_ranks(ndvi_levels, ndvi_grid)
    n1 = int(observed.sum())
    n0 = observed.size - n1
    rows: dict[int, tuple[list[int], list[int]]] = {}  # built the first time i is asked for

    def utility(i: int, j: int) -> float:
        if i not in rows:  # each class's sorted NDVI ranks among the pixels NIR leaves unflagged
            kept = nir_ranks <= i
            rows[i] = (np.sort(ndvi_ranks[kept & observed]).tolist(),
                       np.sort(ndvi_ranks[kept & ~observed]).tolist())
        return (n1 - bisect_right(rows[i][0], j)) / n1 + bisect_right(rows[i][1], j) / n0 - 1.0

    return utility


def anneal_multivariate(dataset: Union[Dataset, LevelTable], consecutive: int,
                        nir_grid: Sequence[float], ndvi_grid: Sequence[float],
                        init: tuple[float, float], config: AnnealConfig = AnnealConfig(),
                        seed: int = 0) -> tuple[tuple[float, float], float]:
    """Joint (NIR, NDVI) threshold search by simulated annealing."""
    table = LevelTable.of(dataset, (Band.NIR, Band.NDVI), [consecutive])
    observed = _check_two_classes(table)
    nir_grid = list(nir_grid)
    ndvi_grid = list(ndvi_grid)
    if init[0] not in nir_grid or init[1] not in ndvi_grid:
        raise InitOffGrid(f"initial thresholds {init} are not on the search grid")
    utility = _pair_utility(
        table.levels[Band.NIR, consecutive], table.levels[Band.NDVI, consecutive],
        observed, nir_grid, ndvi_grid,
    )
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


def cross_validate(dataset: Union[Dataset, LevelTable],
                   trainer: Callable[[LevelTable], DetectionRule], k: int = 5,
                   seed: int = 0) -> CvResult:
    """Stratified k-fold over pixels (never over dates within a pixel, so a
    pixel's errors cannot leak between its own train and test folds). The
    trainer gets the training folds' rows of the dataset's ``LevelTable``."""
    if k < 2:
        raise ValueError("cross-validation needs k >= 2")
    table = LevelTable.of(dataset)
    observed = _check_two_classes(table)
    positives = np.flatnonzero(observed).tolist()
    negatives = np.flatnonzero(~observed).tolist()
    if len(positives) < k or len(negatives) < k:
        raise TooFewPositives(
            f"need at least {k} pixels of each class to stratify {k} folds"
        )
    rng = random.Random(seed)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    folds = [positives[f::k] + negatives[f::k] for f in range(k)]

    fold_results = []
    pooled = ConfusionCounts(0, 0, 0, 0)
    for held_out in range(k):
        train = [p for f in range(k) if f != held_out for p in folds[f]]
        rule = trainer(table.take(train))
        counts = evaluate_rule(table.take(folds[held_out]), rule)
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


def sweep_fixed(dataset: Union[Dataset, LevelTable], rule: DetectionRule,
                c_values: Sequence[int] = C_VALUES) -> list[SweepRow]:
    """Re-apply one trained threshold across consecutive counts.

    Rows are emitted even when the skill metrics are undefined (single
    label class), with None in place of the undefined values.
    """
    table = LevelTable.of(dataset, [key for key, _ in rule_series(rule)], c_values)
    rows = []
    for c in c_values:
        counts = evaluate_rule(table, replace(rule, consecutive=c))
        rows.append(SweepRow(c, counts.r, *skill(counts)))
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
