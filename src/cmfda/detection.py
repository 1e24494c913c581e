"""Consecutive-violation deforestation detection.

A pixel is flagged when, inside some prediction window, C consecutive
clear-date prediction errors of the same sign all exceed the threshold.
Cloudy dates are skipped, not counted: a run is C consecutive entries of
the pixel's clear-date error sequence. Runs may start at any clear date
of the bare prediction year and finish inside the 120-day extension.

Three rule forms are supported: a single band against one threshold, the
NIR/NDVI pair against two thresholds combined with an OR, and a local
Mahalanobis distance of the (NIR, NDVI) error pair against one threshold.
The index is error data, not rule logic: ``mahalanobis_series`` computes it
once and stores it beside the band errors, so every rule scans plain values.

Errors live in one flat form (``FlatErrors``): a segment per (pixel,
window), or per online run, laid end to end. All three rules rest on one
kernel, ``run_levels``: the level of a run is the largest threshold at
which it still triggers, ``max(min(run), -max(run))`` for signed errors and
``min(run)`` for the index, and a run triggers at L iff its level > L. It
runs once over the flat values; starts outside the prediction year and runs
that cross a segment end are masked off. Training takes each pixel's
largest level (``flag_levels``); batch detection and the online loop take
each pixel's earliest flag date (``scan_window_errors``).

The Mahalanobis covariances and the standardization schemes share one
pooling engine: ``pool_codes`` alone keys an entry in a pool,
``pool_statistics`` hands a statistic each whole pool sorted by key, and
``pool_walk`` serves each entry from the first fallback pool that serves
its key.
"""
from __future__ import annotations

import datetime as dt
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .core import BAND_ORDER, Band, ResidualHistory, SeriesArrays, distinct, segments
from .errors import (
    OutOfRange,
    SingularCovariance,
    WrongWindowLength,
)
from .harmonic import predict_many

MIN_CONSECUTIVE = 2
MAX_CONSECUTIVE = 6

# 5x5 km squares within a site and 5-day periods within the year; the last
# period (index 72) spans days 361-366.
SQUARE_SIDE = 5
N_SQUARES = 25
N_PERIODS = 73

# Cubes with fewer error pairs than this fall back to coarser pooling.
MIN_CUBE_SAMPLES = 10

INDEX = "index"  # the Mahalanobis index's key among the series a rule reads


def periods_of(doys) -> np.ndarray:
    """5-day period index of each day of year."""
    doys = np.asarray(doys, dtype=np.int64)
    bad = (doys < 1) | (doys > 366)
    if bad.any():
        raise OutOfRange(f"day of year {doys[np.argmax(bad)]} outside 1..366")
    return np.minimum((doys - 1) // 5, N_PERIODS - 1)


def cube_codes(cols, rows, doys) -> tuple[np.ndarray, np.ndarray]:
    """(square index, period index) of each pixel-date."""
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    doys = np.asarray(doys, dtype=np.int64)
    off_grid = (cols < 0) | (cols > 24) | (rows < 0) | (rows > 24)
    bad = off_grid | (doys < 1) | (doys > 366)
    if bad.any():
        k = np.argmax(bad)
        if off_grid[k]:
            raise OutOfRange(f"grid position ({cols[k]}, {rows[k]}) outside 0..24")
    squares = (rows // SQUARE_SIDE) * SQUARE_SIDE + (cols // SQUARE_SIDE)
    return squares, periods_of(doys)


def cube_of(col: int, row: int, doy: int) -> tuple[int, int]:
    """(square index, period index) of a pixel-date."""
    squares, periods = cube_codes([col], [row], [doy])
    return int(squares[0]), int(periods[0])


def pool_codes(history: ResidualHistory, pool: str):
    """Small nonnegative integer code of each entry's key in a pool
    ("pixel", "site", "global", "period", "site_period" or "cube"), and the
    function that turns a code back into the key: a pixel or site id, None,
    a period, (site id, period) or (site id, square, period)."""
    if pool == "pixel":
        return history.pixel, history.pixel_ids.__getitem__
    if pool == "site":
        return history.site, history.site_ids.__getitem__
    if pool == "global":
        return np.zeros(len(history), dtype=np.intp), lambda code: None
    if pool == "period":
        return periods_of(history.doy), int
    if pool == "site_period":
        periods = periods_of(history.doy)
        return history.site * N_PERIODS + periods, lambda code: (
            history.site_ids[code // N_PERIODS], code % N_PERIODS
        )
    squares, periods = cube_codes(history.col, history.row, history.doy)
    return (history.site * N_SQUARES + squares) * N_PERIODS + periods, lambda code: (
        history.site_ids[code // (N_SQUARES * N_PERIODS)],
        code // N_PERIODS % N_SQUARES,
        code % N_PERIODS,
    )


def pool_statistics(history: ResidualHistory, pools: Sequence[str], statistic, *columns) -> list:
    """Per pool, ``{key: result}``. A pool is one stable sort by its key
    codes, so each key's entries form a segment in their original order;
    keys come in order of first appearance. ``statistic(starts, stops,
    *columns)`` gets the bounds of every key's segment and ``columns``,
    arrays aligned with ``history``, sorted, and gives one result per key."""
    tables = []
    for pool in pools:
        codes, key_of = pool_codes(history, pool)
        # Sorted as uint16 when every code fits: the same keys give the same
        # stable order, and NumPy sorts 16-bit keys by radix.
        narrow = codes.size and codes.max() <= np.iinfo(np.uint16).max
        order = np.argsort(codes.astype(np.uint16) if narrow else codes, kind="stable")
        keys, starts, stops = segments(codes, order)
        results = statistic(starts, stops, *(column[order] for column in columns))
        tables.append(dict(zip(map(key_of, keys.tolist()), results)))
    return tables


def pool_walk(history: ResidualHistory, levels) -> tuple[np.ndarray, np.ndarray]:
    """For each entry, the row of the first of ``levels``, (pool, {served
    key: row}) pairs, that serves its key, and that level's depth (-1 and
    -1 where none does). A level looks up each distinct key of the entries
    no earlier level served; the walk stops once every entry is served."""
    rows = np.full(len(history), -1, dtype=np.intp)
    depth = np.full(len(history), -1)
    for level, (pool, served) in enumerate(levels):
        unserved = np.flatnonzero(depth < 0)
        if not unserved.size:
            break
        codes, key_of = pool_codes(history, pool)
        codes = codes[unserved]
        # A table by code marks the distinct codes, then holds their rows: np.unique
        # and a search cost several times this (and plain np.unique imports numpy.ma).
        table = np.zeros(codes.max() + 1, dtype=np.intp)
        table[codes] = 1
        keys = np.flatnonzero(table)
        table[keys] = [served.get(key_of(code), -1) for code in keys.tolist()]
        found = table[codes]
        hit = found >= 0
        rows[unserved[hit]] = found[hit]
        depth[unserved[hit]] = level
    return rows, depth


def _check_rule(consecutive: int, *thresholds: float) -> None:
    """Refuse a rule whose thresholds are not all finite and positive or
    whose C lies outside MIN_CONSECUTIVE..MAX_CONSECUTIVE."""
    if not all(0 < threshold < np.inf for threshold in thresholds):  # NaN fails both
        raise OutOfRange("thresholds must be finite and positive" if len(thresholds) > 1
                         else "threshold must be finite and positive")
    if not MIN_CONSECUTIVE <= consecutive <= MAX_CONSECUTIVE:
        raise OutOfRange(
            f"consecutive count {consecutive} outside "
            f"{MIN_CONSECUTIVE}..{MAX_CONSECUTIVE}"
        )


@dataclass(frozen=True)
class UnivariateRule:
    band: Band
    threshold: float
    consecutive: int

    def __post_init__(self):
        _check_rule(self.consecutive, self.threshold)


@dataclass(frozen=True)
class MultivariateRule:
    """NIR and NDVI thresholds combined with the lax OR rule."""

    nir_threshold: float
    ndvi_threshold: float
    consecutive: int

    def __post_init__(self):
        _check_rule(self.consecutive, self.nir_threshold, self.ndvi_threshold)


@dataclass(frozen=True)
class MahalanobisRule:
    threshold: float
    covariances: "CubeCovarianceTable"
    consecutive: int

    def __post_init__(self):
        _check_rule(self.consecutive, self.threshold)


DetectionRule = Union[UnivariateRule, MultivariateRule, MahalanobisRule]


@dataclass(frozen=True)
class DetectionResult:
    pixel_id: str
    flagged: bool
    first_flag_date: Optional[dt.date] = None
    triggering_band: Optional[Band] = None

    def __post_init__(self):
        if self.flagged != (self.first_flag_date is not None):
            raise OutOfRange("first_flag_date must be present exactly when flagged")


# --- rule primitives -------------------------------------------------------


def run_levels(values: np.ndarray, consecutive: int, two_sided: bool = True) -> np.ndarray:
    """Level of the run of C values starting at each index.

    The level is the largest threshold at which the run still triggers:
    ``max(min(run), -max(run))`` for signed errors (two-sided) and
    ``min(run)`` for a one-sided index. A run triggers at L iff its
    level > L.
    """
    n_starts = values.size - consecutive + 1
    if n_starts <= 0:
        return np.empty(0)
    low = values[:n_starts].copy()
    high = low.copy() if two_sided else None
    for k in range(1, consecutive):
        np.minimum(low, values[k : k + n_starts], out=low)
        if two_sided:
            np.maximum(high, values[k : k + n_starts], out=high)
    if two_sided:
        np.maximum(low, -high, out=low)
    return low


def univariate_flag(errors: Sequence[float], threshold: float, consecutive: int) -> bool:
    """True iff all C errors exceed threshold with a common sign."""
    if len(errors) != consecutive:
        raise WrongWindowLength(
            f"expected {consecutive} errors, got {len(errors)}"
        )
    return bool(run_levels(np.asarray(errors, dtype=float), consecutive)[0] > threshold)


def _index_values(eps_nir: np.ndarray, eps_ndvi: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """sqrt(eps' inv(sigma) eps) per date, in closed form for (n, 2, 2) sigmas."""
    s11, s12 = sigmas[:, 0, 0], sigmas[:, 0, 1]
    s21, s22 = sigmas[:, 1, 0], sigmas[:, 1, 1]
    det = s11 * s22 - s12 * s21
    if np.any(s11 <= 0) or np.any(det <= 0):
        raise SingularCovariance("covariance matrix is not positive definite")
    quad = (
        s22 * eps_nir * eps_nir - (s12 + s21) * eps_nir * eps_ndvi + s11 * eps_ndvi * eps_ndvi
    ) / det
    return np.sqrt(np.maximum(quad, 0.0))


def mahalanobis_index(eps_nir: float, eps_ndvi: float, sigma: np.ndarray) -> float:
    """sqrt(eps' inv(sigma) eps) for a 2x2 covariance matrix."""
    sigmas = np.asarray(sigma, dtype=float)[None]
    return float(_index_values(np.array([eps_nir]), np.array([eps_ndvi]), sigmas)[0])


# --- cube covariances ------------------------------------------------------


@dataclass(frozen=True)
class PairedErrorRecord:
    """One historical (NIR, NDVI) prediction-error pair."""

    pixel_id: str
    site_id: str
    col: int
    row: int
    date: dt.date
    doy: int
    eps_nir: float
    eps_ndvi: float


def _matrices(values: np.ndarray) -> np.ndarray:
    """Regularized 2x2 matrices of (var_nir, cov, var_ndvi) rows: a tiny
    ridge keeps each positive definite."""
    var_nir, cov, var_ndvi = np.asarray(values, dtype=float).reshape(-1, 3).T
    trace = var_nir + var_ndvi
    ridge = np.where(trace > 0, 1e-8 * trace / 2.0, 1e-12)
    return np.stack([var_nir + ridge, cov, cov, var_ndvi + ridge], axis=-1).reshape(-1, 2, 2)


@dataclass(frozen=True)
class CovarianceEntry:
    var_nir: float
    cov: float
    var_ndvi: float
    n: int

    def matrix(self) -> np.ndarray:
        """Regularized 2x2 matrix (see ``_matrices``)."""
        return _matrices([self.var_nir, self.cov, self.var_ndvi])[0]


# The covariance pools, most specific first.
COVARIANCE_POOLS = ("cube", "site_period", "site")


@dataclass(frozen=True)
class CubeCovarianceTable:
    """Sample covariances of (NIR, NDVI) errors pooled by space-time cube,
    by site-period and by site: a lookup walks the pools in that order
    (``pool_walk``). A cube serves from ``min_cube_samples`` pairs, a
    site-period or a site from 2. The served matrices are stacked once."""

    cubes: Mapping[tuple[str, int, int], CovarianceEntry]
    site_periods: Mapping[tuple[str, int], CovarianceEntry]
    sites: Mapping[str, CovarianceEntry]
    min_cube_samples: int = MIN_CUBE_SAMPLES

    def __post_init__(self):
        served, rows = self.served_levels(), itertools.count()
        object.__setattr__(self, "_levels",
                           [(pool, dict(zip(table, rows))) for pool, table in served])
        object.__setattr__(self, "_sigmas", _matrices(
            [(e.var_nir, e.cov, e.var_ndvi) for _, table in served for e in table.values()]))

    def levels(self) -> list[tuple[str, Mapping]]:
        """(pool, {key: entry}) of each pool, most specific first."""
        return list(zip(COVARIANCE_POOLS, (self.cubes, self.site_periods, self.sites)))

    def served_levels(self) -> list[tuple[str, dict]]:
        """``levels`` keeping the entries that a lookup serves."""
        return [(pool, {key: e for key, e in table.items()
                        if e.n >= (self.min_cube_samples if pool == "cube" else 2)})
                for pool, table in self.levels()]

    def sigmas(self, contexts: ResidualHistory) -> np.ndarray:
        """The served matrix of each entry's cube (SingularCovariance for a
        site that no pool serves)."""
        rows, _ = pool_walk(contexts, self._levels)
        if (rows < 0).any():
            site = contexts.site_ids[contexts.site[rows < 0].min()]
            raise SingularCovariance(f"no covariance history for site {site!r}")
        return self._sigmas[rows]


@dataclass(frozen=True, eq=False)
class PairedResiduals:
    """(NIR, NDVI) prediction-error pairs: ``nir`` holds the contexts and
    the NIR errors, ``ndvi`` the NDVI error of each entry."""

    nir: ResidualHistory
    ndvi: np.ndarray

    def __len__(self) -> int:
        return len(self.nir)

    @classmethod
    def from_records(cls, records: Iterable[PairedErrorRecord]) -> "PairedResiduals":
        records = list(records)
        nir = ResidualHistory.from_records(records, values=[r.eps_nir for r in records])
        nir = replace(nir, doy=np.array([r.doy for r in records], dtype=np.int64))
        return cls(nir, np.array([r.eps_ndvi for r in records], dtype=float))


def _covariance_entries(starts, stops, nir, ndvi) -> list[CovarianceEntry]:
    """Each segment's ``np.cov(nir, ndvi, ddof=1)``, (0, 0, 0, 1) for one pair.
    The k segments of a length m form a (k, 2, m) stack that takes np.cov's
    operations (mean, centring, a matmul by its transpose, scale), so its bits."""
    sizes = stops - starts
    moments = np.zeros((sizes.size, 2, 2))
    for m in set(sizes.tolist()) - {1}:
        at = np.flatnonzero(sizes == m)
        take = starts[at, None] + np.arange(m)
        x = np.stack([nir[take], ndvi[take]], axis=1)
        x -= x.mean(axis=-1, keepdims=True)
        moments[at] = np.matmul(x, x.transpose(0, 2, 1)) * (1 / (m - 1))
    return list(map(CovarianceEntry, moments[:, 0, 0].tolist(), moments[:, 0, 1].tolist(),
                    moments[:, 1, 1].tolist(), sizes.tolist()))


def estimate_cube_covariances(
    pairs: PairedResiduals | Iterable[PairedErrorRecord],
    min_cube_samples: int = MIN_CUBE_SAMPLES,
) -> CubeCovarianceTable:
    """Pool historical error pairs per cube, per site-period, and per site
    (see ``pool_statistics``): each key gets ``np.cov`` of its pairs in their
    original order, keys of one pair count at once (``_covariance_entries``)."""
    if not isinstance(pairs, PairedResiduals):
        pairs = PairedResiduals.from_records(pairs)
    return CubeCovarianceTable(*pool_statistics(
        pairs.nir, COVARIANCE_POOLS, _covariance_entries, pairs.nir.value, pairs.ndvi
    ), min_cube_samples)


# --- flat errors --------------------------------------------------------------


@dataclass(eq=False)
class FlatErrors:
    """Clear-date prediction errors of many segments, laid end to end.

    A segment is one pixel's dates inside one prediction window (or one
    online run), in date order; segment s ends before entry ``ends[s]`` and
    belongs to pixel number ``pixel[s]``. Segments come pixel by pixel, a
    pixel's in window order. A date enters only if it is clear and every
    band of ``errors`` carries a real value there, so all bands share one
    date axis.
    """

    ordinals: np.ndarray                   # nominal dates as ordinals
    comp_ordinals: np.ndarray              # actual composite-day dates as ordinals
    doys: np.ndarray                       # composite day of year
    start_ok: np.ndarray                   # run may start here (bare year)
    errors: dict[Band, np.ndarray]
    ends: np.ndarray
    pixel: np.ndarray
    index: Optional[np.ndarray] = None     # Mahalanobis index, once filled

    def __len__(self) -> int:
        return self.ordinals.size

    def series(self, key: Union[Band, str]) -> np.ndarray:
        """A band's errors, or the filled index for ``INDEX``."""
        if key == INDEX and self.index is None:
            raise OutOfRange("the errors have no Mahalanobis index; fill it first")
        return self.index if key == INDEX else self.errors[key]

    def entry_pixels(self) -> np.ndarray:
        return np.repeat(self.pixel, np.diff(self.ends, prepend=0))

    @classmethod
    def concat(cls, parts: Sequence["FlatErrors"], pixel_offsets) -> "FlatErrors":
        """The parts end to end, part i's pixel numbers raised by
        ``pixel_offsets[i]``, with the bands and index that every part has."""
        def joined(arrays, dtype=float):
            return np.concatenate(list(arrays)) if parts else np.empty(0, dtype=dtype)

        starts = np.cumsum([0] + [len(part) for part in parts[:-1]])
        return cls(
            *(joined((getattr(part, name) for part in parts), np.int64)
              for name in ("ordinals", "comp_ordinals", "doys")),
            joined((part.start_ok for part in parts), bool),
            {band: joined(part.errors[band] for part in parts)
             for band in (parts[0].errors if parts else BAND_ORDER)
             if all(band in part.errors for part in parts)},
            joined((part.ends + lo for part, lo in zip(parts, starts)), np.int64),
            joined((part.pixel + k for part, k in zip(parts, pixel_offsets)), np.intp),
            joined(part.index for part in parts)
            if all(part.index is not None for part in parts) else None,
        )


def WindowErrors(ordinals, comp_ordinals, doys, start_ok, errors, index=None) -> FlatErrors:
    """One segment, of pixel 0: a pixel's errors inside one window."""
    return FlatErrors(ordinals, comp_ordinals, doys, np.asarray(start_ok, dtype=bool),
                      dict(errors), np.array([len(ordinals)]), np.zeros(1, dtype=np.intp), index)


def rule_series(rule: DetectionRule) -> list[tuple[Union[Band, str], float]]:
    """(series, threshold) of each series a rule reads, a band or ``INDEX`` (one-sided
    runs: the index is nonnegative); a pixel flags when a run of any triggers."""
    if isinstance(rule, UnivariateRule):
        return [(rule.band, rule.threshold)]
    if isinstance(rule, MultivariateRule):
        return [(Band.NIR, rule.nir_threshold), (Band.NDVI, rule.ndvi_threshold)]
    return [(INDEX, rule.threshold)]


def rule_bands(rule: DetectionRule) -> tuple[Band, ...]:
    if isinstance(rule, UnivariateRule):
        return (rule.band,)
    return (Band.NIR, Band.NDVI)


def stack_errors(stack: SeriesArrays, coeffs: np.ndarray, bounds: np.ndarray,
                 bands: Sequence[Band]) -> FlatErrors:
    """Prediction errors of every (pixel, window) segment of a stack.

    ``stack`` holds the series as (pixel, date) arrays and ``coeffs``
    (pixel, window, band, 5) the models of ``bands``. ``bounds``,
    broadcastable to (pixel, window, 4), holds the first and last ordinal
    of each window's dates, then of the dates its runs may start on.
    """
    values = stack.values[:, :, [BAND_ORDER.index(band) for band in bands]]
    usable = stack.clear & ~np.isnan(values).any(axis=2)
    first, last, year_first, year_last = np.moveaxis(
        np.broadcast_to(bounds, (*coeffs.shape[:2], 4)), -1, 0
    )
    dates = stack.ordinals[:, None, :]
    inside = usable[:, None, :] & (dates >= first[:, :, None]) & (dates <= last[:, :, None])
    k, w, j = np.nonzero(inside)
    ordinals, doys = stack.ordinals[k, j], stack.doys[k, j]
    return FlatErrors(
        ordinals, stack.comp_ordinals[k, j], doys,
        (ordinals >= year_first[k, w]) & (ordinals <= year_last[k, w]),
        {band: values[k, j, b] - predict_many(coeffs[k, w, b], doys)
         for b, band in enumerate(bands)},
        np.cumsum(inside.sum(axis=2).ravel()), np.repeat(np.arange(len(inside)), inside.shape[1]),
    )


def mahalanobis_series(
    errors: FlatErrors,
    table: CubeCovarianceTable,
    site_ids: Sequence[str],
    cols: Sequence[int],
    rows: Sequence[int],
) -> np.ndarray:
    """Index value at each entry, with the covariance that the table serves
    for the entry's cube: pixel k lies at (cols[k], rows[k]) in site
    site_ids[k]."""
    pixel = errors.entry_pixels()
    ids, site = distinct(site_ids)
    contexts = ResidualHistory(
        tuple(range(len(site))), tuple(ids), pixel, site[pixel],
        np.asarray(cols, dtype=np.int64)[pixel], np.asarray(rows, dtype=np.int64)[pixel],
        errors.comp_ordinals, errors.doys, errors.errors[Band.NIR],
    )
    return _index_values(errors.errors[Band.NIR], errors.errors[Band.NDVI], table.sigmas(contexts))


# --- run scanning ----------------------------------------------------------


def _run_starts(errors: FlatErrors, consecutive: int) -> np.ndarray:
    """Whether a run may start at each of the first N - C + 1 entries: the
    entry is an allowed start, and the run ends inside its segment."""
    n_starts = max(len(errors) - consecutive + 1, 0)
    segment_end = np.repeat(errors.ends, np.diff(errors.ends, prepend=0))[:n_starts]
    return errors.start_ok[:n_starts] & (np.arange(n_starts) + consecutive <= segment_end)


def flag_levels(
    errors: FlatErrors, values: np.ndarray, consecutive: int, two_sided: bool, n_pixels: int
) -> np.ndarray:
    """Each pixel's largest run level of ``values`` over its allowed
    starts, -inf without one. A run holding NaN has a NaN level, which the
    maximum skips, as the scan never flags on such a run.

    A pixel triggers at threshold L exactly when its level > L, which lets
    threshold sweeps reuse one pass over the data.
    """
    found = run_levels(values, consecutive, two_sided)
    levels = np.full(len(errors) + 1, -np.inf)
    ok = np.flatnonzero(_run_starts(errors, consecutive))
    levels[ok] = found[ok]
    bounds = np.r_[0, errors.ends][np.searchsorted(errors.pixel, np.arange(n_pixels + 1))]
    out = np.fmax.reduceat(levels, bounds[:-1])
    out[bounds[:-1] == bounds[1:]] = -np.inf
    return out


def scan_window_errors(
    errors: FlatErrors, rule: DetectionRule, n_pixels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rule evaluation over precomputed (possibly standardized) errors; the
    Mahalanobis rule reads the filled index.

    Returns each pixel's flag date as an ordinal (0 where it does not
    flag) and its triggering band (-1 where none is reported; only the
    multivariate rule reports one). The flag date is the last date of the
    earliest triggering run over all of the pixel's segments; on an equal
    date the earlier segment wins, then NIR over NDVI.
    """
    series = rule_series(rule)
    c = rule.consecutive
    ok = _run_starts(errors, c)
    hits = [np.flatnonzero((run_levels(errors.series(key), c, key != INDEX) > threshold) & ok)
            for key, threshold in series]
    starts = np.concatenate(hits)
    bands = np.repeat([int(key) if len(series) > 1 else -1 for key, _ in series],
                      [h.size for h in hits])
    dates = errors.ordinals[starts + c - 1]
    pixel = errors.entry_pixels()[starts]
    order = np.lexsort((bands, starts, dates, pixel))
    flagged, first = np.unique(pixel[order], return_index=True)
    flag_dates = np.zeros(n_pixels, dtype=np.int64)
    flag_bands = np.full(n_pixels, -1)
    flag_dates[flagged] = dates[order[first]]
    flag_bands[flagged] = bands[order[first]]
    return flag_dates, flag_bands
