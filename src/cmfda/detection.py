"""Consecutive-violation deforestation detection.

A pixel is flagged when, inside some prediction window, C consecutive
clear-date prediction errors of the same sign all exceed the threshold.
Cloudy dates are skipped, not counted: a run is C consecutive entries of
the pixel's clear-date error sequence. Runs may start at any clear date
of the bare prediction year and finish inside the 120-day extension.

Three rule forms are supported: a single band against one threshold, the
NIR/NDVI pair against two thresholds combined with an OR, and a local
Mahalanobis distance of the (NIR, NDVI) error pair against one threshold.

The index is error data, not rule logic: the code that knows a pixel's
site, grid position and covariance table computes it once per window
(``fill_index``) and stores it beside the band errors, so every rule
scans plain series.

All three rest on one kernel, ``run_levels``: the level of a run is the
largest threshold at which it still triggers, ``max(min(run), -max(run))``
for signed errors and ``min(run)`` for the nonnegative index, and a run
triggers at L iff its level > L. Training sweeps thresholds over the
levels (``flag_level``), batch detection takes the first allowed start
above L (``scan_window_errors``), and the online loop scans its trailing
run with the same ``scan_window_errors``.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .core import BAND_ORDER, Band, PixelSeries, ResidualHistory, SeriesArrays, segments
from .errors import (
    NoModels,
    OutOfRange,
    SingularCovariance,
    WrongWindowLength,
)
from .harmonic import HarmonicModel, predict_many
from .windows import WindowPair

MIN_CONSECUTIVE = 2
MAX_CONSECUTIVE = 6

# 5x5 km squares within a site and 5-day periods within the year; the last
# period (index 72) spans days 361-366.
SQUARE_SIDE = 5
N_SQUARES = 25
N_PERIODS = 73

# Cubes with fewer error pairs than this fall back to coarser pooling.
MIN_CUBE_SAMPLES = 10


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


def period_of(doy: int) -> int:
    return int(periods_of([doy])[0])


def cube_of(col: int, row: int, doy: int) -> tuple[int, int]:
    """(square index, period index) of a pixel-date."""
    squares, periods = cube_codes([col], [row], [doy])
    return int(squares[0]), int(periods[0])


def pool_codes(history: ResidualHistory, pool: str):
    """Integer code of each entry's key in a pool ("pixel", "site",
    "global", "period", "site_period" or "cube"), and the function that
    turns a code back into the key: a pixel or site id, None, a period,
    (site id, period) or (site id, square, period)."""
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


def _check_consecutive(consecutive: int) -> None:
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
        if self.threshold <= 0:
            raise OutOfRange("threshold must be positive")
        _check_consecutive(self.consecutive)


@dataclass(frozen=True)
class MultivariateRule:
    """NIR and NDVI thresholds combined with the lax OR rule."""

    nir_threshold: float
    ndvi_threshold: float
    consecutive: int

    def __post_init__(self):
        if self.nir_threshold <= 0 or self.ndvi_threshold <= 0:
            raise OutOfRange("thresholds must be positive")
        _check_consecutive(self.consecutive)


@dataclass(frozen=True)
class MahalanobisRule:
    threshold: float
    covariances: "CubeCovarianceTable"
    consecutive: int

    def __post_init__(self):
        if self.threshold <= 0:
            raise OutOfRange("threshold must be positive")
        _check_consecutive(self.consecutive)


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


def multivariate_flag(
    errors_nir: Sequence[float],
    errors_ndvi: Sequence[float],
    nir_threshold: float,
    ndvi_threshold: float,
    consecutive: int,
) -> bool:
    """Lax OR of the NIR and NDVI runs."""
    return univariate_flag(errors_nir, nir_threshold, consecutive) | univariate_flag(
        errors_ndvi, ndvi_threshold, consecutive
    )


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


@dataclass(frozen=True)
class CovarianceEntry:
    var_nir: float
    cov: float
    var_ndvi: float
    n: int

    def matrix(self) -> np.ndarray:
        """Regularized 2x2 matrix: a tiny ridge keeps it positive definite."""
        trace = self.var_nir + self.var_ndvi
        ridge = 1e-8 * trace / 2.0 if trace > 0 else 1e-12
        return np.array(
            [[self.var_nir + ridge, self.cov], [self.cov, self.var_ndvi + ridge]]
        )


@dataclass(frozen=True)
class CubeCovarianceTable:
    """Sample covariances of (NIR, NDVI) errors pooled by space-time cube.

    Sparse cubes fall back to the site-period pool, then to the site-wide
    pool across all periods.
    """

    cubes: Mapping[tuple[str, int, int], CovarianceEntry]
    site_periods: Mapping[tuple[str, int], CovarianceEntry]
    sites: Mapping[str, CovarianceEntry]
    min_cube_samples: int = MIN_CUBE_SAMPLES

    def matrix_for(self, site_id: str, square: int, period: int) -> np.ndarray:
        entry = self.cubes.get((site_id, square, period))
        if entry is not None and entry.n >= self.min_cube_samples:
            return entry.matrix()
        entry = self.site_periods.get((site_id, period))
        if entry is not None and entry.n >= 2:
            return entry.matrix()
        entry = self.sites.get(site_id)
        if entry is not None and entry.n >= 2:
            return entry.matrix()
        raise SingularCovariance(f"no covariance history for site {site_id!r}")


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


def _entry_from_pairs(nir: np.ndarray, ndvi: np.ndarray) -> CovarianceEntry:
    n = nir.size
    if n < 2:
        return CovarianceEntry(0.0, 0.0, 0.0, n)
    cov = np.cov(nir, ndvi, ddof=1)
    return CovarianceEntry(float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]), n)


def estimate_cube_covariances(
    pairs: PairedResiduals | Iterable[PairedErrorRecord],
    min_cube_samples: int = MIN_CUBE_SAMPLES,
) -> CubeCovarianceTable:
    """Pool historical error pairs per cube, per site-period, and per site.

    Each pool is one stable sort by its integer key code; every key, in
    order of first appearance, gets ``np.cov`` of its contiguous segment,
    which holds the key's pairs in their original order.
    """
    if not isinstance(pairs, PairedResiduals):
        pairs = PairedResiduals.from_records(pairs)
    tables = []
    for pool in ("cube", "site_period", "site"):
        codes, key_of = pool_codes(pairs.nir, pool)
        order = np.argsort(codes, kind="stable")
        nir, ndvi = pairs.nir.value[order], pairs.ndvi[order]
        tables.append({
            key_of(code): _entry_from_pairs(nir[lo:hi], ndvi[lo:hi])
            for code, lo, hi in segments(codes, order)
        })
    cubes, site_periods, sites = tables
    return CubeCovarianceTable(
        cubes=cubes, site_periods=site_periods, sites=sites, min_cube_samples=min_cube_samples
    )


# --- per-window error extraction -------------------------------------------


@dataclass
class WindowErrors:
    """Clear-date prediction errors of one pixel inside one window, and
    the Mahalanobis index of the (NIR, NDVI) pairs once it is filled."""

    window_index: int
    dates: list[dt.date]                   # nominal dates
    composite_dates: list[dt.date]         # actual composite-day dates
    doys: np.ndarray
    start_ok: np.ndarray                   # run may start here (bare year)
    errors: dict[Band, np.ndarray] = field(default_factory=dict)
    index: Optional[np.ndarray] = None     # Mahalanobis index, once filled


def rule_bands(rule: DetectionRule) -> tuple[Band, ...]:
    if isinstance(rule, UnivariateRule):
        return (rule.band,)
    return (Band.NIR, Band.NDVI)


def extract_errors_from_arrays(
    pixel_id: str,
    arrays: SeriesArrays,
    models: Mapping[int, Mapping[Band, HarmonicModel]],
    windows: Sequence[WindowPair],
    bands: Sequence[Band],
) -> list[WindowErrors]:
    """Prediction errors over each extended prediction window.

    A date enters the sequence only if the observation is clear and every
    requested band carries a real (non-fill) value, so all band sequences
    share one date axis.
    """
    band_cols = [BAND_ORDER.index(b) for b in bands]
    out = []
    for wp in windows:
        band_models = models.get(wp.index)
        if band_models is None or any(b not in band_models for b in bands):
            raise NoModels(f"pixel {pixel_id!r}: no model for window {wp.index}")
        mask = (
            arrays.clear
            & (arrays.ordinals >= wp.predict.start.toordinal())
            & (arrays.ordinals <= wp.predict.end.toordinal())
        )
        for col in band_cols:
            mask &= ~np.isnan(arrays.values[:, col])
        idx = np.flatnonzero(mask)
        ordinals = arrays.ordinals[idx]
        we = WindowErrors(
            window_index=wp.index,
            dates=[dt.date.fromordinal(int(o)) for o in ordinals],
            composite_dates=[
                dt.date.fromordinal(int(o)) for o in arrays.comp_ordinals[idx]
            ],
            doys=arrays.doys[idx].astype(float),
            start_ok=(ordinals >= wp.predict_year.start.toordinal())
            & (ordinals <= wp.predict_year.end.toordinal()),
        )
        for band, col in zip(bands, band_cols):
            predicted = predict_many(band_models[band].coeff_array(), arrays.doys[idx])
            we.errors[band] = arrays.values[idx, col] - predicted
        out.append(we)
    return out


def extract_window_errors(
    series: PixelSeries,
    models: Mapping[int, Mapping[Band, HarmonicModel]],
    windows: Sequence[WindowPair],
    bands: Sequence[Band],
) -> list[WindowErrors]:
    return extract_errors_from_arrays(
        series.pixel_id, series.to_arrays(), models, windows, bands
    )


def mahalanobis_series(
    we: WindowErrors,
    table: CubeCovarianceTable,
    site_id: str,
    col: int,
    row: int,
) -> np.ndarray:
    """Index value at each date of the window, using the date's cube.

    The pixel's square is fixed, so the covariance is looked up once per
    distinct period of the window.
    """
    if not we.dates:
        return np.empty(0)
    n = len(we.dates)
    squares, periods = cube_codes(np.full(n, col), np.full(n, row), we.doys.astype(np.int64))
    _, first, inverse = np.unique(periods, return_index=True, return_inverse=True)
    sigmas = np.array([
        table.matrix_for(site_id, int(squares[i]), int(periods[i])) for i in first.tolist()
    ])
    return _index_values(we.errors[Band.NIR], we.errors[Band.NDVI], sigmas[inverse])


def fill_index(
    wes_list: Sequence[WindowErrors], rule: DetectionRule,
    site_id: Optional[str], col: int, row: int,
) -> None:
    """Store each window's index series when the rule scans it."""
    if not isinstance(rule, MahalanobisRule):
        return
    if site_id is None:
        raise OutOfRange("Mahalanobis detection requires a site_id")
    for we in wes_list:
        we.index = mahalanobis_series(we, rule.covariances, site_id, col, row)


def index_series(we: WindowErrors) -> np.ndarray:
    """The window's stored index series."""
    if we.index is None:
        raise OutOfRange(f"window {we.window_index} has no Mahalanobis index; fill it first")
    return we.index


# --- run scanning ----------------------------------------------------------


def flag_level(
    values: np.ndarray,
    start_ok: np.ndarray,
    consecutive: int,
    two_sided: bool = True,
) -> float:
    """Largest run level over the allowed starts.

    The sequence triggers at threshold L exactly when flag_level > L,
    which lets threshold sweeps reuse one pass over the data.
    """
    levels = run_levels(values, consecutive, two_sided)
    levels = levels[start_ok[: levels.size]]
    return float(levels.max()) if levels.size else -math.inf


def detect_pixel(
    series: PixelSeries,
    models: Mapping[int, Mapping[Band, HarmonicModel]],
    rule: DetectionRule,
    windows: Sequence[WindowPair],
    site_id: Optional[str] = None,
) -> DetectionResult:
    """Apply the rule over every prediction window of one pixel.

    The flag date is the last date of the earliest triggering run
    (detection time, not event time).
    """
    wes = extract_window_errors(series, models, windows, rule_bands(rule))
    fill_index(wes, rule, site_id, series.col, series.row)
    return scan_window_errors(wes, rule, pixel_id=series.pixel_id)


def _rule_series(
    we: WindowErrors, rule: DetectionRule
) -> list[tuple[Optional[Band], np.ndarray, float, bool]]:
    """(reported band, values, threshold, two_sided) for each sequence the
    rule scans; only the multivariate rule reports a triggering band."""
    if isinstance(rule, UnivariateRule):
        return [(None, we.errors[rule.band], rule.threshold, True)]
    if isinstance(rule, MultivariateRule):
        return [
            (Band.NIR, we.errors[Band.NIR], rule.nir_threshold, True),
            (Band.NDVI, we.errors[Band.NDVI], rule.ndvi_threshold, True),
        ]
    # The index is nonnegative, so only the "> L" side can fire.
    return [(None, index_series(we), rule.threshold, False)]


def scan_window_errors(
    wes_list: Sequence[WindowErrors], rule: DetectionRule, *, pixel_id: str
) -> DetectionResult:
    """Rule evaluation over precomputed (possibly standardized) errors; the
    Mahalanobis rule reads each window's filled index.

    In each window the earliest allowed start whose run level exceeds the
    threshold wins; NIR wins a tie with NDVI.
    """
    c = rule.consecutive
    best_date: Optional[dt.date] = None
    best_band: Optional[Band] = None
    for we in wes_list:
        start: Optional[int] = None
        band_hit: Optional[Band] = None
        for band, values, threshold, two_sided in _rule_series(we, rule):
            levels = run_levels(values, c, two_sided)
            hits = np.flatnonzero((levels > threshold) & we.start_ok[: levels.size])
            if hits.size and (start is None or hits[0] < start):
                start, band_hit = int(hits[0]), band
        if start is not None:
            flag_date = we.dates[start + c - 1]
            if best_date is None or flag_date < best_date:
                best_date = flag_date
                best_band = band_hit
    if best_date is None:
        return DetectionResult(pixel_id=pixel_id, flagged=False)
    return DetectionResult(
        pixel_id=pixel_id,
        flagged=True,
        first_flag_date=best_date,
        triggering_band=best_band,
    )
