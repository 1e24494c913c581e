"""Site-scale orchestration: parallel fitting and detection, residual
histories for standardizers and cube covariances, training datasets, and
the online monitoring loop.

Work is distributed over pixels with a process pool; every worker input is
a compact numpy bundle, so nothing mutable is shared.
"""
from __future__ import annotations

import datetime as dt
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import BAND_ORDER, Band, PixelSeries, SeriesArrays
from .detection import (
    DetectionResult,
    DetectionRule,
    PairedErrorRecord,
    WindowErrors,
    extract_errors_from_arrays,
    rule_bands,
    scan_window_errors,
)
from .errors import InsufficientData, NoModels, RankDeficient
from .harmonic import MIN_OBS, HarmonicModel, fit_arrays, predict_many
from .standardize import ErrorContext, ErrorRecord, Standardizer, transform
from .training import PixelTrainingData
from .windows import PREDICT_EXTENSION_DAYS, WindowPair


@dataclass
class CompactPixel:
    """Pickle-friendly form of one pixel series."""

    pixel_id: str
    col: int
    row: int
    arrays: SeriesArrays


def compact_pixels(pixels: Sequence[PixelSeries]) -> list[CompactPixel]:
    return [CompactPixel(p.pixel_id, p.col, p.row, p.to_arrays()) for p in pixels]


def default_workers() -> int:
    return os.cpu_count() or 1


# Payload shared with forked workers: set in the parent immediately before
# the pool is created, inherited copy-on-write, so nothing is pickled per
# task except index ranges and small results.
_SHARED: dict = {}


def _ranges(n_items: int, workers: int) -> list[tuple[int, int]]:
    n_chunks = max(1, min(n_items, workers))
    size = (n_items + n_chunks - 1) // n_chunks
    return [(lo, min(lo + size, n_items)) for lo in range(0, n_items, size)]


def _run_parallel(worker, payload, n_items: int, workers: int, static):
    _SHARED["payload"] = payload
    try:
        if workers <= 1 or n_items <= 1:
            return [worker((0, n_items, static))]
        args = [(lo, hi, static) for lo, hi in _ranges(n_items, workers)]
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            return [worker(a) for a in args]
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return list(pool.map(worker, args))
    finally:
        _SHARED.pop("payload", None)


# --- fitting ------------------------------------------------------------------


@dataclass(frozen=True)
class SkipRecord:
    pixel_id: str
    window_index: int
    band: Band
    reason: str


@dataclass
class FitResult:
    """Per-window model tables plus the pixels that could not be fitted."""

    models: dict[int, dict[tuple[str, Band], HarmonicModel]]
    skipped: list[SkipRecord] = field(default_factory=list)

    def for_pixel(self, pixel_id: str) -> dict[int, dict[Band, HarmonicModel]]:
        out: dict[int, dict[Band, HarmonicModel]] = {}
        for window_index, table in self.models.items():
            per_band = {
                band: model
                for (pid, band), model in table.items()
                if pid == pixel_id
            }
            if per_band:
                out[window_index] = per_band
        return out


def _fit_chunk(args):
    lo, hi, (window_bounds, bands, min_obs) = args
    chunk = _SHARED["payload"][lo:hi]
    rows = []       # (window_index, pixel_index, band, coeffs, n_obs)
    skipped = []    # (pixel_index, window_index, band, reason)
    for offset, cp in enumerate(chunk):
        a = cp.arrays
        for window_index, (start_ord, end_ord, start_date, end_date) in window_bounds:
            in_window = a.clear & (a.ordinals >= start_ord) & (a.ordinals <= end_ord)
            for band in bands:
                col = BAND_ORDER.index(band)
                mask = in_window & ~np.isnan(a.values[:, col])
                try:
                    model = fit_arrays(
                        a.doys[mask].astype(float),
                        a.values[mask, col],
                        band=band,
                        pixel_id=cp.pixel_id,
                        train_window=(start_date, end_date),
                        min_obs=min_obs,
                    )
                except (InsufficientData, RankDeficient) as exc:
                    skipped.append((lo + offset, window_index, band, exc.__class__.__name__))
                    continue
                rows.append((window_index, lo + offset, band, model.coeffs, model.n_obs))
    return rows, skipped


def fit_pixels(
    pixels: Sequence[PixelSeries] | Sequence[CompactPixel],
    windows: Sequence[WindowPair],
    bands: Sequence[Band] = BAND_ORDER,
    *,
    min_obs: int = MIN_OBS,
    workers: int = 1,
) -> FitResult:
    """Fit every (pixel, band) over each training window."""
    compact = _ensure_compact(pixels)
    window_bounds = [
        (
            wp.index,
            (
                wp.train.start.toordinal(),
                wp.train.end.toordinal(),
                wp.train.start,
                wp.train.end,
            ),
        )
        for wp in windows
    ]
    train_by_index = {wp.index: (wp.train.start, wp.train.end) for wp in windows}
    static = (window_bounds, tuple(bands), min_obs)
    result = FitResult(models={wp.index: {} for wp in windows})
    for rows, skipped in _run_parallel(_fit_chunk, compact, len(compact), workers, static):
        for window_index, pixel_index, band, coeffs, n_obs in rows:
            cp = compact[pixel_index]
            result.models[window_index][(cp.pixel_id, band)] = HarmonicModel(
                band=band,
                pixel_id=cp.pixel_id,
                coeffs=coeffs,
                train_window=train_by_index[window_index],
                n_obs=n_obs,
            )
        for pixel_index, window_index, band, reason in skipped:
            result.skipped.append(
                SkipRecord(compact[pixel_index].pixel_id, window_index, band, reason)
            )
    return result


def _ensure_compact(pixels) -> list[CompactPixel]:
    if pixels and isinstance(pixels[0], CompactPixel):
        return list(pixels)
    return compact_pixels(pixels)


# --- residual histories ---------------------------------------------------------


def training_residuals(
    pixels: Sequence[PixelSeries] | Sequence[CompactPixel],
    fit: FitResult,
    windows: Sequence[WindowPair],
    bands: Sequence[Band],
    site_id: str,
) -> dict[Band, list[ErrorRecord]]:
    """In-sample residuals over the training windows, per band.

    Each observation contributes once, through the earliest window whose
    training interval contains it.
    """
    compact = _ensure_compact(pixels)
    out: dict[Band, list[ErrorRecord]] = {band: [] for band in bands}
    for cp in compact:
        a = cp.arrays
        used = np.zeros(a.ordinals.size, dtype=bool)
        for wp in windows:
            table = fit.models.get(wp.index, {})
            in_window = (
                a.clear
                & ~used
                & (a.ordinals >= wp.train.start.toordinal())
                & (a.ordinals <= wp.train.end.toordinal())
            )
            fresh = np.flatnonzero(in_window)
            if not fresh.size:
                continue
            claimed = False
            for band in bands:
                model = table.get((cp.pixel_id, band))
                if model is None:
                    continue
                claimed = True
                col = BAND_ORDER.index(band)
                idx = fresh[~np.isnan(a.values[fresh, col])]
                if not idx.size:
                    continue
                predicted = predict_many(model.coeff_array(), a.doys[idx].astype(float))
                residuals = a.values[idx, col] - predicted
                for k, value in zip(idx, residuals):
                    out[band].append(
                        ErrorRecord(
                            pixel_id=cp.pixel_id,
                            site_id=site_id,
                            col=cp.col,
                            row=cp.row,
                            date=dt.date.fromordinal(int(a.comp_ordinals[k])),
                            value=float(value),
                        )
                    )
            if claimed:
                used[fresh] = True
    return out


def paired_residual_records(
    histories: Mapping[Band, Sequence[ErrorRecord]]
) -> list[PairedErrorRecord]:
    """Join NIR and NDVI residual histories on (pixel, date)."""
    ndvi_by_key = {
        (r.pixel_id, r.date): r for r in histories.get(Band.NDVI, [])
    }
    pairs = []
    for r in histories.get(Band.NIR, []):
        other = ndvi_by_key.get((r.pixel_id, r.date))
        if other is None:
            continue
        pairs.append(
            PairedErrorRecord(
                pixel_id=r.pixel_id,
                site_id=r.site_id,
                col=r.col,
                row=r.row,
                date=r.date,
                doy=r.date.timetuple().tm_yday,
                eps_nir=r.value,
                eps_ndvi=other.value,
            )
        )
    return pairs


# --- detection --------------------------------------------------------------------


def standardize_window_errors(
    wes_list: Sequence[WindowErrors],
    standardizers: Mapping[Band, Standardizer],
    pixel_id: str,
    site_id: str,
    col: int,
    row: int,
) -> list[WindowErrors]:
    """Transformed copies of the error sequences (identity when no
    standardizer covers a band)."""
    out = []
    for we in wes_list:
        transformed = WindowErrors(
            window_index=we.window_index,
            dates=we.dates,
            composite_dates=we.composite_dates,
            doys=we.doys,
            start_ok=we.start_ok,
        )
        for band, values in we.errors.items():
            std = standardizers.get(band)
            if std is None:
                transformed.errors[band] = values
                continue
            transformed.errors[band] = np.array(
                [
                    transform(
                        std,
                        float(v),
                        ErrorContext(pixel_id, site_id, col, row, date),
                    )
                    for v, date in zip(values, we.composite_dates)
                ]
            )
        out.append(transformed)
    return out


def _detect_chunk(args):
    lo, hi, (windows, rule, site_id, standardizers) = args
    compact, models_by_pixel = _SHARED["payload"]
    bands = rule_bands(rule)
    results = []
    skipped = []
    for cp in compact[lo:hi]:
        try:
            wes = extract_errors_from_arrays(
                cp.pixel_id, cp.arrays, models_by_pixel.get(cp.pixel_id, {}), windows, bands
            )
        except NoModels:
            skipped.append(cp.pixel_id)
            continue
        if standardizers:
            wes = standardize_window_errors(
                wes, standardizers, cp.pixel_id, site_id, cp.col, cp.row
            )
        results.append(
            scan_window_errors(
                wes, rule, pixel_id=cp.pixel_id, site_id=site_id,
                col=cp.col, row=cp.row,
            )
        )
    return results, skipped


def detect_pixels(
    pixels: Sequence[PixelSeries] | Sequence[CompactPixel],
    fit: FitResult,
    rule: DetectionRule,
    windows: Sequence[WindowPair],
    site_id: str,
    standardizers: Optional[Mapping[Band, Standardizer]] = None,
    *,
    workers: int = 1,
) -> tuple[list[DetectionResult], list[str]]:
    """Apply one rule to every pixel; returns results plus skipped pixels
    (those missing a model for some window)."""
    compact = _ensure_compact(pixels)
    models_by_pixel: dict[str, dict[int, dict[Band, HarmonicModel]]] = {}
    for window_index, table in fit.models.items():
        for (pid, band), model in table.items():
            models_by_pixel.setdefault(pid, {}).setdefault(window_index, {})[band] = model
    static = (tuple(windows), rule, site_id, standardizers)
    results: list[DetectionResult] = []
    skipped: list[str] = []
    for chunk_results, chunk_skipped in _run_parallel(
        _detect_chunk, (compact, models_by_pixel), len(compact), workers, static
    ):
        results.extend(chunk_results)
        skipped.extend(chunk_skipped)
    return results, skipped


# --- training dataset ----------------------------------------------------------


def build_training_dataset(
    pixels: Sequence[PixelSeries] | Sequence[CompactPixel],
    fit: FitResult,
    windows: Sequence[WindowPair],
    labels: Mapping[str, int],
    site_id: str,
    bands: Sequence[Band] = (Band.NIR, Band.NDVI),
    standardizers: Optional[Mapping[Band, Standardizer]] = None,
) -> tuple[list[PixelTrainingData], list[str]]:
    """Labelled per-pixel error series for the optimizers."""
    compact = _ensure_compact(pixels)
    dataset = []
    skipped = []
    for cp in compact:
        try:
            wes = extract_errors_from_arrays(
                cp.pixel_id, cp.arrays, fit.for_pixel(cp.pixel_id), windows, bands
            )
        except NoModels:
            skipped.append(cp.pixel_id)
            continue
        if standardizers:
            wes = standardize_window_errors(
                wes, standardizers, cp.pixel_id, site_id, cp.col, cp.row
            )
        dataset.append(
            PixelTrainingData(
                pixel_id=cp.pixel_id,
                site_id=site_id,
                col=cp.col,
                row=cp.row,
                label=labels[cp.pixel_id],
                window_errors=wes,
            )
        )
    return dataset, skipped


# --- online loop -----------------------------------------------------------------


def _two_years_before(date: dt.date) -> dt.date:
    try:
        return date.replace(year=date.year - 2)
    except ValueError:  # Feb 29
        return date.replace(year=date.year - 2, day=28)


@dataclass
class OnlineOutcome:
    newly_flagged: dict[str, dt.date]
    models: dict[tuple[str, Band], HarmonicModel]


def online_process_batch(
    pixels: Sequence[CompactPixel],
    batch_date: dt.date,
    rule: DetectionRule,
    monitor_year: int,
    already_flagged: Mapping[str, dt.date],
    *,
    site_id: str = "",
    min_obs: int = MIN_OBS,
) -> OnlineOutcome:
    """One step of the online loop for a new nominal date.

    For each still-monitored pixel whose new observation is clear: take the
    last C clear observations ending at the new one, refit the harmonic
    models on the two years before the run start, and apply the rule to
    the run's prediction errors. The run must start inside the monitored
    year.
    """
    bands = rule_bands(rule)
    consecutive = rule.consecutive
    batch_ord = batch_date.toordinal()
    newly: dict[str, dt.date] = {}
    fitted: dict[tuple[str, Band], HarmonicModel] = {}
    for cp in pixels:
        if cp.pixel_id in already_flagged:
            continue
        a = cp.arrays
        usable = a.clear & (a.ordinals <= batch_ord)
        for band in bands:
            usable &= ~np.isnan(a.values[:, BAND_ORDER.index(band)])
        idx = np.flatnonzero(usable)
        if idx.size < consecutive or a.ordinals[idx[-1]] != batch_ord:
            continue
        run = idx[-consecutive:]
        start_date = dt.date.fromordinal(int(a.ordinals[run[0]]))
        if start_date.year != monitor_year:
            continue
        train_start = _two_years_before(start_date).toordinal()
        train = idx[(a.ordinals[idx] >= train_start) & (a.ordinals[idx] < a.ordinals[run[0]])]
        if train.size < min_obs:
            continue
        run_errors = WindowErrors(
            window_index=0,
            dates=[dt.date.fromordinal(int(o)) for o in a.ordinals[run]],
            composite_dates=[dt.date.fromordinal(int(o)) for o in a.comp_ordinals[run]],
            doys=a.doys[run].astype(float),
            start_ok=np.arange(consecutive) == 0,
        )
        for band in bands:
            col = BAND_ORDER.index(band)
            try:
                model = fit_arrays(
                    a.doys[train].astype(float),
                    a.values[train, col],
                    band=band,
                    pixel_id=cp.pixel_id,
                    train_window=(
                        dt.date.fromordinal(int(train_start)),
                        start_date,
                    ),
                    min_obs=min_obs,
                )
            except (InsufficientData, RankDeficient):
                break
            fitted[(cp.pixel_id, band)] = model
            predicted = predict_many(model.coeff_array(), run_errors.doys)
            run_errors.errors[band] = a.values[run, col] - predicted
        else:
            result = scan_window_errors(
                [run_errors], rule, pixel_id=cp.pixel_id, site_id=site_id,
                col=cp.col, row=cp.row,
            )
            if result.flagged:
                newly[cp.pixel_id] = batch_date
    return OnlineOutcome(newly_flagged=newly, models=fitted)


def online_replay(
    pixels: Sequence[PixelSeries] | Sequence[CompactPixel],
    rule: DetectionRule,
    monitor_year: int,
    *,
    site_id: str = "",
    min_obs: int = MIN_OBS,
) -> dict[str, dt.date]:
    """Replay the online loop over a monitored year plus its extension."""
    compact = _ensure_compact(pixels)
    last = dt.date(monitor_year, 12, 31) + dt.timedelta(days=PREDICT_EXTENSION_DAYS)
    all_ordinals = sorted(
        {
            int(o)
            for cp in compact
            for o in cp.arrays.ordinals
            if dt.date(monitor_year, 1, 1).toordinal() <= o <= last.toordinal()
        }
    )
    flagged: dict[str, dt.date] = {}
    for ordinal in all_ordinals:
        outcome = online_process_batch(
            compact,
            dt.date.fromordinal(ordinal),
            rule,
            monitor_year,
            flagged,
            site_id=site_id,
            min_obs=min_obs,
        )
        flagged.update(outcome.newly_flagged)
    return flagged
