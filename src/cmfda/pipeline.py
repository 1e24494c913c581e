"""Site-scale orchestration: batched fitting and detection, residual
histories for standardizers and cube covariances, training datasets, and
the online monitoring loop.

Fitting and detection cut the pixels into fixed-size slices. One slice
runs inline; several run on a pool of threads, which overlap wherever
NumPy releases the GIL. A slice reads only its own pixels and builds its
own results, so nothing mutable is shared.

Detection and training sets build their errors in one pass over stacked
arrays, into the flat form that detection scans. So does the online loop:
one pass fits and scans every monitored run that ends in a date range; a
step is that pass over its batch date, a replay over the monitored year.
"""
from __future__ import annotations

import contextlib
import datetime as dt
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    BAND_ORDER,
    CADENCE_DAYS,
    Band,
    CompactPixel,
    FlatSeries,
    PixelSeries,
    ResidualHistory,
    SeriesArrays,
    cadence_error,
    distinct,
)
from .detection import (
    DetectionResult,
    DetectionRule,
    FlatErrors,
    MahalanobisRule,
    PairedResiduals,
    mahalanobis_series,
    rule_bands,
    scan_window_errors,
    stack_errors,
)
from .errors import NoModels, OutOfRange
from .harmonic import (  # noqa: F401  (fit_arrays stays importable here for the tracer)
    FIT_FAILURES,
    FIT_OK,
    N_COEFFS,
    BatchFit,
    HarmonicModel,
    fit_arrays,
    fit_batch,
    predict_many,
)
from .standardize import Standardizer, transform_errors
from .training import PixelTrainingData, TrainingSet
from .windows import PREDICT_EXTENSION_DAYS, WindowPair


def compact_pixels(pixels: Sequence[PixelSeries]) -> list[CompactPixel]:
    return [CompactPixel(p.pixel_id, p.col, p.row, p.to_arrays()) for p in pixels]


def default_workers() -> int:
    return os.cpu_count() or 1


# Pixels per slice of fit and detect work. A slice's arrays take a few MB,
# and a site of up to this many pixels runs inline, on no extra thread.
SLICE_PIXELS = 256


def _run_slices(body, pixels: Sequence, workers: int, *args) -> list:
    """``body(slice, *args)`` for each slice of the pixels, in order: inline
    when there is one slice or one thread to run them, else on threads, at
    most ``workers`` and one per CPU this process may use."""
    slices = [pixels[lo:lo + SLICE_PIXELS] for lo in range(0, len(pixels), SLICE_PIXELS)]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    threads = min(workers, len(slices), len(cpus) or default_workers())
    if threads <= 1:
        return [body(piece, *args) for piece in slices]
    started = itertools.count()

    def pin():
        # Threads that pass the GIL back and forth tend to be woken on one
        # CPU while the others idle; each worker keeps a CPU of its own.
        if cpus:
            with contextlib.suppress(OSError):   # pinning is refused: run unpinned
                os.sched_setaffinity(0, {cpus[next(started) % len(cpus)]})

    with ThreadPoolExecutor(max_workers=threads, initializer=pin) as pool:
        return list(pool.map(lambda piece: body(piece, *args), slices))


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


def _stack(pixels: Sequence[CompactPixel]) -> SeriesArrays:
    """The pixels' series as (pixel, date) arrays, padded at the end to the
    longest: a padding date is not clear and has doy 1."""
    lengths = {cp.arrays.ordinals.size for cp in pixels}
    if len(lengths) == 1:
        return SeriesArrays(*(np.stack(column) for column in zip(*(cp.arrays for cp in pixels))))
    shape = (len(pixels), max(lengths, default=0))
    stack = SeriesArrays(
        np.zeros(shape, np.int64), np.zeros(shape, np.int64), np.ones(shape, np.int64),
        np.zeros(shape, np.int8), np.zeros(shape, bool),
        np.full((*shape, len(BAND_ORDER)), np.nan),
    )
    for k, cp in enumerate(pixels):
        for padded, column in zip(stack, cp.arrays):
            padded[k, :len(column)] = column
    return stack


def _fit_spans(stack: SeriesArrays, owner, first, last, bands: Sequence[Band]) -> BatchFit:
    """One fit_batch call with a group per stack row number in ``owner``:
    its bands on its clear, non-fill dates from ordinal ``first`` to
    ``last`` (scalars or one per group), those dates first, in date order."""
    width = stack.clear.shape[1]
    clear = np.flatnonzero(stack.clear)
    keys = clear // width * _ORDINAL_SPAN + stack.ordinals.ravel()[clear]   # increasing
    lo = np.searchsorted(keys, owner * _ORDINAL_SPAN + first, side="left")
    counts = np.searchsorted(keys, owner * _ORDINAL_SPAN + last, side="right") - lo
    span = np.arange(counts.max(initial=0))
    rows = clear[np.minimum(lo[:, None] + span, clear.size - 1)]
    cols = [BAND_ORDER.index(band) for band in bands]
    values = stack.values.reshape(-1, len(BAND_ORDER))[:, cols][rows]
    used = span < counts[:, None]
    return fit_batch(stack.doys.ravel()[rows], values, used[:, :, None] & ~np.isnan(values))


def _models(fits: BatchFit, pixel_ids, bands, trains):
    """(k, j, model) for each fitted (group, band), group by group; group
    k is pixel ``pixel_ids[k]`` over training window ``trains[k]``, and j
    indexes ``bands``."""
    ks, js = np.nonzero(fits.status == FIT_OK)
    for k, j, coeffs, n_obs in zip(
        ks.tolist(), js.tolist(), fits.coeffs[ks, js].tolist(), fits.n_obs[ks, js].tolist()
    ):
        yield k, j, HarmonicModel(bands[j], pixel_ids[k], tuple(coeffs), trains[k], n_obs)


def _fit_chunk(chunk, windows, bands):
    """Fit one slice of pixels over every window: its pixel ids and one
    BatchFit per window. Only array work, so that slices on threads
    overlap; the caller builds the models."""
    stack, owner = _stack(chunk), np.arange(len(chunk))
    return [cp.pixel_id for cp in chunk], [
        _fit_spans(stack, owner, wp.train.start.toordinal(), wp.train.end.toordinal(), bands)
        for wp in windows
    ]


def fit_pixels(
    pixels: Sequence[PixelSeries] | Sequence[CompactPixel],
    windows: Sequence[WindowPair],
    bands: Sequence[Band] = BAND_ORDER,
    *,
    workers: int = 1,
) -> FitResult:
    """Fit every (pixel, band) over each training window."""
    windows, bands = tuple(windows), tuple(bands)
    result = FitResult(models={wp.index: {} for wp in windows})
    reasons = [failure.__name__ for failure in FIT_FAILURES]
    for pixel_ids, fits in _run_slices(
        _fit_chunk, _ensure_compact(pixels), workers, windows, bands
    ):
        keys = [[(pixel_id, band) for band in bands] for pixel_id in pixel_ids]
        for wp, window_fits in zip(windows, fits):
            trains = [(wp.train.start, wp.train.end)] * len(pixel_ids)
            result.models[wp.index].update(
                (keys[k][j], model) for k, j, model in _models(window_fits, pixel_ids, bands, trains)
            )
        # skips go pixel by pixel, then window by window
        failed = np.stack([f.status for f in fits], axis=1) if fits else np.zeros((0, 0, 0))
        result.skipped.extend(
            SkipRecord(pixel_ids[k], windows[w].index, bands[j], reasons[failed[k, w, j] - 1])
            for k, w, j in zip(*(axis.tolist() for axis in np.nonzero(failed)))
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
) -> dict[Band, ResidualHistory]:
    """In-sample residuals over the training windows, per band.

    Each observation contributes once, through the earliest window whose
    training interval contains it and that has a model of the pixel in
    some band. Entries come pixel by pixel, window by window, in date order.
    """
    compact = _ensure_compact(pixels)
    windows, bands = tuple(windows), tuple(bands)
    stack = _stack(compact)
    coeffs, present = _window_coeffs(fit, [cp.pixel_id for cp in compact], windows, bands)
    first, last = (
        np.array([[date.toordinal() for date in dates]], dtype=np.int64)
        for dates in ([wp.train.start for wp in windows], [wp.train.end for wp in windows])
    )
    dates = stack.ordinals[:, None, :]
    claimed = (
        stack.clear[:, None, :] & (dates >= first[:, :, None]) & (dates <= last[:, :, None])
        & present.any(axis=2)[:, :, None]
    )
    owner = claimed & (np.cumsum(claimed, axis=1) == 1)
    histories = {}
    for b, band in enumerate(bands):
        values = stack.values[:, :, BAND_ORDER.index(band)]
        k, w, j = np.nonzero(owner & present[:, :, b, None] & ~np.isnan(values)[:, None, :])
        residuals = values[k, j] - predict_many(coeffs[k, w, b], stack.doys[k, j])
        histories[band] = _site_history(compact, site_id, k, stack.comp_ordinals[k, j], residuals)
    return histories


def _site_history(compact, site_id, numbers, ordinals, values) -> ResidualHistory:
    """Errors of one site's pixels; ``numbers`` gives each entry's pixel
    by its position in ``compact``."""
    pixel_ids, codes = distinct([cp.pixel_id for cp in compact])
    cols = np.array([cp.col for cp in compact], dtype=np.int64)
    rows = np.array([cp.row for cp in compact], dtype=np.int64)
    return ResidualHistory.build(
        pixel_ids, (site_id,), codes[numbers], np.zeros(numbers.size),
        cols[numbers], rows[numbers], ordinals, values,
    )


# Pixel codes and ordinals share one int64 key: ordinals stay below 2**32.
_ORDINAL_SPAN = 1 << 32


def paired_residual_records(histories: Mapping[Band, ResidualHistory]) -> PairedResiduals:
    """Join NIR and NDVI residual histories on (pixel, composite date), in
    NIR order; NIR entries without an NDVI partner are dropped."""
    empty = ResidualHistory.concat([])
    nir = histories.get(Band.NIR, empty)
    ndvi = histories.get(Band.NDVI, empty)
    nir_code = {pixel_id: k for k, pixel_id in enumerate(nir.pixel_ids)}
    ndvi_pixel = np.array([nir_code.get(p, -1) for p in ndvi.pixel_ids], dtype=np.int64)
    ndvi_keys = ndvi_pixel[ndvi.pixel] * _ORDINAL_SPAN + ndvi.ordinal
    nir_keys = nir.pixel * _ORDINAL_SPAN + nir.ordinal
    # stable, so the last of equal NDVI keys is found, as a dict keeps it
    order = np.argsort(ndvi_keys, kind="stable")
    ordered = ndvi_keys[order]
    pos = np.searchsorted(ordered, nir_keys, side="right") - 1
    found = pos >= 0
    found[found] = ordered[pos[found]] == nir_keys[found]
    matched = np.flatnonzero(found)
    return PairedResiduals(nir.take(matched), ndvi.value[order[pos[matched]]])


# --- detection --------------------------------------------------------------------


def _window_coeffs(fit: FitResult, pixel_ids, windows, bands):
    """(pixel, window, band, 5) coefficients, gathered window by window,
    NaN where the fit has no model, and (pixel, window, band) whether it
    has one."""
    coeffs = np.full((len(pixel_ids), len(windows), len(bands), N_COEFFS), np.nan)
    present = np.zeros(coeffs.shape[:3], dtype=bool)
    for w, wp in enumerate(windows):
        table = fit.models.get(wp.index, {})
        for b, band in enumerate(bands):
            models = [table.get((pixel_id, band)) for pixel_id in pixel_ids]
            present[:, w, b] = [model is not None for model in models]
            coeffs[present[:, w, b], w, b] = np.reshape(
                [m.coeffs for m in models if m is not None], (-1, N_COEFFS)
            )
    return coeffs, present


def _slice_errors(pixels, fit, windows, bands, site_id, standardizers=None):
    """The errors of the pixels with a model for every (window, band), those
    pixels, and the ids of the others. Each band with a standardizer is
    transformed in one call over all the errors."""
    coeffs, present = _window_coeffs(fit, [cp.pixel_id for cp in pixels], windows, bands)
    found = present.all(axis=(1, 2))
    kept = [cp for cp, ok in zip(pixels, found.tolist()) if ok]
    skipped = [cp.pixel_id for cp, ok in zip(pixels, found.tolist()) if not ok]
    bounds = [[[date.toordinal() for date in (wp.predict.start, wp.predict.end,
                                              wp.predict_year.start, wp.predict_year.end)]
               for wp in windows]]
    errors = stack_errors(_stack(kept), coeffs[found], np.reshape(bounds, (1, -1, 4)), bands)
    if standardizers and len(errors):
        contexts = _site_history(
            kept, site_id, errors.entry_pixels(), errors.comp_ordinals, np.empty(len(errors))
        )
        for band, std in standardizers.items():
            if band in bands:
                errors.errors[band] = transform_errors(
                    std, replace(contexts, value=errors.errors[band])
                )
    return errors, kept, skipped


def _fill_index(errors: FlatErrors, rule: DetectionRule, site_id: str, pixels) -> None:
    if isinstance(rule, MahalanobisRule):
        errors.index = mahalanobis_series(
            errors, rule.covariances, [site_id] * len(pixels),
            [cp.col for cp in pixels], [cp.row for cp in pixels],
        )


def _detect_chunk(chunk, windows, rule, site_id, fit, standardizers):
    """Scan one slice of pixels; returns its results and skipped pixels."""
    errors, kept, skipped = _slice_errors(
        chunk, fit, windows, rule_bands(rule), site_id, standardizers
    )
    _fill_index(errors, rule, site_id, kept)
    flag_dates, flag_bands = scan_window_errors(errors, rule, len(kept))
    return [
        DetectionResult(cp.pixel_id, bool(date), dt.date.fromordinal(date) if date else None,
                        Band(band) if band > 0 else None)
        for cp, date, band in zip(kept, flag_dates.tolist(), flag_bands.tolist())
    ], skipped


def detect_pixel(
    series: PixelSeries,
    models: Mapping[int, Mapping[Band, HarmonicModel]],
    rule: DetectionRule,
    windows: Sequence[WindowPair],
    site_id: Optional[str] = None,
) -> DetectionResult:
    """Apply the rule over every prediction window of one pixel, as a
    slice of detect_pixels. The flag date is the last date of the earliest
    triggering run (detection time, not event time)."""
    if isinstance(rule, MahalanobisRule) and site_id is None:
        raise OutOfRange("Mahalanobis detection requires a site_id")
    fit = FitResult({
        index: {(series.pixel_id, band): model for band, model in table.items()}
        for index, table in models.items()
    })
    results, skipped = _detect_chunk(compact_pixels([series]), windows, rule, site_id, fit, None)
    if skipped:
        raise NoModels(f"pixel {series.pixel_id!r}: no model for some window and rule band")
    return results[0]


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
    results: list[DetectionResult] = []
    skipped: list[str] = []
    for chunk_results, chunk_skipped in _run_slices(
        _detect_chunk, _ensure_compact(pixels), workers,
        tuple(windows), rule, site_id, fit, standardizers,
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
) -> tuple[TrainingSet, list[str]]:
    """Labelled error series for the optimizers, and the pixels skipped for
    want of a model. The Mahalanobis index is not filled here (see
    training.fill_dataset_index)."""
    errors, kept, skipped = _slice_errors(
        _ensure_compact(pixels), fit, tuple(windows), tuple(bands), site_id, standardizers
    )
    pixels = [
        PixelTrainingData(cp.pixel_id, site_id, cp.col, cp.row, labels[cp.pixel_id], [])
        for cp in kept
    ]
    return replace(TrainingSet.of(pixels), errors=errors), skipped


# --- online loop -----------------------------------------------------------------


def _two_years_before(ordinals: np.ndarray) -> np.ndarray:
    """The same day two years earlier of each ordinal; Feb 29 goes to Feb 28."""
    epoch = dt.date(1970, 1, 1).toordinal()
    days = (ordinals - epoch).astype("M8[D]")
    month = days.astype("M8[M]") - np.timedelta64(24, "M")
    same_day = month.astype("M8[D]") + (days - days.astype("M8[M]").astype("M8[D]"))
    return np.minimum(same_day, (month + 1).astype("M8[D]") - 1).astype(np.int64) + epoch


def append_batch(history: FlatSeries, batch: FlatSeries) -> FlatSeries:
    """The history with the batch's rows after its own, laid out as a read
    of the series file that gains them would lay it out. A pixel's first
    batch row must fall one cadence step after its last date: an earlier or
    a later one raises OutOfRange (the first such pixel in site order), and
    nothing is sorted into place."""
    index = {key[:2]: p for p, key in enumerate(history.keys)}
    for j in sorted(range(len(batch.keys)), key=lambda j: batch.keys[j][0]):
        p = index.get(batch.keys[j][:2])
        if p is not None:
            last = int(history.columns.ordinals[history.bounds[p + 1] - 1])
            first = int(batch.columns.ordinals[batch.bounds[j]])
            if first - last != CADENCE_DAYS:
                raise cadence_error(
                    batch.keys[j][1], dt.date.fromordinal(last), dt.date.fromordinal(first)
                )
    keys = [*history.keys, *(key for key in batch.keys if key[:2] not in index)]
    index = {key[:2]: p for p, key in enumerate(keys)}
    pixel = np.repeat([index[key[:2]] for key in [*history.keys, *batch.keys]],
                      np.concatenate([np.diff(history.bounds), np.diff(batch.bounds)]))
    return FlatSeries.of_rows(keys, pixel, SeriesArrays(*map(np.concatenate, zip(
        history.columns, batch.columns
    ))))


# Monitored runs fitted and scanned at once: bounds the training dates that
# a replay over a whole site gathers at a time (about 3 KB per run).
_RUN_CHUNK = 2048


@dataclass
class OnlineOutcome:
    newly_flagged: dict[str, dt.date]
    models: dict[tuple[str, Band], HarmonicModel]


def _monitored_runs(pixels, rule: DetectionRule, monitor_year: int, first: int, last: int,
                    site_id: str):
    """Fit and scan in one pass every run of C consecutive usable dates of
    a pixel (clear, a real value in every rule band) that starts in the
    monitored year and ends on an ordinal from ``first`` to ``last``. Each
    run is fitted on the clear dates of the two years before its start and,
    if every band fits, predicted as a segment of its pixel that may start
    only at its first date. Returns each pixel's earliest triggering run end
    (0 for none), and per run its pixel, training ordinals and fit."""
    bands, c = rule_bands(rule), rule.consecutive
    stack = _stack(pixels)
    width = stack.clear.shape[1]   # flat entry i is a date of pixel i // width
    flat = SeriesArrays(*(column.reshape(-1, *column.shape[2:]) for column in stack))
    values = flat.values[:, [BAND_ORDER.index(band) for band in bands]]
    usable = np.flatnonzero(flat.clear & ~np.isnan(values).any(axis=1))
    runs = usable[np.arange(usable.size - c + 1)[:, None] + np.arange(c)]   # (runs, C) dates
    start, end = flat.ordinals[runs[:, 0]], flat.ordinals[runs[:, -1]]
    year = [dt.date(monitor_year, 1, 1).toordinal(), dt.date(monitor_year, 12, 31).toordinal()]
    chosen = ((runs[:, 0] // width == runs[:, -1] // width) & (end >= first) & (end <= last)
              & (start >= year[0]) & (start <= year[1]))
    runs, start, end = runs[chosen], start[chosen], end[chosen]
    owner = runs[:, 0] // width
    train = np.stack([_two_years_before(start), start - 1], axis=1)
    spans = np.stack([start, end, start, start], axis=-1)
    flags = np.zeros(len(pixels), np.int64)
    fits = []
    # Runs are in (pixel, date) order, so a pixel's earliest triggering run
    # is in the first chunk that flags it. No runs still make one chunk.
    for first_run in range(0, len(runs) or 1, _RUN_CHUNK):
        part = slice(first_run, first_run + _RUN_CHUNK)
        fit = _fit_spans(stack, owner[part], train[part, 0], train[part, 1], bands)
        found = (fit.status == FIT_OK).all(axis=1)
        errors = stack_errors(
            SeriesArrays(*(column[runs[part][found]] for column in flat)),
            fit.coeffs[found][:, None], spans[part][found, None], bands,
        )
        errors.pixel = owner[part][found]
        _fill_index(errors, rule, site_id, pixels)
        chunk_flags, _ = scan_window_errors(errors, rule, len(pixels))
        flags = np.where(flags == 0, chunk_flags, flags)
        fits.append(fit)
    return flags, owner, train, BatchFit(*map(np.concatenate, zip(*fits)))


def online_process_batch(
    pixels: Sequence[CompactPixel],
    batch_date: dt.date,
    rule: DetectionRule,
    monitor_year: int,
    already_flagged: Mapping[str, dt.date],
    *,
    site_id: str = "",
) -> OnlineOutcome:
    """One step of the online loop for a new nominal date: the monitored
    runs (see _monitored_runs) of the pixels not yet flagged that end on
    the batch date, at most one per pixel. Returns the pixels whose run
    triggers and every band model the step fitted."""
    active = [cp for cp in pixels if cp.pixel_id not in already_flagged]
    batch = batch_date.toordinal()
    flags, owner, train, fits = _monitored_runs(active, rule, monitor_year, batch, batch, site_id)
    trains = [tuple(map(dt.date.fromordinal, dates)) for dates in train.tolist()]
    run_ids = [active[k].pixel_id for k in owner.tolist()]
    return OnlineOutcome(
        newly_flagged={active[k].pixel_id: batch_date for k in np.flatnonzero(flags).tolist()},
        models={(model.pixel_id, model.band): model
                for _, _, model in _models(fits, run_ids, rule_bands(rule), trains)},
    )


def online_replay(
    pixels: Sequence[PixelSeries] | Sequence[CompactPixel],
    rule: DetectionRule,
    monitor_year: int,
    *,
    site_id: str = "",
) -> dict[str, dt.date]:
    """Replay the online loop over a monitored year plus its extension, as
    one pass over every run that ends in it: a pixel's flag date is the end
    of its earliest triggering run, the step that would flag it."""
    compact = _ensure_compact(pixels)
    first = dt.date(monitor_year, 1, 1).toordinal()
    last = dt.date(monitor_year, 12, 31).toordinal() + PREDICT_EXTENSION_DAYS
    flags, *_ = _monitored_runs(compact, rule, monitor_year, first, last, site_id)
    # in step order: by flag date, then pixel
    return {compact[k].pixel_id: dt.date.fromordinal(int(flags[k]))
            for k in np.argsort(flags, kind="stable").tolist() if flags[k]}
