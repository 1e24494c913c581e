"""Site-scale orchestration: batched fitting and detection, residual
histories for standardizers and cube covariances, training datasets, and
the online monitoring loop.

Fitting and detection cut the pixels into fixed-size slices. One slice
runs inline; several run on a pool of threads, which overlap wherever
NumPy releases the GIL. A slice reads only its own pixels and builds its
own results, so nothing mutable is shared.
"""
from __future__ import annotations

import contextlib
import datetime as dt
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BAND_ORDER,
    CADENCE_DAYS,
    Band,
    CompactPixel,
    PixelSeries,
    ResidualHistory,
    SeriesArrays,
    cadence_error,
    distinct,
)
from .detection import (
    DetectionResult,
    DetectionRule,
    PairedResiduals,
    extract_errors_from_arrays,
    fill_index,
    rule_bands,
    scan_window_errors,
)
from .errors import NoModels
from .harmonic import (  # noqa: F401  (fit_arrays stays importable here for the tracer)
    FIT_FAILURES,
    FIT_OK,
    MIN_OBS,
    BatchFit,
    HarmonicModel,
    design_rows,
    fit_arrays,
    fit_batch,
    predict_many,
)
from .standardize import Standardizer, transform_errors
from .training import PixelTrainingData
from .windows import PREDICT_EXTENSION_DAYS, DateInterval, WindowPair


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

    def by_pixel(self) -> dict[str, dict[int, dict[Band, HarmonicModel]]]:
        """pixel id -> window index -> band -> model, in one pass."""
        out: dict[str, dict[int, dict[Band, HarmonicModel]]] = {}
        for window_index, table in self.models.items():
            for (pid, band), model in table.items():
                out.setdefault(pid, {}).setdefault(window_index, {})[band] = model
        return out


class _Stack(NamedTuple):
    """A slice's series as (pixel, date) arrays, padded at the end to the
    longest: a padding date is not clear and has doy 1."""

    ordinals: np.ndarray
    doys: np.ndarray
    clear: np.ndarray
    values: np.ndarray      # (pixel, date, 6), NaN where missing


def _stack(pixels: Sequence[CompactPixel]) -> _Stack:
    lengths = {cp.arrays.ordinals.size for cp in pixels}
    if len(lengths) == 1:
        return _Stack(*(
            np.stack([getattr(cp.arrays, name) for cp in pixels])
            for name in ("ordinals", "doys", "clear", "values")
        ))
    n, length = len(pixels), max(lengths, default=0)
    stack = _Stack(
        np.zeros((n, length), dtype=np.int64),
        np.ones((n, length), dtype=np.int32),
        np.zeros((n, length), dtype=bool),
        np.full((n, length, len(BAND_ORDER)), np.nan),
    )
    for k, cp in enumerate(pixels):
        a = cp.arrays
        m = a.ordinals.size
        stack.ordinals[k, :m] = a.ordinals
        stack.doys[k, :m] = a.doys
        stack.clear[k, :m] = a.clear
        stack.values[k, :m] = a.values
    return stack


def _fit_spans(stack: _Stack, first, last, bands: Sequence[Band], min_obs: int) -> BatchFit:
    """One fit_batch call with a group per pixel: its bands on their clear,
    non-fill dates from ordinal ``first`` to ``last`` (scalars, or one per
    pixel as (n, 1) arrays), with those dates moved to the front."""
    inside = stack.clear & (stack.ordinals >= first) & (stack.ordinals <= last)
    counts = inside.sum(axis=1)
    rows = np.argsort(~inside, axis=1, kind="stable")[:, : counts.max(initial=0)]
    used = np.arange(rows.shape[1]) < counts[:, None]
    values = np.take_along_axis(
        stack.values[:, :, [BAND_ORDER.index(band) for band in bands]], rows[:, :, None], axis=1
    )
    return fit_batch(
        design_rows(np.take_along_axis(stack.doys, rows, axis=1)),
        values,
        used[:, :, None] & ~np.isnan(values),
        min_obs=min_obs,
    )


def _models(fits: BatchFit, pixel_ids, bands, trains):
    """(k, j, model) for each fitted (group, band), group by group; group
    k is pixel ``pixel_ids[k]`` over training window ``trains[k]``, and j
    indexes ``bands``."""
    ks, js = np.nonzero(fits.status == FIT_OK)
    for k, j, coeffs, n_obs in zip(
        ks.tolist(), js.tolist(), fits.coeffs[ks, js].tolist(), fits.n_obs[ks, js].tolist()
    ):
        yield k, j, HarmonicModel(bands[j], pixel_ids[k], tuple(coeffs), trains[k], n_obs)


def _fit_chunk(chunk, windows, bands, min_obs):
    """Fit one slice of pixels over every window: its pixel ids and one
    BatchFit per window. Only array work, so that slices on threads
    overlap; the caller builds the models."""
    stack = _stack(chunk)
    return [cp.pixel_id for cp in chunk], [
        _fit_spans(stack, wp.train.start.toordinal(), wp.train.end.toordinal(), bands, min_obs)
        for wp in windows
    ]


def fit_pixels(
    pixels: Sequence[PixelSeries] | Sequence[CompactPixel],
    windows: Sequence[WindowPair],
    bands: Sequence[Band] = BAND_ORDER,
    *,
    min_obs: int = MIN_OBS,
    workers: int = 1,
) -> FitResult:
    """Fit every (pixel, band) over each training window."""
    windows, bands = tuple(windows), tuple(bands)
    result = FitResult(models={wp.index: {} for wp in windows})
    reasons = [failure.__name__ for failure in FIT_FAILURES]
    for pixel_ids, fits in _run_slices(
        _fit_chunk, _ensure_compact(pixels), workers, windows, bands, min_obs
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
    training interval contains it. Entries come pixel by pixel, window by
    window, in date order.
    """
    compact = _ensure_compact(pixels)
    pieces: dict[Band, list] = {band: [] for band in bands}  # (pixel number, ordinals, errors)
    for number, cp in enumerate(compact):
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
                predicted = predict_many(model.coeff_array(), a.doys[idx])
                pieces[band].append((number, a.comp_ordinals[idx], a.values[idx, col] - predicted))
            if claimed:
                used[fresh] = True

    def history(band_pieces) -> ResidualHistory:
        numbers = np.repeat(
            np.array([number for number, _, _ in band_pieces], dtype=np.intp),
            [ordinals.size for _, ordinals, _ in band_pieces],
        )
        return _site_history(
            compact, site_id, numbers,
            np.concatenate([o for _, o, _ in band_pieces]) if band_pieces else [],
            np.concatenate([v for _, _, v in band_pieces]) if band_pieces else [],
        )

    return {band: history(pieces[band]) for band in bands}


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


def _pixel_errors(pixels, models_by_pixel, windows, bands, site_id, standardizers=None):
    """Each pixel's errors in every window, or None when some window has
    no model. Each band with a standardizer is transformed in one call
    over all the pixels' errors."""
    per_pixel = []
    for cp in pixels:
        models = models_by_pixel.get(cp.pixel_id, {})
        try:
            wes = extract_errors_from_arrays(cp.pixel_id, cp.arrays, models, windows, bands)
        except NoModels:
            wes = None
        per_pixel.append(wes)
    pieces = [(number, we) for number, wes in enumerate(per_pixel) if wes for we in wes]
    if standardizers and pieces:
        sizes = [we.comp_ordinals.size for _, we in pieces]
        contexts = _site_history(
            pixels, site_id,
            np.repeat(np.array([number for number, _ in pieces], dtype=np.intp), sizes),
            np.concatenate([we.comp_ordinals for _, we in pieces]), np.empty(sum(sizes)),
        )
        bounds = np.cumsum(sizes)[:-1]
        for band, std in standardizers.items():
            if band not in bands:
                continue
            values = np.concatenate([we.errors[band] for _, we in pieces])
            standardized = transform_errors(std, replace(contexts, value=values))
            for (_, we), part in zip(pieces, np.split(standardized, bounds)):
                we.errors[band] = part
    return per_pixel


def _detect_chunk(chunk, windows, rule, site_id, models_by_pixel, standardizers):
    """Scan one slice of pixels; returns its results and skipped pixels."""
    results = []
    skipped = []
    bands = rule_bands(rule)
    per_pixel = _pixel_errors(chunk, models_by_pixel, windows, bands, site_id, standardizers)
    for cp, wes in zip(chunk, per_pixel):
        if wes is None:
            skipped.append(cp.pixel_id)
            continue
        fill_index(wes, rule, site_id, cp.col, cp.row)
        results.append(scan_window_errors(wes, rule, pixel_id=cp.pixel_id))
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
    results: list[DetectionResult] = []
    skipped: list[str] = []
    for chunk_results, chunk_skipped in _run_slices(
        _detect_chunk, _ensure_compact(pixels), workers,
        tuple(windows), rule, site_id, fit.by_pixel(), standardizers,
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
    """Labelled per-pixel error series for the optimizers. The Mahalanobis
    index is not filled here (see training.fill_dataset_index)."""
    compact = _ensure_compact(pixels)
    dataset = []
    skipped = []
    per_pixel = _pixel_errors(compact, fit.by_pixel(), windows, bands, site_id, standardizers)
    for cp, wes in zip(compact, per_pixel):
        if wes is None:
            skipped.append(cp.pixel_id)
            continue
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


def append_batch(
    pixels: Sequence[CompactPixel], batch: Sequence[CompactPixel]
) -> list[CompactPixel]:
    """The pixels with each batch pixel's rows appended; a pixel new to
    ``pixels`` is added as it is. A batch row must fall one cadence step
    after its pixel's last date: an earlier or a later one raises
    OutOfRange, and nothing is sorted into place."""
    by_pixel = {cp.pixel_id: cp for cp in pixels}
    for piece in batch:
        old = by_pixel.get(piece.pixel_id)
        if old is None:
            by_pixel[piece.pixel_id] = piece
            continue
        last, first = int(old.arrays.ordinals[-1]), int(piece.arrays.ordinals[0])
        if first - last != CADENCE_DAYS:
            raise cadence_error(
                piece.pixel_id, dt.date.fromordinal(last), dt.date.fromordinal(first)
            )
        arrays = SeriesArrays(*(np.concatenate(pair) for pair in zip(old.arrays, piece.arrays)))
        by_pixel[piece.pixel_id] = replace(old, arrays=arrays)
    return list(by_pixel.values())


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

    For each still-monitored pixel whose new observation is clear with a
    real value in every rule band, the trailing run is its last C such
    dates, ending at the new one; it must start inside the monitored year.
    The run gets its own window (train on the two years before the run
    start, predict from the run start to the new date, the run start the
    only allowed start). One fit_batch call fits every run's window; each
    run is then predicted and scanned by the batch code.
    """
    bands = rule_bands(rule)
    cols = [BAND_ORDER.index(band) for band in bands]
    batch_ord = batch_date.toordinal()
    runs = []   # (pixel, its run's window)
    for cp in pixels:
        if cp.pixel_id in already_flagged:
            continue
        a = cp.arrays
        usable = a.clear & (a.ordinals <= batch_ord) & ~np.isnan(a.values[:, cols]).any(axis=1)
        idx = np.flatnonzero(usable)
        if idx.size < rule.consecutive or a.ordinals[idx[-1]] != batch_ord:
            continue
        start = dt.date.fromordinal(int(a.ordinals[idx[-rule.consecutive]]))
        if start.year != monitor_year:
            continue
        runs.append((cp, WindowPair(
            0,
            train=DateInterval(_two_years_before(start), start - dt.timedelta(days=1)),
            predict=DateInterval(start, batch_date),
            predict_year=DateInterval(start, start),
        )))
    if not runs:
        return OnlineOutcome(newly_flagged={}, models={})
    trains = [(window.train.start, window.train.end) for _, window in runs]
    first, last = (np.array([[date.toordinal()] for date in dates]) for dates in zip(*trains))
    fits = _fit_spans(_stack([cp for cp, _ in runs]), first, last, bands, min_obs)
    fitted = {
        (model.pixel_id, model.band): model
        for _, _, model in _models(fits, [cp.pixel_id for cp, _ in runs], bands, trains)
    }
    newly: dict[str, dt.date] = {}
    for cp, window in runs:
        models = {band: fitted[cp.pixel_id, band] for band in bands if (cp.pixel_id, band) in fitted}
        (wes,) = _pixel_errors([cp], {cp.pixel_id: {0: models}}, [window], bands, site_id)
        if wes is None:
            continue
        fill_index(wes, rule, site_id, cp.col, cp.row)
        if scan_window_errors(wes, rule, pixel_id=cp.pixel_id).flagged:
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
