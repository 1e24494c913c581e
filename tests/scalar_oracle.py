"""Per-record reference implementations of the residual-history chain.

These are the scalar forms that ``cmfda.harmonic``, ``cmfda.dataio``,
``cmfda.standardize``, ``cmfda.pipeline``, ``cmfda.detection`` and
``cmfda.training`` replaced with array code: one fit per series and band
and one design vector per day, one csv row per observation, one
``ErrorRecord`` per residual, one dict lookup and one ``ErrorContext`` per
standardized error, the inverse normal CDF one float at a time, the rule
scanned one window at a time, thresholds scored by a boolean pass over
every pixel per grid point, each training fold and site cut from the
errors with its levels computed afresh, and the online loop run date by
date and pixel by pixel. The tests compare the array code against them bit
for bit.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from cmfda.core import BAND_ORDER, YEAR_DAYS, Band, CompactPixel, band_fill, day_of_year
from cmfda.dataio import SERIES_COLUMNS, real
from cmfda.detection import (
    CovarianceEntry,
    CubeCovarianceTable,
    FlatErrors,
    MahalanobisRule,
    MultivariateRule,
    PairedErrorRecord,
    UnivariateRule,
    WindowErrors,
    mahalanobis_index,
    rule_bands,
    run_levels,
    scan_window_errors,
)
from cmfda.errors import (
    DegenerateClass, DegenerateHistory, EmptyHistory, OutOfDomain, OutOfRange, OutOfRangeDay,
    SingularCovariance,
)
from cmfda.harmonic import FIT_OK, HarmonicModel, fit_arrays, fit_batch, predict_many
from cmfda.training import TrainingSet, _counts, tss
from cmfda.windows import PREDICT_EXTENSION_DAYS
from cmfda.standardize import (
    ECDF,
    FALLBACK_LEVELS,
    SCHEME_STAGES,
    SD,
    ErrorContext,
    ErrorRecord,
    KeyKind,
)


# --- keys --------------------------------------------------------------------


def period_of(doy: int) -> int:
    if not 1 <= doy <= 366:
        raise OutOfRange(f"day of year {doy} outside 1..366")
    return min((doy - 1) // 5, 72)


def cube_of(col: int, row: int, doy: int) -> tuple[int, int]:
    if not (0 <= col <= 24 and 0 <= row <= 24):
        raise OutOfRange(f"grid position ({col}, {row}) outside 0..24")
    return (row // 5) * 5 + (col // 5), period_of(doy)


def key_for(kind: KeyKind, ctx: ErrorContext):
    if kind is KeyKind.PIXEL:
        return ctx.pixel_id
    if kind is KeyKind.SITE:
        return ctx.site_id
    if kind is KeyKind.GLOBAL:
        return None
    period = period_of(day_of_year(ctx.date))
    if kind is KeyKind.PERIOD:
        return period
    if kind is KeyKind.SITE_PERIOD:
        return (ctx.site_id, period)
    square, _ = cube_of(ctx.col, ctx.row, day_of_year(ctx.date))
    return (ctx.site_id, square, period)


# --- ecdf and inverse normal cdf ----------------------------------------------


class EmptySample(ValueError):
    """The oracle ECDF evaluated on an empty sample."""


def ecdf_eval(sample: np.ndarray, x: float) -> float:
    sample = np.asarray(sample)
    n = sample.size
    if n == 0:
        raise EmptySample("ecdf evaluated on an empty sample")
    rank = int(np.searchsorted(sample, x, side="right"))
    return min(max(rank, 1), n) / (n + 1)


_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_P_LOW = 0.02425
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _icdf_lower_half(p: float) -> float:
    a, b, c, d = _A, _B, _C, _D
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        r = q * q
        x = (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    err = _normal_cdf(x) - p
    u = err * _SQRT_2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def inverse_normal_cdf(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise OutOfDomain(f"probability {p} outside (0, 1)")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -_icdf_lower_half(1.0 - p)
    return _icdf_lower_half(p)


# --- standardizer ----------------------------------------------------------------


@dataclass(frozen=True)
class StageTables:
    key_kind: KeyKind
    transform_kind: str
    sd_levels: tuple = ()
    ecdf_levels: tuple = ()

    def lookup_sd(self, ctx: ErrorContext) -> float:
        for kind, table in self.sd_levels:
            entry = table.get(key_for(kind, ctx))
            if entry is not None and entry[1] >= 2 and entry[0] > 0:
                return entry[0]
        raise DegenerateHistory("no key with positive spread covers this context")

    def lookup_sample(self, ctx: ErrorContext) -> np.ndarray:
        for kind, table in self.ecdf_levels:
            sample = table.get(key_for(kind, ctx))
            if sample is not None and sample.size:
                return sample
        raise DegenerateHistory("no populated sample covers this context")

    def apply(self, value: float, ctx: ErrorContext, final: bool) -> float:
        if self.transform_kind == SD:
            return value / self.lookup_sd(ctx)
        p = ecdf_eval(self.lookup_sample(ctx), value)
        if final:
            return p - 0.5
        return inverse_normal_cdf(p)


def _fit_stage(key_kind, transform_kind, contexts, values) -> StageTables:
    levels = FALLBACK_LEVELS[key_kind]
    groups_per_level = []
    for kind in levels:
        groups: dict = {}
        for ctx, value in zip(contexts, values):
            groups.setdefault(key_for(kind, ctx), []).append(value)
        groups_per_level.append(groups)
    if transform_kind == SD:
        sd_levels = tuple(
            (
                kind,
                {
                    key: (float(np.std(vals, ddof=1)) if len(vals) >= 2 else 0.0, len(vals))
                    for key, vals in groups.items()
                },
            )
            for kind, groups in zip(levels, groups_per_level)
        )
        global_sd, global_n = sd_levels[-1][1][None]
        if global_n < 2 or global_sd <= 0:
            raise DegenerateHistory("history has no spread; cannot standardize by sd")
        return StageTables(key_kind, SD, sd_levels=sd_levels)
    ecdf_levels = tuple(
        (kind, {key: np.sort(np.asarray(vals)) for key, vals in groups.items()})
        for kind, groups in zip(levels, groups_per_level)
    )
    return StageTables(key_kind, ECDF, ecdf_levels=ecdf_levels)


def fit_standardizer(records, scheme) -> tuple[StageTables, ...]:
    records = list(records)
    if not records:
        raise EmptyHistory("cannot fit a standardizer on an empty history")
    contexts = [ErrorContext(r.pixel_id, r.site_id, r.col, r.row, r.date) for r in records]
    values = np.array([r.value for r in records], dtype=float)
    specs = SCHEME_STAGES[scheme]
    stages = []
    for i, (key_kind, transform_kind) in enumerate(specs):
        stage = _fit_stage(key_kind, transform_kind, contexts, values)
        stages.append(stage)
        if i + 1 < len(specs):
            values = np.array(
                [stage.apply(v, ctx, final=False) for v, ctx in zip(values, contexts)]
            )
    return tuple(stages)


def transform(stages, eps: float, ctx: ErrorContext) -> float:
    value = eps
    last = len(stages) - 1
    for i, stage in enumerate(stages):
        value = stage.apply(value, ctx, final=(i == last))
    return value


# --- the harmonic model, one series and one day at a time -----------------------


def design_vector(doy: int) -> np.ndarray:
    """Regressor vector (1, cos, sin, semi-annual cos, semi-annual sin)."""
    if not 1 <= doy <= YEAR_DAYS:
        raise OutOfRangeDay(f"day of year {doy} outside 1..{YEAR_DAYS}")
    w = 2.0 * math.pi * doy / YEAR_DAYS
    return np.array([1.0, math.cos(w), math.sin(w), math.cos(2 * w), math.sin(2 * w)])


def predict(model: HarmonicModel, doy: int) -> float:
    return float(np.dot(model.coeffs, design_vector(doy)))


def fit(series, band: Band, window) -> HarmonicModel:
    """Fit the model for one band of a PixelSeries over its clear in-window
    observations."""
    a = series.to_arrays()
    values = a.values[:, BAND_ORDER.index(band)]
    used = (a.clear & ~np.isnan(values) & (a.ordinals >= window.start.toordinal())
            & (a.ordinals <= window.end.toordinal()))
    return fit_arrays(
        a.doys[used].astype(float), values[used], band=band, pixel_id=series.pixel_id,
        train_window=(window.start, window.end),
    )


# --- series files, row by row ---------------------------------------------------


def write_series(path, sites) -> None:
    """A series file of the PixelSeries of ``sites``, one csv row per
    observation, values fill-coded where a band is missing."""
    fills = [band_fill(band) for band in BAND_ORDER]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("#cmfda series v1\n")
        writer = csv.writer(fh)
        writer.writerow(SERIES_COLUMNS)
        for site_id, pixels in sites.items():
            for series in pixels:
                for obs in series.observations:
                    writer.writerow([
                        site_id, series.pixel_id, series.col, series.row,
                        obs.nominal_date.isoformat(), obs.composite_doy, int(obs.reliability),
                        *(real(v) for v in map(obs.values.get, BAND_ORDER, fills)),
                    ])


# --- model tables -----------------------------------------------------------------


def model_dict(table) -> dict[tuple[str, Band], HarmonicModel]:
    """The models of a ModelTable keyed (pixel_id, band), as a dict filled
    row by row keeps them: each key where its first row was, holding its
    later row."""
    return {
        (pixel_id, Band(code)): HarmonicModel(
            Band(code), pixel_id, tuple(coeffs), tuple(map(dt.date.fromordinal, train)), n_obs
        )
        for pixel_id, code, coeffs, n_obs, train in zip(
            table.pixel_ids, table.bands.tolist(), table.coeffs.tolist(), table.n_obs.tolist(),
            table.train.tolist(),
        )
    }


# --- residual histories and cube covariances ------------------------------------


def training_residuals(pixels: list[CompactPixel], fit, windows, bands, site_id):
    out = {band: [] for band in bands}
    tables = {index: model_dict(table) for index, table in fit.models.items()}
    for cp in pixels:
        a = cp.arrays
        used = np.zeros(a.ordinals.size, dtype=bool)
        for wp in windows:
            table = tables.get(wp.index, {})
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
                predicted = predict_many(model.coeffs, a.doys[idx].astype(float))
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


def paired_residual_records(histories) -> list[PairedErrorRecord]:
    ndvi_by_key = {(r.pixel_id, r.date): r for r in histories.get(Band.NDVI, [])}
    pairs = []
    for r in histories.get(Band.NIR, []):
        other = ndvi_by_key.get((r.pixel_id, r.date))
        if other is None:
            continue
        pairs.append(
            PairedErrorRecord(
                pixel_id=r.pixel_id, site_id=r.site_id, col=r.col, row=r.row, date=r.date,
                doy=r.date.timetuple().tm_yday, eps_nir=r.value, eps_ndvi=other.value,
            )
        )
    return pairs


def _entry_from_pairs(nir: np.ndarray, ndvi: np.ndarray) -> CovarianceEntry:
    n = nir.size
    if n < 2:
        return CovarianceEntry(0.0, 0.0, 0.0, n)
    cov = np.cov(nir, ndvi, ddof=1)
    return CovarianceEntry(float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]), n)


def estimate_cube_covariances(records, min_cube_samples: int = 10) -> CubeCovarianceTable:
    by_cube: dict = {}
    by_site_period: dict = {}
    by_site: dict = {}
    for rec in records:
        square, period = cube_of(rec.col, rec.row, rec.doy)
        pair = (rec.eps_nir, rec.eps_ndvi)
        by_cube.setdefault((rec.site_id, square, period), []).append(pair)
        by_site_period.setdefault((rec.site_id, period), []).append(pair)
        by_site.setdefault(rec.site_id, []).append(pair)

    def build(groups):
        out = {}
        for key, pairs in groups.items():
            arr = np.asarray(pairs)
            out[key] = _entry_from_pairs(arr[:, 0], arr[:, 1])
        return out

    return CubeCovarianceTable(
        cubes=build(by_cube),
        site_periods=build(by_site_period),
        sites=build(by_site),
        min_cube_samples=min_cube_samples,
    )


def matrix_for(table: CubeCovarianceTable, site_id: str, square: int, period: int) -> np.ndarray:
    """The matrix a lookup serves for one cube key: the cube's with at
    least ``min_cube_samples`` pairs, else the site-period's with at least
    2, else the site's with at least 2."""
    entry = table.cubes.get((site_id, square, period))
    if entry is not None and entry.n >= table.min_cube_samples:
        return entry.matrix()
    entry = table.site_periods.get((site_id, period))
    if entry is not None and entry.n >= 2:
        return entry.matrix()
    entry = table.sites.get(site_id)
    if entry is not None and entry.n >= 2:
        return entry.matrix()
    raise SingularCovariance(f"no covariance history for site {site_id!r}")


# --- per-window rule scan ------------------------------------------------------


def flag_level(values, start_ok, consecutive, two_sided=True) -> float:
    """Largest run level over the allowed starts of one window."""
    levels = run_levels(np.asarray(values, dtype=float), consecutive, two_sided)
    levels = levels[np.asarray(start_ok, dtype=bool)[: levels.size]]
    return float(levels.max()) if levels.size else -math.inf


def rule_series(window, rule):
    """(reported band, values, threshold, two_sided) for each sequence the
    rule scans in one window (a one-segment FlatErrors)."""
    if isinstance(rule, UnivariateRule):
        return [(None, window.errors[rule.band], rule.threshold, True)]
    if isinstance(rule, MultivariateRule):
        return [
            (Band.NIR, window.errors[Band.NIR], rule.nir_threshold, True),
            (Band.NDVI, window.errors[Band.NDVI], rule.ndvi_threshold, True),
        ]
    return [(None, window.index, rule.threshold, False)]


def scan_windows(windows, rule):
    """(flag ordinal, band) of one pixel's windows, or None: in each window
    the earliest allowed start whose run level exceeds the threshold, NIR
    winning a tie with NDVI; over the windows the earliest flag date, the
    earlier window winning a tie."""
    c = rule.consecutive
    best = None
    for window in windows:
        start = band_hit = None
        for band, values, threshold, two_sided in rule_series(window, rule):
            levels = run_levels(values, c, two_sided)
            hits = np.flatnonzero((levels > threshold) & window.start_ok[: levels.size])
            if hits.size and (start is None or hits[0] < start):
                start, band_hit = int(hits[0]), band
        if start is not None:
            flag = int(window.ordinals[start + c - 1])
            if best is None or flag < best[0]:
                best = (flag, band_hit)
    return best


# --- threshold training -------------------------------------------------------------


def grid_search_levels(levels, observed, grid):
    """The exhaustive search one threshold at a time: a boolean pass and a
    confusion per grid point, the first maximum winning."""
    best_threshold, best_tss = None, -math.inf
    for threshold in grid:
        score = tss(_counts(levels > threshold, observed))
        if score > best_tss:
            best_threshold, best_tss = threshold, score
    return best_threshold, best_tss


def multivariate_utility(nir_levels, ndvi_levels, observed, nir_grid, ndvi_grid):
    """The annealing utility one point at a time: TSS of the pair rule at
    (nir_grid[i], ndvi_grid[j]) from a boolean pass over every pixel."""
    def utility(i, j):
        flags = (nir_levels > nir_grid[i]) | (ndvi_levels > ndvi_grid[j])
        return tss(_counts(flags, observed))

    return utility


def anneal_on_grid(utility, shape, init, config, seed):
    """The annealing walk building each step's neighbor list afresh: the
    proposal is ``rng.choice`` of the (up to 8) neighbors in row-major
    offset order, a downhill move is accepted when ``rng.random()`` falls
    below exp(delta/T), and the best point seen is returned."""
    n_i, n_j = shape
    rng = random.Random(seed)
    cache = {init: utility(*init)}
    best, best_value = init, cache[init]
    current, current_value = init, cache[init]
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
            if proposal not in cache:
                cache[proposal] = utility(*proposal)
                if cache[proposal] > best_value:
                    best, best_value = proposal, cache[proposal]
            delta = cache[proposal] - current_value
            if delta > 0 or rng.random() < math.exp(delta / temp):
                current, current_value = proposal, cache[proposal]
        temp *= config.cooling
    return best, best_value


# --- per-subset training -------------------------------------------------------------


def take(dataset: TrainingSet, pixels) -> TrainingSet:
    """The given pixels, in that order, with a copy of their segments'
    errors: pixel ``pixels[k]`` renumbered k."""
    errors = dataset.errors
    starts = [0, *errors.ends[:-1].tolist()]
    entries, ends, owners = [], [], []
    for k, pixel in enumerate(pixels):
        for segment in np.flatnonzero(errors.pixel == pixel).tolist():
            entries.extend(range(starts[segment], int(errors.ends[segment])))
            ends.append(len(entries))
            owners.append(k)
    entries = np.array(entries, dtype=np.intp)
    pixels = np.array(pixels, dtype=np.intp)
    return TrainingSet(
        dataset.pixel_ids[pixels], dataset.site_ids[pixels], dataset.cols[pixels],
        dataset.rows[pixels], dataset.labels[pixels],
        FlatErrors(errors.ordinals[entries], errors.comp_ordinals[entries], errors.doys[entries],
                   errors.start_ok[entries], {b: v[entries] for b, v in errors.errors.items()},
                   np.array(ends, dtype=np.int64), np.array(owners, dtype=np.intp),
                   None if errors.index is None else errors.index[entries]),
    )


def pixel_levels(dataset: TrainingSet, series, consecutive: int) -> np.ndarray:
    """Each pixel's largest ``flag_level`` over its own segments of a band's
    errors, or of the index for "index"."""
    errors = dataset.errors
    values = errors.index if series == "index" else errors.errors[series]
    bounds = [0, *errors.ends.tolist()]
    levels = np.full(len(dataset), -math.inf)
    for segment, pixel in enumerate(errors.pixel.tolist()):
        lo, hi = bounds[segment], bounds[segment + 1]
        level = flag_level(values[lo:hi], errors.start_ok[lo:hi], consecutive, series != "index")
        levels[pixel] = max(levels[pixel], level)
    return levels


def evaluate_rule(dataset: TrainingSet, rule):
    """A fixed rule's confusion from a scan of the dataset's errors."""
    flags = scan_window_errors(dataset.errors, rule, len(dataset))[0] > 0
    return _counts(flags, dataset.labels != 0)


def anneal_start(dataset: TrainingSet, band: Band, consecutive: int, grid) -> float:
    """The grid point nearest the average of the per-site optima, each site
    searched on its own slice of the errors."""
    optima = []
    for site_id in dict.fromkeys(dataset.site_ids.tolist()):
        site = take(dataset, np.flatnonzero(dataset.site_ids == site_id).tolist())
        try:
            optima.append(grid_search_levels(pixel_levels(site, band, consecutive),
                                             site.labels != 0, grid)[0])
        except DegenerateClass:
            continue
    if not optima:
        return grid[len(grid) // 2]
    average = sum(optima) / len(optima)
    return min(grid, key=lambda g: abs(g - average))


def trainer(kind: str, grids, covariances, config, seed: int, band: Band = Band.NIR):
    """Each rule's trainer, (C, dataset) -> rule, from the dataset's own
    levels: a grid search, or the annealing walk from ``anneal_start``."""
    def train(c, dataset):
        observed = dataset.labels != 0
        if kind == "univariate":
            return UnivariateRule(
                band, grid_search_levels(pixel_levels(dataset, band, c), observed, grids[0])[0], c)
        if kind == "mahalanobis":
            threshold, _ = grid_search_levels(pixel_levels(dataset, "index", c), observed, grids[0])
            return MahalanobisRule(threshold, covariances, c)
        nir_grid, ndvi_grid = grids
        init = (nir_grid.index(anneal_start(dataset, Band.NIR, c, nir_grid)),
                ndvi_grid.index(anneal_start(dataset, Band.NDVI, c, ndvi_grid)))
        utility = multivariate_utility(pixel_levels(dataset, Band.NIR, c),
                                       pixel_levels(dataset, Band.NDVI, c), observed,
                                       nir_grid, ndvi_grid)
        (i, j), _ = anneal_on_grid(utility, (len(nir_grid), len(ndvi_grid)), init, config, seed)
        return MultivariateRule(nir_grid[i], ndvi_grid[j], c)

    return train


def cross_validate(dataset: TrainingSet, trainer, k: int, seed: int):
    """Each fold's confusion: stratified folds, each trained on a slice of
    the training folds' errors and scored by a scan of its own slice."""
    observed = dataset.labels != 0
    positives = np.flatnonzero(observed).tolist()
    negatives = np.flatnonzero(~observed).tolist()
    rng = random.Random(seed)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    folds = [positives[f::k] + negatives[f::k] for f in range(k)]
    counts = []
    for held_out in range(k):
        rule = trainer(take(dataset, [p for f in range(k) if f != held_out for p in folds[f]]))
        counts.append(evaluate_rule(take(dataset, folds[held_out]), rule))
    return counts


def sweep_fixed(dataset: TrainingSet, rule, c_values):
    """The rule's confusion at each C, each from a scan."""
    return [evaluate_rule(dataset, replace(rule, consecutive=c)) for c in c_values]


# --- online loop ------------------------------------------------------------------


def two_years_before(date: dt.date) -> dt.date:
    try:
        return date.replace(year=date.year - 2)
    except ValueError:  # Feb 29
        return date.replace(year=date.year - 2, day=28)


def online_step(pixels, batch_date, rule, monitor_year, already_flagged, site_id=""):
    """(newly flagged, refits) of one online step, pixel by pixel.

    A monitored pixel whose new date is usable (clear, a real value in
    every rule band) has a trailing run: its last C usable dates, ending
    on the batch date. If the run starts in the monitored year, each band
    is fitted on its clear, non-fill dates of the two years before the run
    start, one group per fit_batch call; when every band fits, the run's C
    errors are scanned with the run start the only allowed start.
    """
    bands = rule_bands(rule)
    c = rule.consecutive
    batch = batch_date.toordinal()
    newly, models = {}, {}
    for cp in pixels:
        if cp.pixel_id in already_flagged:
            continue
        a = cp.arrays
        usable = [
            i for i in range(a.ordinals.size)
            if a.clear[i] and a.ordinals[i] <= batch
            and not any(math.isnan(a.values[i, BAND_ORDER.index(band)]) for band in bands)
        ]
        if len(usable) < c or a.ordinals[usable[-1]] != batch:
            continue
        run = usable[-c:]
        start = dt.date.fromordinal(int(a.ordinals[run[0]]))
        if start.year != monitor_year:
            continue
        train = (two_years_before(start), start - dt.timedelta(days=1))
        days = [
            i for i in range(a.ordinals.size)
            if a.clear[i] and train[0].toordinal() <= a.ordinals[i] <= train[1].toordinal()
        ]
        values = a.values[days][:, [BAND_ORDER.index(band) for band in bands]]
        fitted = fit_batch(a.doys[days][None], values[None], ~np.isnan(values)[None])
        coeffs = {}
        for j, band in enumerate(bands):
            if fitted.status[0, j] == FIT_OK:
                coeffs[band] = fitted.coeffs[0, j]
                models[cp.pixel_id, band] = HarmonicModel(
                    band, cp.pixel_id, tuple(coeffs[band].tolist()), train,
                    int(fitted.n_obs[0, j]),
                )
        if len(coeffs) < len(bands):
            continue
        doys = a.doys[run]
        errors = {
            band: a.values[run, BAND_ORDER.index(band)] - predict_many(coeffs[band], doys)
            for band in bands
        }
        index = None
        if isinstance(rule, MahalanobisRule):
            index = np.array([
                mahalanobis_index(
                    errors[Band.NIR][i], errors[Band.NDVI][i],
                    matrix_for(rule.covariances, site_id, *cube_of(cp.col, cp.row, int(doys[i]))),
                )
                for i in range(c)
            ])
        window = WindowErrors(
            a.ordinals[run], a.comp_ordinals[run], doys, [True] + [False] * (c - 1), errors, index
        )
        if scan_windows([window], rule) is not None:
            newly[cp.pixel_id] = batch_date
    return newly, models


def online_steps(pixels, rule, monitor_year, site_id=""):
    """The online loop over the monitored year plus its extension: one
    (batch date, newly flagged, refits) per nominal date of any pixel, and
    the flag dates of the whole replay."""
    first = dt.date(monitor_year, 1, 1)
    last = dt.date(monitor_year, 12, 31) + dt.timedelta(days=PREDICT_EXTENSION_DAYS)
    dates = sorted({
        dt.date.fromordinal(int(o)) for cp in pixels for o in cp.arrays.ordinals
        if first.toordinal() <= o <= last.toordinal()
    })
    flagged, steps = {}, []
    for date in dates:
        newly, models = online_step(pixels, date, rule, monitor_year, flagged, site_id)
        flagged.update(newly)
        steps.append((date, newly, models))
    return steps, flagged
