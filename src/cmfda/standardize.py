"""Prediction-error standardization schemes.

Errors can be rescaled by a sample standard deviation or mapped through an
empirical CDF, with the statistic pooled by pixel, by 5-day period (across
all sites or per site), or by space-time cube. Two-stage schemes apply the
date-keyed stage first and the pixel-keyed stage second; an ECDF used as an
intermediate stage is followed by the inverse normal CDF so that the next
stage sees roughly normal values, while a final ECDF stage is shifted by
-0.5 to a symmetric uniform range.

Everything runs on arrays. A history is a ``ResidualHistory``; each key
kind is an integer code per entry, so a stage's tables take one stable
sort per fallback level, with ``np.std`` or ``np.sort`` of each key's
segment. The fallback chain is resolved when the tables are built: each
level becomes rows of statistics over the periods, and each key's chain is
merged once and kept (see ``StageTables``), so a transform is a gather,
plus one rank search for an ECDF stage. Tables, values and saved files are bit-identical to the
record-by-record definition. The inverse normal CDF keeps the scalar order
of operations and calls ``math.log``, ``math.exp`` and ``math.erfc``
through ``np.frompyfunc``: NumPy's ``log`` and ``exp`` differ from them in
the last ulp for some inputs, and the values a first ECDF stage passes on
become second-stage samples, which standardizer files store exactly.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable

import numpy as np

from .core import Band, ResidualHistory, segments
from .detection import N_PERIODS, N_SQUARES, cube_codes, periods_of, pool_codes
from .errors import (
    DegenerateHistory,
    EmptyHistory,
    EmptySample,
    OutOfDomain,
)


class Scheme(Enum):
    """The 17 standardization schemes, identified by their short codes."""

    IDENTITY = "---"
    DAY_SD_OVERALL = "2"
    DAY_SD_SITE = "3"
    DAY_ECDF_OVERALL = "II"
    DAY_ECDF_SITE = "III"
    PIXEL_SD = "1"
    PIXEL_ECDF = "I"
    DAY_PIXEL_SD_OVERALL_SD = "4a"
    DAY_PIXEL_SD_SITE_SD = "4b"
    DAY_PIXEL_ECDF_OVERALL_SD = "II.1"
    DAY_PIXEL_ECDF_SITE_SD = "III.1"
    DAY_PIXEL_SD_OVERALL_ECDF = "2.I"
    DAY_PIXEL_SD_SITE_ECDF = "3.I"
    DAY_PIXEL_ECDF_OVERALL_ECDF = "IVi"
    DAY_PIXEL_ECDF_SITE_ECDF = "IVii"
    CUBE_SD = "4c"
    CUBE_ECDF = "IViii"

    @classmethod
    def from_code(cls, code: str) -> "Scheme":
        try:
            return cls(code)
        except ValueError:
            raise OutOfDomain(
                f"unknown scheme code {code!r}; valid codes: "
                + ", ".join(s.value for s in cls)
            ) from None


class KeyKind(Enum):
    PIXEL = "pixel"
    PERIOD = "period"
    SITE_PERIOD = "site_period"
    CUBE = "cube"
    SITE = "site"
    GLOBAL = "global"


SD = "sd"
ECDF = "ecdf"

# (key kind, transform kind) per stage, in application order.
SCHEME_STAGES: dict[Scheme, tuple[tuple[KeyKind, str], ...]] = {
    Scheme.IDENTITY: (),
    Scheme.DAY_SD_OVERALL: ((KeyKind.PERIOD, SD),),
    Scheme.DAY_SD_SITE: ((KeyKind.SITE_PERIOD, SD),),
    Scheme.DAY_ECDF_OVERALL: ((KeyKind.PERIOD, ECDF),),
    Scheme.DAY_ECDF_SITE: ((KeyKind.SITE_PERIOD, ECDF),),
    Scheme.PIXEL_SD: ((KeyKind.PIXEL, SD),),
    Scheme.PIXEL_ECDF: ((KeyKind.PIXEL, ECDF),),
    Scheme.DAY_PIXEL_SD_OVERALL_SD: ((KeyKind.PERIOD, SD), (KeyKind.PIXEL, SD)),
    Scheme.DAY_PIXEL_SD_SITE_SD: ((KeyKind.SITE_PERIOD, SD), (KeyKind.PIXEL, SD)),
    Scheme.DAY_PIXEL_ECDF_OVERALL_SD: ((KeyKind.PERIOD, ECDF), (KeyKind.PIXEL, SD)),
    Scheme.DAY_PIXEL_ECDF_SITE_SD: ((KeyKind.SITE_PERIOD, ECDF), (KeyKind.PIXEL, SD)),
    Scheme.DAY_PIXEL_SD_OVERALL_ECDF: ((KeyKind.PERIOD, SD), (KeyKind.PIXEL, ECDF)),
    Scheme.DAY_PIXEL_SD_SITE_ECDF: ((KeyKind.SITE_PERIOD, SD), (KeyKind.PIXEL, ECDF)),
    Scheme.DAY_PIXEL_ECDF_OVERALL_ECDF: ((KeyKind.PERIOD, ECDF), (KeyKind.PIXEL, ECDF)),
    Scheme.DAY_PIXEL_ECDF_SITE_ECDF: ((KeyKind.SITE_PERIOD, ECDF), (KeyKind.PIXEL, ECDF)),
    Scheme.CUBE_SD: ((KeyKind.CUBE, SD),),
    Scheme.CUBE_ECDF: ((KeyKind.CUBE, ECDF),),
}

# Sparse or degenerate keys fall back to coarser pools, ending at the
# global pool which always exists for a non-empty history.
FALLBACK_LEVELS: dict[KeyKind, tuple[KeyKind, ...]] = {
    KeyKind.PIXEL: (KeyKind.PIXEL, KeyKind.SITE, KeyKind.GLOBAL),
    KeyKind.PERIOD: (KeyKind.PERIOD, KeyKind.GLOBAL),
    KeyKind.SITE_PERIOD: (KeyKind.SITE_PERIOD, KeyKind.PERIOD, KeyKind.GLOBAL),
    KeyKind.CUBE: (KeyKind.CUBE, KeyKind.SITE_PERIOD, KeyKind.SITE, KeyKind.GLOBAL),
}


@dataclass(frozen=True)
class ErrorContext:
    """Where and when a prediction error was observed."""

    pixel_id: str
    site_id: str
    col: int
    row: int
    date: dt.date


@dataclass(frozen=True)
class ErrorRecord(ErrorContext):
    value: float


def _one_entry(ctx: ErrorContext, value: float = 0.0) -> ResidualHistory:
    return ResidualHistory.from_records([ctx], values=[value])


def _key_for(kind: KeyKind, ctx: ErrorContext):
    """The key of one context in a pool of the given kind."""
    codes, key_of = pool_codes(_one_entry(ctx), kind.value)
    return key_of(int(codes[0]))


def _rank_probability(rank: np.ndarray, n) -> np.ndarray:
    """r/(n+1) with the rank clamped to 1..n."""
    return np.minimum(np.maximum(rank, 1), n) / (n + 1)


def ecdf_eval(sample: np.ndarray, x: float) -> float:
    """Rank-based ECDF value r/(n+1), clamped away from 0 and 1.

    The clamp keeps a subsequent inverse normal CDF finite for values
    outside the sample range.
    """
    sample = np.asarray(sample)
    if sample.size == 0:
        raise EmptySample("ecdf evaluated on an empty sample")
    rank = np.searchsorted(sample, [x], side="right")
    return float(_rank_probability(rank, sample.size)[0])


# Rational approximation of the normal quantile (Acklam's coefficients),
# polished with one Halley step against the erfc-based CDF.
_ICDF_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ICDF_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ICDF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ICDF_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_ICDF_P_LOW = 0.02425
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# The transcendental steps use the math module's functions, element by
# element: NumPy's log and exp can differ from them in the last ulp.
_LOG = np.frompyfunc(math.log, 1, 1)
_EXP = np.frompyfunc(math.exp, 1, 1)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _icdf_lower_half(p: np.ndarray) -> np.ndarray:
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    x = np.empty_like(p)
    tail = p < _ICDF_P_LOW
    q = np.sqrt(-2.0 * _LOG(p[tail]).astype(float))
    x[tail] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )
    q = p[~tail] - 0.5
    r = q * q
    x[~tail] = (
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
        * q
        / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    )
    # Halley refinement against the exact CDF.
    err = 0.5 * _ERFC(-x / _SQRT_2).astype(float) - p
    u = err * _SQRT_2PI * _EXP(0.5 * x * x).astype(float)
    return x - u / (1.0 + 0.5 * x * u)


def inverse_normal_cdf_array(p) -> np.ndarray:
    """Standard normal quantile of each probability."""
    p = np.asarray(p, dtype=float)
    outside = ~((p > 0.0) & (p < 1.0))
    if outside.any():
        raise OutOfDomain(f"probability {p[np.argmax(outside)]} outside (0, 1)")
    upper = p > 0.5
    x = _icdf_lower_half(np.where(upper, 1.0 - p, p))
    return np.where(p == 0.5, 0.0, np.where(upper, -x, x))


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile function."""
    return float(inverse_normal_cdf_array([p])[0])


_PERIOD_POOLS = frozenset((KeyKind.PERIOD, KeyKind.SITE_PERIOD, KeyKind.CUBE))
_SITE_POOLS = frozenset((KeyKind.SITE, KeyKind.SITE_PERIOD, KeyKind.CUBE))


def _split_key(kind: KeyKind, key) -> tuple:
    """(entity, period) of a key; the period is 0 in pools without one."""
    if kind is KeyKind.PERIOD:
        return None, key
    if kind is KeyKind.SITE_PERIOD:
        return key[0], key[1]
    if kind is KeyKind.CUBE:
        return key[:2], key[2]
    return key, 0


def _entity(kind: KeyKind, pixel_id: str, site_id: str, square):
    """The part of a context's key in a pool that does not vary by period."""
    if kind is KeyKind.PIXEL:
        return pixel_id
    if kind in (KeyKind.SITE, KeyKind.SITE_PERIOD):
        return site_id
    if kind is KeyKind.CUBE:
        return (site_id, square)
    return None


@dataclass(frozen=True)
class StageTables:
    """Fitted lookup tables for one stage, most specific level first:
    (sd, n) per key for an sd stage, the sorted sample per key for an
    ECDF stage.

    Building a stage resolves its fallback chain. Each level's tables
    become rows over the 73 periods, one per entity (the key minus its
    period), holding the statistic where that level can serve the key and
    NaN where it cannot: an sd needs n >= 2 and sd > 0, a sample at least
    one value. A context's statistic is the first level's non-NaN entry;
    the merged row of each distinct chain of entities is kept, so every
    key is resolved once. An ECDF stage's statistic is a sample number:
    the samples lie end to end in one pooled array.
    """

    key_kind: KeyKind
    transform_kind: str
    sd_levels: tuple[tuple[KeyKind, dict], ...] = ()
    ecdf_levels: tuple[tuple[KeyKind, dict], ...] = ()

    def __post_init__(self):
        levels = self.sd_levels if self.transform_kind == SD else self.ecdf_levels
        kinds = tuple(kind for kind, _ in levels)
        width = N_PERIODS if _PERIOD_POOLS.intersection(kinds) else 1
        rows: list[dict] = []
        samples: list[np.ndarray] = []
        for kind, table in levels:
            level_rows: dict = {}
            for key, entry in table.items():
                entity, period = _split_key(kind, key)
                if not 0 <= period < width:
                    continue  # no context has this key
                row = level_rows.get(entity)
                if row is None:
                    size = width if kind in _PERIOD_POOLS else 1
                    row = level_rows[entity] = np.full(size, np.nan)
                if self.transform_kind == SD:
                    sd, n = entry
                    if n >= 2 and sd > 0:
                        row[period] = sd
                elif entry.size:
                    row[period] = len(samples)
                    samples.append(entry)
            rows.append(level_rows)
        sizes = np.array([sample.size for sample in samples], dtype=np.int64)
        pool = np.concatenate(samples) if samples else np.empty(0)
        # A value's rank in its sample is a search in one sorted array of
        # (sample number, rank of the value among the pool's distinct
        # values) codes: integer codes compare as the values do.
        distinct = np.unique(pool)
        stride = distinct.size + 1
        codes = np.repeat(np.arange(sizes.size), sizes) * stride + np.searchsorted(
            distinct, pool, side="right"
        )
        set_ = partial(object.__setattr__, self)
        set_("_kinds", kinds)
        set_("_width", width)
        set_("_rows", rows)
        set_("_resolved", {})
        set_("_sizes", sizes)
        set_("_starts", np.cumsum(sizes) - sizes)
        set_("_distinct", distinct)
        set_("_stride", stride)
        set_("_codes", codes)

    def _resolve(self, entities: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Per period, the statistic of the first level that can serve
        these entities, and that level's depth (NaN and -1 when none can)."""
        hit = self._resolved.get(entities)
        if hit is None:
            stat = np.full(self._width, np.nan)
            depth = np.full(self._width, -1)
            for level, (rows, entity) in enumerate(zip(self._rows, entities)):
                row = rows.get(entity)
                if row is not None:
                    take = (depth < 0) & ~np.isnan(row)
                    stat = np.where(take, row, stat)
                    depth = np.where(take, level, depth)
            hit = self._resolved[entities] = (stat, depth)
        return hit

    def _lookup(self, errors: ResidualHistory):
        """For each entry: its statistic, the depth of the level that
        served it, and a code of its key at the stage's own level."""
        if not len(errors):
            return np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        kinds = self._kinds
        chain = np.zeros(len(errors), dtype=np.int64)
        if KeyKind.PIXEL in kinds:
            chain = errors.pixel.astype(np.int64)
        if _SITE_POOLS.intersection(kinds):
            chain = chain * len(errors.site_ids) + errors.site
        squares = None
        if KeyKind.CUBE in kinds:
            squares, _ = cube_codes(errors.col, errors.row, errors.doy)
            chain = chain * N_SQUARES + squares
        periods = periods_of(errors.doy) if self._width > 1 else 0
        if (chain == chain[0]).all():  # one pixel's errors: one chain
            first, inverse = np.zeros(1, dtype=np.intp), np.zeros(chain.size, dtype=np.intp)
        else:
            _, first, inverse = np.unique(chain, return_index=True, return_inverse=True)
        resolved = [
            self._resolve(tuple(
                _entity(
                    kind, errors.pixel_ids[errors.pixel[k]], errors.site_ids[errors.site[k]],
                    None if squares is None else int(squares[k]),
                )
                for kind in kinds
            ))
            for k in first.tolist()
        ]
        stat = np.stack([r[0] for r in resolved])[inverse, periods]
        depth = np.stack([r[1] for r in resolved])[inverse, periods]
        return stat, depth, inverse * self._width + periods

    def apply(self, errors: ResidualHistory, values: np.ndarray, final: bool) -> np.ndarray:
        """The stage's transform of each value, at its entry's context."""
        stat, _, _ = self._lookup(errors)
        if np.isnan(stat).any():
            raise DegenerateHistory(
                "no key with positive spread covers this context"
                if self.transform_kind == SD
                else "no populated sample covers this context"
            )
        if self.transform_kind == SD:
            return values / stat
        sample = stat.astype(np.intp)
        value_codes = sample * self._stride + np.searchsorted(self._distinct, values, side="right")
        rank = np.searchsorted(self._codes, value_codes, side="right") - self._starts[sample]
        p = _rank_probability(rank, self._sizes[sample])
        if final:
            return p - 0.5
        return inverse_normal_cdf_array(p)

    def served(self, errors: ResidualHistory) -> dict[KeyKind, int]:
        """How many of the distinct keys that the entries have at the
        stage's own level each fallback level serves."""
        _, depth, key = self._lookup(errors)
        _, first = np.unique(key, return_index=True)
        counts = np.bincount(depth[first], minlength=len(self._kinds))
        return dict(zip(self._kinds, counts.tolist()))


@dataclass(frozen=True)
class Standardizer:
    """Fitted transform for one band's prediction errors."""

    scheme: Scheme
    band: Band
    stages: tuple[StageTables, ...]


def _fit_stage(
    key_kind: KeyKind, transform_kind: str, history: ResidualHistory, values: np.ndarray
) -> StageTables:
    """Tables of one stage. Each fallback level is one stable sort by the
    level's key codes, so every key's values form a segment in their
    original order; ``np.std`` or ``np.sort`` of that segment is then the
    key's statistic, as it is of the key's values gathered one by one.
    Keys come in order of first appearance."""
    levels = []
    for kind in FALLBACK_LEVELS[key_kind]:
        codes, key_of = pool_codes(history, kind.value)
        order = np.argsort(codes, kind="stable")
        ordered = values[order]
        if transform_kind == SD:
            table = {
                key_of(code): (
                    float(np.std(ordered[lo:hi], ddof=1)) if hi - lo >= 2 else 0.0, hi - lo
                )
                for code, lo, hi in segments(codes, order)
            }
        else:
            table = {
                key_of(code): np.sort(ordered[lo:hi]) for code, lo, hi in segments(codes, order)
            }
        levels.append((kind, table))
    if transform_kind == SD:
        global_sd, global_n = levels[-1][1][None]
        if global_n < 2 or global_sd <= 0:
            raise DegenerateHistory("history has no spread; cannot standardize by sd")
        return StageTables(key_kind, SD, sd_levels=tuple(levels))
    return StageTables(key_kind, ECDF, ecdf_levels=tuple(levels))


def fit_standardizer(
    history: ResidualHistory | Iterable[ErrorRecord],
    scheme: Scheme,
    band: Band,
) -> Standardizer:
    """Compute every table the scheme needs from the history alone.

    For two-stage schemes the second stage is fitted on history values
    already passed through the first stage.
    """
    if not isinstance(history, ResidualHistory):
        history = ResidualHistory.from_records(history)
    if not len(history):
        raise EmptyHistory("cannot fit a standardizer on an empty history")
    values = history.value
    specs = SCHEME_STAGES[scheme]
    stages: list[StageTables] = []
    for i, (key_kind, transform_kind) in enumerate(specs):
        stage = _fit_stage(key_kind, transform_kind, history, values)
        stages.append(stage)
        if i + 1 < len(specs):
            values = stage.apply(history, values, final=False)
    return Standardizer(scheme=scheme, band=band, stages=tuple(stages))


def transform_errors(std: Standardizer, errors: ResidualHistory) -> np.ndarray:
    """Standardized value of every error, each at its own context."""
    values = errors.value
    last = len(std.stages) - 1
    for i, stage in enumerate(std.stages):
        values = stage.apply(errors, values, final=(i == last))
    return values


def transform(std: Standardizer, eps: float, ctx: ErrorContext) -> float:
    """Standardized error for one observation context."""
    return float(transform_errors(std, _one_entry(ctx, eps))[0])
