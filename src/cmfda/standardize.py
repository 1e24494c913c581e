"""Prediction-error standardization schemes.

Errors can be rescaled by a sample standard deviation or mapped through an
empirical CDF, with the statistic pooled by pixel, by 5-day period (across
all sites or per site), or by space-time cube. Two-stage schemes apply the
date-keyed stage first and the pixel-keyed stage second; an ECDF used as an
intermediate stage is followed by the inverse normal CDF so that the next
stage sees roughly normal values, while a final ECDF stage is shifted by
-0.5 to a symmetric uniform range.

Everything runs on arrays, on the pooling engine of ``detection``. A
history is a ``ResidualHistory``; a stage's tables are
``detection.pool_statistics`` of each fallback level, ``np.std`` or
``np.sort`` of each key's segment of the values sorted by key (a stable
(key, value) sort orders -0.0 and 0.0 otherwise). A transform is
``detection.pool_walk`` over the levels' served keys (see ``StageTables``),
then a rescaling, or one rank search for an ECDF stage. Tables, values and
saved files are bit-identical to the record-by-record definition. The
inverse normal CDF keeps the scalar order of operations and calls
``math.log``, ``math.exp`` and ``math.erfc`` through ``np.frompyfunc``:
NumPy's ``log`` and ``exp`` differ from them in the last ulp for some
inputs, and the values a first ECDF stage passes on become second-stage
samples, which standardizer files store exactly.
"""
from __future__ import annotations

import datetime as dt
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable

import numpy as np

from .core import Band, ResidualHistory
from .detection import pool_codes, pool_statistics, pool_walk
from .errors import (
    DegenerateHistory,
    EmptyHistory,
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


@dataclass(frozen=True)
class StageTables:
    """Fitted lookup tables for one stage, most specific level first:
    (sd, n) per key for an sd stage, the sorted sample per key for an
    ECDF stage.

    Building a stage keeps, for each fallback level, the keys that level
    can serve: those with n >= 2 and sd > 0, or for an ECDF stage a
    non-empty sample, the samples lying end to end in one pooled array. A
    lookup is ``detection.pool_walk`` over these levels.
    """

    key_kind: KeyKind
    transform_kind: str
    sd_levels: tuple[tuple[KeyKind, dict], ...] = ()
    ecdf_levels: tuple[tuple[KeyKind, dict], ...] = ()

    def __post_init__(self):
        sd = self.transform_kind == SD
        levels = [(kind, {key: entry for key, entry in table.items()
                          if ((entry[1] >= 2 and entry[0] > 0) if sd else entry.size)})
                  for kind, table in (self.sd_levels if sd else self.ecdf_levels)]
        stats = [entry for _, table in levels for entry in table.values()]
        samples = [] if sd else stats
        sizes = np.array([sample.size for sample in samples], dtype=np.int64)
        pool = np.concatenate(samples) if samples else np.empty(0)
        # A value's rank in its sample is a search in one sorted array of
        # (sample number, rank of the value among the pool's distinct
        # values) codes: integer codes compare as the values do. The
        # distinct values come from a sort, as in np.unique, which would
        # import numpy.ma.
        ordered = np.sort(pool)
        distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]] if pool.size else pool
        stride = distinct.size + 1
        codes = np.repeat(np.arange(sizes.size), sizes) * stride + np.searchsorted(
            distinct, pool, side="right"
        )
        set_, rows = partial(object.__setattr__, self), itertools.count()
        set_("_kinds", tuple(kind for kind, _ in levels))
        set_("_served", [(kind.value, dict(zip(table, rows))) for kind, table in levels])
        set_("_sds", np.array([spread for spread, _ in stats] if sd else [], dtype=float))
        set_("_sizes", sizes)
        set_("_starts", np.cumsum(sizes) - sizes)
        set_("_distinct", distinct)
        set_("_stride", stride)
        set_("_codes", codes)

    def apply(self, errors: ResidualHistory, values: np.ndarray, final: bool) -> np.ndarray:
        """The stage's transform of each value, at its entry's context."""
        rows, _ = pool_walk(errors, self._served)
        if (rows < 0).any():
            raise DegenerateHistory(
                "no key with positive spread covers this context"
                if self.transform_kind == SD
                else "no populated sample covers this context"
            )
        if self.transform_kind == SD:
            return values / self._sds[rows]
        value_codes = rows * self._stride + np.searchsorted(self._distinct, values, side="right")
        rank = np.searchsorted(self._codes, value_codes, side="right") - self._starts[rows]
        p = _rank_probability(rank, self._sizes[rows])
        if final:
            return p - 0.5
        return inverse_normal_cdf_array(p)

    def served(self, errors: ResidualHistory) -> dict[KeyKind, int]:
        """How many of the distinct keys that the entries have at the
        stage's own level each fallback level serves; a key whose entries
        fall back apart counts at the level that serves its first entry."""
        _, depth = pool_walk(errors, self._served)
        codes, _ = pool_codes(errors, self.key_kind.value)
        _, first = np.unique(codes, return_index=True)
        counts = np.bincount(depth[first], minlength=len(self._served))
        return dict(zip(self._kinds, counts.tolist()))


@dataclass(frozen=True)
class Standardizer:
    """Fitted transform for one band's prediction errors."""

    scheme: Scheme
    band: Band
    stages: tuple[StageTables, ...]


def _sds(starts, stops, values) -> list[tuple[float, int]]:
    return [(float(np.std(values[lo:hi], ddof=1)) if hi - lo >= 2 else 0.0, hi - lo)
            for lo, hi in zip(starts.tolist(), stops.tolist())]


def _samples(starts, stops, values) -> list[np.ndarray]:
    return [np.sort(values[lo:hi]) for lo, hi in zip(starts.tolist(), stops.tolist())]


def _fit_stage(
    key_kind: KeyKind, transform_kind: str, history: ResidualHistory, values: np.ndarray
) -> StageTables:
    """Tables of one stage: per fallback level, ``np.std`` or ``np.sort``
    of each key's values (see ``detection.pool_statistics``), as it is of
    the key's values gathered one by one."""
    kinds = FALLBACK_LEVELS[key_kind]
    tables = pool_statistics(
        history, [kind.value for kind in kinds], _sds if transform_kind == SD else _samples, values
    )
    levels = tuple(zip(kinds, tables))
    if transform_kind == SD:
        global_sd, global_n = tables[-1][None]
        if global_n < 2 or global_sd <= 0:
            raise DegenerateHistory("history has no spread; cannot standardize by sd")
        return StageTables(key_kind, SD, sd_levels=levels)
    return StageTables(key_kind, ECDF, ecdf_levels=levels)


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
