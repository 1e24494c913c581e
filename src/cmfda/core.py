"""Domain types for 16-day multi-band reflectance series.

Everything here is immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

import calendar
import datetime as dt
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import OutOfRange


class Band(IntEnum):
    """Spectral bands and derived indices carried per observation."""

    RED = 1
    NIR = 2
    BLUE = 3
    MIR = 7
    NDVI = 8
    EVI = 9


# Fixed column order used in files and value matrices.
BAND_ORDER = (Band.RED, Band.NIR, Band.BLUE, Band.MIR, Band.NDVI, Band.EVI)
REFLECTANCE_BANDS = (Band.RED, Band.NIR, Band.BLUE, Band.MIR)
INDEX_BANDS = (Band.NDVI, Band.EVI)

# Dataset fill values double as the lower bound of the accepted range.
FILL_REFLECTANCE = -0.1
FILL_INDEX = -0.3

CADENCE_DAYS = 16        # spacing of nominal composite dates
YEAR_DAYS = 366          # cycle length used by all harmonic math
MAX_COMPOSITE_LAG = 15   # composite day falls 0..15 days after the nominal day


class Reliability(IntEnum):
    """Per-observation quality rank; Good/Marginal count as clear."""

    NOT_PROCESSED = -1
    GOOD = 0
    MARGINAL = 1
    SNOW_ICE = 2
    CLOUDY = 3


CLEAR_CODES = frozenset((Reliability.GOOD, Reliability.MARGINAL))


class DefoType(Enum):
    FOREST_TO_WATER = "forest_to_water"
    FOREST_TO_URBAN_CROPLAND = "forest_to_urban_cropland"
    UNKNOWN = "unknown"


def band_fill(band: Band) -> float:
    return FILL_REFLECTANCE if band in REFLECTANCE_BANDS else FILL_INDEX


def band_range(band: Band) -> tuple[float, float]:
    """Accepted value range (fill value included as the lower bound)."""
    return (band_fill(band), 1.0)


def day_of_year(date: dt.date) -> int:
    return date.timetuple().tm_yday


def _composite_lag(nominal: dt.date, composite_doy: int) -> int:
    """Days from the nominal date to the composite day (0..15); a wrap can
    cross at most one Dec 31 since the lag is bounded."""
    delta = composite_doy - day_of_year(nominal)
    if 0 <= delta <= MAX_COMPOSITE_LAG:
        return delta
    year_len = 366 if calendar.isleap(nominal.year) else 365
    wrapped = delta + year_len
    if 0 <= wrapped <= MAX_COMPOSITE_LAG:
        return wrapped
    raise OutOfRange(
        f"composite_doy {composite_doy} is more than {MAX_COMPOSITE_LAG} days "
        f"after nominal {nominal}"
    )


@dataclass(frozen=True)
class Observation:
    """One 16-day composite for one pixel.

    ``composite_doy`` is the day of the year the composite was actually
    taken, 0-15 days after the nominal date; it is the abscissa of the
    harmonic model.
    """

    nominal_date: dt.date
    composite_doy: int
    values: Mapping[Band, float]
    reliability: Reliability

    def __post_init__(self):
        if not 1 <= self.composite_doy <= YEAR_DAYS:
            raise OutOfRange(f"composite_doy {self.composite_doy} outside 1..366")
        _composite_lag(self.nominal_date, self.composite_doy)
        for band, value in self.values.items():
            lo, hi = band_range(band)
            if not lo <= value <= hi:
                raise OutOfRange(f"{band.name} value {value} outside [{lo}, {hi}]")

    def band_value(self, band: Band) -> Optional[float]:
        """Value for ``band``, or None when missing or fill-coded."""
        value = self.values.get(band)
        if value is None or value == band_fill(band):
            return None
        return value

    def composite_date(self) -> dt.date:
        """Calendar date of the composite day (nominal date plus lag)."""
        lag = _composite_lag(self.nominal_date, self.composite_doy)
        return self.nominal_date + dt.timedelta(days=lag)


def cadence_error(pixel_id: str, prev: dt.date, cur: dt.date) -> OutOfRange:
    """The error for consecutive nominal dates that are not one cadence
    step apart."""
    return OutOfRange(
        f"pixel {pixel_id}: nominal dates {prev} -> {cur} are "
        f"{(cur - prev).days} days apart, expected {CADENCE_DAYS}"
    )


def is_clear(obs: Observation) -> bool:
    """True iff the observation's reliability is Good or Marginal."""
    return obs.reliability in CLEAR_CODES


@dataclass(frozen=True)
class PixelSeries:
    """Time-ordered observation record for one 1 km pixel."""

    pixel_id: str
    col: int
    row: int
    observations: tuple[Observation, ...]

    def __post_init__(self):
        obs = self.observations
        for prev, cur in zip(obs, obs[1:]):
            if (cur.nominal_date - prev.nominal_date).days != CADENCE_DAYS:
                raise cadence_error(self.pixel_id, prev.nominal_date, cur.nominal_date)

    def to_arrays(self) -> "SeriesArrays":
        """Compact numpy view used by the fitting and detection pipelines."""
        n = len(self.observations)
        ordinals = np.empty(n, dtype=np.int64)
        comp_ordinals = np.empty(n, dtype=np.int64)
        doys = np.empty(n, dtype=np.int32)
        reliability = np.empty(n, dtype=np.int8)
        values = np.full((n, len(BAND_ORDER)), np.nan)
        for i, obs in enumerate(self.observations):
            ordinals[i] = obs.nominal_date.toordinal()
            comp_ordinals[i] = obs.composite_date().toordinal()
            doys[i] = obs.composite_doy
            reliability[i] = int(obs.reliability)
            for j, band in enumerate(BAND_ORDER):
                v = obs.band_value(band)
                if v is not None:
                    values[i, j] = v
        clear = (reliability == int(Reliability.GOOD)) | (
            reliability == int(Reliability.MARGINAL)
        )
        return SeriesArrays(ordinals, comp_ordinals, doys, reliability, clear, values)


class SeriesArrays(NamedTuple):
    """Columnar form of a PixelSeries; missing band values are NaN."""

    ordinals: np.ndarray       # nominal dates as proleptic ordinals
    comp_ordinals: np.ndarray  # composite dates as ordinals
    doys: np.ndarray           # composite day of year
    reliability: np.ndarray
    clear: np.ndarray          # bool mask, Good or Marginal
    values: np.ndarray         # (n_obs, 6) in BAND_ORDER


# No rows, in the dtypes that a read of a series file gives.
EMPTY_ARRAYS = SeriesArrays(
    np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int32),
    np.empty(0, np.int8), np.empty(0, bool), np.empty((0, len(BAND_ORDER))),
)


@dataclass
class CompactPixel:
    """One pixel series as arrays, the form fitting and detection read."""

    pixel_id: str
    col: int
    row: int
    arrays: SeriesArrays


class FlatSeries(NamedTuple):
    """Many pixels' series in one set of arrays, pixels grouped by site as
    a read of their series file orders them. Pixel ``p`` is ``keys[p]`` =
    (site_id, pixel_id, col, row); its rows, sorted by date, are
    ``bounds[p]:bounds[p + 1]`` of ``columns``."""

    keys: list
    bounds: np.ndarray       # int64, one more than keys
    columns: SeriesArrays

    @classmethod
    def from_sites(cls, sites: Mapping[str, Sequence[CompactPixel]]) -> "FlatSeries":
        pixels = [(site_id, cp) for site_id, cps in sites.items() for cp in cps]
        return cls(
            [(site_id, cp.pixel_id, int(cp.col), int(cp.row)) for site_id, cp in pixels],
            np.cumsum([0] + [len(cp.arrays.ordinals) for _, cp in pixels], dtype=np.int64),
            SeriesArrays(*(np.concatenate([e, *(cp.arrays[i] for _, cp in pixels)])
                           for i, e in enumerate(EMPTY_ARRAYS))),
        )

    @classmethod
    def of_rows(cls, keys: Sequence, pixel: np.ndarray, columns: SeriesArrays) -> "FlatSeries":
        """Rows in any order, row ``i`` a date of pixel ``keys[pixel[i]]``,
        with the pixels grouped by site, sites and pixels in ``keys`` order."""
        sites: dict = {}
        group = np.argsort([sites.setdefault(key[0], len(sites)) for key in keys], kind="stable")
        rank = np.empty(len(keys), np.intp)
        rank[group] = np.arange(len(keys))
        rank = rank[pixel]
        order = np.lexsort((columns.ordinals, rank))
        return cls(
            [keys[q] for q in group.tolist()],
            np.cumsum([0, *np.bincount(rank, minlength=len(keys))], dtype=np.int64),
            SeriesArrays(*(column[order] for column in columns)),
        )

    def sites(self) -> dict[str, list[CompactPixel]]:
        """Per site, its pixels as views of the arrays."""
        stops = self.bounds.tolist()
        out: dict[str, list[CompactPixel]] = {}
        for p, (site_id, pixel_id, col, row) in enumerate(self.keys):
            s = slice(stops[p], stops[p + 1])
            out.setdefault(site_id, []).append(
                CompactPixel(pixel_id, col, row, SeriesArrays(*(a[s] for a in self.columns)))
            )
        return out


_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def ordinal_doys(ordinals: np.ndarray) -> np.ndarray:
    """Day of year of each proleptic ordinal."""
    days = (np.asarray(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
    return (days - days.astype("datetime64[Y]")).astype(np.int64) + 1


@dataclass(frozen=True, eq=False)
class ResidualHistory:
    """Prediction errors with their contexts, one entry per error.

    ``pixel`` and ``site`` index the ``pixel_ids`` and ``site_ids`` tables;
    ``ordinal`` and ``doy`` are the composite date's ordinal and day of year.
    Entries keep the order in which the errors were produced.
    """

    pixel_ids: tuple[str, ...]
    site_ids: tuple[str, ...]
    pixel: np.ndarray
    site: np.ndarray
    col: np.ndarray
    row: np.ndarray
    ordinal: np.ndarray
    doy: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return self.value.size

    @classmethod
    def build(cls, pixel_ids, site_ids, pixel, site, col, row, ordinal, value) -> "ResidualHistory":
        ordinal = np.asarray(ordinal, dtype=np.int64)
        return cls(
            tuple(pixel_ids), tuple(site_ids),
            np.asarray(pixel, dtype=np.intp), np.asarray(site, dtype=np.intp),
            np.asarray(col, dtype=np.int64), np.asarray(row, dtype=np.int64),
            ordinal, ordinal_doys(ordinal), np.asarray(value, dtype=float),
        )

    @classmethod
    def from_records(cls, records, values=None) -> "ResidualHistory":
        """From objects with ``pixel_id``, ``site_id``, ``col``, ``row``,
        ``date`` (the composite date) and, unless ``values`` is given,
        ``value``."""
        records = list(records)
        pixel_ids, pixel = distinct([r.pixel_id for r in records])
        site_ids, site = distinct([r.site_id for r in records])
        return cls.build(
            pixel_ids, site_ids, pixel, site,
            [r.col for r in records], [r.row for r in records],
            [r.date.toordinal() for r in records],
            [r.value for r in records] if values is None else values,
        )

    @classmethod
    def concat(cls, histories: Sequence["ResidualHistory"]) -> "ResidualHistory":
        """The entries of every history in turn, over merged id tables."""
        if not histories:
            return cls.build((), (), [], [], [], [], [], [])
        pixel_index: dict[str, int] = {}
        site_index: dict[str, int] = {}
        parts: dict[str, list] = {name: [] for name in _ENTRY_FIELDS}
        for h in histories:
            pixel_map = [pixel_index.setdefault(p, len(pixel_index)) for p in h.pixel_ids]
            site_map = [site_index.setdefault(s, len(site_index)) for s in h.site_ids]
            parts["pixel"].append(np.array(pixel_map, dtype=np.intp)[h.pixel])
            parts["site"].append(np.array(site_map, dtype=np.intp)[h.site])
            for name in _ENTRY_FIELDS[2:]:
                parts[name].append(getattr(h, name))
        return cls(
            tuple(pixel_index), tuple(site_index),
            **{name: np.concatenate(arrays) for name, arrays in parts.items()},
        )

    def take(self, index: np.ndarray) -> "ResidualHistory":
        return replace(
            self, **{name: getattr(self, name)[index] for name in _ENTRY_FIELDS}
        )


_ENTRY_FIELDS = ("pixel", "site", "col", "row", "ordinal", "doy", "value")


def distinct(items: Sequence) -> tuple[list, np.ndarray]:
    """The distinct items in first-seen order, and each item's index into
    them."""
    index = {item: k for k, item in enumerate(dict.fromkeys(items))}
    return list(index), np.fromiter(map(index.__getitem__, items), np.intp, count=len(items))


def segments(codes: np.ndarray, order: np.ndarray) -> list[tuple[int, int, int]]:
    """(code, start, stop) of each group of equal codes, where ``order``
    sorts ``codes`` and groups them; ``start:stop`` indexes the sorted
    entries. Groups come in order of the first appearance of their code."""
    if not codes.size:
        return []
    ordered = codes[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], ordered.size]
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first, kind="stable")
    return list(zip(ordered[starts][by_first].tolist(), starts[by_first].tolist(),
                    stops[by_first].tolist()))


SITE_SIDE = 25  # pixels per side of a 25 x 25 km site


@dataclass(frozen=True)
class SiteGrid:
    """A full 25 x 25 site of pixel series, row-major."""

    site_id: str
    pixels: tuple[PixelSeries, ...]
    defo_type: DefoType = DefoType.UNKNOWN

    def __post_init__(self):
        if len(self.pixels) != SITE_SIDE * SITE_SIDE:
            raise OutOfRange(
                f"site {self.site_id}: expected {SITE_SIDE * SITE_SIDE} pixels, "
                f"got {len(self.pixels)}"
            )


@dataclass(frozen=True)
class DeforestationLabel:
    """Ground truth per 1 km pixel: deforested iff any 250 m subpixel flipped."""

    pixel_id: str
    col: int
    row: int
    defo_count: int
    z: int

    def __post_init__(self):
        if not 0 <= self.defo_count <= 16:
            raise OutOfRange(f"defo_count {self.defo_count} outside 0..16")
        if self.z != (1 if self.defo_count >= 1 else 0):
            raise OutOfRange("z must be 1 exactly when defo_count >= 1")


def filter_clear(observations: Iterable[Observation]) -> list[Observation]:
    """Clear observations only, order preserved."""
    return [o for o in observations if is_clear(o)]
