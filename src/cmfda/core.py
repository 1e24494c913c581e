"""Domain types for 16-day multi-band reflectance series.

Everything here is immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

import calendar
import datetime as dt
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Mapping, NamedTuple, Optional

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
            gap = (cur.nominal_date - prev.nominal_date).days
            if gap != CADENCE_DAYS:
                raise OutOfRange(
                    f"pixel {self.pixel_id}: nominal dates {prev.nominal_date} -> "
                    f"{cur.nominal_date} are {gap} days apart, expected {CADENCE_DAYS}"
                )

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

    def pixel_at(self, col: int, row: int) -> PixelSeries:
        if not (0 <= col < SITE_SIDE and 0 <= row < SITE_SIDE):
            raise OutOfRange(f"pixel ({col}, {row}) outside the {SITE_SIDE}x{SITE_SIDE} site")
        return self.pixels[row * SITE_SIDE + col]


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
