"""Synthetic scenes: sites of pixels whose bands follow a seasonal
harmonic signal with noise, cloud and quality draws, and step changes
where deforestation events fall."""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    BAND_ORDER,
    CADENCE_DAYS,
    SITE_SIDE,
    Band,
    DefoType,
    DeforestationLabel,
    PixelSeries,
    Reliability,
    SiteGrid,
    ordinal_doys,
    series_from_arrays,
)
from .errors import InvalidConfig
from .harmonic import design_matrix


def pixel_name(site_id: str, col: int, row: int) -> str:
    return f"{site_id}-{col:02d}-{row:02d}"


@dataclass(frozen=True)
class BandSignal:
    """Harmonic coefficients and noise level of one band's clean signal."""

    coeffs: tuple[float, float, float, float, float]
    noise_sd: float = 0.0


@dataclass(frozen=True)
class EventSpec:
    """A step change applied to every observation from ``date`` on."""

    pixels: tuple[tuple[int, int], ...]   # (col, row)
    date: dt.date
    shifts: Mapping[Band, float]


@dataclass(frozen=True)
class SynthConfig:
    site_id: str
    start: dt.date
    end: dt.date
    signals: Mapping[Band, BandSignal]
    cloud_prob: tuple[float, ...]         # monthly probability of a cloudy flag
    marginal_prob: float = 0.1
    events: tuple[EventSpec, ...] = ()
    seed: int = 0
    defo_type: DefoType = DefoType.UNKNOWN


# Real (non-fill) data ranges used to clip noisy synthetic values; kept
# inside the acceptance range and away from the fill codes.
_CLIP = {band: (0.0, 1.0) for band in BAND_ORDER[:4]}
_CLIP.update({band: (-0.2, 1.0) for band in BAND_ORDER[4:]})


def _validate_config(cfg: SynthConfig) -> None:
    if cfg.end < cfg.start:
        raise InvalidConfig("end date before start date")
    if len(cfg.cloud_prob) != 12:
        raise InvalidConfig("cloud_prob needs one probability per month")
    if any(not 0 <= p <= 1 for p in cfg.cloud_prob):
        raise InvalidConfig("cloud probabilities must lie in [0, 1]")
    if not 0 <= cfg.marginal_prob <= 1:
        raise InvalidConfig("marginal probability must lie in [0, 1]")
    if any(p + cfg.marginal_prob > 1 for p in cfg.cloud_prob):
        raise InvalidConfig("cloudy plus marginal probability exceeds 1")
    for band in BAND_ORDER:
        if band not in cfg.signals:
            raise InvalidConfig(f"missing signal for band {band.name}")
    # worst-case cumulative shift per band: shifts only stack on a pixel
    # hit by several events
    per_pixel: dict[tuple[int, int], dict[Band, float]] = {}
    for event in cfg.events:
        if not cfg.start <= event.date <= cfg.end:
            raise InvalidConfig(f"event date {event.date} outside the scene dates")
        for col, row in event.pixels:
            if not (0 <= col < SITE_SIDE and 0 <= row < SITE_SIDE):
                raise InvalidConfig(f"event pixel ({col}, {row}) outside the site")
            totals = per_pixel.setdefault((col, row), {})
            for band, shift in event.shifts.items():
                totals[band] = totals.get(band, 0.0) + shift
    down = {band: 0.0 for band in BAND_ORDER}
    up = {band: 0.0 for band in BAND_ORDER}
    for totals in per_pixel.values():
        for band, shift in totals.items():
            down[band] = min(down[band], shift)
            up[band] = max(up[band], shift)
    for band, signal in cfg.signals.items():
        if signal.noise_sd < 0:
            raise InvalidConfig(f"{band.name}: negative noise sd")
        amplitude = sum(abs(c) for c in signal.coeffs[1:])
        lo, hi = _CLIP[band]
        if signal.coeffs[0] - amplitude + down[band] < lo - 1e-9:
            raise InvalidConfig(f"{band.name}: clean signal can fall below {lo}")
        if signal.coeffs[0] + amplitude + up[band] > hi + 1e-9:
            raise InvalidConfig(f"{band.name}: clean signal can exceed {hi}")


class SitePixels(Sequence[PixelSeries]):
    """The pixel series of a synthetic site, row-major, over the site's
    (pixel, date) arrays. A pixel's ``PixelSeries`` is built the first time
    it is taken and kept; two threads that race to build one pixel build
    equal series."""

    def __init__(self, site_id: str, dates: Sequence[dt.date], composite_doys: np.ndarray,
                 reliability: np.ndarray, values: np.ndarray):
        self._site_id = site_id
        self._dates = dates
        self._doys = composite_doys
        self._reliability = reliability
        self._values = values                # (pixel, date, band), bands in BAND_ORDER
        self._built: list[Optional[PixelSeries]] = [None] * len(composite_doys)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        position = range(len(self._built))[index]   # IndexError past either end
        if isinstance(position, range):
            return tuple(map(self.__getitem__, position))
        series = self._built[position]
        if series is None:
            series = self._built[position] = self._build(position)
        return series

    def _build(self, idx: int) -> PixelSeries:
        row, col = divmod(idx, SITE_SIDE)
        return series_from_arrays(pixel_name(self._site_id, col, row), col, row, self._dates,
                                  self._doys[idx], self._reliability[idx], self._values[idx])

    def columns(self) -> tuple:
        """Every pixel's rows as the columns of ``dataio.write_series_columns``,
        taken from the arrays: no pixel is built."""
        n_pixels, n_dates = self._doys.shape
        keys = [(self._site_id, pixel_name(self._site_id, col, row), col, row)
                for row, col in (divmod(idx, SITE_SIDE) for idx in range(n_pixels))]
        ordinals = np.tile([date.toordinal() for date in self._dates], n_pixels)
        return (keys, [n_dates] * n_pixels, ordinals, self._doys.ravel(),
                self._reliability.ravel(), self._values.reshape(-1, len(BAND_ORDER)))


def generate_site(cfg: SynthConfig) -> tuple[SiteGrid, list[DeforestationLabel]]:
    """Deterministic synthetic site: per-band harmonics plus noise, monthly
    cloud flags, and step-change events; labels mirror the event pixel set.
    The site's pixels are built on first access (:class:`SitePixels`)."""
    _validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    n_pixels = SITE_SIDE * SITE_SIDE

    ordinals = np.arange(cfg.start.toordinal(), cfg.end.toordinal() + 1, CADENCE_DAYS)
    dates = [dt.date.fromordinal(o) for o in ordinals.tolist()]
    n_dates = len(dates)
    months = np.array([d.month - 1 for d in dates])
    cloud_p = np.asarray(cfg.cloud_prob)[months]

    offsets = rng.integers(0, 16, size=(n_pixels, n_dates))
    quality_draw = rng.random(size=(n_pixels, n_dates))
    noise = {
        band: rng.standard_normal((n_pixels, n_dates)) * cfg.signals[band].noise_sd
        for band in BAND_ORDER
    }

    composite_doys = ordinal_doys(ordinals[None, :] + offsets)

    reliability = np.where(
        quality_draw < cloud_p[None, :],
        int(Reliability.CLOUDY),
        np.where(
            quality_draw < cloud_p[None, :] + cfg.marginal_prob,
            int(Reliability.MARGINAL),
            int(Reliability.GOOD),
        ),
    )

    shift = {band: np.zeros((n_pixels, n_dates)) for band in BAND_ORDER}
    event_pixels: set[tuple[int, int]] = set()
    for event in cfg.events:
        post = ordinals >= event.date.toordinal()
        for col, row in event.pixels:
            event_pixels.add((col, row))
            idx = row * SITE_SIDE + col
            for band, amount in event.shifts.items():
                shift[band][idx, post] += amount

    # One design for all bands; the stacked product multiplies each pixel's
    # (date, 5) design by the coefficients, as a product per pixel would.
    design = design_matrix(composite_doys)
    values = np.stack([
        np.clip(design @ np.asarray(cfg.signals[band].coeffs) + shift[band] + noise[band],
                *_CLIP[band])
        for band in BAND_ORDER
    ], axis=-1)
    # Clipping leaves only NaN outside the accepted ranges; refuse it here,
    # as the pixels are built later.
    if np.isnan(values).any():
        raise InvalidConfig("a signal, shift or noise level is not a number")

    labels = []
    for idx in range(n_pixels):
        row, col = divmod(idx, SITE_SIDE)
        z = int((col, row) in event_pixels)
        labels.append(DeforestationLabel(pixel_name(cfg.site_id, col, row), col, row, 16 * z, z))
    pixels = SitePixels(cfg.site_id, dates, composite_doys, reliability, values)
    return SiteGrid(site_id=cfg.site_id, pixels=pixels, defo_type=cfg.defo_type), labels


# Monthly cloudy probabilities; the April-September wet season doubles the
# base rate.
def seasonal_cloud_prob(base: float = 0.06) -> tuple[float, ...]:
    return tuple(2 * base if 4 <= month <= 9 else base for month in range(1, 13))


_DEFAULT_SIGNALS = {
    Band.RED: BandSignal((0.08, 0.02, 0.012, 0.006, 0.004)),
    Band.NIR: BandSignal((0.42, 0.05, 0.03, 0.012, 0.008)),
    Band.BLUE: BandSignal((0.05, 0.01, 0.006, 0.003, 0.002)),
    Band.MIR: BandSignal((0.18, 0.03, 0.018, 0.008, 0.005)),
    Band.NDVI: BandSignal((0.68, -0.06, -0.04, 0.015, 0.01)),
    Band.EVI: BandSignal((0.55, -0.05, -0.03, 0.012, 0.008)),
}


def _with_noise(noise_sd: float) -> dict[Band, BandSignal]:
    return {
        band: BandSignal(signal.coeffs, noise_sd)
        for band, signal in _DEFAULT_SIGNALS.items()
    }


def _scenario_config(
    site_id: str,
    shifts: Mapping[Band, float],
    defo_type: DefoType,
    seed: int,
    noise_sd: float,
    n_events: int,
    first_year: int,
    event_years: Optional[Sequence[int]],
    cloud_base: float,
) -> SynthConfig:
    n_pixels = SITE_SIDE * SITE_SIDE
    if not 0 <= n_events <= n_pixels:
        raise InvalidConfig(f"{n_events} events: a site has room for 0..{n_pixels}")
    last_predict_year = first_year + 6  # the scene ends on 1 May of the year after
    if not dt.MINYEAR <= first_year <= last_predict_year + 1 <= dt.MAXYEAR:
        raise InvalidConfig(f"first year {first_year}: the scene leaves years 1..9999")
    if event_years is None:
        event_years = range(first_year + 2, first_year + 7)
    picker = np.random.default_rng(seed + 987654321)
    chosen = picker.choice(n_pixels, size=n_events, replace=False)
    events = []
    for idx in sorted(int(i) for i in chosen):
        col, row = idx % SITE_SIDE, idx // SITE_SIDE
        year = int(picker.choice(list(event_years)))
        month = int(picker.integers(2, 11))
        day = int(picker.integers(1, 29))
        events.append(
            EventSpec(pixels=((col, row),), date=dt.date(year, month, day), shifts=dict(shifts))
        )
    return SynthConfig(
        site_id=site_id,
        start=dt.date(first_year, 1, 1),
        end=dt.date(last_predict_year + 1, 5, 1),
        signals=_with_noise(noise_sd),
        cloud_prob=seasonal_cloud_prob(cloud_base),
        marginal_prob=0.08,
        events=tuple(events),
        seed=seed,
        defo_type=defo_type,
    )


def sonora_like_config(
    seed: int = 0,
    noise_sd: float = 0.02,
    n_events: int = 30,
    first_year: int = 2003,
    event_years: Optional[Sequence[int]] = None,
    cloud_base: float = 0.06,
) -> SynthConfig:
    """Forest-to-water scene: deforestation shows as an NIR drop. Events
    fall in ``event_years``, by default ``first_year + 2`` to ``first_year + 6``."""
    return _scenario_config(
        "sonora-like", {Band.NIR: -0.3}, DefoType.FOREST_TO_WATER,
        seed, noise_sd, n_events, first_year, event_years, cloud_base,
    )


def yucatan_like_config(
    seed: int = 0,
    noise_sd: float = 0.02,
    n_events: int = 30,
    first_year: int = 2003,
    event_years: Optional[Sequence[int]] = None,
    cloud_base: float = 0.06,
) -> SynthConfig:
    """Forest-to-urban/cropland scene: deforestation shows as an NDVI drop.
    Events fall as in :func:`sonora_like_config`."""
    return _scenario_config(
        "yucatan-like", {Band.NDVI: -0.3}, DefoType.FOREST_TO_URBAN_CROPLAND,
        seed, noise_sd, n_events, first_year, event_years, cloud_base,
    )
