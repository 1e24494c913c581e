"""Synthetic scenes: sites of pixels whose bands follow a seasonal
harmonic signal with noise, cloud and quality draws, and step changes
where deforestation events fall."""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    BAND_ORDER,
    CADENCE_DAYS,
    SITE_SIDE,
    Band,
    DefoType,
    DeforestationLabel,
    Observation,
    PixelSeries,
    Reliability,
    SiteGrid,
    ordinal_doys,
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


def generate_site(cfg: SynthConfig) -> tuple[SiteGrid, list[DeforestationLabel]]:
    """Deterministic synthetic site: per-band harmonics plus noise, monthly
    cloud flags, and step-change events; labels mirror the event pixel set."""
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

    values = {}
    for band in BAND_ORDER:
        coeffs = np.asarray(cfg.signals[band].coeffs)
        clean = np.array(
            [design_matrix(composite_doys[i]) @ coeffs for i in range(n_pixels)]
        )
        lo, hi = _CLIP[band]
        values[band] = np.clip(clean + shift[band] + noise[band], lo, hi)

    pixels = []
    labels = []
    for row in range(SITE_SIDE):
        for col in range(SITE_SIDE):
            idx = row * SITE_SIDE + col
            observations = tuple(
                Observation(
                    nominal_date=dates[j],
                    composite_doy=int(composite_doys[idx, j]),
                    values={band: float(values[band][idx, j]) for band in BAND_ORDER},
                    reliability=Reliability(int(reliability[idx, j])),
                )
                for j in range(n_dates)
            )
            pid = pixel_name(cfg.site_id, col, row)
            pixels.append(PixelSeries(pid, col, row, observations))
            deforested = (col, row) in event_pixels
            labels.append(
                DeforestationLabel(
                    pixel_id=pid,
                    col=col,
                    row=row,
                    defo_count=16 if deforested else 0,
                    z=1 if deforested else 0,
                )
            )
    site = SiteGrid(site_id=cfg.site_id, pixels=tuple(pixels), defo_type=cfg.defo_type)
    return site, labels


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
    event_years: Sequence[int],
    cloud_base: float,
) -> SynthConfig:
    picker = np.random.default_rng(seed + 987654321)
    chosen = picker.choice(SITE_SIDE * SITE_SIDE, size=n_events, replace=False)
    events = []
    for idx in sorted(int(i) for i in chosen):
        col, row = idx % SITE_SIDE, idx // SITE_SIDE
        year = int(picker.choice(list(event_years)))
        month = int(picker.integers(2, 11))
        day = int(picker.integers(1, 29))
        events.append(
            EventSpec(pixels=((col, row),), date=dt.date(year, month, day), shifts=dict(shifts))
        )
    last_predict_year = first_year + 6
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
    event_years: Sequence[int] = (2005, 2006, 2007, 2008, 2009),
    cloud_base: float = 0.06,
) -> SynthConfig:
    """Forest-to-water scene: deforestation shows as an NIR drop."""
    return _scenario_config(
        "sonora-like", {Band.NIR: -0.3}, DefoType.FOREST_TO_WATER,
        seed, noise_sd, n_events, first_year, event_years, cloud_base,
    )


def yucatan_like_config(
    seed: int = 0,
    noise_sd: float = 0.02,
    n_events: int = 30,
    first_year: int = 2003,
    event_years: Sequence[int] = (2005, 2006, 2007, 2008, 2009),
    cloud_base: float = 0.06,
) -> SynthConfig:
    """Forest-to-urban/cropland scene: deforestation shows as an NDVI drop."""
    return _scenario_config(
        "yucatan-like", {Band.NDVI: -0.3}, DefoType.FOREST_TO_URBAN_CROPLAND,
        seed, noise_sd, n_events, first_year, event_years, cloud_base,
    )
