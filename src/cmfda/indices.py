"""Vegetation indices computed from reflectance bands.

A reference for checking the NDVI and EVI values that a series carries
against its reflectance bands; the synthetic scenes (``synth``) model their
index bands directly and do not use it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput

# Blue reflectance above this level (bright cloud/snow targets) switches
# the EVI to its two-band fallback formula.
EVI_BLUE_CUTOFF = 0.2


@dataclass(frozen=True)
class EviParams:
    """Coefficients of the MODIS EVI formulation."""

    canopy_background: float = 1.0
    atmosphere_c1: float = 6.0
    atmosphere_c2: float = 7.5
    gain: float = 2.5


DEFAULT_EVI_PARAMS = EviParams()


def ndvi(red: float, nir: float) -> float:
    """(nir - red) / (nir + red); in [-1, 1] for nonnegative inputs."""
    denom = nir + red
    if denom == 0:
        raise DegenerateInput("ndvi undefined: red + nir == 0")
    return (nir - red) / denom


def evi(red: float, nir: float, blue: float, params: EviParams = DEFAULT_EVI_PARAMS) -> float:
    """Enhanced vegetation index.

    gain * (nir - red) / (nir + c1*red - c2*blue + l) for blue below
    EVI_BLUE_CUTOFF, else the bright-target form
    gain * (nir - red) / (nir + 2.4*red + l).
    """
    if blue < EVI_BLUE_CUTOFF:
        denom = nir + params.atmosphere_c1 * red - params.atmosphere_c2 * blue + params.canopy_background
    else:
        denom = nir + 2.4 * red + params.canopy_background
    if denom == 0:
        raise DegenerateInput("evi undefined: zero denominator")
    return params.gain * (nir - red) / denom
