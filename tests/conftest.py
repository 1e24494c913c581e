"""Shared builders for synthetic observations and series."""
import datetime as dt
import math
import warnings

import numpy as np
import pytest

from cmfda.core import BAND_ORDER, Band, Observation, PixelSeries, Reliability


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """When a test fails, import hypothesis's patch writer once, with
    DeprecationWarning ignored, before hypothesis's own report hook does:
    the libcst it imports raises that warning, which the suite's error
    filter would turn into an internal error in place of the falsifying
    example. Imported only then, libcst's many objects do not slow the
    garbage collections of passing runs (acceptance 12 times those)."""
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
    yield


def harmonic_value(coeffs, doy):
    """Direct evaluation of the seasonal signal, independent of the
    library's design-vector code."""
    w = 2.0 * math.pi * doy / 366.0
    return (
        coeffs[0]
        + coeffs[1] * math.cos(w)
        + coeffs[2] * math.sin(w)
        + coeffs[3] * math.cos(2 * w)
        + coeffs[4] * math.sin(2 * w)
    )


DEFAULT_VALUES = {
    Band.RED: 0.08,
    Band.NIR: 0.42,
    Band.BLUE: 0.05,
    Band.MIR: 0.18,
    Band.NDVI: 0.68,
    Band.EVI: 0.55,
}


def make_obs(
    date,
    values=None,
    reliability=Reliability.GOOD,
    doy_lag=0,
):
    base = dict(DEFAULT_VALUES)
    if values:
        base.update(values)
    comp = date + dt.timedelta(days=doy_lag)
    return Observation(
        nominal_date=date,
        composite_doy=comp.timetuple().tm_yday,
        values=base,
        reliability=reliability,
    )


def nominal_dates(start, end):
    dates = []
    d = start
    while d <= end:
        dates.append(d)
        d += dt.timedelta(days=16)
    return dates


def make_series(
    start=dt.date(2003, 1, 1),
    end=dt.date(2006, 12, 31),
    band_coeffs=None,
    reliability_fn=None,
    value_fn=None,
    pixel_id="px",
    col=0,
    row=0,
):
    """Series whose clean values follow per-band harmonics.

    value_fn(band, date, clean) may override individual values;
    reliability_fn(date) may override the quality flag.
    """
    coeffs = {band: (DEFAULT_VALUES[band], 0, 0, 0, 0) for band in BAND_ORDER}
    if band_coeffs:
        coeffs.update(band_coeffs)
    observations = []
    for date in nominal_dates(start, end):
        doy = date.timetuple().tm_yday
        values = {}
        for band in BAND_ORDER:
            clean = harmonic_value(coeffs[band], doy)
            if value_fn:
                clean = value_fn(band, date, clean)
            values[band] = clean
        rel = reliability_fn(date) if reliability_fn else Reliability.GOOD
        observations.append(
            Observation(
                nominal_date=date,
                composite_doy=doy,
                values=values,
                reliability=rel,
            )
        )
    return PixelSeries(pixel_id, col, row, tuple(observations))


def assert_same_sites(got, want):
    """Per-site pixel lists equal in order, ids, col/row and every
    SeriesArrays field's dtype, shape and bits (NaN equals NaN)."""
    assert list(got) == list(want)
    for site_id, pixels in want.items():
        assert [(type(p.col), p.pixel_id, p.col, p.row) for p in got[site_id]] == [
            (type(p.col), p.pixel_id, p.col, p.row) for p in pixels
        ]
        for have, ref in zip(got[site_id], pixels):
            for field, a, b in zip(ref.arrays._fields, have.arrays, ref.arrays):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (site_id, have.pixel_id, field)
                assert a.tobytes() == b.tobytes(), (site_id, have.pixel_id, field)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
