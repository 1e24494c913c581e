import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmfda.core import (
    Band,
    DeforestationLabel,
    FILL_INDEX,
    FILL_REFLECTANCE,
    Observation,
    PixelSeries,
    Reliability,
    SiteGrid,
)
from cmfda.dataio import read_series_arrays, write_series
from cmfda.errors import OutOfRange
from conftest import make_obs, make_series


def test_band_codes_match_dataset_numbering():
    assert [int(b) for b in (Band.RED, Band.NIR, Band.BLUE, Band.MIR, Band.NDVI, Band.EVI)] == [
        1, 2, 3, 7, 8, 9,
    ]
    assert len(Band) == 6


def test_reliability_codes():
    assert int(Reliability.NOT_PROCESSED) == -1
    assert int(Reliability.GOOD) == 0
    assert int(Reliability.MARGINAL) == 1
    assert int(Reliability.SNOW_ICE) == 2
    assert int(Reliability.CLOUDY) == 3
    assert len(Reliability) == 5


@pytest.mark.parametrize(
    "reliability,expected",
    [
        (Reliability.GOOD, True),
        (Reliability.MARGINAL, True),
        (Reliability.CLOUDY, False),
        (Reliability.SNOW_ICE, False),
        (Reliability.NOT_PROCESSED, False),
    ],
)
def test_is_clear(reliability, expected, tmp_path):
    """An observation is clear, in its array form and as read from its
    file, exactly when it is Good or Marginal."""
    series = PixelSeries("p", 0, 0, (make_obs(dt.date(2005, 3, 6), reliability=reliability),))
    assert series.to_arrays().clear.tolist() == [expected]
    write_series(tmp_path / "s.csv", {"s": [series]})
    (read,) = read_series_arrays(tmp_path / "s.csv")["s"]
    assert read.arrays.clear.tolist() == [expected]


def test_filter_clear_preserves_order_and_never_adds(tmp_path):
    """The clear dates of a read series are its Good dates, in order."""
    series = make_series(
        end=dt.date(2003, 12, 31),
        reliability_fn=lambda d: Reliability.CLOUDY if d.month % 2 else Reliability.GOOD,
    )
    write_series(tmp_path / "s.csv", {"s": [series]})
    (read,) = read_series_arrays(tmp_path / "s.csv")["s"]
    kept = read.arrays.ordinals[read.arrays.clear].tolist()
    assert kept == [o.nominal_date.toordinal() for o in series.observations
                    if o.reliability is Reliability.GOOD]
    assert 0 < len(kept) < len(series.observations)


def test_observation_rejects_out_of_range_values():
    with pytest.raises(OutOfRange):
        make_obs(dt.date(2005, 3, 6), values={Band.NIR: 1.2})
    with pytest.raises(OutOfRange):
        make_obs(dt.date(2005, 3, 6), values={Band.NIR: -0.2})
    with pytest.raises(OutOfRange):
        make_obs(dt.date(2005, 3, 6), values={Band.NDVI: -0.4})


def test_fill_values_read_as_missing():
    obs = make_obs(
        dt.date(2005, 3, 6),
        values={Band.NIR: FILL_REFLECTANCE, Band.NDVI: FILL_INDEX},
    )
    assert obs.band_value(Band.NIR) is None
    assert obs.band_value(Band.NDVI) is None
    assert obs.band_value(Band.RED) == pytest.approx(0.08)


@given(lag=st.integers(min_value=0, max_value=15))
def test_composite_day_lag_accepted(lag):
    obs = make_obs(dt.date(2005, 12, 28), doy_lag=lag)
    assert obs.composite_date() == dt.date(2005, 12, 28) + dt.timedelta(days=lag)


def test_composite_day_too_far_rejected():
    with pytest.raises(OutOfRange):
        Observation(
            nominal_date=dt.date(2005, 3, 6),
            composite_doy=dt.date(2005, 3, 26).timetuple().tm_yday,
            values={Band.NIR: 0.4},
            reliability=Reliability.GOOD,
        )


def test_series_requires_16_day_cadence():
    good = make_obs(dt.date(2005, 1, 1))
    bad_gap = make_obs(dt.date(2005, 1, 20))
    with pytest.raises(OutOfRange):
        PixelSeries("p", 0, 0, (good, bad_gap))


def test_site_grid_needs_625_pixels():
    series = make_series(end=dt.date(2003, 3, 1))
    with pytest.raises(OutOfRange):
        SiteGrid("half", (series,) * 300)


def test_label_invariant():
    DeforestationLabel("p", 0, 0, defo_count=3, z=1)
    DeforestationLabel("p", 0, 0, defo_count=0, z=0)
    with pytest.raises(OutOfRange):
        DeforestationLabel("p", 0, 0, defo_count=3, z=0)
    with pytest.raises(OutOfRange):
        DeforestationLabel("p", 0, 0, defo_count=0, z=1)
    with pytest.raises(OutOfRange):
        DeforestationLabel("p", 0, 0, defo_count=17, z=1)
