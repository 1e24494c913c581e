import datetime as dt

import pytest

from cmfda.core import Reliability
from cmfda.windows import (
    DateInterval,
    PREDICT_EXTENSION_DAYS,
    make_windows,
)
from conftest import make_series


def clear_dates(series, interval):
    """The nominal dates in the interval that the series' array form marks
    clear, in order."""
    a = series.to_arrays()
    inside = (a.ordinals >= interval.start.toordinal()) & (a.ordinals <= interval.end.toordinal())
    return [dt.date.fromordinal(o) for o in a.ordinals[a.clear & inside].tolist()]


def test_five_window_scheme():
    windows = make_windows(2003, 5)
    assert len(windows) == 5
    assert windows[0].train == DateInterval(dt.date(2003, 1, 1), dt.date(2004, 12, 31))
    assert windows[0].predict_year == DateInterval(dt.date(2005, 1, 1), dt.date(2005, 12, 31))
    assert [w.predict_year.start.year for w in windows] == [2005, 2006, 2007, 2008, 2009]
    assert [w.train.start.year for w in windows] == [2003, 2004, 2005, 2006, 2007]
    assert windows[-1].train.end == dt.date(2008, 12, 31)


def test_single_window():
    (pair,) = make_windows(2003, 1)
    assert pair.train.start.year == 2003 and pair.train.end.year == 2004
    assert pair.predict_year.start == dt.date(2005, 1, 1)
    assert pair.predict.end == dt.date(2005, 12, 31) + dt.timedelta(days=PREDICT_EXTENSION_DAYS)


def test_predict_extends_the_bare_year_by_120_days():
    for pair in make_windows(2003, 5):
        assert pair.predict.start == pair.predict_year.start
        assert (pair.predict.end - pair.predict_year.end).days == PREDICT_EXTENSION_DAYS


def test_train_adjacent_to_predict():
    for pair in make_windows(2003, 5):
        assert pair.predict.start - dt.timedelta(days=1) == pair.train.end


def test_train_never_overlaps_predict_year():
    for pair in make_windows(2003, 6):
        assert pair.train.end < pair.predict_year.start


def test_predict_overlap_with_later_train_windows():
    # The extended predict interval of window j starts exactly where the
    # train interval of window j+2 starts and is fully contained in it;
    # the train window then runs 245-246 days past the extension's end.
    windows = make_windows(2003, 5)
    for j in range(3):
        predict = windows[j].predict
        train_next2 = windows[j + 2].train
        assert predict.start == train_next2.start
        assert predict.end <= train_next2.end
        assert predict.days() in (485, 486)
        tail = (train_next2.end - predict.end).days
        assert tail in (245, 246)


def test_make_windows_rejects_non_positive_count():
    with pytest.raises(ValueError):
        make_windows(2003, 0)


def test_clear_dates_all_cloudy():
    series = make_series(reliability_fn=lambda d: Reliability.CLOUDY)
    interval = DateInterval(dt.date(2003, 1, 1), dt.date(2003, 12, 31))
    assert clear_dates(series, interval) == []


def test_clear_dates_cadence_count():
    series = make_series(start=dt.date(2003, 1, 1), end=dt.date(2006, 12, 31))
    year_2005 = DateInterval(dt.date(2005, 1, 1), dt.date(2005, 12, 31))
    dates = clear_dates(series, year_2005)
    assert len(dates) in (22, 23)
    gaps = {(b - a).days for a, b in zip(dates, dates[1:])}
    assert gaps == {16}


def test_clear_dates_filters_exactly_the_clear_flags():
    flagged = {}

    def reliability_fn(date):
        flagged[date] = (
            Reliability.MARGINAL if date.toordinal() % 3 == 0
            else Reliability.CLOUDY if date.toordinal() % 3 == 1
            else Reliability.GOOD
        )
        return flagged[date]

    series = make_series(end=dt.date(2004, 12, 31), reliability_fn=reliability_fn)
    interval = DateInterval(dt.date(2003, 1, 1), dt.date(2004, 12, 31))
    dates = clear_dates(series, interval)
    expected = [
        d for d, rel in sorted(flagged.items())
        if rel in (Reliability.GOOD, Reliability.MARGINAL)
    ]
    assert dates == expected
    # subsequence of the nominal dates
    nominal = [o.nominal_date for o in series.observations]
    it = iter(nominal)
    assert all(d in it for d in dates)
