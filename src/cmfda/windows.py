"""Rolling two-year training / one-year prediction window scheduler."""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

# The prediction interval runs past Dec 31 so that a violation run starting
# late in the year can complete (6 consecutive 16-day composites need 96
# days, under the 120-day allowance).
PREDICT_EXTENSION_DAYS = 120


@dataclass(frozen=True)
class DateInterval:
    """Closed interval of calendar dates."""

    start: dt.date
    end: dt.date

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    def __contains__(self, date: dt.date) -> bool:
        return self.start <= date <= self.end

    def days(self) -> int:
        return (self.end - self.start).days + 1


@dataclass(frozen=True)
class WindowPair:
    """One training window with its (extended) prediction window.

    ``predict_year`` is the bare calendar year where violation runs may
    start; ``predict`` extends it by PREDICT_EXTENSION_DAYS so runs can
    finish.
    """

    index: int
    train: DateInterval
    predict: DateInterval
    predict_year: DateInterval


def year_interval(first_year: int, last_year: int) -> DateInterval:
    return DateInterval(dt.date(first_year, 1, 1), dt.date(last_year, 12, 31))


def make_windows(first_train_year: int, n_windows: int) -> list[WindowPair]:
    """Window j trains on two years starting at first_train_year + j and
    predicts the following calendar year plus the 120-day extension."""
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    pairs = []
    for j in range(n_windows):
        train = year_interval(first_train_year + j, first_train_year + j + 1)
        predict_year = year_interval(first_train_year + j + 2, first_train_year + j + 2)
        predict = DateInterval(
            predict_year.start,
            predict_year.end + dt.timedelta(days=PREDICT_EXTENSION_DAYS),
        )
        pairs.append(WindowPair(j, train, predict, predict_year))
    return pairs

