"""The online loop against its per-date, per-pixel reference.

``scalar_oracle.online_steps`` runs the loop date by date and pixel by
pixel. A date-by-date sequence of ``online_process_batch`` calls and one
``online_replay`` call must give its flag dates exactly, and every step its
refits bit for bit.
"""
import dataclasses
import datetime as dt
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from cmfda import pipeline
from cmfda.core import BAND_ORDER, Band, Reliability
from cmfda.dataio import EventSpec, generate_site, sonora_like_config
from cmfda.detection import (
    MahalanobisRule,
    MultivariateRule,
    UnivariateRule,
    estimate_cube_covariances,
)
from cmfda.harmonic import MIN_OBS
from cmfda.pipeline import (
    compact_pixels,
    fit_pixels,
    online_process_batch,
    online_replay,
    paired_residual_records,
    training_residuals,
)
from cmfda.windows import PREDICT_EXTENSION_DAYS, make_windows
from conftest import make_series, nominal_dates

YEAR = 2005
NOISES = (0.02, 0.05, 0.08)


def _bits(models):
    return {
        key: (m.band, m.pixel_id, np.array(m.coeffs).tobytes(), m.train_window, m.n_obs)
        for key, m in models.items()
    }


def assert_matches_oracle(pixels, rule, monitor_year=YEAR, site_id="s"):
    """Both online paths equal the oracle; returns the oracle's steps."""
    steps, flags = oracle.online_steps(pixels, rule, monitor_year, site_id)
    flagged = {}
    for date, newly, models in steps:
        outcome = online_process_batch(pixels, date, rule, monitor_year, flagged, site_id=site_id)
        assert outcome.newly_flagged == newly, date
        assert len(outcome.models) == len(models), date
        assert _bits(oracle.model_dict(outcome.models)) == _bits(models), date
        flagged.update(outcome.newly_flagged)
    assert flagged == flags
    assert online_replay(pixels, rule, monitor_year, site_id=site_id) == flags
    return steps


# --- seeded scenes ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def late_event_scene(noise):
    """A sonora-like site over 2003 to May 2006 whose six events fall in
    Nov-Dec of the monitored year, so their runs end in the extension; and
    a covariance table from the errors of its first 60 pixels."""
    seed = NOISES.index(noise)
    picker = np.random.default_rng(seed + 77)
    cells = picker.choice(625, size=6, replace=False).tolist()
    events = tuple(
        EventSpec(
            pixels=((cell % 25, cell // 25),),
            date=dt.date(YEAR, int(picker.integers(11, 13)), int(picker.integers(1, 29))),
            shifts={Band.NIR: -0.3},
        )
        for cell in sorted(cells)
    )
    cfg = dataclasses.replace(
        sonora_like_config(seed=seed, noise_sd=noise, event_years=(YEAR,)),
        end=dt.date(YEAR + 1, 5, 1), events=events,
    )
    site, labels = generate_site(cfg)
    compact = compact_pixels(site.pixels)
    event_ids = {label.pixel_id for label in labels if label.z}
    windows = make_windows(2003, 1)
    sample = compact[:60]
    histories = training_residuals(
        sample, fit_pixels(sample, windows, (Band.NIR, Band.NDVI)), windows,
        (Band.NIR, Band.NDVI), site.site_id,
    )
    table = estimate_cube_covariances(paired_residual_records(histories))
    return site.site_id, compact, [k for k, cp in enumerate(compact) if cp.pixel_id in event_ids], table


@settings(max_examples=24, deadline=None)
@given(
    noise=st.sampled_from(NOISES),
    kind=st.sampled_from(["univariate", "multivariate", "mahalanobis"]),
    others=st.lists(st.integers(0, 624), min_size=4, max_size=8, unique=True),
    scale=st.floats(0.4, 2.5),
    consecutive=st.integers(2, 6),
    band=st.sampled_from([Band.NIR, Band.NDVI]),
)
def test_online_paths_equal_the_per_date_oracle(noise, kind, others, scale, consecutive, band):
    site_id, compact, events, table = late_event_scene(noise)
    pixels = [compact[k] for k in sorted(set(events) | set(others))]
    if kind == "univariate":
        rule = UnivariateRule(band, scale * noise, consecutive)
    elif kind == "multivariate":
        rule = MultivariateRule(scale * noise, 1.5 * scale * noise, consecutive)
    else:
        rule = MahalanobisRule(2.0 * scale, table, consecutive)
    assert_matches_oracle(pixels, rule, site_id=site_id)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_runs_in_chunks_give_the_flags_of_one_chunk(monkeypatch, chunk):
    """online_replay fits and scans its runs a fixed number at a time and
    keeps each pixel's earliest triggering run end across chunks: chunks of
    one to three runs give the flags, in order, of a single chunk, and
    the step sequence still equals the oracle."""
    site_id, compact, events, table = late_event_scene(0.05)
    pixels = [compact[k] for k in sorted({*events, 0, 300, 624})]
    rules = (MultivariateRule(0.082, 0.182, 4), MahalanobisRule(5.0, table, 3))
    whole = [list(online_replay(pixels, rule, YEAR, site_id=site_id).items()) for rule in rules]
    assert all(whole)
    monkeypatch.setattr(pipeline, "_RUN_CHUNK", chunk)
    assert [list(online_replay(pixels, rule, YEAR, site_id=site_id).items())
            for rule in rules] == whole
    assert_matches_oracle(pixels[:4], rules[0], site_id=site_id)


def test_late_events_flag_inside_the_extension():
    """The scenes above do test runs that end after Dec 31."""
    site_id, compact, events, _ = late_event_scene(0.02)
    flags = online_replay(
        [compact[k] for k in events], MultivariateRule(0.082, 0.182, 4), YEAR, site_id=site_id
    )
    assert flags
    assert any(date.year == YEAR + 1 for date in flags.values())
    assert max(flags.values()) <= dt.date(YEAR, 12, 31) + dt.timedelta(PREDICT_EXTENSION_DAYS)


# --- edge cases -----------------------------------------------------------------

RULE = MultivariateRule(0.082, 0.182, 4)
START = dt.date(2003, 1, 1)


def _noisy(seed):
    rng = np.random.default_rng(seed)
    return lambda band, date, clean: clean + 0.01 * rng.standard_normal()


def _pixel(pixel_id, *, start=START, end=dt.date(YEAR + 1, 5, 1), seed=0,
           reliability_fn=None, event=None):
    """A series of one pixel with light noise; ``event`` is the date from
    which NIR falls by 0.3."""
    noise = _noisy(seed)

    def value(band, date, clean):
        clean = noise(band, date, clean)
        if event and band is Band.NIR and date >= event:
            clean -= 0.3
        return clean

    series = make_series(start=start, end=end, value_fn=value, reliability_fn=reliability_fn,
                         pixel_id=pixel_id, col=seed % 25, row=seed // 25)
    return compact_pixels([series])[0]


def test_online_on_no_pixels():
    outcome = online_process_batch([], dt.date(YEAR, 3, 6), RULE, YEAR, {})
    assert (outcome.newly_flagged, len(outcome.models)) == ({}, 0)
    assert online_replay([], RULE, YEAR) == {}
    assert_matches_oracle([], RULE)


def test_online_with_every_pixel_flagged():
    pixels = [_pixel(f"p{k}", seed=k, event=dt.date(YEAR, 2, 1)) for k in range(3)]
    flagged = {cp.pixel_id: dt.date(YEAR, 1, 1) for cp in pixels}
    for ordinal in pixels[0].arrays.ordinals.tolist():
        outcome = online_process_batch(pixels, dt.date.fromordinal(ordinal), RULE, YEAR, flagged)
        assert (outcome.newly_flagged, len(outcome.models)) == ({}, 0)
    # in the replay every pixel flags, and the steps after the last flag refit nothing
    steps = assert_matches_oracle(pixels, RULE)
    flags = online_replay(pixels, RULE, YEAR)
    assert set(flags) == {cp.pixel_id for cp in pixels}
    assert all(not models for date, _, models in steps if date > max(flags.values()))


def test_online_pixel_with_fewer_than_c_usable_dates():
    """A pixel clear on only C - 1 dates, all in the monitored year, never
    has a run: no flag and no refit, though NIR drops."""
    clear_days = [date for date in nominal_dates(START, dt.date(YEAR, 12, 31))
                  if date >= dt.date(YEAR, 3, 1)][: RULE.consecutive - 1]

    def reliability(date):
        return Reliability.GOOD if date in clear_days else Reliability.CLOUDY

    sparse = _pixel("sparse", reliability_fn=reliability, event=dt.date(YEAR, 1, 1))
    assert sparse.arrays.clear.sum() == RULE.consecutive - 1
    steps = assert_matches_oracle([sparse, _pixel("full", seed=1)], RULE)
    assert all(("sparse", Band.NIR) not in models for _, _, models in steps)
    assert "sparse" not in online_replay([sparse], RULE, YEAR)


def test_online_batch_date_after_the_extension():
    """A step may come after Dec 31 + 120 days, and a run that starts in
    the monitored year and ends then is still judged; the replay stops at
    the extension's last day."""
    end = dt.date(YEAR, 12, 31) + dt.timedelta(PREDICT_EXTENSION_DAYS)
    event = dt.date(YEAR, 10, 1)
    # NIR falls on Oct 1; C - 1 clear dates follow in the year, then clouds
    # until the extension ends
    after_event = [date for date in nominal_dates(START, end) if date >= event]
    after_event = after_event[: RULE.consecutive - 1]

    def reliability(date):
        clear = date < event or date in after_event or date > end
        return Reliability.GOOD if clear else Reliability.CLOUDY

    late = _pixel("late", end=dt.date(YEAR + 1, 8, 1), reliability_fn=reliability, event=event)
    usable = [dt.date.fromordinal(o) for o in late.arrays.ordinals[late.arrays.clear].tolist()]
    after = [date for date in usable if date > end]
    run_start = usable[usable.index(after[0]) - RULE.consecutive + 1]
    assert run_start.year == YEAR  # the run ending on the first date after the extension
    batch = after[0]
    outcome = online_process_batch([late], batch, RULE, YEAR, {})
    newly, models = oracle.online_step([late], batch, RULE, YEAR, {})
    assert outcome.newly_flagged == newly == {"late": batch}
    assert len(outcome.models) == len(models)
    assert _bits(oracle.model_dict(outcome.models)) == _bits(models)
    assert "late" not in online_replay([late], RULE, YEAR)
    assert_matches_oracle([late], RULE)


def _ndvi_gap_pixel(pixel_id, seed):
    """NIR falls from Jan 1 of the monitored year; NDVI is missing before
    August of the year before."""
    pixel = _pixel(pixel_id, seed=seed, event=dt.date(YEAR, 1, 1))
    early = pixel.arrays.ordinals < dt.date(YEAR - 1, 8, 1).toordinal()
    pixel.arrays.values[early, BAND_ORDER.index(Band.NDVI)] = np.nan
    return pixel


def test_online_run_whose_fit_fails_in_one_band():
    """NDVI is missing before August 2004, so the first runs of the year
    have fewer than MIN_OBS NDVI training dates: they refit NIR alone and
    are skipped, and a later run flags the pixel."""
    pixel = _ndvi_gap_pixel("gap", seed=0)
    steps = assert_matches_oracle([pixel], RULE)
    first_date, first_newly, first_models = next(step for step in steps if step[2])
    assert first_models[("gap", Band.NIR)].n_obs >= MIN_OBS
    assert ("gap", Band.NDVI) not in first_models and not first_newly
    flags = online_replay([pixel], RULE, YEAR)
    assert flags["gap"] > first_date


def test_online_run_starting_on_feb_29():
    """A run that starts on Feb 29 of a leap monitored year trains from
    Feb 28 two years before to Feb 28."""
    leap = dt.date(2008, 2, 29)

    def reliability(date):
        cloudy = dt.date(2008, 1, 1) <= date < leap
        return Reliability.CLOUDY if cloudy else Reliability.GOOD

    pixel = _pixel("leap", start=leap - dt.timedelta(16 * 110), end=dt.date(2009, 5, 1),
                   reliability_fn=reliability)
    run_end = leap + dt.timedelta(16 * (RULE.consecutive - 1))
    outcome = online_process_batch([pixel], run_end, RULE, 2008, {})
    train = (dt.date(2006, 2, 28), dt.date(2008, 2, 28))
    assert oracle.model_dict(outcome.models)[("leap", Band.NIR)].train_window == train
    assert_matches_oracle([pixel], RULE, monitor_year=2008)


@pytest.mark.parametrize("kind", ["univariate", "mahalanobis"])
def test_online_edge_pixels_under_the_other_rules(kind):
    """A late event pixel, the NDVI-gap pixel and a stable one, under the
    univariate and the Mahalanobis rule."""
    site_id, compact, events, table = late_event_scene(0.05)
    rule = (UnivariateRule(Band.NIR, 0.1, 3) if kind == "univariate"
            else MahalanobisRule(4.0, table, 3))
    pixels = [compact[events[0]], _ndvi_gap_pixel("gap", seed=3), compact[1]]
    assert_matches_oracle(pixels, rule, site_id=site_id)
