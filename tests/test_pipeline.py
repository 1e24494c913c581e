import dataclasses
import datetime as dt

import numpy as np
import pytest

from cmfda.core import FILL_INDEX, Band, is_clear
from cmfda.dataio import BandSignal, EventSpec, SynthConfig, generate_site, seasonal_cloud_prob
from cmfda.detection import (
    MahalanobisRule,
    MultivariateRule,
    UnivariateRule,
    detect_pixel,
    estimate_cube_covariances,
)
from cmfda.harmonic import fit
from cmfda.pipeline import (
    build_training_dataset,
    compact_pixels,
    detect_pixels,
    fit_pixels,
    online_process_batch,
    online_replay,
    paired_residual_records,
    training_residuals,
)
from cmfda.standardize import Scheme, fit_standardizer
from cmfda.training import grid_search_univariate
from cmfda.windows import DateInterval, WindowPair, make_windows

SIGNALS = {
    Band.RED: BandSignal((0.08, 0.02, 0.01, 0.0, 0.0), 0.01),
    Band.NIR: BandSignal((0.42, 0.05, 0.03, 0.01, 0.0), 0.01),
    Band.BLUE: BandSignal((0.05, 0.01, 0.0, 0.0, 0.0), 0.01),
    Band.MIR: BandSignal((0.18, 0.03, 0.01, 0.0, 0.0), 0.01),
    Band.NDVI: BandSignal((0.68, -0.06, -0.04, 0.01, 0.0), 0.01),
    Band.EVI: BandSignal((0.55, -0.05, -0.03, 0.01, 0.0), 0.01),
}


def one_year_scenario(seed=5, n_events=6):
    picker = np.random.default_rng(seed + 1000)
    chosen = sorted(int(i) for i in picker.choice(625, size=n_events, replace=False))
    events = tuple(
        EventSpec(
            pixels=((idx % 25, idx // 25),),
            date=dt.date(2005, int(picker.integers(2, 10)), int(picker.integers(1, 28))),
            shifts={Band.NIR: -0.3},
        )
        for idx in chosen
    )
    cfg = SynthConfig(
        site_id="mini",
        start=dt.date(2003, 1, 1),
        end=dt.date(2006, 5, 1),
        signals=SIGNALS,
        cloud_prob=seasonal_cloud_prob(0.06),
        marginal_prob=0.08,
        events=events,
        seed=seed,
    )
    site, labels = generate_site(cfg)
    event_ids = {l.pixel_id for l in labels if l.z}
    keep = [p for p in site.pixels if p.pixel_id in event_ids]
    keep += [p for p in site.pixels if p.pixel_id not in event_ids][:40]
    return keep, {l.pixel_id: l.z for l in labels if l.pixel_id in {p.pixel_id for p in keep}}


@pytest.fixture(scope="module")
def scenario():
    return one_year_scenario()


def test_fit_pixels_matches_direct_fit(scenario):
    pixels, _ = scenario
    windows = make_windows(2003, 1)
    result = fit_pixels(pixels[:5], windows, (Band.NIR, Band.NDVI))
    for pixel in pixels[:5]:
        for band in (Band.NIR, Band.NDVI):
            direct = fit(pixel, band, windows[0].train)
            staged = result.models[0][(pixel.pixel_id, band)]
            np.testing.assert_allclose(staged.coeffs, direct.coeffs, atol=1e-12)
            assert staged.n_obs == direct.n_obs


def test_fit_pixels_parallel_matches_serial(scenario):
    pixels, _ = scenario
    windows = make_windows(2003, 1)
    serial = fit_pixels(pixels, windows, (Band.NIR,), workers=1)
    parallel = fit_pixels(pixels, windows, (Band.NIR,), workers=4)
    assert serial.models[0].keys() == parallel.models[0].keys()
    for key in serial.models[0]:
        assert serial.models[0][key].coeffs == parallel.models[0][key].coeffs


def test_detect_pixels_matches_detect_pixel(scenario):
    pixels, labels = scenario
    windows = make_windows(2003, 1)
    fit_result = fit_pixels(pixels, windows, (Band.NIR, Band.NDVI))
    rule = MultivariateRule(0.082, 0.182, 4)
    results, skipped = detect_pixels(pixels, fit_result, rule, windows, "mini")
    assert not skipped
    by_id = {r.pixel_id: r for r in results}
    for pixel in pixels[:20]:
        direct = detect_pixel(
            pixel, fit_result.for_pixel(pixel.pixel_id), rule, windows, site_id="mini"
        )
        assert by_id[pixel.pixel_id] == direct
    flagged = {r.pixel_id for r in results if r.flagged}
    assert flagged == {pid for pid, z in labels.items() if z}


def test_detect_pixels_parallel_matches_serial(scenario):
    pixels, _ = scenario
    windows = make_windows(2003, 1)
    fit_result = fit_pixels(pixels, windows, (Band.NIR, Band.NDVI))
    rule = MultivariateRule(0.082, 0.182, 4)
    serial, _ = detect_pixels(pixels, fit_result, rule, windows, "mini", workers=1)
    parallel, _ = detect_pixels(pixels, fit_result, rule, windows, "mini", workers=3)
    assert sorted(serial, key=lambda r: r.pixel_id) == sorted(parallel, key=lambda r: r.pixel_id)


def test_training_residuals_and_pairs(scenario):
    pixels, _ = scenario
    windows = make_windows(2003, 1)
    fit_result = fit_pixels(pixels[:10], windows, (Band.NIR, Band.NDVI))
    histories = training_residuals(pixels[:10], fit_result, windows, (Band.NIR, Band.NDVI), "mini")
    assert set(histories) == {Band.NIR, Band.NDVI}
    for band, records in histories.items():
        assert records
        # residuals of an OLS fit over its own training window center on zero
        values = np.array([r.value for r in records])
        assert abs(values.mean()) < 0.01
        for r in records[:50]:
            assert windows[0].train.start <= r.date <= windows[0].train.end + dt.timedelta(days=15)
    pairs = paired_residual_records(histories)
    assert pairs and len(pairs) == len(histories[Band.NIR])


def test_identity_standardizer_preserves_flags(scenario):
    pixels, _ = scenario
    windows = make_windows(2003, 1)
    fit_result = fit_pixels(pixels, windows, (Band.NIR, Band.NDVI))
    rule = MultivariateRule(0.082, 0.182, 4)
    plain, _ = detect_pixels(pixels, fit_result, rule, windows, "mini")
    histories = training_residuals(pixels, fit_result, windows, (Band.NIR, Band.NDVI), "mini")
    identity = {
        band: fit_standardizer(histories[band], Scheme.IDENTITY, band)
        for band in (Band.NIR, Band.NDVI)
    }
    standardized, _ = detect_pixels(
        pixels, fit_result, rule, windows, "mini", standardizers=identity
    )
    assert plain == standardized


def test_standardized_training_dataset(scenario):
    pixels, labels = scenario
    windows = make_windows(2003, 1)
    fit_result = fit_pixels(pixels, windows, (Band.NIR,))
    histories = training_residuals(pixels, fit_result, windows, (Band.NIR,), "mini")
    std = {Band.NIR: fit_standardizer(histories[Band.NIR], Scheme.PIXEL_SD, Band.NIR)}
    dataset, skipped = build_training_dataset(
        pixels, fit_result, windows, labels, "mini", (Band.NIR,), std
    )
    assert not skipped
    # errors now live on the per-pixel sd scale: a unit-ish grid separates
    best_l, best_tss = grid_search_univariate(dataset, Band.NIR, 4, [2.0, 5.0, 10.0])
    assert best_tss == 1.0


def _online_rule(kind, pixels, fit_result, windows):
    if kind == "univariate":
        return UnivariateRule(Band.NIR, 0.08, 4)
    if kind == "multivariate":
        return MultivariateRule(0.082, 0.182, 4)
    histories = training_residuals(pixels, fit_result, windows, (Band.NIR, Band.NDVI), "mini")
    table = estimate_cube_covariances(paired_residual_records(histories))
    return MahalanobisRule(11.72, table, 4)


@pytest.mark.parametrize("kind", ["univariate", "multivariate", "mahalanobis"])
def test_online_replay_matches_batch_detection(scenario, kind):
    pixels, labels = scenario
    windows = make_windows(2003, 1)
    fit_result = fit_pixels(pixels, windows, (Band.NIR, Band.NDVI))
    rule = _online_rule(kind, pixels, fit_result, windows)
    batch_results, _ = detect_pixels(pixels, fit_result, rule, windows, "mini")
    batch_flags = {
        r.pixel_id: r.first_flag_date for r in batch_results if r.flagged
    }
    online_flags = online_replay(pixels, rule, 2005, site_id="mini")
    assert online_flags == batch_flags
    assert set(online_flags) == {pid for pid, z in labels.items() if z}


def test_online_never_reflags(scenario):
    pixels, _ = scenario
    rule = UnivariateRule(Band.NIR, 0.08, 4)
    compact = compact_pixels(pixels)
    from cmfda.pipeline import online_process_batch

    flagged = {pixels[0].pixel_id: dt.date(2005, 1, 1)}
    all_dates = sorted(
        {
            dt.date.fromordinal(int(o))
            for cp in compact
            for o in cp.arrays.ordinals
            if dt.date(2005, 1, 1).toordinal() <= o <= dt.date(2005, 12, 31).toordinal()
        }
    )
    for batch_date in all_dates:
        outcome = online_process_batch(compact, batch_date, rule, 2005, flagged, site_id="mini")
        assert pixels[0].pixel_id not in outcome.newly_flagged


def test_online_models_equal_fit_pixels_over_the_run_window(scenario):
    """The online step fits each band on that band's clear, non-fill dates
    of the run's trailing window, as fit_pixels does: a fill value in one
    band does not drop the date from the other band's fit."""
    pixels, _ = scenario
    pixel = pixels[0]
    k = next(
        i for i, o in enumerate(pixel.observations)
        if o.nominal_date.year == 2004 and is_clear(o)
    )
    obs = pixel.observations[k]
    filled = dataclasses.replace(obs, values={**obs.values, Band.NDVI: FILL_INDEX})
    pixel = dataclasses.replace(
        pixel, observations=pixel.observations[:k] + (filled,) + pixel.observations[k + 1 :]
    )
    rule = MultivariateRule(0.082, 0.182, 4)
    run = [
        o.nominal_date for o in pixel.observations
        if o.nominal_date.year == 2005 and is_clear(o)
        and o.band_value(Band.NIR) is not None and o.band_value(Band.NDVI) is not None
    ][: rule.consecutive]
    start, batch_date = run[0], run[-1]
    outcome = online_process_batch(
        compact_pixels([pixel]), batch_date, rule, 2005, {}, site_id="mini"
    )
    window = WindowPair(
        0,
        train=DateInterval(start.replace(year=start.year - 2), start - dt.timedelta(days=1)),
        predict=DateInterval(start, batch_date),
        predict_year=DateInterval(start, start),
    )
    batch_fit = fit_pixels([pixel], [window], (Band.NIR, Band.NDVI))
    assert outcome.models == batch_fit.models[0]
    n_nir, n_ndvi = (outcome.models[pixel.pixel_id, b].n_obs for b in (Band.NIR, Band.NDVI))
    assert n_nir == n_ndvi + 1
