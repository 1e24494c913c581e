import dataclasses
import datetime as dt

import numpy as np
import pytest

import scalar_oracle as oracle
from cmfda import dataio
from cmfda.core import CLEAR_CODES, FILL_INDEX, Band
from cmfda.dataio import (
    SERIES_COLUMNS,
    BandSignal,
    EventSpec,
    SynthConfig,
    generate_site,
    seasonal_cloud_prob,
)
from cmfda.detection import (
    MahalanobisRule,
    MultivariateRule,
    UnivariateRule,
    estimate_cube_covariances,
)
from cmfda.errors import OutOfRange
from cmfda.pipeline import (
    append_batch,
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


def one_year_site(seed=5, n_events=6):
    """The event pixels and 40 stable pixels of a synthetic site through
    2005, as PixelSeries, and their labels."""
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


def one_year_scenario(seed=5, n_events=6):
    """The pixels of ``one_year_site`` as the pipeline takes them."""
    keep, labels = one_year_site(seed, n_events)
    return compact_pixels(keep), labels


@pytest.fixture(scope="module")
def scenario():
    return one_year_scenario()


def test_fit_pixels_matches_direct_fit():
    pixels, _ = one_year_site()
    windows = make_windows(2003, 1)
    result = fit_pixels(compact_pixels(pixels[:5]), windows, (Band.NIR, Band.NDVI))
    models = oracle.model_dict(result.models[0])
    assert len(result.models[0]) == len(models) == 10
    for pixel in pixels[:5]:
        for band in (Band.NIR, Band.NDVI):
            direct = oracle.fit(pixel, band, windows[0].train)
            staged = models[(pixel.pixel_id, band)]
            np.testing.assert_allclose(staged.coeffs, direct.coeffs, atol=1e-12)
            assert staged.n_obs == direct.n_obs


def test_fit_pixels_parallel_matches_serial(scenario):
    pixels, _ = scenario
    windows = make_windows(2003, 1)
    serial = fit_pixels(pixels, windows, (Band.NIR,), workers=1)
    parallel = fit_pixels(pixels, windows, (Band.NIR,), workers=4)
    serial, parallel = (oracle.model_dict(fit.models[0]) for fit in (serial, parallel))
    assert serial.keys() == parallel.keys()
    for key in serial:
        assert serial[key].coeffs == parallel[key].coeffs



@pytest.mark.parametrize("workers", [1, 3])
def test_fit_pixels_slices_do_not_change_models(scenario, monkeypatch, workers):
    """Models, their order and the skips are the same however the pixels
    are cut into slices and however many threads run them."""
    import cmfda.pipeline as pipeline

    pixels, _ = scenario
    windows = make_windows(2003, 2)
    whole = fit_pixels(pixels, windows, (Band.NIR, Band.NDVI, Band.EVI))
    monkeypatch.setattr(pipeline, "SLICE_PIXELS", 7)
    sliced = fit_pixels(pixels, windows, (Band.NIR, Band.NDVI, Band.EVI), workers=workers)
    for index, table in whole.models.items():
        assert len(sliced.models[index]) == len(table)
        assert (list(oracle.model_dict(sliced.models[index]).items())
                == list(oracle.model_dict(table).items()))
    assert sliced.skipped == whole.skipped

def test_detect_pixels_matches_detect_pixel(scenario):
    """Each pixel's result is that of detect_pixels over the pixel alone."""
    pixels, labels = scenario
    windows = make_windows(2003, 1)
    fit_result = fit_pixels(pixels, windows, (Band.NIR, Band.NDVI))
    rule = MultivariateRule(0.082, 0.182, 4)
    results, skipped = detect_pixels(pixels, fit_result, rule, windows, "mini")
    assert not skipped
    by_id = {r.pixel_id: r for r in results}
    for pixel in pixels[:20]:
        direct, _ = detect_pixels([pixel], fit_result, rule, windows, "mini")
        assert [by_id[pixel.pixel_id]] == direct
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



def test_threaded_detect_with_shared_standardizers_equals_inline(scenario, monkeypatch):
    """Slices on threads share the standardizers: with tiny slices, more
    workers than CPUs and a short switch interval, the results equal the
    inline run."""
    import sys

    import cmfda.pipeline as pipeline

    pixels, _ = scenario
    windows = make_windows(2003, 1)
    bands = (Band.NIR, Band.NDVI)
    fit_result = fit_pixels(pixels, windows, bands)
    histories = training_residuals(pixels, fit_result, windows, bands, "mini")

    def standardizers():
        return {band: fit_standardizer(histories[band], Scheme.CUBE_ECDF, band) for band in bands}

    rule = MultivariateRule(1.5, 1.5, 4)
    inline = detect_pixels(pixels, fit_result, rule, windows, "mini", standardizers())
    monkeypatch.setattr(pipeline, "SLICE_PIXELS", 3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = detect_pixels(
            pixels, fit_result, rule, windows, "mini", standardizers(), workers=8
        )
    finally:
        sys.setswitchinterval(switch)
    assert threaded == inline

def test_training_residuals_and_pairs(scenario):
    pixels, _ = scenario
    windows = make_windows(2003, 1)
    fit_result = fit_pixels(pixels[:10], windows, (Band.NIR, Band.NDVI))
    histories = training_residuals(pixels[:10], fit_result, windows, (Band.NIR, Band.NDVI), "mini")
    assert set(histories) == {Band.NIR, Band.NDVI}
    for band, history in histories.items():
        assert history
        # residuals of an OLS fit over its own training window center on zero
        assert abs(history.value.mean()) < 0.01
        for ordinal in history.ordinal[:50]:
            date = dt.date.fromordinal(int(ordinal))
            assert windows[0].train.start <= date <= windows[0].train.end + dt.timedelta(days=15)
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
    compact, _ = scenario
    rule = UnivariateRule(Band.NIR, 0.08, 4)
    from cmfda.pipeline import online_process_batch

    flagged = {compact[0].pixel_id: dt.date(2005, 1, 1)}
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
        assert compact[0].pixel_id not in outcome.newly_flagged


def test_online_models_equal_fit_pixels_over_the_run_window():
    """The online step fits each band on that band's clear, non-fill dates
    of the run's trailing window, as fit_pixels does: a fill value in one
    band does not drop the date from the other band's fit."""
    pixels, _ = one_year_site()
    pixel = pixels[0]
    k = next(
        i for i, o in enumerate(pixel.observations)
        if o.nominal_date.year == 2004 and o.reliability in CLEAR_CODES
    )
    obs = pixel.observations[k]
    filled = dataclasses.replace(obs, values={**obs.values, Band.NDVI: FILL_INDEX})
    pixel = dataclasses.replace(
        pixel, observations=pixel.observations[:k] + (filled,) + pixel.observations[k + 1 :]
    )
    rule = MultivariateRule(0.082, 0.182, 4)
    run = [
        o.nominal_date for o in pixel.observations
        if o.nominal_date.year == 2005 and o.reliability in CLEAR_CODES
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
    batch_fit = fit_pixels(compact_pixels([pixel]), [window], (Band.NIR, Band.NDVI))
    models = oracle.model_dict(outcome.models)
    assert len(outcome.models) == len(batch_fit.models[0])
    assert models == oracle.model_dict(batch_fit.models[0])
    n_nir, n_ndvi = (models[pixel.pixel_id, b].n_obs for b in (Band.NIR, Band.NDVI))
    assert n_nir == n_ndvi + 1


def _series_file(path, rows):
    """A series file of (site, pixel, col, date) rows, one value text each."""
    path.write_text("\n".join([
        "#cmfda series v1", ",".join(SERIES_COLUMNS),
        *(f"{site},{pixel},{col},0,{date.isoformat()},{date.timetuple().tm_yday},0,"
          + ",".join([f"0.{col}{k}" for k in range(6)]) for site, pixel, col, date in rows),
    ]) + "\n")
    return path


def test_append_batch_lays_out_the_rows_as_a_read_of_the_appended_file(tmp_path):
    """A batch that lists a new site first, then a new pixel of the
    history's last site, rows of history pixels and a new pixel of its first
    site: append_batch gives, bit for bit, what a read of the history file
    with the batch's rows after its own gives. A batch row off its pixel's
    cadence is refused, naming the first such pixel in site order."""
    d = [dt.date(2004, 1, 1) + dt.timedelta(days=16 * k) for k in range(3)]
    history = [(site, pixel, col, date) for date in d[:2]
               for site, pixel, col in (("A", "a1", 1), ("A", "a2", 2), ("B", "b1", 3))]
    batch = [("C", "c1", 4, d[2]), ("B", "b2", 5, d[2]), ("A", "a1", 1, d[2]),
             ("B", "b1", 3, d[2]), ("A", "a3", 6, d[2])]
    def read(path):
        return dataio.read_series_file(path).flat

    merged = append_batch(read(_series_file(tmp_path / "h.csv", history)),
                          read(_series_file(tmp_path / "b.csv", batch)))
    want = read(_series_file(tmp_path / "all.csv", history + batch))
    assert merged.keys == want.keys
    assert [k[1] for k in merged.keys] == ["a1", "a2", "a3", "b1", "b2", "c1"]
    for got, ref in zip((merged.bounds, *merged.columns), (want.bounds, *want.columns)):
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
    late = [("B", "b1", 3, d[2] + dt.timedelta(days=16)), ("A", "a1", 1, d[1])]
    with pytest.raises(OutOfRange, match="pixel a1: nominal dates 2004-01-17 -> 2004-01-17"):
        append_batch(read(_series_file(tmp_path / "h.csv", history)),
                     read(_series_file(tmp_path / "late.csv", late)))
