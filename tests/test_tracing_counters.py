"""The benchmark tracer counts fits, refits, flags, records, pairs and
cubes from the results of the functions it wraps (``perfbench/tracing.py``,
loaded by path). The counts must stay the true ones whatever those results
look like."""
import importlib.util
from pathlib import Path

import pytest

import scalar_oracle as oracle
from cmfda.core import Band
from cmfda.detection import (
    MIN_CUBE_SAMPLES,
    N_PERIODS,
    N_SQUARES,
    MultivariateRule,
    estimate_cube_covariances,
)
from cmfda.harmonic import FIT_FAILURES
from cmfda.pipeline import (
    compact_pixels,
    fit_pixels,
    online_process_batch,
    paired_residual_records,
    training_residuals,
)
from cmfda.standardize import Scheme, fit_standardizer
from cmfda.windows import make_windows
from test_pipeline import one_year_scenario, one_year_site

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.fixture(scope="module")
def chain():
    pixels, _ = one_year_scenario(seed=7, n_events=4)
    windows = make_windows(2003, 1)
    bands = (Band.NIR, Band.NDVI)
    fit = fit_pixels(pixels, windows, bands)
    args = (pixels, fit, windows, bands, "mini")
    return args, training_residuals(*args), oracle.training_residuals(*args)


def test_residual_and_pair_counts_are_true(chain):
    args, histories, records = chain
    true_records = sum(len(r) for r in records.values())
    assert true_records > 0
    assert tracing._residual_counts(args, {}, histories) == {"records": true_records}
    pairs = paired_residual_records(histories)
    true_pairs = len(oracle.paired_residual_records(records))
    assert tracing._len_result("pairs")((histories,), {}, pairs) == {"pairs": true_pairs}


def test_standardizer_counts_are_true(chain):
    _, histories, records = chain
    history = histories[Band.NIR]
    std = fit_standardizer(history, Scheme.CUBE_SD, Band.NIR)
    counts = tracing._standardizer_counts((history, Scheme.CUBE_SD, Band.NIR), {}, std)
    assert counts == {"records": len(records[Band.NIR])}


def test_cube_counts_are_true(chain):
    _, histories, records = chain
    table = estimate_cube_covariances(paired_residual_records(histories))
    expected = oracle.estimate_cube_covariances(oracle.paired_residual_records(records))
    assert tracing._cube_counts((), {}, table) == {
        "cubes": len(expected.cubes),
        "cube_cells": len(expected.sites) * N_SQUARES * N_PERIODS,
        "cube_served": sum(e.n >= MIN_CUBE_SAMPLES for e in expected.cubes.values()),
    }


def test_fit_counts_are_true():
    """fits = pixels x windows x bands; the models and skips are those of
    one scalar fit per (pixel, band, window). The last window trains on
    2006-2007, past the scene's last date, so it has skips."""
    pixels, _ = one_year_site(seed=7, n_events=4)
    windows = make_windows(2003, 4)
    bands = (Band.NIR, Band.NDVI)
    fitted = skipped = 0
    for pixel in pixels:
        for band in bands:
            for wp in windows:
                try:
                    oracle.fit(pixel, band, wp.train)
                    fitted += 1
                except FIT_FAILURES:
                    skipped += 1
    assert fitted and skipped
    result = fit_pixels(compact_pixels(pixels), windows, bands)
    assert tracing._fit_counts((), {}, result) == {
        "fits": len(pixels) * len(windows) * len(bands), "skipped": skipped, "models": fitted,
    }


def test_online_counts_are_true():
    """Each step's refits and new flags are those of the per-pixel oracle."""
    pixels, _ = one_year_scenario(seed=7, n_events=4)
    pixels = pixels[:12]
    rule = MultivariateRule(0.082, 0.182, 4)
    steps, _ = oracle.online_steps(pixels, rule, 2005, "mini")
    flagged = {}
    totals = {"refits": 0, "new_flags": 0}
    for date, newly, models in steps:
        outcome = online_process_batch(pixels, date, rule, 2005, flagged, site_id="mini")
        counts = tracing._online_counts((), {}, outcome)
        assert counts == {"refits": len(models), "new_flags": len(newly)}, date
        flagged.update(newly)
        totals = {key: totals[key] + counts[key] for key in totals}
    assert totals["refits"] and totals["new_flags"]
