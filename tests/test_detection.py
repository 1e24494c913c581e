import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfda.core import Band, FILL_INDEX, Reliability, ResidualHistory, SeriesArrays
from cmfda.detection import (
    CubeCovarianceTable,
    FlatErrors,
    MahalanobisRule,
    MultivariateRule,
    PairedErrorRecord,
    UnivariateRule,
    WindowErrors,
    cube_of,
    estimate_cube_covariances,
    INDEX,
    flag_levels,
    pool_statistics,
    rule_bands,
    rule_series,
    mahalanobis_index,
    mahalanobis_series,
    scan_window_errors,
    stack_errors,
    univariate_flag,
)
from cmfda.errors import OutOfRange, SingularCovariance, WrongWindowLength
from cmfda.pipeline import FitResult, compact_pixels, detect_pixels, fit_pixels
from cmfda.windows import make_windows
from conftest import make_series, nominal_dates, served_sigmas
from scalar_oracle import flag_level, matrix_for, model_dict, predict, scan_windows

error_lists = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=2, max_size=6
)


# --- rule primitives ---------------------------------------------------------


def test_univariate_flag_examples():
    assert univariate_flag([0.2, 0.15, 0.3], 0.1, 3) is True
    assert univariate_flag([0.2, -0.15, 0.3], 0.1, 3) is False  # mixed signs
    assert univariate_flag([-0.11, -0.2], 0.1, 2) is True


def test_univariate_flag_wrong_length():
    with pytest.raises(WrongWindowLength):
        univariate_flag([0.2, 0.3], 0.1, 3)


def test_univariate_flag_threshold_strict():
    assert univariate_flag([0.1, 0.1], 0.1, 2) is False


@given(errors=error_lists, threshold=st.floats(min_value=0.01, max_value=0.5))
def test_univariate_flag_sign_symmetry(errors, threshold):
    c = len(errors)
    flipped = [-e for e in errors]
    assert univariate_flag(errors, threshold, c) == univariate_flag(flipped, threshold, c)


@given(
    errors=error_lists,
    thresholds=st.tuples(
        st.floats(min_value=0.01, max_value=0.5), st.floats(min_value=0.01, max_value=0.5)
    ),
)
def test_univariate_flag_monotone_in_threshold(errors, thresholds):
    lo, hi = sorted(thresholds)
    c = len(errors)
    if univariate_flag(errors, hi, c):
        assert univariate_flag(errors, lo, c)


@given(errors=error_lists, threshold=st.floats(min_value=0.01, max_value=0.5))
def test_univariate_flag_matches_literal_product_form(errors, threshold):
    c = len(errors)
    above = math.prod(1 if e > threshold else 0 for e in errors)
    below = math.prod(1 if e < -threshold else 0 for e in errors)
    assert univariate_flag(errors, threshold, c) == bool(above + below)


def _pair_flag(nir, ndvi, nir_threshold, ndvi_threshold, consecutive):
    """Whether the pair rule flags one window of these clear-date errors,
    any date a run start."""
    n = len(nir)
    ordinals = 732000 + 16 * np.arange(n, dtype=np.int64)
    window = WindowErrors(ordinals, ordinals, np.ones(n, dtype=np.int64), np.ones(n, dtype=bool),
                          {Band.NIR: np.array(nir, dtype=float),
                           Band.NDVI: np.array(ndvi, dtype=float)})
    rule = MultivariateRule(nir_threshold, ndvi_threshold, consecutive)
    flag_dates, _ = scan_window_errors(FlatErrors.concat([window], [0]), rule, 1)
    return bool(flag_dates[0])


def test_multivariate_flag_is_lax_or():
    nir = [0.2, 0.3, 0.25]
    ndvi = [0.0, 0.1, 0.0]
    assert _pair_flag(nir, ndvi, 0.1, 0.5, 3) is True     # NIR only
    assert _pair_flag(ndvi, ndvi, 0.5, 0.5, 3) is False   # neither
    assert _pair_flag(nir, nir, 0.1, 0.1, 3) is True      # both


@given(
    nir=error_lists,
    seed=st.integers(0, 2**16),
    l_nir=st.floats(min_value=0.01, max_value=0.5),
    l_ndvi=st.floats(min_value=0.01, max_value=0.5),
)
def test_multivariate_equals_or_of_univariate(nir, seed, l_nir, l_ndvi):
    rng = np.random.default_rng(seed)
    ndvi = list(rng.uniform(-1, 1, size=len(nir)))
    c = len(nir)
    expected = univariate_flag(nir, l_nir, c) or univariate_flag(ndvi, l_ndvi, c)
    assert _pair_flag(nir, ndvi, l_nir, l_ndvi, c) == expected


# --- cubes -------------------------------------------------------------------


def test_cube_of_examples():
    assert cube_of(0, 0, 1) == (0, 0)
    assert cube_of(24, 24, 366) == (24, 72)
    assert cube_of(7, 12, 100) == (11, 19)


def test_cube_of_period_boundaries():
    assert cube_of(0, 0, 5) == (0, 0)
    assert cube_of(0, 0, 6) == (0, 1)
    assert cube_of(0, 0, 360) == (0, 71)
    assert cube_of(0, 0, 361) == (0, 72)


def test_cube_of_out_of_range():
    with pytest.raises(OutOfRange):
        cube_of(25, 0, 1)
    with pytest.raises(OutOfRange):
        cube_of(0, 0, 0)


def _record(col, row, doy, eps_nir, eps_ndvi, site="s"):
    date = dt.date(2005, 1, 1) + dt.timedelta(days=doy - 1)
    return PairedErrorRecord("p", site, col, row, date, doy, eps_nir, eps_ndvi)


def test_cube_covariance_degenerate_component_regularized():
    records = [
        _record(0, 0, 1, 0.05 if i % 2 else -0.05, 0.0) for i in range(20)
    ]
    table = estimate_cube_covariances(records)
    (sigma,) = served_sigmas(table, "s", [(0, 0)])
    assert sigma[0, 1] == 0.0
    assert sigma[1, 1] > 0  # ridge keeps it positive definite
    # index stays finite
    assert np.isfinite(mahalanobis_index(0.1, 0.01, sigma))


def test_cube_covariance_monte_carlo_oracle(rng):
    true = np.array([[0.01, 0.004], [0.004, 0.0025]])
    draws = rng.multivariate_normal([0, 0], true, size=1000)
    records = [
        _record(1, 1, 10, float(e2), float(e8)) for e2, e8 in draws
    ]
    table = estimate_cube_covariances(records)
    (sigma,) = served_sigmas(table, "s", [(0, 1)])  # cube of (1, 1, doy 10)
    for i in range(2):
        for j in range(2):
            assert abs(sigma[i, j] - true[i, j]) < 0.2 * abs(true[i, j])


def test_cube_covariance_empty_cube_falls_back_to_site():
    records = [
        _record(0, 0, 1, float(v), float(v) / 2) for v in np.linspace(-0.1, 0.1, 30)
    ]
    table = estimate_cube_covariances(records)
    # period 40 was never observed: falls back to the site pool
    (sigma,) = served_sigmas(table, "s", [(24, 40)])
    site_sigma = table.sites["s"].matrix()
    np.testing.assert_allclose(sigma, site_sigma)
    with pytest.raises(SingularCovariance):
        served_sigmas(table, "unknown-site", [(0, 0)])


def test_sparse_cube_falls_back_before_min_samples():
    records = [_record(0, 0, 1, 0.1, 0.05), _record(0, 0, 1, -0.1, -0.05)] + [
        _record(10, 10, 100 + i, float(v), float(v) / 3)
        for i, v in enumerate(np.linspace(-0.2, 0.2, 40))
    ]
    table = estimate_cube_covariances(records, min_cube_samples=10)
    # cube (0,0) holds only 2 pairs -> site-period, then site fallback
    (sigma,) = served_sigmas(table, "s", [(0, 0)])
    assert np.all(np.isfinite(sigma))
    assert sigma.tobytes() == matrix_for(table, "s", 0, 0).tobytes()


def _served_level(table, site_id, square, period):
    """The pool that serves a cube key, as the per-key reference walks."""
    if getattr(table.cubes.get((site_id, square, period)), "n", 0) >= table.min_cube_samples:
        return "cube"
    if getattr(table.site_periods.get((site_id, period)), "n", 0) >= 2:
        return "site_period"
    return "site" if getattr(table.sites.get(site_id), "n", 0) >= 2 else None


def _walk_case(rng):
    """A table over sites a, b (one pair), c and d, and the errors of pixels
    at (a, 0, 0), (a, 10, 10), (c, 3, 3) and (d, 20, 20), whose entries the
    cube, the site-period and the site pools serve, each from exactly its
    least count of pairs too: 10 in cube (a, 0, 0), 2 in site-period
    (c, 7), 2 in site d."""
    def pairs(col, row, doys, site):
        return [_record(col, row, doy, *rng.normal(0, [0.02, 0.03]), site=site) for doy in doys]

    records = [
        *pairs(0, 0, [1 + i % 5 for i in range(10)], "a"), *pairs(10, 10, [3] * 3, "a"),
        *pairs(0, 0, [100] * 5, "a"), _record(4, 4, 200, 0.01, 0.02, site="b"),
        *pairs(3, 3, [37, 38, 67, 97], "c"), *pairs(20, 20, [10, 250], "d"),
    ]
    table = estimate_cube_covariances(records)
    doys = np.array([2, 101, 200, 4, 37, 150, 300])
    ordinals = dt.date(2004, 12, 31).toordinal() + doys
    errors = FlatErrors(
        ordinals, ordinals, doys, np.ones(doys.size, dtype=bool),
        {Band.NIR: rng.normal(0, 0.05, doys.size), Band.NDVI: rng.normal(0, 0.05, doys.size)},
        np.array([3, 4, 6, 7]), np.arange(4),
    )
    return table, errors, [0, 0, 0, 1, 2, 2, 3]


WALK_COLS = WALK_ROWS = [0, 10, 3, 20]


def test_mahalanobis_series_walks_every_level(rng):
    """Each entry's index is the per-key reference's, bit for bit, whether
    its cube, its site-period or its site serves it."""
    table, errors, pixel = _walk_case(rng)
    site_ids = ["a", "a", "c", "d"]
    keys = [(site_ids[p], *cube_of(WALK_COLS[p], WALK_ROWS[p], int(doy)))
            for p, doy in zip(pixel, errors.doys)]
    levels = [_served_level(table, *key) for key in keys]
    assert levels == ["cube", "site", "site", "site_period", "site_period", "site", "site"]
    want = [mahalanobis_index(nir, ndvi, matrix_for(table, *key))
            for nir, ndvi, key in zip(errors.errors[Band.NIR], errors.errors[Band.NDVI], keys)]
    got = mahalanobis_series(errors, table, site_ids, WALK_COLS, WALK_ROWS)
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("site_ids, named", [
    (["a", "a", "nowhere", "d"], "nowhere"),
    (["b", "a", "nowhere", "d"], "b"),
])
def test_mahalanobis_series_names_the_first_site_without_history(rng, site_ids, named):
    """A site with no pool to serve it (none, or one pair) raises
    SingularCovariance naming the first such site of ``site_ids``."""
    table, errors, _ = _walk_case(rng)
    with pytest.raises(SingularCovariance) as raised:
        mahalanobis_series(errors, table, site_ids, WALK_COLS, WALK_ROWS)
    assert str(raised.value) == f"no covariance history for site {named!r}"


# --- mahalanobis index ---------------------------------------------------------


def test_mahalanobis_zero_vector():
    assert mahalanobis_index(0.0, 0.0, np.array([[0.1, 0.01], [0.01, 0.2]])) == 0.0


def test_mahalanobis_identity_is_euclidean():
    assert mahalanobis_index(3.0, 4.0, np.eye(2)) == 5.0
    assert mahalanobis_index(0.3, 0.4, np.eye(2)) == math.sqrt(0.3 * 0.3 + 0.4 * 0.4)


def test_mahalanobis_diagonal_closed_form():
    value = mahalanobis_index(0.2, 0.1, np.array([[0.04, 0.0], [0.0, 0.01]]))
    assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_mahalanobis_closed_form_oracle(rng):
    for _ in range(500):
        a = rng.normal(size=(2, 2))
        sigma = a @ a.T + 0.05 * np.eye(2)
        e2, e8 = rng.normal(size=2)
        det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2
        quad = (
            sigma[1, 1] * e2 * e2 - 2 * sigma[0, 1] * e2 * e8 + sigma[0, 0] * e8 * e8
        ) / det
        assert mahalanobis_index(e2, e8, sigma) == pytest.approx(
            math.sqrt(quad), abs=1e-10
        )


@given(
    scale=st.floats(min_value=0.1, max_value=10),
    e2=st.floats(min_value=-1, max_value=1),
    e8=st.floats(min_value=-1, max_value=1),
)
def test_mahalanobis_scale_invariance(scale, e2, e8):
    sigma = np.array([[0.04, 0.01], [0.01, 0.02]])
    base = mahalanobis_index(e2, e8, sigma)
    scaled = mahalanobis_index(scale * e2, scale * e8, scale * scale * sigma)
    assert scaled == pytest.approx(base, abs=1e-10)


def test_mahalanobis_rejects_singular():
    with pytest.raises(SingularCovariance):
        mahalanobis_index(0.1, 0.1, np.array([[0.01, 0.01], [0.01, 0.01]]))
    with pytest.raises(SingularCovariance):
        mahalanobis_index(0.1, 0.1, np.array([[-0.01, 0.0], [0.0, 0.01]]))


# --- one pixel's detection ------------------------------------------------------


def _fit_models(series, windows, bands):
    return fit_pixels(compact_pixels([series]), windows, bands)


def detect_pixel(series, fit, rule, windows):
    """detect_pixels over the one pixel, in site "s"."""
    (result,), _ = detect_pixels(compact_pixels([series]), fit, rule, windows, "s")
    return result


def _step_series(band, event_date, shift, end=dt.date(2007, 5, 1), **kwargs):
    return make_series(
        start=dt.date(2003, 1, 1),
        end=end,
        value_fn=lambda b, date, clean: clean
        + (shift if b is band and date >= event_date else 0.0),
        **kwargs,
    )


def test_stable_pixel_never_flagged():
    series = make_series(end=dt.date(2007, 5, 1))
    windows = make_windows(2003, 2)
    models = _fit_models(series, windows, (Band.NIR,))
    rule = UnivariateRule(Band.NIR, 0.05, 4)
    result = detect_pixel(series, models, rule, windows)
    assert not result.flagged
    assert result.first_flag_date is None


def test_step_change_flagged_at_fourth_clear_date():
    event = dt.date(2006, 6, 15)
    series = _step_series(Band.NIR, event, -0.3)
    windows = make_windows(2003, 2)
    models = _fit_models(series, windows, (Band.NIR,))
    result = detect_pixel(series, models, UnivariateRule(Band.NIR, 0.08, 4), windows)
    post_event = [d for d in nominal_dates(dt.date(2003, 1, 1), dt.date(2007, 5, 1)) if d >= event]
    assert result.flagged
    assert result.first_flag_date == post_event[3]


def test_flag_straddles_year_end_via_extension():
    event = dt.date(2005, 12, 1)
    series = _step_series(Band.NIR, event, -0.3, end=dt.date(2006, 12, 31))
    windows = make_windows(2003, 1)  # only the 2005 prediction year
    models = _fit_models(series, windows, (Band.NIR,))
    result = detect_pixel(series, models, UnivariateRule(Band.NIR, 0.08, 4), windows)
    assert result.flagged
    assert result.first_flag_date.year == 2006
    assert result.first_flag_date <= dt.date(2005, 12, 31) + dt.timedelta(days=120)
    # the triggering run starts inside 2005
    run_start_candidates = [
        d for d in nominal_dates(dt.date(2003, 1, 1), dt.date(2006, 12, 31))
        if d >= event and d.year == 2005
    ]
    assert run_start_candidates


def test_no_flag_when_run_cannot_start_in_prediction_year():
    # change begins after the prediction year: extension dates alone must
    # not raise the flag
    event = dt.date(2006, 2, 1)
    series = _step_series(Band.NIR, event, -0.3, end=dt.date(2006, 12, 31))
    windows = make_windows(2003, 1)
    models = _fit_models(series, windows, (Band.NIR,))
    result = detect_pixel(series, models, UnivariateRule(Band.NIR, 0.08, 4), windows)
    assert not result.flagged


def test_consecutive_skips_cloudy_dates_without_reset():
    event = dt.date(2006, 6, 15)
    cloudy = set()
    post = [d for d in nominal_dates(dt.date(2003, 1, 1), dt.date(2007, 5, 1)) if d >= event]
    cloudy.add(post[1])  # second post-event date is cloudy

    series = make_series(
        start=dt.date(2003, 1, 1),
        end=dt.date(2007, 5, 1),
        value_fn=lambda b, date, clean: clean
        + (-0.3 if b is Band.NIR and date >= event else 0.0),
        reliability_fn=lambda date: Reliability.CLOUDY if date in cloudy else Reliability.GOOD,
    )
    windows = make_windows(2003, 2)
    models = _fit_models(series, windows, (Band.NIR,))
    result = detect_pixel(series, models, UnivariateRule(Band.NIR, 0.08, 4), windows)
    assert result.flagged
    # run = post[0], post[2], post[3], post[4]: detection slips one date
    assert result.first_flag_date == post[4]


def test_lower_consecutive_flags_superset():
    windows = make_windows(2003, 2)
    rng = np.random.default_rng(7)
    flagged = {2: set(), 3: set()}
    for k in range(12):
        noise = rng.normal(0, 0.05, size=200)
        series = make_series(
            end=dt.date(2007, 5, 1),
            value_fn=lambda b, date, clean, noise=noise: clean
            + (noise[date.toordinal() % 200] if b is Band.NIR else 0.0),
            pixel_id=f"p{k}",
        )
        models = _fit_models(series, windows, (Band.NIR,))
        for c in (2, 3):
            rule = UnivariateRule(Band.NIR, 0.05, c)
            if detect_pixel(series, models, rule, windows).flagged:
                flagged[c].add(f"p{k}")
    assert flagged[3] <= flagged[2]
    assert flagged[2]  # the scenario actually produces flags


def test_detect_requires_models():
    """A pixel without its models is skipped, not detected."""
    series = make_series(end=dt.date(2007, 5, 1))
    windows = make_windows(2003, 2)
    rule = UnivariateRule(Band.NIR, 0.05, 4)
    assert detect_pixels(compact_pixels([series]), FitResult({}), rule, windows, "s") == (
        [], ["px"]
    )


def test_multivariate_triggering_band():
    event = dt.date(2006, 6, 15)
    series = _step_series(Band.NDVI, event, -0.3)
    windows = make_windows(2003, 2)
    models = _fit_models(series, windows, (Band.NIR, Band.NDVI))
    rule = MultivariateRule(0.082, 0.182, 4)
    result = detect_pixel(series, models, rule, windows)
    assert result.flagged
    assert result.triggering_band is Band.NDVI


def test_date_axis_requires_all_rule_bands():
    event = dt.date(2006, 6, 15)
    post = [d for d in nominal_dates(dt.date(2003, 1, 1), dt.date(2007, 5, 1)) if d >= event]
    missing = post[1]
    series = make_series(
        start=dt.date(2003, 1, 1),
        end=dt.date(2007, 5, 1),
        value_fn=lambda b, date, clean: (
            FILL_INDEX
            if b is Band.NDVI and date == missing
            else clean + (-0.3 if b is Band.NIR and date >= event else 0.0)
        ),
    )
    windows = make_windows(2003, 2)
    models = _fit_models(series, windows, (Band.NIR, Band.NDVI))
    bands = (Band.NIR, Band.NDVI)
    tables = {index: model_dict(table) for index, table in models.models.items()}
    coeffs = np.array([[[tables[wp.index]["px", band].coeffs for band in bands]
                        for wp in windows]])
    bounds = np.array([[[d.toordinal() for d in (wp.predict.start, wp.predict.end,
                                                 wp.predict_year.start, wp.predict_year.end)]
                        for wp in windows]])
    stack = SeriesArrays(*(np.asarray(column)[None] for column in series.to_arrays()))
    errors = stack_errors(stack, coeffs, bounds, bands)
    assert len(errors) and missing.toordinal() not in errors.ordinals
    result = detect_pixel(series, models, MultivariateRule(0.082, 0.182, 4), windows)
    assert result.flagged
    assert result.first_flag_date == post[4]  # one date later than without the gap


def test_mahalanobis_rule_detection(rng):
    event = dt.date(2006, 6, 15)
    series = _step_series(Band.NIR, event, -0.3)
    windows = make_windows(2003, 2)
    models = _fit_models(series, windows, (Band.NIR, Band.NDVI))
    pairs = rng.multivariate_normal(
        [0, 0], [[0.0004, 0.0001], [0.0001, 0.0004]], size=400
    )
    records = [
        _record(
            int(rng.integers(0, 25)),
            int(rng.integers(0, 25)),
            int(rng.integers(1, 367)),
            float(e2),
            float(e8),
        )
        for e2, e8 in pairs
    ]
    table = estimate_cube_covariances(records)
    rule = MahalanobisRule(11.72, table, 4)
    result = detect_pixel(series, models, rule, windows)
    assert result.flagged
    stable = make_series(end=dt.date(2007, 5, 1))
    stable_models = _fit_models(stable, windows, (Band.NIR, Band.NDVI))
    assert not detect_pixel(stable, stable_models, rule, windows).flagged


def test_rule_validation():
    """Each rule refuses a threshold that is not finite and positive before
    a C outside 2..6."""
    with pytest.raises(OutOfRange, match="^threshold must be finite and positive$"):
        UnivariateRule(Band.NIR, -0.1, 4)
    with pytest.raises(OutOfRange, match="^consecutive count 1 outside 2..6$"):
        UnivariateRule(Band.NIR, 0.1, 1)
    with pytest.raises(OutOfRange, match="^consecutive count 7 outside 2..6$"):
        UnivariateRule(Band.NIR, 0.1, 7)
    with pytest.raises(OutOfRange, match="^thresholds must be finite and positive$"):
        MultivariateRule(0.0, 0.1, 4)
    with pytest.raises(OutOfRange, match="^thresholds must be finite and positive$"):
        MultivariateRule(0.1, -1.0, 9)
    with pytest.raises(OutOfRange, match="^threshold must be finite and positive$"):
        MahalanobisRule(0.0, CubeCovarianceTable({}, {}, {}), 1)
    with pytest.raises(OutOfRange, match="^consecutive count 9 outside 2..6$"):
        MahalanobisRule(3.0, CubeCovarianceTable({}, {}, {}), 9)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange, match="^threshold must be finite and positive$"):
            UnivariateRule(Band.NIR, bad, 4)
        with pytest.raises(OutOfRange, match="^thresholds must be finite and positive$"):
            MultivariateRule(0.1, bad, 4)
        with pytest.raises(OutOfRange, match="^threshold must be finite and positive$"):
            MahalanobisRule(bad, CubeCovarianceTable({}, {}, {}), 4)


def _same_sign_run(run, threshold):
    return all(e > threshold for e in run) or all(e < -threshold for e in run)


def _naive_index(eps_nir, eps_ndvi, sigma):
    eps = np.array([eps_nir, eps_ndvi])
    return math.sqrt(max(0.0, float(eps @ np.linalg.solve(sigma, eps))))


def _naive_detect(series, models, rule, windows, site_id=None):
    """Independent re-implementation of the whole detection walk: filter
    to clear dates carrying every rule band, take errors against the
    window's models, and scan every C-run whose start lies in the bare
    year. Returns (flag date, triggering band) or None; the band is set
    only by the multivariate rule, where NIR wins a tie."""
    tables = {index: model_dict(table) for index, table in models.models.items()}
    if isinstance(rule, UnivariateRule):
        bands = (rule.band,)
    else:
        bands = (Band.NIR, Band.NDVI)
    best = None
    for wp in windows:
        usable = [
            obs
            for obs in series.observations
            if obs.nominal_date in wp.predict
            and obs.reliability in (Reliability.GOOD, Reliability.MARGINAL)
            and all(obs.band_value(b) is not None for b in bands)
        ]
        errors = {
            b: [
                obs.band_value(b)
                - predict(tables[wp.index][series.pixel_id, b], obs.composite_doy)
                for obs in usable
            ]
            for b in bands
        }
        c = rule.consecutive
        for i in range(len(usable) - c + 1):
            if not (usable[i].nominal_date in wp.predict_year):
                continue
            band = None
            if isinstance(rule, UnivariateRule):
                hit = _same_sign_run(errors[rule.band][i : i + c], rule.threshold)
            elif isinstance(rule, MultivariateRule):
                if _same_sign_run(errors[Band.NIR][i : i + c], rule.nir_threshold):
                    hit, band = True, Band.NIR
                else:
                    hit = _same_sign_run(errors[Band.NDVI][i : i + c], rule.ndvi_threshold)
                    band = Band.NDVI
            else:
                index = [
                    _naive_index(
                        errors[Band.NIR][k],
                        errors[Band.NDVI][k],
                        matrix_for(
                            rule.covariances, site_id, *cube_of(series.col, series.row, usable[k].composite_doy)
                        ),
                    )
                    for k in range(i, i + c)
                ]
                hit = all(v > rule.threshold for v in index)
            if hit:
                date = usable[i + c - 1].nominal_date
                if best is None or date < best[0]:
                    best = (date, band)
                break
    return best


@settings(max_examples=180, deadline=None)
@given(
    kind=st.sampled_from(["univariate", "multivariate", "mahalanobis"]),
    seed=st.integers(0, 2**32 - 1),
    consecutive=st.integers(2, 5),
    threshold=st.floats(min_value=0.02, max_value=0.12),
)
def test_detect_pixel_matches_naive_oracle(kind, seed, consecutive, threshold):
    rng = np.random.default_rng(seed)
    event = dt.date(2005, 6, 1) + dt.timedelta(days=int(rng.integers(0, 400)))
    shift = float(rng.choice([-0.3, -0.15, 0.0]))
    noise = rng.normal(0, 0.05, size=400)
    fills = rng.random(400) < 0.05
    # the pair rules also see NDVI noise and a shift of their own
    ndvi_shift = float(rng.choice([-0.3, -0.15, 0.0]))
    ndvi_noise = rng.normal(0, 0.05, size=400)

    def value_fn(band, date, clean):
        k = date.toordinal() % 400
        if band is Band.NDVI and kind != "univariate":
            return clean + ndvi_noise[k] + (ndvi_shift if date >= event else 0.0)
        if band is not Band.NIR:
            return clean
        if fills[k]:
            return -0.1  # fill
        out = clean + noise[k] + (shift if date >= event else 0.0)
        return min(max(out, 0.0), 1.0)

    series = make_series(
        start=dt.date(2003, 1, 1),
        end=dt.date(2007, 5, 1),
        value_fn=value_fn,
        reliability_fn=lambda date: Reliability.CLOUDY
        if date.toordinal() % 7 == 0
        else Reliability.GOOD,
        col=int(rng.integers(0, 25)),
        row=int(rng.integers(0, 25)),
    )
    windows = make_windows(2003, 2)
    if kind == "univariate":
        rule = UnivariateRule(Band.NIR, threshold, consecutive)
    elif kind == "multivariate":
        rule = MultivariateRule(threshold, 2 * threshold, consecutive)
    else:
        # sparse random cubes, so lookups also fall back to coarser pools
        pairs = rng.multivariate_normal(
            [0, 0], [[0.0025, 0.001], [0.001, 0.0025]], size=400
        )
        records = [
            _record(
                int(rng.integers(0, 25)),
                int(rng.integers(0, 25)),
                int(rng.integers(1, 367)),
                float(e2),
                float(e8),
            )
            for e2, e8 in pairs
        ]
        rule = MahalanobisRule(80 * threshold, estimate_cube_covariances(records), consecutive)
    models = _fit_models(series, windows, rule_bands(rule))
    result = detect_pixel(series, models, rule, windows)
    expected = _naive_detect(series, models, rule, windows, site_id="s")
    assert result.flagged == (expected is not None)
    if expected is not None:
        assert (result.first_flag_date, result.triggering_band) == expected


# --- flag levels and the segmented scan -------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    consecutive=st.integers(min_value=2, max_value=6),
    threshold=st.floats(min_value=0.01, max_value=0.4),
    two_sided=st.booleans(),
)
def test_flag_level_matches_brute_force_scan(seed, consecutive, threshold, two_sided):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    values = rng.normal(0, 0.15, size=n)
    start_ok = rng.random(n) < 0.7
    brute = False
    for i in range(n - consecutive + 1):
        if not start_ok[i]:
            continue
        window = values[i : i + consecutive]
        if np.all(window > threshold) or (two_sided and np.all(window < -threshold)):
            brute = True
            break
    errors = WindowErrors(np.arange(n), np.arange(n), np.ones(n), start_ok, {Band.NIR: values})
    (level,) = flag_levels(errors, values, consecutive, two_sided, 1)
    assert (level > threshold) == brute
    assert level == flag_level(values, start_ok, consecutive, two_sided)


_ROUNDED = st.sampled_from([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3])


@st.composite
def _window(draw, values=_ROUNDED):
    """One window of a pixel: dates from a shared 16-date pool, so windows
    overlap and reach equal flag dates, and values that are multiples of
    0.1, so NIR and NDVI runs tie."""
    days = sorted(draw(st.lists(st.integers(0, 15), max_size=10, unique=True)))
    n = len(days)
    ordinals = 732000 + 16 * np.array(days, dtype=np.int64)

    def series(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)

    return WindowErrors(
        ordinals, ordinals, np.ones(n, dtype=np.int64),
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        {Band.NIR: series(values), Band.NDVI: series(values)},
        index=np.abs(series(values)),
    )


def _rule_of(kind, thresholds, consecutive):
    if kind == "univariate":
        return UnivariateRule(Band.NDVI, thresholds[0], consecutive)
    if kind == "multivariate":
        return MultivariateRule(*thresholds, consecutive)
    return MahalanobisRule(thresholds[0], CubeCovarianceTable({}, {}, {}), consecutive)


@settings(max_examples=300, deadline=None)
@given(
    pixels=st.lists(st.lists(_window(), max_size=3), min_size=1, max_size=5),
    kind=st.sampled_from(["univariate", "multivariate", "mahalanobis"]),
    consecutive=st.integers(2, 4),
    thresholds=st.tuples(st.sampled_from([0.05, 0.15]), st.sampled_from([0.05, 0.15])),
)
def test_segmented_scan_matches_per_window_oracle(pixels, kind, consecutive, thresholds):
    """One scan over the flat form gives each pixel the flag date and band
    of the per-window oracle, and each pixel's largest level is the largest
    per-window level: runs never cross a segment end."""
    rule = _rule_of(kind, thresholds, consecutive)
    flat = FlatErrors.concat(
        [window for windows in pixels for window in windows],
        [k for k, windows in enumerate(pixels) for _ in windows],
    )
    flag_dates, flag_bands = scan_window_errors(flat, rule, len(pixels))
    for k, windows in enumerate(pixels):
        expected = scan_windows(windows, rule)
        got = (int(flag_dates[k]), None if flag_bands[k] < 0 else Band(flag_bands[k]))
        assert got == (expected or (0, None)), k
    two_sided = kind != "mahalanobis"
    values = flat.errors[Band.NDVI] if two_sided else flat.index
    levels = flag_levels(flat, values, consecutive, two_sided, len(pixels))
    for k, windows in enumerate(pixels):
        per_window = [
            flag_level(w.errors[Band.NDVI] if two_sided else w.index, w.start_ok,
                       consecutive, two_sided)
            for w in windows
        ]
        assert levels[k] == max(per_window, default=-math.inf), k


@settings(max_examples=300, deadline=None)
@given(
    pixels=st.lists(st.lists(_window(st.one_of(_ROUNDED, st.just(math.nan))), max_size=3),
                    min_size=1, max_size=5),
    kind=st.sampled_from(["univariate", "multivariate", "mahalanobis"]),
    consecutive=st.integers(2, 4),
    thresholds=st.tuples(st.sampled_from([0.05, 0.15]), st.sampled_from([0.05, 0.15])),
)
def test_levels_flag_as_the_scan_does_on_errors_holding_nan(pixels, kind, consecutive,
                                                             thresholds):
    """A run holding NaN never triggers the scan, and never hides a pixel's
    other runs from its level: a level above a series' threshold, of either
    band under the pair rule, flags exactly the pixels the scan flags."""
    rule = _rule_of(kind, thresholds, consecutive)
    flat = FlatErrors.concat(
        [window for windows in pixels for window in windows],
        [k for k, windows in enumerate(pixels) for _ in windows],
    )
    flag_dates, _ = scan_window_errors(flat, rule, len(pixels))
    flagged = np.zeros(len(pixels), dtype=bool)
    for key, threshold in rule_series(rule):
        levels = flag_levels(flat, flat.series(key), consecutive, key != INDEX, len(pixels))
        flagged |= levels > threshold
    assert flagged.tolist() == (flag_dates > 0).tolist()


# --- pools -----------------------------------------------------------------------


def _pixel_history(codes) -> ResidualHistory:
    """Entries of pixels numbered ``codes``, valued by their position."""
    n = len(codes)
    zeros = np.zeros(n, dtype=np.int64)
    return ResidualHistory(
        tuple(map(str, range(max(codes, default=-1) + 1))), ("s",),
        np.asarray(codes, dtype=np.intp), zeros, zeros, zeros, zeros + 732000, zeros + 1,
        np.arange(n, dtype=float),
    )


def _segments(starts, stops, values):
    return [values[a:b].tolist() for a, b in zip(starts.tolist(), stops.tolist())]


@pytest.mark.parametrize("top", [65535, 65536])
def test_a_pool_keeps_each_keys_entries_in_order_at_the_uint16_edge(top):
    """Codes up to 65535 sort as uint16 and a larger one as int64: either
    way each key's entries form one segment in their original order, and
    keys come in order of first appearance."""
    codes = np.random.default_rng(top).choice([0, 1, 255, 256, top - 1, top], size=400).tolist()
    history = _pixel_history(codes)
    (table,) = pool_statistics(history, ["pixel"], _segments, history.value)
    expected = {}
    for position, code in enumerate(codes):
        expected.setdefault(str(code), []).append(float(position))
    assert list(table.items()) == list(expected.items())


def test_an_empty_pool_has_no_keys():
    history = _pixel_history([])
    assert pool_statistics(history, ["pixel", "site", "cube"], _segments, history.value) == [
        {}, {}, {}]
