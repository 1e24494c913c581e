import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfda.core import Band, FILL_INDEX, Reliability
from cmfda.detection import (
    CubeCovarianceTable,
    MahalanobisRule,
    MultivariateRule,
    PairedErrorRecord,
    UnivariateRule,
    cube_of,
    detect_pixel,
    estimate_cube_covariances,
    extract_window_errors,
    flag_level,
    rule_bands,
    mahalanobis_index,
    multivariate_flag,
    univariate_flag,
)
from cmfda.errors import NoModels, OutOfRange, SingularCovariance, WrongWindowLength
from cmfda.harmonic import fit
from cmfda.windows import make_windows
from conftest import make_series, nominal_dates

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


def test_multivariate_flag_is_lax_or():
    nir = [0.2, 0.3, 0.25]
    ndvi = [0.0, 0.1, 0.0]
    assert multivariate_flag(nir, ndvi, 0.1, 0.5, 3) is True     # NIR only
    assert multivariate_flag(ndvi, ndvi, 0.5, 0.5, 3) is False   # neither
    assert multivariate_flag(nir, nir, 0.1, 0.1, 3) is True      # both


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
    assert multivariate_flag(nir, ndvi, l_nir, l_ndvi, c) == expected


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
    sigma = table.matrix_for("s", 0, 0)
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
    sigma = table.matrix_for("s", 0, 2)  # cube of (1, 1, doy 10)
    for i in range(2):
        for j in range(2):
            assert abs(sigma[i, j] - true[i, j]) < 0.2 * abs(true[i, j])


def test_cube_covariance_empty_cube_falls_back_to_site():
    records = [
        _record(0, 0, 1, float(v), float(v) / 2) for v in np.linspace(-0.1, 0.1, 30)
    ]
    table = estimate_cube_covariances(records)
    # period 40 was never observed: falls back to the site pool
    sigma = table.matrix_for("s", 24, 40)
    site_sigma = table.sites["s"].matrix()
    np.testing.assert_allclose(sigma, site_sigma)
    with pytest.raises(SingularCovariance):
        table.matrix_for("unknown-site", 0, 0)


def test_sparse_cube_falls_back_before_min_samples():
    records = [_record(0, 0, 1, 0.1, 0.05), _record(0, 0, 1, -0.1, -0.05)] + [
        _record(10, 10, 100 + i, float(v), float(v) / 3)
        for i, v in enumerate(np.linspace(-0.2, 0.2, 40))
    ]
    table = estimate_cube_covariances(records, min_cube_samples=10)
    # cube (0,0) holds only 2 pairs -> site-period, then site fallback
    sigma = table.matrix_for("s", 0, 0)
    assert np.all(np.isfinite(sigma))


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


# --- detect_pixel ---------------------------------------------------------------


def _fit_models(series, windows, bands):
    return {
        wp.index: {band: fit(series, band, wp.train) for band in bands}
        for wp in windows
    }


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
    series = make_series(end=dt.date(2007, 5, 1))
    windows = make_windows(2003, 2)
    rule = UnivariateRule(Band.NIR, 0.05, 4)
    with pytest.raises(NoModels):
        detect_pixel(series, {}, rule, windows)


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
    wes = extract_window_errors(series, models, windows, (Band.NIR, Band.NDVI))
    for we in wes:
        assert missing.toordinal() not in we.ordinals
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
    result = detect_pixel(series, models, rule, windows, site_id="s")
    assert result.flagged
    stable = make_series(end=dt.date(2007, 5, 1))
    stable_models = _fit_models(stable, windows, (Band.NIR, Band.NDVI))
    assert not detect_pixel(stable, stable_models, rule, windows, site_id="s").flagged


def test_mahalanobis_rule_requires_site():
    series = make_series(end=dt.date(2007, 5, 1))
    windows = make_windows(2003, 1)
    models = _fit_models(series, windows, (Band.NIR, Band.NDVI))
    table = estimate_cube_covariances([_record(0, 0, 1, 0.1, 0.05), _record(0, 0, 6, -0.1, -0.05)])
    with pytest.raises(OutOfRange):
        detect_pixel(series, models, MahalanobisRule(5.0, table, 4), windows)


def test_rule_validation():
    with pytest.raises(OutOfRange):
        UnivariateRule(Band.NIR, -0.1, 4)
    with pytest.raises(OutOfRange):
        UnivariateRule(Band.NIR, 0.1, 1)
    with pytest.raises(OutOfRange):
        UnivariateRule(Band.NIR, 0.1, 7)
    with pytest.raises(OutOfRange):
        MultivariateRule(0.0, 0.1, 4)


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
    from cmfda.harmonic import predict

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
                obs.band_value(b) - predict(models[wp.index][b], obs.composite_doy)
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
                        rule.covariances.matrix_for(
                            site_id, *cube_of(series.col, series.row, usable[k].composite_doy)
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
    result = detect_pixel(series, models, rule, windows, site_id="s")
    expected = _naive_detect(series, models, rule, windows, site_id="s")
    assert result.flagged == (expected is not None)
    if expected is not None:
        assert (result.first_flag_date, result.triggering_band) == expected


# --- flag_level --------------------------------------------------------------


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
    level = flag_level(values, start_ok, consecutive, two_sided)
    assert (level > threshold) == brute
