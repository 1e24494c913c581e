import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfda.core import BAND_ORDER, Band, PixelSeries, Reliability, SeriesArrays
from cmfda.detection import stack_errors
from cmfda.errors import (
    InsufficientData,
    OutOfRangeDay,
    RankDeficient,
)
from cmfda.harmonic import (
    FIT_FAILURES,
    FIT_OK,
    FIT_WIDTH,
    MIN_OBS,
    design_matrix,
    design_rows,
    fit_batch,
    predict_many,
    fit_arrays,
)
from cmfda.windows import DateInterval
from conftest import harmonic_value, make_obs, make_series
from scalar_oracle import fit

WINDOW = DateInterval(dt.date(2003, 1, 1), dt.date(2004, 12, 31))

coeff_strategy = st.tuples(
    st.floats(min_value=0.2, max_value=0.6),
    *(st.floats(min_value=-0.05, max_value=0.05) for _ in range(4)),
)


def test_design_vector_full_period():
    np.testing.assert_allclose(design_matrix(366), [1, 1, 0, 1, 0], atol=1e-12)


def test_design_vector_half_period():
    np.testing.assert_allclose(design_matrix(183), [1, -1, 0, 1, 0], atol=1e-12)


def test_design_vector_day_91():
    w = 2 * math.pi * 91 / 366
    np.testing.assert_allclose(
        design_matrix(91),
        [1, math.cos(w), math.sin(w), math.cos(2 * w), math.sin(2 * w)],
        atol=0,
    )


@pytest.mark.parametrize("doy", [0, 367, -5])
def test_design_vector_rejects_bad_day(doy):
    with pytest.raises(OutOfRangeDay):
        design_matrix(doy)
    with pytest.raises(OutOfRangeDay):
        design_rows(np.array([doy]))


def test_fit_constant_series():
    series = make_series(band_coeffs={Band.NIR: (0.3, 0, 0, 0, 0)})
    model = fit(series, Band.NIR, WINDOW)
    np.testing.assert_allclose(model.coeffs, [0.3, 0, 0, 0, 0], atol=1e-8)
    assert model.n_obs >= MIN_OBS


def test_fit_recovers_generating_coefficients():
    target = (0.4, 0.1, -0.05, 0.02, 0.03)
    series = make_series(band_coeffs={Band.NIR: target})
    model = fit(series, Band.NIR, WINDOW)
    np.testing.assert_allclose(model.coeffs, target, atol=1e-8)
    # prediction equals the generator at an unseen day
    assert predict_many(model.coeffs, 100) == pytest.approx(harmonic_value(target, 100), abs=1e-8)


def test_fit_insufficient_data():
    series = make_series(end=dt.date(2003, 2, 10))  # 3 observations
    with pytest.raises(InsufficientData):
        fit(series, Band.NIR, WINDOW)


def test_fit_skips_cloudy_and_fill_dates():
    target = (0.4, 0.1, -0.05, 0.02, 0.03)
    series = make_series(
        band_coeffs={Band.NIR: target},
        value_fn=lambda band, date, clean: 0.9
        if band is Band.NIR and date.month == 7
        else clean,
        reliability_fn=lambda date: Reliability.CLOUDY
        if date.month == 7
        else Reliability.GOOD,
    )
    model = fit(series, Band.NIR, WINDOW)
    np.testing.assert_allclose(model.coeffs, target, atol=1e-8)


def test_fit_rank_deficient_on_clustered_days():
    # every composite day identical -> the seasonal columns are constant
    doys = np.full(20, 100.0)
    values = np.full(20, 0.4)
    with pytest.raises(RankDeficient):
        fit_arrays(doys, values, band=Band.NIR)


def test_fit_order_invariance(rng):
    doys = rng.choice(np.arange(1, 367), size=30, replace=False).astype(float)
    values = 0.4 + 0.05 * np.sin(doys / 20.0) + rng.normal(0, 0.01, size=30)
    direct = fit_arrays(doys, values, band=Band.NIR)
    perm = rng.permutation(30)
    shuffled = fit_arrays(doys[perm], values[perm], band=Band.NIR)
    np.testing.assert_allclose(direct.coeffs, shuffled.coeffs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(coeffs=coeff_strategy, shift=st.floats(min_value=-0.1, max_value=0.1))
def test_fit_constant_shift_moves_only_intercept(coeffs, shift):
    doys = np.linspace(5, 360, 24)
    values = np.array([harmonic_value(coeffs, d) for d in doys])
    base = fit_arrays(doys, values, band=Band.NIR)
    shifted = fit_arrays(doys, values + shift, band=Band.NIR)
    assert shifted.coeffs[0] == pytest.approx(base.coeffs[0] + shift, abs=1e-8)
    np.testing.assert_allclose(shifted.coeffs[1:], base.coeffs[1:], atol=1e-8)


def test_fit_matches_pseudoinverse_oracle(rng):
    from cmfda.harmonic import design_matrix

    for _ in range(100):
        doys = rng.integers(1, 367, size=20).astype(float)
        if np.unique(doys).size < 8:
            continue
        values = rng.normal(0.4, 0.1, size=20)
        try:
            ours = fit_arrays(doys, values, band=Band.NIR)
        except RankDeficient:
            continue
        oracle, *_ = np.linalg.lstsq(design_matrix(doys), values, rcond=None)
        np.testing.assert_allclose(ours.coeffs, oracle, atol=1e-6)


def test_predict_examples():
    constant = (0.3, 0, 0, 0, 0)
    np.testing.assert_allclose(predict_many(constant, np.array([1, 200])), 0.3)
    assert predict_many((0, 1, 0, 0, 0), 366) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(OutOfRangeDay):
        predict_many(constant, np.array([400]))


def _errors(obs, coeffs):
    """The NIR prediction errors (stack_errors) of one observation under one
    model, in a window of its date alone."""
    stack = SeriesArrays(*(column[None] for column in PixelSeries("p", 0, 0, (obs,)).to_arrays()))
    day = obs.nominal_date.toordinal()
    return stack_errors(stack, np.reshape(coeffs, (1, 1, 1, 5)), np.array([day] * 4), (Band.NIR,))


def test_residual_sign_convention():
    constant = (0.3, 0, 0, 0, 0)
    obs = make_obs(dt.date(2005, 3, 6), values={Band.NIR: 0.5})
    assert _errors(obs, constant).errors[Band.NIR].tolist() == [pytest.approx(0.2)]
    exact = make_obs(dt.date(2005, 3, 6), values={Band.NIR: 0.3})
    assert _errors(exact, constant).errors[Band.NIR].tolist() == [pytest.approx(0.0)]


def test_residual_missing_band():
    """A fill-coded value has no prediction error."""
    obs = make_obs(dt.date(2005, 3, 6), values={Band.NIR: -0.1})
    assert len(_errors(obs, (0.3, 0, 0, 0, 0))) == 0


def test_training_residuals_sum_to_zero(rng):
    series = make_series(
        band_coeffs={Band.NIR: (0.4, 0.1, -0.05, 0.02, 0.03)},
        value_fn=lambda band, date, clean: clean
        + (rng.normal(0, 0.02) if band is Band.NIR else 0.0),
    )
    model = fit(series, Band.NIR, WINDOW)
    a = series.to_arrays()
    used = (a.ordinals >= WINDOW.start.toordinal()) & (a.ordinals <= WINDOW.end.toordinal())
    observed = a.values[used, BAND_ORDER.index(Band.NIR)]
    residuals = observed - predict_many(model.coeffs, a.doys[used])
    assert abs(residuals.sum()) < 1e-6 * used.sum()


# --- batched kernel -------------------------------------------------------------


@st.composite
def fit_batches(draw, doys=st.integers(1, 366)):
    """A batch of groups: each has up to FIT_WIDTH + 6 dates (so some take
    two blocks), values in b bands and a random mask per band."""
    n, b = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    width = draw(st.integers(0, FIT_WIDTH + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    days = np.array(draw(st.lists(st.lists(doys, min_size=width, max_size=width),
                                  min_size=n, max_size=n)), dtype=np.int64).reshape(n, width)
    values = rng.normal(0.4, 0.1, size=(n, width, b))
    keep = draw(st.floats(0.3, 1.0))
    mask = rng.random((n, width, b)) < keep
    if draw(st.booleans()):     # one mask for every band, as when no value is missing
        mask[:, :, 1:] = mask[:, :, :1]
    return days, values, mask


def _scalar(days, values, mask):
    """Per (group, band): ('ok', coeffs, n_obs, rcond) or (exception name,)."""
    out = []
    for g in range(days.shape[0]):
        row = []
        for j in range(values.shape[2]):
            used = mask[g, :, j]
            try:
                model = fit_arrays(days[g, used], values[g, used, j], band=Band.NIR)
            except (InsufficientData, RankDeficient) as exc:
                row.append((exc.__class__.__name__,))
                continue
            eigs = np.linalg.eigvalsh(design_rows(days[g, used]).T @ design_rows(days[g, used]))
            row.append(("ok", np.array(model.coeffs), model.n_obs, eigs[0] / eigs[-1]))
        out.append(row)
    return out


def _check_against_scalar(days, values, mask):
    got = fit_batch(days, values, mask)
    for g, row in enumerate(_scalar(days, values, mask)):
        for j, expected in enumerate(row):
            status = int(got.status[g, j])
            if expected[0] != "ok":
                assert status != FIT_OK and FIT_FAILURES[status - 1].__name__ == expected[0]
                assert np.isnan(got.coeffs[g, j]).all()
                continue
            _, coeffs, n_obs, rcond = expected
            assert status == FIT_OK and got.n_obs[g, j] == n_obs
            # forward error grows with the condition number of AᵀA
            tol = 1e-12 * max(1.0, 1e-3 / rcond) * np.linalg.norm(coeffs)
            assert np.linalg.norm(got.coeffs[g, j] - coeffs) <= tol


@settings(max_examples=150, deadline=None)
@given(batch=fit_batches())
def test_fit_batch_matches_scalar_fit(batch):
    _check_against_scalar(*batch)


@settings(max_examples=150, deadline=None)
@given(
    batch=fit_batches(doys=st.sampled_from([100, 101, 103, 250])),
)
def test_fit_batch_skips_clustered_and_short_series_as_scalar_fit(batch):
    """At most four distinct days (a rank-deficient design) or fewer than
    MIN_OBS dates: the same skip reason as fit_arrays."""
    _check_against_scalar(*batch)


@settings(max_examples=100, deadline=None)
@given(batch=fit_batches(), data=st.data())
def test_fit_batch_fit_does_not_depend_on_its_batch(batch, data):
    """A group fitted alone, with one band alone, or inside any split of
    the batch gives the same bits as in the whole batch, and so does a
    batch padded with dates no fit uses."""
    days, values, mask = batch
    whole = fit_batch(days, values, mask)
    n, _, b = mask.shape
    g = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, b - 1))
    alone = fit_batch(days[g:g + 1], values[g:g + 1], mask[g:g + 1])
    band = fit_batch(days[g:g + 1], values[g:g + 1, :, j:j + 1], mask[g:g + 1, :, j:j + 1])
    cut = data.draw(st.integers(0, n))
    parts = [fit_batch(days[s], values[s], mask[s]) for s in (slice(0, cut), slice(cut, n))]
    for field, got in zip(whole._fields, whole):
        np.testing.assert_array_equal(getattr(alone, field)[0], got[g])
        np.testing.assert_array_equal(getattr(band, field)[0, 0], got[g, j])
        np.testing.assert_array_equal(
            np.concatenate([getattr(p, field) for p in parts]), got
        )
    # the padding columns of a narrower batch change nothing either
    wider = fit_batch(
        np.concatenate([days, np.ones((n, 3), dtype=np.int64)], axis=1),
        np.concatenate([values, np.ones((n, 3, b))], axis=1),
        np.concatenate([mask, np.zeros((n, 3, b), dtype=bool)], axis=1),
    )
    for field, got in zip(whole._fields, whole):
        np.testing.assert_array_equal(getattr(wider, field), got)


def test_design_table_equals_design_matrix():
    """Integer days read a table of design rows; it must hold the bits
    design_matrix computes, at any length and position of the input."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 46, 366):
        days = rng.integers(1, 367, size=n)
        np.testing.assert_array_equal(design_rows(days), design_matrix(days.astype(float)))
        coeffs = rng.normal(size=5)
        np.testing.assert_array_equal(
            predict_many(coeffs, days), predict_many(coeffs, days.astype(float))
        )
    np.testing.assert_array_equal(
        design_rows(np.arange(1, 367)), design_matrix(np.arange(1.0, 367.0))
    )
    with pytest.raises(OutOfRangeDay):
        design_rows(np.array([0, 5]))


@pytest.mark.parametrize("as_float", [False, True], ids=["int days", "float days"])
def test_predict_many_bits_do_not_depend_on_the_batch(as_float):
    """A date's prediction has the same bits alone, inside its window,
    after a permutation and in a gathered 2-D batch with one model per
    date, so errors computed in any batch agree bit for bit."""
    rng = np.random.default_rng(11)
    models = rng.normal(0.3, 0.2, size=(8, 5))
    for n in (1, 2, 5, 8, 9, 23, 46, 130):
        days = rng.integers(1, 367, size=n)
        days = days.astype(float) if as_float else days
        which = rng.integers(0, len(models), size=n)
        alone = np.array(
            [predict_many(models[m], days[i:i + 1])[0] for i, m in enumerate(which)]
        )
        for m in np.unique(which):
            mine = which == m
            np.testing.assert_array_equal(predict_many(models[m], days[mine]), alone[mine])
        order = rng.permutation(n)
        np.testing.assert_array_equal(
            predict_many(models[which[order]], days[order]), alone[order]
        )
        gather = rng.integers(0, n, size=(3, n))
        np.testing.assert_array_equal(
            predict_many(models[which[gather]], days[gather]), alone[gather]
        )
