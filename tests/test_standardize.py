import datetime as dt
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfda.core import Band
from cmfda.errors import EmptyHistory, OutOfDomain
from cmfda.standardize import (
    ECDF,
    ErrorContext,
    ErrorRecord,
    SCHEME_STAGES,
    SD,
    Scheme,
    fit_standardizer,
    inverse_normal_cdf,
    transform,
)
from scalar_oracle import EmptySample, ecdf_eval, period_of

SD_FINAL_SCHEMES = [
    s for s, stages in SCHEME_STAGES.items() if stages and stages[-1][1] == SD
]
ECDF_FINAL_SCHEMES = [
    s for s, stages in SCHEME_STAGES.items() if stages and stages[-1][1] == ECDF
]


def ctx(pixel="p0", site="s0", col=0, row=0, date=dt.date(2005, 6, 1)):
    return ErrorContext(pixel, site, col, row, date)


def rec(value, **kwargs):
    c = ctx(**kwargs)
    return ErrorRecord(c.pixel_id, c.site_id, c.col, c.row, c.date, value)


def make_history(rng, n_per_pixel=60, pixels=("p0", "p1"), sites=("s0",), scale=0.05):
    """Errors spread over pixels, sites, squares, and a few periods."""
    records = []
    for site in sites:
        for k, pixel in enumerate(pixels):
            col, row = (k % 5) * 5, (k % 3) * 5  # distinct squares
            for i in range(n_per_pixel):
                date = dt.date(2005, 1, 2) + dt.timedelta(days=(i * 7) % 350)
                records.append(
                    ErrorRecord(
                        f"{site}-{pixel}", site, col, row, date,
                        float(rng.normal(0, scale * (1 + k))),
                    )
                )
    return records


def test_scheme_has_17_variants_with_table_codes():
    codes = {s.value for s in Scheme}
    assert len(Scheme) == 17
    assert codes == {
        "---", "2", "3", "II", "III", "1", "I",
        "4a", "4b", "II.1", "III.1", "2.I", "3.I", "IVi", "IVii", "4c", "IViii",
    }


def test_scheme_from_code():
    assert Scheme.from_code("IVi") is Scheme.DAY_PIXEL_ECDF_OVERALL_ECDF
    with pytest.raises(OutOfDomain):
        Scheme.from_code("nope")


# --- ecdf_eval: the oracle of the ECDF stages' rank rule ------------------------


def test_ecdf_eval_examples():
    sample = np.array([1.0, 2.0, 3.0])
    assert ecdf_eval(sample, 2.0) == pytest.approx(0.5)
    assert ecdf_eval(sample, 0.0) == pytest.approx(1 / 4)
    assert ecdf_eval(sample, 9.0) == pytest.approx(3 / 4)


def test_ecdf_eval_empty():
    with pytest.raises(EmptySample):
        ecdf_eval(np.array([]), 1.0)


@given(
    values=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=50),
    x=st.floats(min_value=-20, max_value=20),
)
def test_ecdf_eval_bounds_and_monotonicity(values, x):
    sample = np.sort(np.array(values))
    n = len(values)
    p = ecdf_eval(sample, x)
    assert 1 / (n + 1) <= p <= n / (n + 1)
    assert ecdf_eval(sample, x + 1.0) >= p


# --- inverse normal cdf -----------------------------------------------------------


def _bisection_quantile(p, iterations=200):
    """Independent oracle: bisection on the erfc-based normal CDF.

    The upper tail goes through the exact complement 1-p (a double
    subtraction that is exact for p >= 0.5), because the CDF itself
    saturates at double resolution near 1.
    """
    if p > 0.5:
        return -_bisection_quantile(1.0 - p, iterations)
    lo, hi = -40.0, 40.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_inverse_normal_cdf_examples():
    assert inverse_normal_cdf(0.5) == 0.0
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_inverse_normal_cdf_against_bisection_oracle():
    for p in [1e-12, 1e-9, 1e-6, 0.001, 0.0242, 0.0243, 0.3, 0.5, 0.7,
              0.975, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]:
        assert inverse_normal_cdf(p) == pytest.approx(_bisection_quantile(p), abs=1e-8)


# Beyond p ~ 1e-6 the nearest double to 1-p shifts the true quantile by
# more than 1e-10 on its own, so the antisymmetry bound is only testable
# in the moderate range.
@given(p=st.floats(min_value=1e-6, max_value=0.5))
def test_inverse_normal_cdf_antisymmetry(p):
    assert inverse_normal_cdf(p) == pytest.approx(-inverse_normal_cdf(1 - p), abs=1e-10)


def test_inverse_normal_cdf_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(OutOfDomain):
            inverse_normal_cdf(p)


def test_inverse_normal_cdf_matches_stdlib():
    dist = statistics.NormalDist()
    for p in np.linspace(0.001, 0.999, 97):
        assert inverse_normal_cdf(float(p)) == pytest.approx(dist.inv_cdf(float(p)), abs=1e-9)


# --- fitting ---------------------------------------------------------------------


def test_identity_scheme_has_no_tables():
    std = fit_standardizer([rec(0.1)], Scheme.IDENTITY, Band.NIR)
    assert std.stages == ()
    assert transform(std, 0.123, ctx()) == 0.123


def test_empty_history_rejected():
    with pytest.raises(EmptyHistory):
        fit_standardizer([], Scheme.PIXEL_SD, Band.NIR)


def test_pixel_sd_hand_value():
    history = [rec(-0.1), rec(0.1)]
    std = fit_standardizer(history, Scheme.PIXEL_SD, Band.NIR)
    table = dict(std.stages[0].sd_levels)[list(dict(std.stages[0].sd_levels))[0]]
    sd, n = table["p0"]
    assert sd == pytest.approx(0.1 * math.sqrt(2), abs=1e-15)
    assert n == 2
    assert transform(std, 0.1, ctx()) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_cube_ecdf_structure(rng):
    history = make_history(rng)
    std = fit_standardizer(history, Scheme.CUBE_ECDF, Band.NIR)
    stage = std.stages[0]
    cube_tables = dict(stage.ecdf_levels)
    from cmfda.standardize import KeyKind

    assert all(
        isinstance(sample, np.ndarray) and np.all(np.diff(sample) >= 0)
        for sample in cube_tables[KeyKind.CUBE].values()
    )


def test_day_sd_overall_lookup_division():
    # three errors in one 5-day period with sample sd exactly 0.03
    base = dt.date(2005, 5, 30)  # doy 150 -> period 29 (0-based)
    history = [
        rec(v, pixel=f"q{i}", date=base + dt.timedelta(days=i))
        for i, v in enumerate((-0.03, 0.0, 0.03))
    ]
    std = fit_standardizer(history, Scheme.DAY_SD_OVERALL, Band.NIR)
    assert transform(std, 0.06, ctx(date=base)) == pytest.approx(2.0, abs=1e-12)


def test_pixel_ecdf_median_maps_to_zero(rng):
    values = sorted(rng.normal(0, 0.1, size=101))
    history = [rec(v) for v in values]
    std = fit_standardizer(history, Scheme.PIXEL_ECDF, Band.NIR)
    median = values[50]
    assert transform(std, median, ctx()) == pytest.approx(0.0, abs=0.01)


def test_unknown_pixel_falls_back_to_site_pool(rng):
    history = make_history(rng)
    std = fit_standardizer(history, Scheme.PIXEL_SD, Band.NIR)
    value = transform(std, 0.05, ctx(pixel="never-seen", site="s0"))
    assert np.isfinite(value) and value != 0.05


@pytest.mark.parametrize("scheme", SD_FINAL_SCHEMES, ids=lambda s: s.value)
def test_sd_schemes_normalize_their_own_history(scheme, rng):
    history = make_history(rng, n_per_pixel=80, pixels=("p0", "p1", "p2"), sites=("s0", "s1"))
    std = fit_standardizer(history, scheme, Band.NIR)
    final_kind = SCHEME_STAGES[scheme][-1][0]
    from cmfda.standardize import _key_for

    transformed: dict = {}
    for r in history:
        c = ErrorContext(r.pixel_id, r.site_id, r.col, r.row, r.date)
        transformed.setdefault(_key_for(final_kind, c), []).append(transform(std, r.value, c))
    for key, values in transformed.items():
        if len(values) >= 2 and np.std(values, ddof=1) > 0:
            assert np.std(values, ddof=1) == pytest.approx(1.0, abs=1e-10), (scheme, key)


@pytest.mark.parametrize("scheme", ECDF_FINAL_SCHEMES, ids=lambda s: s.value)
def test_ecdf_schemes_uniformize_their_own_history(scheme, rng):
    history = make_history(rng, n_per_pixel=120, pixels=("p0", "p1"), sites=("s0",))
    std = fit_standardizer(history, scheme, Band.NIR)
    final_kind = SCHEME_STAGES[scheme][-1][0]
    from cmfda.standardize import _key_for

    transformed: dict = {}
    for r in history:
        c = ErrorContext(r.pixel_id, r.site_id, r.col, r.row, r.date)
        transformed.setdefault(_key_for(final_kind, c), []).append(transform(std, r.value, c))
    for key, values in transformed.items():
        if len(values) < 100:
            continue
        x = np.sort(values)
        n = len(x)
        cdf = x + 0.5
        d_plus = np.max(np.arange(1, n + 1) / n - cdf)
        d_minus = np.max(cdf - np.arange(0, n) / n)
        assert max(d_plus, d_minus) < 2 / math.sqrt(n), (scheme, key)
        assert np.all(np.abs(x) <= 0.5)


def test_chained_scheme_applies_date_stage_then_pixel_stage(rng):
    history = make_history(rng, n_per_pixel=50)
    std = fit_standardizer(history, Scheme.DAY_PIXEL_ECDF_OVERALL_ECDF, Band.NIR)

    # independent oracle: period ecdf -> inverse normal -> pixel ecdf -> -0.5
    dist = statistics.NormalDist()

    def period_key(r):
        return period_of(r.date.timetuple().tm_yday)

    def rank_p(sample, x):
        sample = np.sort(sample)
        r = int(np.searchsorted(sample, x, side="right"))
        return min(max(r, 1), len(sample)) / (len(sample) + 1)

    period_samples: dict = {}
    for r in history:
        period_samples.setdefault(period_key(r), []).append(r.value)
    stage1 = {
        id(r): dist.inv_cdf(rank_p(period_samples[period_key(r)], r.value))
        for r in history
    }
    pixel_samples: dict = {}
    for r in history:
        pixel_samples.setdefault(r.pixel_id, []).append(stage1[id(r)])

    probe = history[17]
    expected = rank_p(pixel_samples[probe.pixel_id], stage1[id(probe)]) - 0.5
    got = transform(
        std, probe.value,
        ErrorContext(probe.pixel_id, probe.site_id, probe.col, probe.row, probe.date),
    )
    assert got == pytest.approx(expected, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    scheme=st.sampled_from(list(Scheme)),
    eps_pair=st.tuples(
        st.floats(min_value=-0.3, max_value=0.3), st.floats(min_value=-0.3, max_value=0.3)
    ),
)
def test_transform_monotone_in_error(seed, scheme, eps_pair):
    rng = np.random.default_rng(seed)
    history = make_history(rng, n_per_pixel=25)
    std = fit_standardizer(history, scheme, Band.NIR)
    lo, hi = sorted(eps_pair)
    c = ctx(pixel="s0-p0", site="s0")
    assert transform(std, lo, c) <= transform(std, hi, c) + 1e-12
