"""The array forms of the residual-history chain against the per-record
oracles in ``scalar_oracle``: residual histories, NIR/NDVI pairing, cube
covariances, standardizer tables, the transform and the inverse normal CDF
must all be bit-identical, and ``cmfda standardize`` must write the files
the oracle's tables give."""
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from cmfda.cli import EXIT_OK, _load_model_dir, main
from cmfda.core import Band, ResidualHistory
from cmfda.dataio import (
    generate_site,
    load_standardizer,
    read_series_arrays,
    save_standardizer,
    sonora_like_config,
    write_series,
    yucatan_like_config,
)
from cmfda.detection import PairedErrorRecord, estimate_cube_covariances
from cmfda.errors import CmfdaError
from cmfda.pipeline import paired_residual_records, training_residuals
from cmfda.standardize import (
    ErrorRecord,
    KeyKind,
    Scheme,
    Standardizer,
    fit_standardizer,
    inverse_normal_cdf,
    inverse_normal_cdf_array,
    transform,
    transform_errors,
)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_tables(stages, oracle_stages):
    """Same levels, keys in the same order, and bit-identical statistics."""
    assert len(stages) == len(oracle_stages)
    for stage, expected in zip(stages, oracle_stages):
        assert (stage.key_kind, stage.transform_kind) == (expected.key_kind, expected.transform_kind)
        for levels, expected_levels in (
            (stage.sd_levels, expected.sd_levels), (stage.ecdf_levels, expected.ecdf_levels)
        ):
            assert [kind for kind, _ in levels] == [kind for kind, _ in expected_levels]
            for (_, table), (_, expected_table) in zip(levels, expected_levels):
                assert list(table) == list(expected_table)
                for key, entry in table.items():
                    if isinstance(entry, tuple):
                        sd, n = entry
                        assert type(sd) is float and type(n) is int
                        assert (bits([sd]), n) == (bits([expected_table[key][0]]), expected_table[key][1])
                    else:
                        assert bits(entry) == bits(expected_table[key]), key


def history_of(records) -> ResidualHistory:
    return ResidualHistory.from_records(records)


# --- hypothesis: every scheme, every fallback level ------------------------------

BASE = dt.date(2005, 1, 1)


def _core_records():
    """Records that make every fallback level serve some key: s0-a and s0-f
    share one cube, s0-b is constant (zero spread), s0-c holds one error
    in its own cube, s1-d is a second site and s2-e a site of one error."""
    records = []
    for i, value in enumerate((0.03, -0.02, 0.05, -0.04, 0.01, 0.0, 0.02, -0.06)):
        records.append(ErrorRecord("s0-a", "s0", 0, 0, BASE + dt.timedelta(days=7 * i), value))
    records.append(ErrorRecord("s0-f", "s0", 1, 1, BASE + dt.timedelta(days=2), -0.03))
    for i in range(3):
        records.append(ErrorRecord("s0-b", "s0", 12, 12, BASE + dt.timedelta(days=5 * i), 0.02))
    records.append(ErrorRecord("s0-c", "s0", 24, 24, BASE + dt.timedelta(days=200), -0.01))
    for i, value in enumerate((0.1, -0.08, 0.05)):
        records.append(ErrorRecord("s1-d", "s1", 3, 4, BASE + dt.timedelta(days=14 * i), value))
    records.append(ErrorRecord("s2-e", "s2", 5, 5, BASE + dt.timedelta(days=30), 0.04))
    return records


record_strategy = st.builds(
    lambda pixel, site, day, value: ErrorRecord(
        f"{site}-{pixel}", site, (pixel * 7) % 25, (pixel * 11) % 25,
        BASE + dt.timedelta(days=day), value,
    ),
    pixel=st.integers(0, 5),
    site=st.sampled_from(["s0", "s1"]),
    day=st.integers(0, 420),
    value=st.one_of(
        st.sampled_from([-0.05, 0.0, 0.02, 0.05]),
        st.floats(min_value=-0.3, max_value=0.3, allow_subnormal=False),
    ),
)

# contexts no history entry has: an unseen pixel of a known site, a pixel
# of an unseen site, and a known pixel in a period the history may lack
UNSEEN = [
    ErrorRecord("s0-zz", "s0", 24, 24, BASE + dt.timedelta(days=300), 0.07),
    ErrorRecord("s9-zz", "s9", 1, 1, BASE + dt.timedelta(days=17), -0.2),
    ErrorRecord("s0-b", "s0", 12, 12, BASE + dt.timedelta(days=360), 0.0),
]


@settings(max_examples=60, deadline=None)
@given(extra=st.lists(record_strategy, max_size=40), core=st.booleans())
# -0.0 and 0.0 tie: a sample keeps them in the order np.sort gives them
@example(extra=[ErrorRecord("s0-0", "s0", 0, 0, BASE, v) for v in (0.0, -0.0, 0.0, -0.05)], core=False)
def test_array_standardizer_equals_scalar_oracle(extra, core):
    records = (_core_records() if core else []) + extra
    if not records:
        return
    history = history_of(records)
    probes = records + UNSEEN
    probe_history = history_of(probes)
    for scheme in Scheme:
        try:
            expected = oracle.fit_standardizer(records, scheme)
        except CmfdaError as exc:
            with pytest.raises(type(exc)):
                fit_standardizer(history, scheme, Band.NIR)
            continue
        std = fit_standardizer(history, scheme, Band.NIR)
        assert_same_tables(std.stages, expected)
        # the scalar wrapper takes the same path as a list of records
        assert_same_tables(fit_standardizer(records, scheme, Band.NIR).stages, expected)
        want = [oracle.transform(expected, r.value, r) for r in probes]
        got = transform_errors(std, probe_history)
        assert bits(got) == bits(want), scheme
        assert bits([transform(std, probes[-1].value, probes[-1])]) == bits(want[-1:])


def test_core_records_reach_every_fallback_level():
    """The fixed records of the hypothesis test do force each fallback."""
    history = history_of(_core_records())
    (pixel,) = fit_standardizer(history, Scheme.PIXEL_SD, Band.NIR).stages
    assert pixel.served(history) == {KeyKind.PIXEL: 2, KeyKind.SITE: 3, KeyKind.GLOBAL: 1}
    (cube,) = fit_standardizer(history, Scheme.CUBE_SD, Band.NIR).stages
    assert cube.served(history) == {
        KeyKind.CUBE: 1, KeyKind.SITE_PERIOD: 5, KeyKind.SITE: 9, KeyKind.GLOBAL: 1
    }
    unseen = history_of(UNSEEN[1:2])
    assert pixel.served(unseen) == {KeyKind.PIXEL: 0, KeyKind.SITE: 0, KeyKind.GLOBAL: 1}


@pytest.mark.parametrize("p_values, served", [
    ((0.03, -0.02, 0.05), {KeyKind.PIXEL: 2, KeyKind.SITE: 0, KeyKind.GLOBAL: 0}),
    # p has no spread: its s0 errors fall back to s0, its s1 errors to the
    # global pool; p counts once, at the level of its first error
    ((0.02, 0.02, 0.02), {KeyKind.PIXEL: 1, KeyKind.SITE: 1, KeyKind.GLOBAL: 0}),
], ids=["spread", "no-spread"])
def test_one_pixel_id_under_two_sites(p_values, served):
    """Pixel p has errors in sites s0 and s1, and q in s0: every scheme
    transforms as the oracle does, and ``served`` counts distinct pixel
    keys, not (pixel, site) pairs."""
    records = [
        ErrorRecord("p", site, 0, 0, BASE + dt.timedelta(days=9 * i + k), value)
        for k, site in enumerate(("s0", "s1"))
        for i, value in enumerate(p_values)
    ] + [
        ErrorRecord("q", "s0", 7, 3, BASE + dt.timedelta(days=11 * i), value)
        for i, value in enumerate((0.01, -0.04, 0.06))
    ]
    history = history_of(records)
    for scheme in Scheme:
        expected = oracle.fit_standardizer(records, scheme)
        std = fit_standardizer(history, scheme, Band.NIR)
        assert_same_tables(std.stages, expected)
        want = [oracle.transform(expected, r.value, r) for r in records]
        assert bits(transform_errors(std, history)) == bits(want), scheme
    (pixel,) = fit_standardizer(history, Scheme.PIXEL_SD, Band.NIR).stages
    assert pixel.served(history) == served


# --- inverse normal cdf --------------------------------------------------------------


def _icdf_inputs():
    ps = [0.5, 0.02425, 1 - 0.02425, 1e-300, 1 - 2 ** -53]
    for p in (0.02425, 1 - 0.02425, 0.5):
        ps += [math.nextafter(p, 0.0), math.nextafter(p, 1.0)]
    for n in (*range(1, 60), 99, 100, 500, 1000, 4999, 37_372):
        ps += [1 / (n + 1), n / (n + 1)]
    return ps


@settings(max_examples=50, deadline=None)
@given(extra=st.lists(st.floats(min_value=1e-12, max_value=1 - 1e-12), max_size=50))
def test_inverse_normal_cdf_array_equals_scalar_oracle(extra):
    ps = _icdf_inputs() + extra
    want = [oracle.inverse_normal_cdf(p) for p in ps]
    assert bits(inverse_normal_cdf_array(ps)) == bits(want)
    assert bits([inverse_normal_cdf(p) for p in ps]) == bits(want)


# --- residual histories, pairs and cube covariances -----------------------------------


def _same_history(history: ResidualHistory, records):
    assert len(history) == len(records)
    assert [history.pixel_ids[p] for p in history.pixel] == [r.pixel_id for r in records]
    assert [history.site_ids[s] for s in history.site] == [r.site_id for r in records]
    assert history.col.tolist() == [r.col for r in records]
    assert history.row.tolist() == [r.row for r in records]
    assert history.ordinal.tolist() == [r.date.toordinal() for r in records]
    assert history.doy.tolist() == [r.date.timetuple().tm_yday for r in records]
    assert bits(history.value) == bits([r.value for r in records])


@pytest.fixture(scope="module")
def bench_scenes(tmp_path_factory):
    """Sonora- and yucatan-like scenes (every 12th pixel of a seed-3 site),
    each with a series file and NIR/NDVI models over windows 2003:5."""
    scenes = {}
    for name, cfg in (("sonora", sonora_like_config(seed=3)), ("yucatan", yucatan_like_config(seed=3))):
        out = tmp_path_factory.mktemp(name)
        site, _ = generate_site(cfg)
        write_series(out / "series.csv", {site.site_id: list(site.pixels[::12])})
        assert main([
            "fit", "--series", str(out / "series.csv"), "--out", str(out / "models"),
            "--windows", "2003:5", "--bands", "nir,ndvi", "--threads", "1",
        ]) == EXIT_OK
        scenes[name] = out
    return scenes


def _scene_inputs(path):
    """The scene as ``cmfda standardize`` sees it: its series and the
    models read back from their files."""
    (site_id, pixels), = read_series_arrays(path / "series.csv").items()
    windows, fit = _load_model_dir(str(path / "models"))
    return site_id, pixels, windows, fit


@pytest.mark.parametrize("scene", ["sonora", "yucatan"])
def test_residual_chain_equals_scalar_oracle(bench_scenes, scene):
    site_id, pixels, windows, fit = _scene_inputs(bench_scenes[scene])
    bands = (Band.NIR, Band.NDVI)
    histories = training_residuals(pixels, fit, windows, bands, site_id)
    expected = oracle.training_residuals(pixels, fit, windows, bands, site_id)
    for band in bands:
        _same_history(histories[band], expected[band])
    pairs = paired_residual_records(histories)
    expected_pairs = oracle.paired_residual_records(expected)
    assert len(pairs) == len(expected_pairs)
    _same_history(pairs.nir, [
        ErrorRecord(p.pixel_id, p.site_id, p.col, p.row, p.date, p.eps_nir) for p in expected_pairs
    ])
    assert bits(pairs.ndvi) == bits([p.eps_ndvi for p in expected_pairs])
    table = estimate_cube_covariances(pairs)
    expected_table = oracle.estimate_cube_covariances(expected_pairs)
    for level in ("cubes", "site_periods", "sites"):
        assert list(getattr(table, level).items()) == list(getattr(expected_table, level).items())
    # a list of records goes through the same code
    listed = estimate_cube_covariances(expected_pairs)
    assert list(listed.cubes.items()) == list(expected_table.cubes.items())


@pytest.mark.parametrize("scene", ["sonora", "yucatan"])
def test_standardize_files_equal_scalar_oracle(bench_scenes, scene, tmp_path):
    """``cmfda standardize`` writes, for every scheme and both bands, the
    file that the per-record tables give."""
    path = bench_scenes[scene]
    site_id, pixels, windows, fit = _scene_inputs(path)
    expected_history = oracle.training_residuals(pixels, fit, windows, (Band.NIR, Band.NDVI), site_id)
    for band in (Band.NIR, Band.NDVI):
        for scheme in Scheme:
            out, want = tmp_path / "std.csv", tmp_path / "oracle.csv"
            assert main([
                "standardize", "--series", str(path / "series.csv"), "--models", str(path / "models"),
                f"--scheme={scheme.value}", "--band", band.name.lower(), "--out", str(out),
            ]) == EXIT_OK
            stages = oracle.fit_standardizer(expected_history[band], scheme)
            save_standardizer(want, Standardizer(scheme, band, stages))
            assert out.read_bytes() == want.read_bytes(), (scheme, band)
        # a loaded file transforms as the fitted tables do
        loaded = load_standardizer(out)
        history = training_residuals(pixels, fit, windows, (band,), site_id)[band]
        assert bits(transform_errors(loaded, history)[::7]) == bits(
            [oracle.transform(stages, r.value, r) for r in expected_history[band][::7]]
        )


def test_paired_records_keep_their_own_day_of_year():
    """A PairedErrorRecord's doy is its own field, not its date's."""
    records = [
        PairedErrorRecord("p", "s", 3, 3, dt.date(2005, 1, 1), doy, nir, ndvi)
        for doy, nir, ndvi in ((200, 0.1, 0.2), (201, -0.1, 0.05), (203, 0.02, -0.1))
    ]
    table = estimate_cube_covariances(records)
    assert list(table.cubes) == [("s", 0, 39), ("s", 0, 40)]
    assert list(table.cubes.values()) == list(oracle.estimate_cube_covariances(records).cubes.values())


def test_pairing_edge_cases_equal_scalar_oracle():
    """A missing band pairs nothing; an NIR entry without an NDVI partner
    is dropped; of two NDVI entries with one key, the later one pairs."""
    day = dt.date(2005, 3, 1)
    nir = [ErrorRecord("p", "s", 1, 1, day, 0.1), ErrorRecord("q", "s", 2, 1, day, 0.2)]
    ndvi = [ErrorRecord("q", "s", 2, 1, day, 0.5), ErrorRecord("q", "s", 2, 1, day, 0.7),
            ErrorRecord("z", "s", 3, 1, day, 0.9)]
    for records in ({Band.NIR: nir}, {Band.NDVI: ndvi}, {Band.NIR: nir, Band.NDVI: ndvi}):
        pairs = paired_residual_records({b: history_of(r) for b, r in records.items()})
        expected = oracle.paired_residual_records(records)
        _same_history(pairs.nir, [
            ErrorRecord(p.pixel_id, p.site_id, p.col, p.row, p.date, p.eps_nir) for p in expected
        ])
        assert bits(pairs.ndvi) == bits([p.eps_ndvi for p in expected])
