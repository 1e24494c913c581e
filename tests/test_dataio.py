import csv
import dataclasses
import datetime as dt
import hashlib
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfda import dataio
from cmfda.core import (
    BAND_ORDER,
    Band,
    DefoType,
    DeforestationLabel,
    FILL_INDEX,
    Observation,
    PixelSeries,
    Reliability,
    SITE_SIDE,
    SeriesArrays,
    band_fill,
    day_of_year,
)
from cmfda.dataio import (
    MODEL_COLUMNS,
    SERIES_COLUMNS,
    _parse_date,
    _parse_float,
    _parse_int,
    _read_header,
    BandSignal,
    EventSpec,
    FOREST_CLASSES,
    SynthConfig,
    aggregate_labels,
    format_report_text,
    generate_site,
    load_covariances,
    load_models,
    load_standardizer,
    read_detections,
    read_labels,
    read_landuse,
    read_report,
    read_series,
    read_series_arrays,
    read_series_hashed,
    read_covariances_mirrored,
    read_series_as_written,
    read_series_mirrored,
    real,
    save_covariances,
    save_models,
    save_standardizer,
    seasonal_cloud_prob,
    series_as_written,
    sonora_like_config,
    write_covariance_mirror,
    write_detections,
    write_series_mirror,
    write_labels,
    write_landuse,
    write_report,
    write_series,
    write_series_arrays,
    yucatan_like_config,
)
from cmfda.detection import (
    N_PERIODS,
    N_SQUARES,
    DetectionResult,
    PairedErrorRecord,
    estimate_cube_covariances,
)
from cmfda.errors import (
    InvalidConfig,
    OutOfRange,
    ParseError,
    SchemaVersionMismatch,
    ShapeMismatch,
    SingularCovariance,
)
from cmfda.harmonic import HarmonicModel, fit
from cmfda.pipeline import compact_pixels
from cmfda.standardize import (
    SD, ErrorContext, ErrorRecord, KeyKind, Scheme, StageTables, Standardizer, fit_standardizer,
    transform,
)
from cmfda.training import ReportRow, TrainReport
from cmfda.windows import DateInterval
from conftest import assert_same_sites, harmonic_value, make_series


def round9(x):
    return float(format(x, ".9g"))


def small_config(**overrides):
    settings = dict(
        site_id="t",
        start=dt.date(2003, 1, 1),
        end=dt.date(2004, 12, 31),
        signals={
            Band.RED: BandSignal((0.08, 0.02, 0.01, 0.0, 0.0)),
            Band.NIR: BandSignal((0.42, 0.05, 0.03, 0.01, 0.0)),
            Band.BLUE: BandSignal((0.05, 0.01, 0.0, 0.0, 0.0)),
            Band.MIR: BandSignal((0.18, 0.03, 0.01, 0.0, 0.0)),
            Band.NDVI: BandSignal((0.68, -0.06, -0.04, 0.01, 0.0)),
            Band.EVI: BandSignal((0.55, -0.05, -0.03, 0.01, 0.0)),
        },
        cloud_prob=seasonal_cloud_prob(0.05),
        marginal_prob=0.08,
        events=(),
        seed=7,
    )
    settings.update(overrides)
    return SynthConfig(**settings)


# --- series round trip ----------------------------------------------------------


def test_series_round_trip(tmp_path):
    series = make_series(
        end=dt.date(2003, 12, 31),
        value_fn=lambda band, date, clean: FILL_INDEX
        if band is Band.EVI and date.month == 5
        else clean + 0.001234567891 * date.day,
        reliability_fn=lambda date: Reliability.CLOUDY if date.month == 7 else Reliability.GOOD,
    )
    path = tmp_path / "series.csv"
    write_series(path, {"siteA": [series]})
    loaded = read_series(path)
    assert list(loaded) == ["siteA"]
    (got,) = loaded["siteA"]
    assert got.pixel_id == series.pixel_id
    assert (got.col, got.row) == (series.col, series.row)
    assert len(got.observations) == len(series.observations)
    for a, b in zip(series.observations, got.observations):
        assert a.nominal_date == b.nominal_date
        assert a.composite_doy == b.composite_doy
        assert a.reliability == b.reliability
        for band in BAND_ORDER:
            assert b.values[band] == round9(a.values[band])
    # a second round trip is the identity
    path2 = tmp_path / "series2.csv"
    write_series(path2, loaded)
    assert read_series(path2) == loaded


def test_series_empty_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    write_series(path, {})
    assert read_series(path) == {}


def test_series_rejects_bad_values(tmp_path):
    series = make_series(end=dt.date(2003, 6, 1))
    path = tmp_path / "series.csv"
    write_series(path, {"s": [series]})
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[8] = "1.7"  # out-of-range nir
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_series(path)
    assert "line 3" in str(err.value)


def test_series_truncated_row(tmp_path):
    series = make_series(end=dt.date(2003, 6, 1))
    path = tmp_path / "series.csv"
    write_series(path, {"s": [series]})
    lines = path.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 3)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_series(path)
    assert "line 5" in str(err.value)


def test_series_version_mismatch(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("#cmfda labels v1\npixel_id\n")
    with pytest.raises(SchemaVersionMismatch):
        read_series(path)


def reference_rows(fh, columns, path):
    """Row-by-row framing reference for dataio's chunked table reader:
    after the header line, check the column-name row, then yield
    (line number, row dict) for each non-blank data row, numbered by the
    physical line it ends on."""
    reader = csv.reader(fh)
    names = next(reader, None)
    if names is None:
        raise ParseError(f"{path}: missing column header", line=2)
    if names != list(columns):
        raise ParseError(f"{path}: expected columns {list(columns)}, got {names}", line=2)
    for row in reader:
        line = reader.line_num + 1   # the header line was read before the reader
        if not row:
            continue
        if len(row) != len(columns):
            raise ParseError(f"{path}: expected {len(columns)} fields, got {len(row)}", line=line)
        yield line, dict(zip(columns, row))


def oracle_read_series(path):
    """Row-by-row series reader, the specification of the columnar one:
    each row becomes a validated Observation, each pixel a PixelSeries."""
    grouped = {}
    with open(path, newline="") as fh:
        _read_header(fh, "series", path)
        for line, row in reference_rows(fh, SERIES_COLUMNS, path):
            rel_code = _parse_int(row["reliability"], "reliability", line, path)
            try:
                reliability = Reliability(rel_code)
            except ValueError:
                raise ParseError(
                    f"{path}: unknown reliability code {rel_code}", line=line
                ) from None
            values = {}
            for band, column in zip(BAND_ORDER, SERIES_COLUMNS[7:]):
                values[band] = _parse_float(row[column], column, line, path)
            try:
                obs = Observation(
                    nominal_date=_parse_date(row["nominal_date"], "nominal_date", line, path),
                    composite_doy=_parse_int(row["composite_doy"], "composite_doy", line, path),
                    values=values,
                    reliability=reliability,
                )
            except OutOfRange as exc:
                raise ParseError(f"{path}: {exc}", line=line) from None
            key = (row["site_id"], row["pixel_id"])
            entry = grouped.setdefault(
                key,
                {
                    "col": _parse_int(row["col"], "col", line, path),
                    "row": _parse_int(row["row"], "row", line, path),
                    "observations": [],
                },
            )
            entry["observations"].append(obs)
    out = {}
    for (site_id, pixel_id), entry in grouped.items():
        observations = sorted(entry["observations"], key=lambda o: o.nominal_date)
        try:
            series = PixelSeries(
                pixel_id=pixel_id,
                col=entry["col"],
                row=entry["row"],
                observations=tuple(observations),
            )
        except OutOfRange as exc:
            raise ParseError(f"{path}: pixel {pixel_id!r}: {exc}") from None
        out.setdefault(site_id, []).append(series)
    return out


@st.composite
def series_rows(draw):
    """Data rows of a valid series file, in a random arrival order: one or
    two sites of one to three pixels, each a short 16-day series that may
    cross a year end, with random composite lags, codes and fill values."""
    rows = []
    for s in range(draw(st.integers(1, 2))):
        for p in range(draw(st.integers(1, 3))):
            start = dt.date(2003, 11, 20) + dt.timedelta(days=draw(st.integers(0, 60)))
            col, row = draw(st.integers(0, 24)), draw(st.integers(0, 24))
            for k in range(draw(st.integers(1, 5))):
                nominal = start + dt.timedelta(days=16 * k)
                composite = nominal + dt.timedelta(days=draw(st.integers(0, 15)))
                values = [
                    draw(st.one_of(st.just(band_fill(b)), st.floats(band_fill(b), 1.0)))
                    for b in BAND_ORDER
                ]
                rows.append(
                    [f"site{s}", f"px{s}{p}", str(col), str(row), nominal.isoformat(),
                     str(day_of_year(composite)), str(int(draw(st.sampled_from(Reliability)))),
                     *map(real, values)]
                )
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


CORRUPTIONS = (None, "real", "date", "reliability", "lag", "range", "fields", "cadence")


def _corrupt(rows, kind, i, j, blank, quoted):
    """Lines of the rows with one corruption at row ``i`` (``j`` picks a
    band). A blank line before row ``blank`` and a quoted site id on every
    row keep a file valid but shift line numbers and change how the lines
    are split."""
    lines = [list(r) for r in rows]
    parts = lines[i]
    nominal = dt.date.fromisoformat(parts[4])
    if kind == "real":
        parts[7 + j] = "0.1x"
    elif kind == "date":
        parts[4] = "2003-02-30"
    elif kind == "reliability":
        parts[6] = "7"
    elif kind == "lag":
        parts[5] = str(day_of_year(nominal + dt.timedelta(days=16)))
    elif kind == "range":
        parts[7 + j] = "1.5" if j % 2 else "-0.5"
    elif kind == "fields":
        lines[i] = parts[:-1] if j % 2 else parts + ["0"]
    elif kind == "cadence":
        lag = (int(parts[5]) - day_of_year(nominal)) % 365
        shifted = nominal + dt.timedelta(days=16 if j % 2 else 1)
        parts[4] = shifted.isoformat()
        parts[5] = str(day_of_year(shifted + dt.timedelta(days=lag)))
    if quoted:
        for parts in lines:
            parts[0] = f'"{parts[0]}"'
    lines = [",".join(parts) for parts in lines]
    if blank is not None:
        lines.insert(blank % (len(lines) + 1), "")
    return lines


def _outcome(read, path):
    try:
        return read(path), None
    except ParseError as exc:
        return None, (str(exc), exc.line)


@settings(max_examples=300, deadline=None)
@given(
    rows=series_rows(),
    kind=st.sampled_from(CORRUPTIONS),
    pick=st.integers(0, 10**6),
    band=st.integers(0, 5),
    blank=st.none() | st.integers(0, 10**6),
    quoted=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    chunk_rows=st.sampled_from([3, 1024]),
)
def test_read_series_arrays_matches_row_oracle(
    rows, kind, pick, band, blank, quoted, newline, chunk_rows
):
    """The columnar reader gives the arrays of the row-by-row oracle,
    including NaN positions, or the same ParseError message and line, also
    when the rows are read in several chunks."""
    lines = _corrupt(rows, kind, pick % len(rows), band, blank, quoted)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_text(
            newline.join(["#cmfda series v1", ",".join(SERIES_COLUMNS), *lines]) + newline,
            newline="",
        )
        expected, expected_error = _outcome(oracle_read_series, path)
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            got, error = _outcome(read_series_arrays, path)
            series, series_error = _outcome(read_series, path)
    assert error == expected_error == series_error
    if expected_error:
        return
    assert series == expected
    assert list(got) == list(expected)
    for site_id, pixels in expected.items():
        want = compact_pixels(pixels)
        assert [(p.pixel_id, p.col, p.row) for p in got[site_id]] == [
            (p.pixel_id, p.col, p.row) for p in want
        ]
        for have, ref in zip(got[site_id], want):
            for a, b in zip(have.arrays, ref.arrays):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


def _write_rows(path, rows):
    path.write_text("\n".join(["#cmfda series v1", ",".join(SERIES_COLUMNS),
                               *(",".join(r) for r in rows)]) + "\n")


_EDGE_VALUES = (
    0.0, -0.0, 0.1, float(np.nextafter(0.1, 0)), float(np.nextafter(0.1, 1)), 1.0,
    float(np.nextafter(1.0, 0)), 1e-20, 5e-324, 0.099999999, 0.0999999995, 0.123456789,
    0.1234567891, 3e-8,
)


def _band_values(band):
    fill = band_fill(band)
    return st.one_of(
        st.just(np.nan), st.just(fill), st.just(fill + 1e-12), st.floats(fill, 1.0),
        st.sampled_from(_EDGE_VALUES),
        st.integers(-10**8, 10**9).map(lambda m: m / 1e9).filter(lambda v: v >= fill),
        st.integers(-10**9, 10**10).map(lambda m: m / 1e10).filter(lambda v: v >= fill),
    )


@settings(max_examples=150, deadline=None)
@given(rows=series_rows(), data=st.data())
def test_series_as_written_equals_a_file_round_trip(rows, data):
    """Values of any precision, NaN, and values that round onto a band's
    fill value come back from a written series file as series_as_written
    gives them."""
    with tempfile.TemporaryDirectory() as tmp:
        _write_rows(Path(tmp) / "in.csv", rows)
        sites = {
            site_id: [
                dataclasses.replace(cp, arrays=cp.arrays._replace(values=np.array([
                    [data.draw(_band_values(band)) for band in BAND_ORDER]
                    for _ in cp.arrays.ordinals
                ])))
                for cp in pixels
            ]
            for site_id, pixels in read_series_arrays(Path(tmp) / "in.csv").items()
        }
        write_series_arrays(Path(tmp) / "out.csv", sites)
        assert_same_sites(series_as_written(sites), read_series_arrays(Path(tmp) / "out.csv"))


@settings(max_examples=150, deadline=None)
@given(rows=series_rows(), quoted=st.booleans())
def test_history_mirror_gives_back_the_parse_without_parsing(rows, quoted):
    """A mirror written from a series file's parse loads as that parse,
    bit for bit, and no series file is parsed to load it; after the file
    changes, the mirror is refused and the file is parsed."""
    if quoted:  # site ids that need CSV quoting
        rows = [[f'"{r[0]},\u00e9"', *r[1:]] for r in rows]
    rows = [list(r) for r in rows]
    with tempfile.TemporaryDirectory() as tmp:
        history, mirror = Path(tmp) / "history.csv", Path(tmp) / "history.npy"
        _write_rows(history, rows)
        parsed = read_series_arrays(history)
        write_series_mirror(mirror, history, parsed)
        with mock.patch.object(dataio, "_parse_series", side_effect=AssertionError("parsed")):
            assert_same_sites(read_series_mirrored(history, mirror), parsed)
        rows[0][6] = "3" if rows[0][6] != "3" else "0"   # a reliability code
        _write_rows(history, rows)
        assert_same_sites(read_series_mirrored(history, mirror), read_series_arrays(history))


def test_a_pixel_id_under_two_sites_is_refused_by_parse_and_mirror(tmp_path):
    """Model, label and detection files key a pixel by its id alone: a
    series that holds one pixel id under two sites is a ParseError, read
    by a parse or from its mirror."""
    row = ["2004-01-01", "1", "0", *["0.5"] * 6]
    history, mirror = tmp_path / "history.csv", tmp_path / "history.npy"
    _write_rows(history, [["a", "px", "0", "0", *row], ["b", "qx", "1", "0", *row]])
    sites = read_series_arrays(history)
    sites["b"] = [dataclasses.replace(sites["b"][0], pixel_id="px")]
    _write_rows(history, [["a", "px", "0", "0", *row], ["b", "px", "1", "0", *row]])
    write_series_mirror(mirror, history, sites)
    with pytest.raises(ParseError) as err:
        read_series_arrays(history)
    assert str(err.value) == f"{history}: pixel 'px' is under sites 'a' and 'b'"
    with mock.patch.object(dataio, "_parse_series", side_effect=AssertionError("parsed")):
        with pytest.raises(ParseError) as mirrored:
            read_series_mirrored(history, mirror)
    assert str(mirrored.value) == str(err.value)


@settings(max_examples=100, deadline=None)
@given(rows=series_rows(), quoted=st.booleans())
def test_hashed_read_is_the_parse_and_the_hash_of_its_bytes(rows, quoted):
    """read_series_hashed gives read_series_arrays and the SHA-256 of the
    file's bytes, as the parser read them."""
    if quoted:
        rows = [[f'"{r[0]},\u00e9"', *r[1:]] for r in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        _write_rows(path, rows)
        sites, digest = read_series_hashed(path)
        assert_same_sites(sites, read_series_arrays(path))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("when", ["before_the_parse_opens_it", "during_the_parse"])
def test_hashed_read_names_the_bytes_it_parsed(tmp_path, monkeypatch, when):
    """A series file replaced as it is about to be parsed, or while it is
    parsed: the parse and the digest are both of the bytes read."""

    def rows(reliability):
        dates = [dt.date(2004, 1, 1) + dt.timedelta(days=16 * k) for k in range(3)]
        return [
            ["s", f"p{p}", str(p), "0", date.isoformat(), str(day_of_year(date)), reliability,
             *["0.25"] * len(BAND_ORDER)]
            for p in range(2) for date in dates
        ]

    path, replacement = tmp_path / "in.csv", tmp_path / "new.csv"
    originals, replacements = tmp_path / "original.csv", tmp_path / "replacement.csv"
    for target, code in ((path, "0"), (originals, "0"), (replacement, "3"), (replacements, "3")):
        _write_rows(target, rows(code))
    name = "_parse_series" if when.startswith("before") else "_series_chunk"
    call = getattr(dataio, name)

    def replace_then_call(*args, **kwargs):
        if replacement.exists():
            os.replace(replacement, path)
        return call(*args, **kwargs)

    monkeypatch.setattr(dataio, name, replace_then_call)
    sites, digest = read_series_hashed(path)
    monkeypatch.undo()
    read = replacements if when.startswith("before") else originals
    assert digest == hashlib.sha256(read.read_bytes()).hexdigest()
    assert_same_sites(sites, read_series_arrays(read))
    assert path.read_bytes() == replacements.read_bytes() != originals.read_bytes()


@settings(max_examples=150, deadline=None)
@given(rows=series_rows(), data=st.data())
def test_one_pass_rounding_is_series_as_written(rows, data):
    """read_series_as_written formats each value once: its pixels are
    series_as_written of the parse, bit for bit, for values of any
    precision, fill values, NaN and values that round onto a fill value;
    its rows hold each parsed value's 9-digit text and, under a fresh
    header, read back as its pixels."""
    rows = [
        [*row[:7], *(real(band_fill(band)) if np.isnan(v) else repr(v)
                     for band, v in ((band, data.draw(_band_values(band))) for band in BAND_ORDER))]
        for row in rows
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        _write_rows(path, rows)
        parsed = read_series_arrays(path)
        flat, chunks = read_series_as_written(path)
        assert_same_sites(flat.sites(), series_as_written(parsed))
        digest = dataio.append_series_rows(out, chunks)
        assert digest.hexdigest() == hashlib.sha256(out.read_bytes()).hexdigest()
        assert_same_sites(read_series_arrays(out), flat.sites())
    texts = [
        [site_id, cp.pixel_id, str(cp.col), str(cp.row), dt.date.fromordinal(o).isoformat(),
         str(doy), str(code), *(real(band_fill(b) if np.isnan(v) else v) for b, v in zip(BAND_ORDER, vs))]
        for site_id, cps in parsed.items() for cp in cps
        for o, doy, code, vs in zip(cp.arrays.ordinals.tolist(), cp.arrays.doys.tolist(),
                                    cp.arrays.reliability.tolist(), cp.arrays.values.tolist())
    ]
    assert b"".join(chunks).decode().splitlines() == [",".join(t) for t in texts]


def _parent_format_mirror(path, series):
    """Write the mirror of ``series`` as mirrors were before they became one
    block: a sequence of .npy arrays, the first a JSON header that holds the
    series' SHA-256."""
    pixels = [(site_id, cp) for site_id, cps in read_series_arrays(series).items() for cp in cps]
    header = {
        "format": "cmfda history-mirror v1",
        "sha256": hashlib.sha256(Path(series).read_bytes()).hexdigest(),
        "pixels": [[site_id, cp.pixel_id, cp.col, cp.row] for site_id, cp in pixels],
    }
    with open(path, "wb") as fh:
        np.save(fh, np.frombuffer(json.dumps(header).encode(), np.uint8))
        np.save(fh, np.cumsum([0] + [len(cp.arrays.ordinals) for _, cp in pixels]))
        for i in range(len(SeriesArrays._fields)):
            np.save(fh, np.concatenate([cp.arrays[i] for _, cp in pixels]))


def test_a_parent_format_mirror_is_parsed_around(tmp_path):
    """A mirror in the format of the .npy sequences that mirrors once were,
    even one that holds the series' hash, is refused: the series is parsed."""
    series, mirror = tmp_path / "series.csv", tmp_path / "series.npy"
    _write_rows(series, [["s", "px", "0", "0", "2004-01-01", "1", "0", *["0.5"] * 6]])
    _parent_format_mirror(mirror, series)
    with mock.patch.object(dataio, "_parse_series", side_effect=AssertionError("parsed")):
        with pytest.raises(AssertionError, match="parsed"):
            read_series_mirrored(series, mirror)
    assert_same_sites(read_series_mirrored(series, mirror), read_series_arrays(series))


def test_covariance_mirror_serves_the_bits_of_the_file(tmp_path, rng):
    """A table built from the covariance mirror holds only the rows a
    lookup can serve, and gives the matrix_for bits of load_covariances for
    every (square, period) of each site; a site with no served row, or
    none, raises SingularCovariance from both."""
    def record(site, col, row, doy):
        return PairedErrorRecord("p", site, col, row, dt.date(2005, 1, 1), doy,
                                 float(rng.normal(0, 0.02)), float(rng.normal(0, 0.03)))

    records = [
        *(record("s", int(rng.integers(0, 5)), int(rng.integers(0, 5)), int(rng.integers(1, 31)))
          for _ in range(300)),   # square 0, periods 0-5: dense cubes
        *(record("s", int(rng.integers(0, 25)), int(rng.integers(0, 25)),
                 int(rng.integers(1, 367))) for _ in range(200)),
        record("t", 3, 3, 100),   # one pair: nothing served
    ]
    path, mirror = tmp_path / "cov.csv", tmp_path / "cov.npy"
    table = estimate_cube_covariances(records)
    save_covariances(path, table)
    write_covariance_mirror(mirror, path, table)
    loaded = load_covariances(path)
    with mock.patch.object(dataio, "load_covariances", side_effect=AssertionError("parsed")):
        mirrored = read_covariances_mirrored(path, mirror)
    assert 0 < len(mirrored.cubes) < len(loaded.cubes)
    assert len(mirrored.site_periods) < len(loaded.site_periods)

    def bits(table, key):
        try:
            return table.matrix_for(*key).tobytes()
        except SingularCovariance:
            return None

    for site in ("s", "t", "nowhere"):
        keys = [(site, q, p) for q in range(N_SQUARES) for p in range(N_PERIODS)]
        assert [bits(mirrored, key) for key in keys] == [bits(loaded, key) for key in keys]
    assert bits(loaded, ("s", 0, 0)) is not None and bits(loaded, ("t", 0, 0)) is None
    path.write_text(path.read_text().replace(",s,", ",u,"))   # stale: the file is parsed
    assert list(read_covariances_mirrored(path, mirror).sites) == ["u", "t"]


def test_file_hash_reads_in_blocks(tmp_path, monkeypatch):
    """A file is hashed in 64 KB reads, never read whole."""
    path = tmp_path / "big.bin"
    data = np.random.default_rng(3).bytes(3 * dataio._HASH_BLOCK + 17)
    path.write_bytes(data)
    sizes = []
    real_open = open

    class Spy:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size=-1):
            sizes.append(size)
            return self.fh.read(size)

    monkeypatch.setattr(dataio, "open", lambda *a, **k: Spy(real_open(*a, **k)), raising=False)
    assert dataio._sha256(path) == hashlib.sha256(data).hexdigest()
    assert sizes and all(0 < size <= dataio._HASH_BLOCK for size in sizes)


# --- labels -----------------------------------------------------------------------


def test_labels_round_trip(tmp_path):
    labels = [
        DeforestationLabel("p1", 0, 0, 0, 0),
        DeforestationLabel("p2", 1, 0, 3, 1),
        DeforestationLabel("p3", 2, 4, 16, 1),
    ]
    path = tmp_path / "labels.csv"
    write_labels(path, labels)
    assert read_labels(path) == labels


def test_labels_reject_invariant_violation(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("#cmfda labels v1\npixel_id,col,row,defo_count,z\np,0,0,3,0\n")
    with pytest.raises(ParseError):
        read_labels(path)


# --- models -----------------------------------------------------------------------


def test_models_round_trip(tmp_path):
    series = make_series(band_coeffs={Band.NIR: (0.4, 0.1, -0.05, 0.02, 0.03)})
    window = DateInterval(dt.date(2003, 1, 1), dt.date(2004, 12, 31))
    models = {
        ("px", Band.NIR): fit(series, Band.NIR, window),
        ("px", Band.NDVI): fit(series, Band.NDVI, window),
    }
    path = tmp_path / "models_2003_2004.csv"
    save_models(path, models, window)
    loaded_window, loaded = load_models(path)
    assert loaded_window == window
    assert set(loaded) == set(models)
    for key, model in models.items():
        got = loaded[key]
        assert got.band == model.band
        assert got.n_obs == model.n_obs
        assert got.train_window == model.train_window
        assert got.coeffs == tuple(round9(c) for c in model.coeffs)



def oracle_load_models(path):
    """Row-by-row model reader, the specification of the columnar one."""
    with open(path, newline="") as fh:
        meta = _read_header(fh, "models", path)
        try:
            window = DateInterval(
                dt.date.fromisoformat(meta["train_start"]),
                dt.date.fromisoformat(meta["train_end"]),
            )
        except (KeyError, ValueError):
            raise ParseError(f"{path}: header lacks a valid training window", line=1) from None
        models = {}
        for line, row in reference_rows(fh, MODEL_COLUMNS, path):
            code = _parse_int(row["band"], "band", line, path)
            try:
                band = Band(code)
            except ValueError:
                raise ParseError(f"{path}: unknown band code {code}", line=line) from None
            coeffs = tuple(
                _parse_float(row[f"a{k}"], f"a{k}", line, path) for k in range(5)
            )
            models[(row["pixel_id"], band)] = HarmonicModel(
                band=band,
                pixel_id=row["pixel_id"],
                coeffs=coeffs,
                train_window=(window.start, window.end),
                n_obs=_parse_int(row["n_obs"], "n_obs", line, path),
            )
    return window, models


@st.composite
def model_rows(draw):
    """Data rows of a valid model file: a few pixels, some of them listed
    twice, each with a few bands, coefficients written as ``real`` does."""
    rows = []
    for p in range(draw(st.integers(0, 4))):
        for band in draw(st.lists(st.sampled_from(BAND_ORDER), min_size=1, max_size=3)):
            coeffs = draw(st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5))
            rows.append([f"px{p}", str(int(band)), *map(real, coeffs),
                         str(draw(st.integers(0, 46)))])
    return rows


MODEL_CORRUPTIONS = (None, "band", "unknown-band", "real", "n_obs", "fields", "header")


@settings(max_examples=300, deadline=None)
@given(
    rows=model_rows(),
    kind=st.sampled_from(MODEL_CORRUPTIONS),
    pick=st.integers(0, 10**6),
    column=st.integers(0, 4),
    blank=st.none() | st.integers(0, 10**6),
    quoted=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    chunk_rows=st.sampled_from([2, 1024]),
)
def test_load_models_matches_row_oracle(
    rows, kind, pick, column, blank, quoted, newline, chunk_rows
):
    """The columnar model reader gives the models of the row-by-row
    oracle, in the same order, or the same ParseError message and line,
    also when the rows are read in several chunks."""
    lines = [list(r) for r in rows]
    header = "#cmfda models v1 train_start=2003-01-01 train_end=2004-12-31"
    if lines:
        parts = lines[pick % len(lines)]
        if kind == "band":
            parts[1] = "x2"
        elif kind == "unknown-band":
            parts[1] = "4"
        elif kind == "real":
            parts[2 + column] = "0.1x"
        elif kind == "n_obs":
            parts[7] = "12.5"
        elif kind == "fields":
            lines[pick % len(lines)] = parts[:-1] if column % 2 else parts + ["0"]
    if kind == "header":
        header = "#cmfda models v1 train_start=2003-01-01"
    if quoted:
        for parts in lines:
            parts[0] = f'"{parts[0]}"'
    text = [",".join(parts) for parts in lines]
    if blank is not None:
        text.insert(blank % (len(text) + 1), "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "models.csv"
        path.write_text(
            newline.join([header, ",".join(MODEL_COLUMNS), *text]) + newline, newline=""
        )
        expected, expected_error = _outcome(oracle_load_models, path)
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            got, error = _outcome(load_models, path)
    assert error == expected_error
    if expected_error:
        return
    assert got[0] == expected[0]
    assert list(got[1].items()) == list(expected[1].items())
    assert all(type(m.n_obs) is int and type(m.band) is Band for m in got[1].values())


# --- standardizer -----------------------------------------------------------------


@pytest.mark.parametrize("scheme", [Scheme.PIXEL_SD, Scheme.DAY_PIXEL_ECDF_OVERALL_ECDF, Scheme.CUBE_SD])
def test_standardizer_round_trip(tmp_path, scheme, rng):
    history = [
        ErrorRecord(
            f"p{k % 3}", "s0", (k % 5) * 5, (k % 4) * 5,
            dt.date(2005, 1, 2) + dt.timedelta(days=(k * 11) % 360),
            float(rng.normal(0, 0.05)),
        )
        for k in range(120)
    ]
    std = fit_standardizer(history, scheme, Band.NIR)
    path = tmp_path / "std.csv"
    save_standardizer(path, std)
    loaded = load_standardizer(path)
    assert loaded.scheme == std.scheme and loaded.band == std.band
    # tables round-trip exactly, so the transform is bit-identical, even
    # at the rank ties of chained ECDF stages
    for r in history[:25]:
        c = ErrorContext(r.pixel_id, r.site_id, r.col, r.row, r.date)
        assert transform(loaded, r.value, c) == transform(std, r.value, c)


# --- covariances ---------------------------------------------------------------------


def test_covariances_round_trip(tmp_path, rng):
    records = [
        PairedErrorRecord(
            "p", "s", int(rng.integers(0, 25)), int(rng.integers(0, 25)),
            dt.date(2005, 1, 1) + dt.timedelta(days=int(rng.integers(0, 360))),
            int(rng.integers(1, 367)),
            float(rng.normal(0, 0.02)), float(rng.normal(0, 0.03)),
        )
        for _ in range(300)
    ]
    table = estimate_cube_covariances(records)
    path = tmp_path / "cov.csv"
    save_covariances(path, table)
    loaded = load_covariances(path)
    assert loaded.min_cube_samples == table.min_cube_samples
    np.testing.assert_allclose(
        loaded.matrix_for("s", 3, 10), table.matrix_for("s", 3, 10), rtol=1e-8
    )
    np.testing.assert_allclose(
        loaded.sites["s"].matrix(), table.sites["s"].matrix(), rtol=1e-8
    )


def _covariance_file(tmp_path, rng):
    records = [
        PairedErrorRecord(
            "p", site, int(rng.integers(0, 25)), int(rng.integers(0, 25)),
            dt.date(2005, 1, 1), int(rng.integers(1, 367)),
            float(rng.normal(0, 0.02)), float(rng.normal(0, 0.03)),
        )
        for site in ("s", "t") for _ in range(200)
    ]
    path = tmp_path / "cov.csv"
    save_covariances(path, estimate_cube_covariances(records))
    return path, path.read_text().split("\n")


def test_covariances_load_every_entry_in_file_order(tmp_path, rng):
    path, lines = _covariance_file(tmp_path, rng)
    loaded = load_covariances(path)
    rows = [line.split(",") for line in lines[2:] if line]
    assert [row[0] for row in rows] == (
        ["cube"] * len(loaded.cubes) + ["site_period"] * len(loaded.site_periods)
        + ["site"] * len(loaded.sites)
    )
    keys = [*loaded.cubes, *loaded.site_periods, *loaded.sites]
    assert keys == [
        (site, int(square), int(period)) if level == "cube"
        else (site, int(period)) if level == "site_period" else site
        for level, site, square, period, *_ in rows
    ]
    entries = [*loaded.cubes.values(), *loaded.site_periods.values(), *loaded.sites.values()]
    assert [(e.var_nir, e.cov, e.var_ndvi, e.n) for e in entries] == [
        (float(a), float(b), float(c), int(n)) for *_, a, b, c, n in rows
    ]
    assert all(type(e.var_nir) is float and type(e.n) is int for e in entries)


@pytest.mark.parametrize("edit, line, message", [
    (lambda row: ",".join(row.split(",")[:5] + ["abc"] + row.split(",")[6:]), 7,
     "bad real in column 'cov': 'abc'"),
    (lambda row: "cubes" + row[4:], 9, "unknown level 'cubes'"),
    (lambda row: row.rsplit(",", 1)[0], 5, "expected 8 fields, got 7"),
    (lambda row: row.rsplit(",", 1)[0] + ",2.5", 4, "bad integer in column 'n': '2.5'"),
], ids=["bad-real", "bad-level", "short-row", "bad-count"])
def test_covariances_bad_row(tmp_path, rng, edit, line, message):
    """A bad row is reported with its line and its first failing check,
    even when a later row is bad too."""
    path, lines = _covariance_file(tmp_path, rng)
    lines[line - 1] = edit(lines[line - 1])
    lines[line + 3] = "bogus," + lines[line + 3].split(",", 1)[1]
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_covariances(path)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {path}: {message}"


def test_covariances_bad_min_cube_samples(tmp_path, rng):
    path, lines = _covariance_file(tmp_path, rng)
    assert "min_cube_samples=10" in lines[0]
    lines[0] = lines[0].replace("min_cube_samples=10", "min_cube_samples=abc")
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_covariances(path)
    assert err.value.line == 1
    assert str(err.value) == (
        f"line 1: {path}: bad integer in header key 'min_cube_samples': 'abc'"
    )


# --- detections and reports ------------------------------------------------------------


@pytest.mark.parametrize("edit, message", [
    (lambda row: row.replace(",NDVI", ",FOO"), "unknown band 'FOO' in column 'triggering_band'"),
    (lambda row: row.replace("b,1,", "b,2,"), "flagged must be 0 or 1, got 2"),
], ids=["unknown-band", "flagged-2"])
def test_detections_bad_row(tmp_path, edit, message):
    path = tmp_path / "det.csv"
    write_detections(path, [DetectionResult("b", True, dt.date(2006, 3, 7), Band.NDVI)], {})
    lines = path.read_text().split("\n")
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        read_detections(path)
    assert str(err.value) == f"line 3: {path}: {message}"


def test_detections_round_trip(tmp_path):
    results = [
        DetectionResult("a", False),
        DetectionResult("b", True, dt.date(2006, 3, 7), Band.NDVI),
        DetectionResult("c", True, dt.date(2005, 11, 1), None),
    ]
    path = tmp_path / "det.csv"
    write_detections(path, results, {"rule": "multivariate", "C": "4"})
    meta, loaded = read_detections(path)
    assert meta["rule"] == "multivariate" and meta["C"] == "4"
    assert loaded == results


def test_report_round_trip_and_text(tmp_path):
    report = TrainReport(
        rule_kind="univariate",
        band=Band.NIR,
        rows=(
            ReportRow("siteA", 3, (0.08,), 0.91, 0.85, 0.9, None),
            ReportRow("all", 4, (0.082, 0.182), 0.37, None, None, 0.25),
        ),
    )
    path = tmp_path / "report.csv"
    write_report(path, report)
    loaded = read_report(path)
    assert loaded.rule_kind == "univariate"
    assert loaded.band is Band.NIR
    assert loaded.rows[0].thresholds == (0.08,)
    assert loaded.rows[0].user_acc is None
    assert loaded.rows[1].thresholds == (0.082, 0.182)
    text = format_report_text(report)
    assert "siteA" in text and "0.082, 0.182" in text


def test_report_bad_header_band(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, TrainReport(rule_kind="univariate", band=Band.NIR, rows=()))
    path.write_text(path.read_text().replace("band=NIR", "band=XYZ"))
    with pytest.raises(ParseError) as err:
        read_report(path)
    assert str(err.value) == f"line 1: {path}: unknown band 'XYZ' in header"


@pytest.mark.parametrize("scheme, row, message", [
    (Scheme.DAY_SD_OVERALL, "0,sd,period,abc,5,0.1", "bad period key 'abc'"),
    (Scheme.CUBE_SD, "0,sd,cube,x|1,5,0.1", "bad cube key 'x|1'"),
    (Scheme.DAY_SD_SITE, "0,sd,site_period,x,5,0.1", "bad site_period key 'x'"),
    (Scheme.DAY_SD_SITE, "0,xyz,site_period,x|3,5,0.1", "stage 0 is an sd stage, got table 'xyz'"),
    (Scheme.DAY_SD_OVERALL, "0,sd,cube,x|1|3,5,0.1", "key kind 'cube' is no level of stage 0"),
], ids=["period-key", "cube-key", "site-period-key", "table", "kind-not-a-level"])
def test_standardizer_bad_row(tmp_path, scheme, row, message):
    path = tmp_path / "std.csv"
    path.write_text(
        f"#cmfda standardizer v1 scheme={scheme.value} band=NIR\n"
        "stage,table,kind,key,seq,value\n0,sd,global,,5,0.2\n" + row + "\n"
    )
    with pytest.raises(ParseError) as err:
        load_standardizer(path)
    assert str(err.value) == f"line 4: {path}: {message}"


def test_standardizer_key_site_may_hold_the_separator(tmp_path):
    std = Standardizer(Scheme.CUBE_SD, Band.NIR, (StageTables(
        KeyKind.CUBE, SD, sd_levels=((KeyKind.CUBE, {("a|b", 5, 3): (0.5, 9)}),),
    ),))
    path = tmp_path / "std.csv"
    save_standardizer(path, std)
    assert load_standardizer(path).stages[0].sd_levels[0] == (KeyKind.CUBE, {("a|b", 5, 3): (0.5, 9)})


# --- table framing ------------------------------------------------------------------------

# Each table reader with its kind, the header keys of a valid file and its columns.
TABLE_READERS = {
    "series": (read_series, "series", "", SERIES_COLUMNS),
    "labels": (read_labels, "labels", "", dataio.LABEL_COLUMNS),
    "landuse": (read_landuse, "landuse", "", dataio.LANDUSE_COLUMNS),
    "models": (load_models, "models", "train_start=2003-01-01 train_end=2004-12-31", MODEL_COLUMNS),
    "standardizer": (
        load_standardizer, "standardizer", "scheme=1 band=NIR", dataio.STANDARDIZER_COLUMNS
    ),
    "covariances": (
        load_covariances, "covariances", "min_cube_samples=10", dataio.COVARIANCE_COLUMNS
    ),
    "detections": (read_detections, "detections", "", dataio.DETECTION_COLUMNS),
    "report": (read_report, "report", "rule=univariate band=NIR", dataio.REPORT_COLUMNS),
}


@pytest.mark.parametrize("fault", [
    "not-utf-8-header", "not-utf-8-columns", "not-utf-8-row", "field-too-large",
    "short-row", "column-row", "header",
])
@pytest.mark.parametrize("table", list(TABLE_READERS))
def test_table_framing_faults(tmp_path, table, fault):
    """Every table reader meets a framing fault the same way: a byte that
    is not UTF-8, a field over csv's size limit, a short row or a wrong
    column-name row is a ParseError at its line, a wrong header a
    SchemaVersionMismatch."""
    read, kind, meta, columns = TABLE_READERS[table]
    lines = [f"#cmfda {kind} v1 {meta}".encode(), ",".join(columns).encode(),
             b"," * (len(columns) - 1)]
    expected = {
        "not-utf-8-header": (1, "not utf-8 text"),
        "not-utf-8-columns": (2, "not utf-8 text"),
        "not-utf-8-row": (3, "not utf-8 text"),
        "field-too-large": (3, "field larger than field limit (131072)"),
        "short-row": (3, "expected %d fields, got 2" % len(columns)),
        "column-row": (2, f"expected columns {list(columns)}, got ['x', 'y']"),
    }
    if fault.startswith("not-utf-8"):
        line = expected[fault][0]
        lines[line - 1] = b"\xff" + lines[line - 1]
    elif fault == "field-too-large":
        lines[2] = b"x" * 200_000 + lines[2]
    elif fault == "short-row":
        lines[2] = b"a,b"
    elif fault == "column-row":
        lines[1] = b"x,y"
    else:
        lines[0] = b"#cmfda other v1"
    path = tmp_path / "table.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    if fault == "header":
        with pytest.raises(SchemaVersionMismatch) as err:
            read(path)
        assert str(err.value) == f"{path}: expected '#cmfda {kind} v1' header, got '#cmfda other v1'"
        return
    with pytest.raises(ParseError) as err:
        read(path)
    line, message = expected[fault]
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {path}: {message}")


SERIES_ROW = "p,0,0,{date},{doy},0,0.08,{nir},0.05,0.18,0.68,0.55"


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("chunk_rows", [1, 2, 1024])
@pytest.mark.parametrize("table", ["labels", "series"])
def test_rows_after_a_quoted_line_break_keep_their_line(tmp_path, table, chunk_rows, newline):
    """A quoted field that holds a line break spans two lines, so the bad
    row after it is reported at the physical line it ends on (5 in the
    labels file, 6 in the series), in every reader and wherever the chunks
    are cut."""
    if table == "labels":
        rows = ['"a', 'b",0,0,0,0', "c,x,0,0,0"]
        readers = [read_labels]
    else:
        rows = ['"s', 't",' + SERIES_ROW.format(date="2003-01-01", doy=1, nir=0.42),
                '"s', 't",' + SERIES_ROW.format(date="2003-01-17", doy=17, nir="0.4x")]
        readers = [read_series_arrays, read_series]
    columns = ",".join(dataio.LABEL_COLUMNS if table == "labels" else SERIES_COLUMNS)
    path = tmp_path / f"{table}.csv"
    path.write_text(newline.join([f"#cmfda {table} v1", columns, *rows]) + newline, newline="")
    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        for read in readers:
            with pytest.raises(ParseError) as err:
                read(path)
            assert err.value.line == (5 if table == "labels" else 6)


# --- land use and label aggregation ------------------------------------------------------


def test_landuse_round_trip(tmp_path, rng):
    grid = rng.integers(1, 20, size=(100, 100))
    path = tmp_path / "landuse_2005.csv"
    write_landuse(path, grid)
    np.testing.assert_array_equal(read_landuse(path), grid)


def test_landuse_missing_cells(tmp_path, rng):
    grid = rng.integers(1, 20, size=(100, 100))
    path = tmp_path / "landuse.csv"
    write_landuse(path, grid)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-10]) + "\n")
    with pytest.raises(ParseError):
        read_landuse(path)


def test_aggregate_identical_grids(rng):
    grid = rng.integers(1, 20, size=(100, 100))
    labels = aggregate_labels(grid, grid)
    assert len(labels) == 625
    assert all(l.defo_count == 0 and l.z == 0 for l in labels)


def test_aggregate_single_forest_flip():
    t0 = np.full((100, 100), 15)
    t0[10, 17] = 3  # forest
    t1 = t0.copy()
    t1[10, 17] = 18  # water
    labels = {(l.col, l.row): l for l in aggregate_labels(t0, t1)}
    assert labels[(4, 2)].defo_count == 1 and labels[(4, 2)].z == 1
    assert sum(l.defo_count for l in labels.values()) == 1


def test_aggregate_ignores_non_forest_changes():
    t0 = np.full((100, 100), 15)  # cropland
    t1 = np.full((100, 100), 17)  # urban
    labels = aggregate_labels(t0, t1)
    assert all(l.defo_count == 0 for l in labels)


def test_aggregate_conservation(rng):
    for _ in range(10):
        t0 = rng.integers(1, 20, size=(100, 100))
        t1 = rng.integers(1, 20, size=(100, 100))
        labels = aggregate_labels(t0, t1)
        forest0 = np.isin(t0, list(FOREST_CLASSES))
        forest1 = np.isin(t1, list(FOREST_CLASSES))
        assert sum(l.defo_count for l in labels) == int((forest0 & ~forest1).sum())


def test_aggregate_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        aggregate_labels(np.ones((50, 50)), np.ones((100, 100)))


# --- synthetic generator ------------------------------------------------------------------


def test_generate_zero_noise_equals_harmonic():
    cfg = small_config()
    site, labels = generate_site(cfg)
    assert len(site.pixels) == 625
    assert all(l.z == 0 for l in labels)
    probe = site.pixels[7 * SITE_SIDE + 13]
    assert (probe.col, probe.row) == (13, 7)
    for obs in probe.observations[:20]:
        for band in BAND_ORDER:
            expected = harmonic_value(cfg.signals[band].coeffs, obs.composite_doy)
            assert obs.values[band] == pytest.approx(expected, abs=1e-12)


def test_generate_event_shift_self_check():
    event_date = dt.date(2004, 3, 1)
    noise_sd = 0.02
    cfg = small_config(
        signals={
            band: BandSignal(signal.coeffs, noise_sd)
            for band, signal in small_config().signals.items()
        },
        events=(EventSpec(pixels=((5, 9),), date=event_date, shifts={Band.NIR: -0.3}),),
    )
    site, labels = generate_site(cfg)
    label_map = {(l.col, l.row): l.z for l in labels}
    assert label_map[(5, 9)] == 1
    assert sum(label_map.values()) == 1
    pixel = site.pixels[9 * SITE_SIDE + 5]
    assert (pixel.col, pixel.row) == (5, 9)
    post = [o for o in pixel.observations if o.nominal_date >= event_date]
    drops = [
        o.values[Band.NIR] - harmonic_value(cfg.signals[Band.NIR].coeffs, o.composite_doy)
        for o in post
    ]
    assert np.mean(drops) == pytest.approx(-0.3, abs=3 * noise_sd / np.sqrt(len(drops)))


def test_generate_deterministic_per_seed(tmp_path):
    cfg = small_config(seed=99)
    for name in ("a", "b"):
        site, labels = generate_site(cfg)
        write_series(tmp_path / f"{name}.csv", {site.site_id: site.pixels})
        write_labels(tmp_path / f"{name}_labels.csv", labels)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a_labels.csv").read_bytes() == (tmp_path / "b_labels.csv").read_bytes()


def test_generate_different_seeds_differ(tmp_path):
    site_a, _ = generate_site(small_config(seed=1))
    site_b, _ = generate_site(small_config(seed=2))
    values_a = [o.values[Band.NIR] for o in site_a.pixels[0].observations]
    values_b = [o.values[Band.NIR] for o in site_b.pixels[0].observations]
    assert values_a != values_b


def test_generate_config_validation():
    with pytest.raises(InvalidConfig):
        generate_site(small_config(cloud_prob=(0.5,) * 6))
    with pytest.raises(InvalidConfig):
        generate_site(
            small_config(
                events=(EventSpec(((30, 0),), dt.date(2003, 6, 1), {Band.NIR: -0.1}),)
            )
        )
    with pytest.raises(InvalidConfig):
        generate_site(
            small_config(
                events=(EventSpec(((0, 0),), dt.date(2010, 6, 1), {Band.NIR: -0.1}),)
            )
        )
    bad_noise = {
        band: BandSignal(signal.coeffs, -0.1)
        for band, signal in small_config().signals.items()
    }
    with pytest.raises(InvalidConfig):
        generate_site(small_config(signals=bad_noise))
    # NIR shift pushing the clean signal below zero
    with pytest.raises(InvalidConfig):
        generate_site(
            small_config(
                events=(EventSpec(((0, 0),), dt.date(2003, 6, 1), {Band.NIR: -0.45}),)
            )
        )


def test_seasonal_cloud_probability_doubles_in_wet_season():
    probs = seasonal_cloud_prob(0.06)
    for month in range(1, 13):
        expected = 0.12 if 4 <= month <= 9 else 0.06
        assert probs[month - 1] == pytest.approx(expected)


def test_bundled_scenarios():
    sonora = sonora_like_config(seed=3, n_events=10)
    assert sonora.defo_type is DefoType.FOREST_TO_WATER
    assert all(e.shifts == {Band.NIR: -0.3} for e in sonora.events)
    yucatan = yucatan_like_config(seed=3, n_events=10)
    assert yucatan.defo_type is DefoType.FOREST_TO_URBAN_CROPLAND
    assert all(e.shifts == {Band.NDVI: -0.3} for e in yucatan.events)
    assert len({(p for p in e.pixels) for e in sonora.events}) == 10
    years = {e.date.year for e in sonora.events}
    assert years <= {2005, 2006, 2007, 2008, 2009}
