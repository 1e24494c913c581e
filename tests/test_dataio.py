import csv
import dataclasses
import datetime as dt
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from cmfda import dataio
from cmfda.core import (
    BAND_ORDER,
    Band,
    DefoType,
    DeforestationLabel,
    FILL_INDEX,
    MAX_COMPOSITE_LAG,
    Observation,
    PixelSeries,
    Reliability,
    SITE_SIDE,
    SeriesArrays,
    band_fill,
    day_of_year,
)
from cmfda.dataio import (
    COVARIANCE_COLUMNS,
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
    read_report,
    read_series,
    read_series_arrays,
    read_series_file,
    read_covariances_mirrored,
    real,
    save_covariances,
    save_models,
    save_standardizer,
    seasonal_cloud_prob,
    sonora_like_config,
    write_covariance_mirror,
    write_detections,
    write_series_mirror,
    write_labels,
    write_report,
    write_mirror,
    write_series,
    yucatan_like_config,
)
from cmfda.detection import (
    N_PERIODS,
    N_SQUARES,
    CovarianceEntry,
    CubeCovarianceTable,
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
from cmfda.harmonic import HarmonicModel, ModelTable
from cmfda.pipeline import compact_pixels, fit_pixels
from cmfda.standardize import (
    SD, ErrorContext, ErrorRecord, KeyKind, Scheme, StageTables, Standardizer, fit_standardizer,
    transform,
)
from cmfda.training import ReportRow, TrainReport
from cmfda.windows import DateInterval, make_windows
from conftest import (
    assert_same_models, assert_same_sites, harmonic_value, make_series, served_sigmas,
)


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


def _band_value(band):
    return st.one_of(st.floats(band_fill(band), 1.0), st.sampled_from([band_fill(band), -0.0]))


@st.composite
def _pixel_series(draw):
    """A PixelSeries of 0..4 dates, its band values in range, some of them
    fill-coded, -0.0 or missing."""
    start = draw(st.dates(dt.date(1999, 1, 1), dt.date(2010, 12, 31)))
    observations = []
    for k in range(draw(st.integers(0, 4))):
        date = start + dt.timedelta(days=16 * k)
        lag = draw(st.integers(0, MAX_COMPOSITE_LAG))
        observations.append(Observation(
            date, day_of_year(date + dt.timedelta(days=lag)),
            draw(st.fixed_dictionaries({}, optional={band: _band_value(band) for band in BAND_ORDER})),
            draw(st.sampled_from(Reliability)),
        ))
    ids = st.text(alphabet='p1,"\r\n é', max_size=4)
    return PixelSeries(draw(ids), draw(st.integers(-3, 30)), draw(st.integers(-3, 30)),
                       tuple(observations))


@settings(max_examples=150, deadline=None)
@given(sites=st.dictionaries(st.text(alphabet='s2,"\r\n ü', max_size=3),
                             st.lists(_pixel_series(), max_size=3), max_size=3))
def test_series_writer_writes_the_row_writer_bytes(sites):
    """write_series writes the bytes of the csv row writer: ids quoted as csv
    quotes them, reals as ``real`` writes them, fill values for missing
    bands; so does write_series_columns given NaN for every fill."""
    pixels = [(site_id, p) for site_id, group in sites.items() for p in group]
    observations = [o for _, p in pixels for o in p.observations]
    fills = [band_fill(band) for band in BAND_ORDER]
    values = np.array([[o.values.get(band, np.nan) for band in BAND_ORDER]
                       for o in observations]).reshape(-1, len(BAND_ORDER))
    with tempfile.TemporaryDirectory() as tmp:
        path, columns, reference = (Path(tmp) / name for name in ("w.csv", "c.csv", "r.csv"))
        write_series(path, sites)
        dataio.write_series_columns(
            columns, [(site_id, p.pixel_id, p.col, p.row) for site_id, p in pixels],
            [len(p.observations) for _, p in pixels],
            [o.nominal_date.toordinal() for o in observations],
            [o.composite_doy for o in observations], [int(o.reliability) for o in observations],
            np.where(values == fills, np.nan, values),
        )
        oracle.write_series(reference, sites)
        assert path.read_bytes() == reference.read_bytes()
        assert columns.read_bytes() == reference.read_bytes()


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
        read = read_series_file(history)
        write_series_mirror(mirror, read.flat, read.sha256.hexdigest())
        with mock.patch.object(dataio, "_parse_series", side_effect=AssertionError("parsed")):
            assert_same_sites(_mirrored(history, mirror), read.flat.sites())
        rows[0][6] = "3" if rows[0][6] != "3" else "0"   # a reliability code
        _write_rows(history, rows)
        assert_same_sites(_mirrored(history, mirror), read_series_arrays(history))


def _mirrored(path, mirror):
    return read_series_file(path, mirror).flat.sites()


def test_a_pixel_id_under_two_sites_is_refused_by_parse_and_mirror(tmp_path):
    """Model, label and detection files key a pixel by its id alone: a
    series that holds one pixel id under two sites is a ParseError, read
    by a parse or from its mirror."""
    row = ["2004-01-01", "1", "0", *["0.5"] * 6]
    history, mirror = tmp_path / "history.csv", tmp_path / "history.npy"
    _write_rows(history, [["a", "px", "0", "0", *row], ["b", "qx", "1", "0", *row]])
    flat = read_series_file(history).flat
    flat = flat._replace(keys=[flat.keys[0], ("b", "px", *flat.keys[1][2:])])
    _write_rows(history, [["a", "px", "0", "0", *row], ["b", "px", "1", "0", *row]])
    write_series_mirror(mirror, flat, hashlib.sha256(history.read_bytes()).hexdigest())
    with pytest.raises(ParseError) as err:
        read_series_arrays(history)
    assert str(err.value) == f"{history}: pixel 'px' is under sites 'a' and 'b'"
    with mock.patch.object(dataio, "_parse_series", side_effect=AssertionError("parsed")):
        with pytest.raises(ParseError) as mirrored:
            read_series_file(history, mirror)
    assert str(mirrored.value) == str(err.value)


@settings(max_examples=100, deadline=None)
@given(rows=series_rows(), quoted=st.booleans())
def test_hashed_read_is_the_parse_and_the_hash_of_its_bytes(rows, quoted):
    """read_series_file gives read_series_arrays, the file's bytes and the
    SHA-256 object fed them."""
    if quoted:
        rows = [[f'"{r[0]},\u00e9"', *r[1:]] for r in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        _write_rows(path, rows)
        read = read_series_file(path)
        assert_same_sites(read.flat.sites(), read_series_arrays(path))
        assert read.data == path.read_bytes()
        assert read.sha256.hexdigest() == hashlib.sha256(read.data).hexdigest()


@pytest.mark.parametrize("when", ["before_the_parse_opens_it", "during_the_parse"])
def test_hashed_read_names_the_bytes_it_parsed(tmp_path, monkeypatch, when):
    """A series file replaced as it is about to be read, or while its bytes
    are parsed: the parse and the digest are both of the bytes read."""

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
    name = "_read_bytes" if when.startswith("before") else "_series_chunk"
    call = getattr(dataio, name)

    def replace_then_call(*args, **kwargs):
        if replacement.exists():
            os.replace(replacement, path)
        return call(*args, **kwargs)

    monkeypatch.setattr(dataio, name, replace_then_call)
    got = read_series_file(path)
    monkeypatch.undo()
    read = replacements if when.startswith("before") else originals
    assert got.sha256.hexdigest() == hashlib.sha256(read.read_bytes()).hexdigest()
    assert_same_sites(got.flat.sites(), read_series_arrays(read))
    assert path.read_bytes() == replacements.read_bytes() != originals.read_bytes()


@settings(max_examples=150, deadline=None)
@given(rows=series_rows(), data=st.data(), quoted=st.booleans(),
       newline=st.sampled_from(["\n", "\r\n"]), final=st.booleans())
def test_appended_series_rows_are_the_input_bytes(rows, data, quoted, newline, final):
    """append_series_rows writes a fresh header, or the bytes of a file read
    before, then the data rows of a series file byte for byte, whatever
    their precision, quoting and line ends, and with a line break between
    where the first part lacks one; it returns the SHA-256 of the file. A
    read gives the values as the input gives them."""
    rows = [
        [f'"{row[0]},\u00e9"' if quoted else row[0], *row[1:7],
         *(real(band_fill(band)) if np.isnan(v) else repr(v)
           for band, v in ((band, data.draw(_band_values(band))) for band in BAND_ORDER))]
        for row in rows
    ]
    text = newline.join(["#cmfda series v1 source=test", ",".join(SERIES_COLUMNS),
                         *(",".join(r) for r in rows)])
    with tempfile.TemporaryDirectory() as tmp:
        path, out, twice = Path(tmp) / "in.csv", Path(tmp) / "out.csv", Path(tmp) / "twice.csv"
        path.write_bytes((text + newline * final).encode())
        read = read_series_file(path)
        digest = dataio.append_series_rows(out, None, read)
        body = read.data.split(newline.encode(), 2)[2]
        header = b"#cmfda series v1\n" + ",".join(SERIES_COLUMNS).encode() + b"\r\n"
        assert out.read_bytes() == header + body
        assert digest == hashlib.sha256(out.read_bytes()).hexdigest()
        assert_same_sites(read_series_arrays(out), read.flat.sites())
        assert dataio.append_series_rows(twice, read_series_file(out), read) == hashlib.sha256(
            twice.read_bytes()).hexdigest()
        assert twice.read_bytes() == header + body + b"\n" * (not final) + body
    given = [float(t) for r in rows for b, t in zip(BAND_ORDER, r[7:]) if float(t) != band_fill(b)]
    values = read.flat.columns.values
    assert sorted(values[~np.isnan(values)].tolist()) == sorted(given)


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
            read_series_file(series, mirror)
    assert_same_sites(_mirrored(series, mirror), read_series_arrays(series))


def test_covariance_mirror_serves_the_bits_of_the_file(tmp_path, rng):
    """A table built from the covariance mirror holds only the rows a
    lookup can serve, and serves the bits of load_covariances for every
    (square, period) of each site; a site with no served row, or none,
    raises SingularCovariance from both."""
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
    write_covariance_mirror(mirror, *read_covariances_mirrored(path, None))
    loaded = load_covariances(path)
    with mock.patch.object(dataio, "load_covariances", side_effect=AssertionError("parsed")):
        mirrored, regain = read_covariances_mirrored(path, mirror)
    assert regain is None
    assert 0 < len(mirrored.cubes) < len(loaded.cubes)
    assert len(mirrored.site_periods) < len(loaded.site_periods)

    def bits(table, site):
        keys = [(q, p) for q in range(N_SQUARES) for p in range(N_PERIODS)]
        try:
            return served_sigmas(table, site, keys).tobytes()
        except SingularCovariance:
            return None

    for site in ("s", "t", "nowhere"):
        assert bits(mirrored, site) == bits(loaded, site)
    assert bits(loaded, "s") is not None and bits(loaded, "t") is None
    path.write_text(path.read_text().replace(",s,", ",u,"))   # stale: the file is parsed
    stale, regain = read_covariances_mirrored(path, mirror)
    assert list(stale.sites) == ["u", "t"]
    assert regain == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_mirrored_table_is_opened_once(tmp_path, monkeypatch):
    """A series or covariance file is opened once, whether its mirror is
    used, stale or missing, and what is read is what is hashed."""
    series, mirror = tmp_path / "series.csv", tmp_path / "series.npy"
    _write_rows(series, [["s", "px", "0", "0", "2004-01-01", "1", "0", *["0.5"] * 6]])
    read = read_series_file(series)
    write_series_mirror(mirror, read.flat, read.sha256.hexdigest())
    covariances, covariance_mirror = tmp_path / "cov.csv", tmp_path / "cov.npy"
    table = estimate_cube_covariances([
        PairedErrorRecord("p", "s", 0, 0, dt.date(2005, 1, 1), doy, 0.01 * doy, 0.02 / doy)
        for doy in range(1, 4)
    ])
    save_covariances(covariances, table)
    write_covariance_mirror(covariance_mirror, *read_covariances_mirrored(covariances, None))
    opened = []
    real_open = open

    def counting(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    for stale in (False, True):
        if stale:   # the files change: each mirror is refused and the file parsed
            _write_rows(series, [["s", "px", "0", "0", "2004-01-01", "1", "1", *["0.5"] * 6]])
            covariances.write_text(covariances.read_text().replace(",s,", ",t,"))
        opened.clear()
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "open", counting, raising=False)
            got = read_series_file(series, mirror)
            sites = read_covariances_mirrored(covariances, covariance_mirror)[0].sites
            read_series_file(series, tmp_path / "missing.npy")
        assert opened == ["series.csv", "series.npy", "cov.csv", "cov.npy",
                          "series.csv", "missing.npy"]
        assert got.sha256.hexdigest() == hashlib.sha256(series.read_bytes()).hexdigest()
        assert_same_sites(got.flat.sites(), read_series_arrays(series))
        assert list(sites) == (["t"] if stale else ["s"])


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


@pytest.mark.parametrize("existing", [True, False])
def test_a_row_that_fails_to_format_leaves_the_path_as_it_was(tmp_path, existing):
    """The third label has no fields, so formatting it raises after two
    rows were formatted: an existing file keeps its bytes, and no file
    appears where there was none."""
    path = tmp_path / "labels.csv"
    if existing:
        write_labels(path, [DeforestationLabel("old", 0, 0, 0, 0)])
        before = path.read_bytes()
    labels = [DeforestationLabel("p1", 0, 0, 0, 0), DeforestationLabel("p2", 1, 0, 3, 1), None]
    with pytest.raises(AttributeError):
        write_labels(path, labels)
    if existing:
        assert path.read_bytes() == before
    else:
        assert not path.exists()


def test_labels_reject_invariant_violation(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("#cmfda labels v1\npixel_id,col,row,defo_count,z\np,0,0,3,0\n")
    with pytest.raises(ParseError):
        read_labels(path)


@pytest.mark.parametrize("kind", ["labels", "detections"])
def test_label_and_detection_files_refuse_a_repeated_pixel(tmp_path, kind):
    """A label or detection file holds one row per pixel: a second row of a
    pixel is a ParseError at its line that names the pixel, not a row that
    silently replaces the first."""
    path = tmp_path / f"{kind}.csv"
    if kind == "labels":
        write_labels(path, [DeforestationLabel("p1", 0, 0, 0, 0), DeforestationLabel("p2", 1, 0, 3, 1)])
        repeat, read = "p1,0,0,3,1", read_labels
    else:
        write_detections(path, [DetectionResult("p1", False), DetectionResult("p2", False)], {})
        repeat, read = "p2,1,2006-03-07,", read_detections
    path.write_text(path.read_text() + "p3" + repeat[2:] + "\n" + repeat + "\n")
    with pytest.raises(ParseError) as err:
        read(path)
    assert err.value.line == 6
    assert str(err.value) == (
        f"line 6: {path}: pixel {repeat[:2]!r} has a second row; the first is on line "
        f"{3 if kind == 'labels' else 4}"
    )


# --- models -----------------------------------------------------------------------


def test_models_round_trip(tmp_path):
    series = make_series(band_coeffs={Band.NIR: (0.4, 0.1, -0.05, 0.02, 0.03)})
    window = DateInterval(dt.date(2003, 1, 1), dt.date(2004, 12, 31))
    fitted = fit_pixels(compact_pixels([series]), make_windows(2003, 1),
                        (Band.NIR, Band.NDVI)).models[0]
    models = oracle.model_dict(fitted)
    path = tmp_path / "models_2003_2004.csv"
    save_models(path, fitted, window)
    loaded_window, table = load_models(path)
    loaded = oracle.model_dict(table)
    assert loaded_window == window
    assert len(table) == len(models)
    assert set(loaded) == set(models)
    for key, model in models.items():
        got = loaded[key]
        assert got.band == model.band
        assert got.n_obs == model.n_obs
        assert got.train_window == model.train_window
        assert got.coeffs == tuple(round9(c) for c in model.coeffs)



def oracle_load_models(path):
    """Row-by-row model reader, the specification of the columnar one: the
    window, the models as a dict filled row by row keeps them, and the
    number of rows."""
    with open(path, newline="") as fh:
        meta = _read_header(fh, "models", path)
        try:
            window = DateInterval(
                dt.date.fromisoformat(meta["train_start"]),
                dt.date.fromisoformat(meta["train_end"]),
            )
        except (KeyError, ValueError):
            raise ParseError(f"{path}: header lacks a valid training window", line=1) from None
        models, rows = {}, 0
        for line, row in reference_rows(fh, MODEL_COLUMNS, path):
            code = _parse_int(row["band"], "band", line, path)
            try:
                band = Band(code)
            except ValueError:
                raise ParseError(f"{path}: unknown band code {code}", line=line) from None
            coeffs = tuple(
                _parse_float(row[f"a{k}"], f"a{k}", line, path) for k in range(5)
            )
            n_obs = _parse_int(row["n_obs"], "n_obs", line, path)
            if not -2**63 <= n_obs < 2**63:
                raise ParseError(f"{path}: n_obs {n_obs} outside int64", line=line)
            models[(row["pixel_id"], band)] = HarmonicModel(
                band=band,
                pixel_id=row["pixel_id"],
                coeffs=coeffs,
                train_window=(window.start, window.end),
                n_obs=n_obs,
            )
            rows += 1
    return window, models, rows


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


MODEL_CORRUPTIONS = (
    None, "band", "unknown-band", "real", "n_obs", "n_obs-range", "fields", "header",
)


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
    """The columnar model reader gives every row, and the models of the
    row-by-row oracle in the same order, or the same ParseError message and
    line, also when the rows are read in several chunks."""
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
        elif kind == "n_obs-range":
            parts[7] = str(2**63 if column % 2 else -2**63 - 1)
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
    assert len(got[1]) == expected[2]
    assert (got[1].bands.dtype, got[1].n_obs.dtype) == (np.int8, np.int64)
    assert list(oracle.model_dict(got[1]).items()) == list(expected[1].items())


def reference_save_models(path, models, window):
    """The row-by-row model writer: each real through ``real``, each row
    through csv."""
    dataio._write_table(
        path, "models", MODEL_COLUMNS,
        ([pixel_id, int(band), *map(real, model.coeffs), model.n_obs]
         for (pixel_id, band), model in models.items()),
        {"train_start": window.start.isoformat(), "train_end": window.end.isoformat()},
    )


@settings(max_examples=150, deadline=None)
@given(
    keys=st.lists(st.tuples(st.text(alphabet='p1,"\r\n é', max_size=4), st.sampled_from(BAND_ORDER)),
                  unique=True, max_size=12),
    coeffs=st.lists(st.floats(width=64), min_size=60, max_size=60),
    n_obs=st.lists(st.integers(0, 2**40), min_size=12, max_size=12),
)
def test_saved_models_are_the_csv_bytes_and_their_mirror_the_parse(keys, coeffs, n_obs):
    """save_models writes the bytes of the row-by-row writer (pixel ids
    quoted as csv quotes them, reals as ``real`` writes them, NaN and
    infinities included), and the mirror it returns loads as the parse of
    those bytes, bit for bit and in file order, without parsing."""
    window = DateInterval(dt.date(2003, 1, 1), dt.date(2004, 12, 31))
    models = {
        key: HarmonicModel(key[1], key[0], tuple(coeffs[5 * k:5 * k + 5]),
                           (window.start, window.end), n_obs[k])
        for k, key in enumerate(keys)
    }
    with tempfile.TemporaryDirectory() as tmp:
        path, reference, mirror = (Path(tmp) / name for name in ("m.csv", "ref.csv", "m.npy"))
        table = ModelTable(
            [pixel_id for pixel_id, _ in keys], np.array([band for _, band in keys], np.int8),
            np.reshape(coeffs[:5 * len(keys)], (-1, 5)), np.array(n_obs[:len(keys)], np.int64),
            np.array([[window.start.toordinal(), window.end.toordinal()]] * len(keys),
                     np.int64).reshape(-1, 2),
        )
        header, arrays = save_models(path, table, window)
        reference_save_models(reference, models, window)
        assert path.read_bytes() == reference.read_bytes()
        assert header["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        write_mirror(mirror, header, arrays)
        parsed = load_models(path)
        with mock.patch.object(dataio, "_parse_models", side_effect=AssertionError("parsed")):
            mirrored = load_models(path, mirror)
    assert_same_models(mirrored, parsed)


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
        served_sigmas(loaded, "s", [(3, 10)]), served_sigmas(table, "s", [(3, 10)]), rtol=1e-8
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


_COVARIANCE_KEYS = {"cube": ("site", "square", "period"), "site_period": ("site", "period"),
                    "site": ("site",)}


def oracle_load_covariances(path):
    """Row-by-row covariance reader, the specification of the columnar one:
    each row checked in the order reals, n, the square and period its
    level reads, level; its entry kept under its level's key, a later row
    of a key in place of an earlier one."""
    with open(path, newline="") as fh:
        meta = _read_header(fh, "covariances", path)
        tables = {level: {} for level in _COVARIANCE_KEYS}
        for line, row in reference_rows(fh, COVARIANCE_COLUMNS, path):
            values = [_parse_float(row[c], c, line, path) for c in ("var_nir", "cov", "var_ndvi")]
            n = _parse_int(row["n"], "n", line, path)
            names = _COVARIANCE_KEYS.get(row["level"], ())
            key = tuple(row[name] if name == "site" else _parse_int(row[name], name, line, path)
                        for name in names)
            if row["level"] not in tables:
                raise ParseError(f"{path}: unknown level {row['level']!r}", line=line)
            tables[row["level"]][key if len(key) > 1 else key[0]] = CovarianceEntry(*values, n)
    return CubeCovarianceTable(*tables.values(), int(meta.get("min_cube_samples", "10")))


@st.composite
def covariance_rows(draw):
    """Data rows of a valid covariance file: entries of all three levels,
    some keys listed twice, reals written as ``real`` does, "" for a key
    part the level does not read."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        level = draw(st.sampled_from(list(_COVARIANCE_KEYS)))
        names = _COVARIANCE_KEYS[level]
        var_nir, var_ndvi = draw(st.floats(0, 1)), draw(st.floats(0, 1))
        cov = draw(st.floats(-1, 1)) * (var_nir * var_ndvi) ** 0.5
        rows.append([
            level, f"s{draw(st.integers(0, 1))}",
            str(draw(st.integers(0, N_SQUARES - 1))) if "square" in names else "",
            str(draw(st.integers(0, N_PERIODS - 1))) if "period" in names else "",
            real(var_nir), real(cov), real(var_ndvi), str(draw(st.integers(0, 400))),
        ])
    return rows


COVARIANCE_CORRUPTIONS = (None, "real", "n", "key", "unread", "level", "fields")


@settings(max_examples=300, deadline=None)
@given(
    rows=covariance_rows(),
    kind=st.sampled_from(COVARIANCE_CORRUPTIONS),
    pick=st.integers(0, 10**6),
    column=st.integers(0, 5),
    blank=st.none() | st.integers(0, 10**6),
    quoted=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    chunk_rows=st.sampled_from([2, 1024]),
)
def test_load_covariances_matches_row_oracle(
    rows, kind, pick, column, blank, quoted, newline, chunk_rows
):
    """The columnar covariance reader gives the entries of the row-by-row
    oracle, level by level in the same order, or the same ParseError
    message and line, also when the rows are read in several chunks."""
    lines = [list(r) for r in rows]
    if lines:
        parts = lines[pick % len(lines)]
        if kind == "real":   # and, from column 3, a bad n, which is checked later
            parts[4 + column % 3] = "0.1x"
            if column >= 3:
                parts[7] = "2.5"
        elif kind == "n":
            parts[7] = "2.5"
        elif kind == "key":   # a bad square, period or both on a level that reads them
            square, period = column % 3 != 1, column % 3 != 0
            if square or parts[0] == "site":
                parts[:4] = ["cube", parts[1], parts[2] or "3", parts[3] or "5"]
            if square:
                parts[2] = "x3"
            if period:
                parts[3] = "x5"
        elif kind == "unread":   # garbage in a part its level does not read
            parts[0] = "site"
            parts[2 if column % 2 else 3] = "x3"
        elif kind == "level":   # which reads no square, even a bad one
            parts[0] = "cubes"
            if column % 2:
                parts[2] = "x3"
        elif kind == "fields":
            lines[pick % len(lines)] = parts[:-1] if column % 2 else parts + ["0"]
    if quoted:
        for parts in lines:
            parts[1] = f'"{parts[1]}"'
    text = [",".join(parts) for parts in lines]
    if blank is not None:
        text.insert(blank % (len(text) + 1), "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "covariances.csv"
        path.write_text(newline.join(["#cmfda covariances v1 min_cube_samples=10",
                                      ",".join(COVARIANCE_COLUMNS), *text]) + newline, newline="")
        expected, expected_error = _outcome(oracle_load_covariances, path)
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            got, error = _outcome(load_covariances, path)
    assert error == expected_error
    if expected_error:
        return
    assert got.min_cube_samples == expected.min_cube_samples
    assert [(pool, list(table.items())) for pool, table in got.levels()] == [
        (pool, list(table.items())) for pool, table in expected.levels()
    ]


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


@pytest.mark.parametrize("header, row, line, message", [
    ("scheme=1", "0,sd,global,,5,0.2", 1, "header lacks a valid scheme/band"),
    ("scheme=zz band=NIR", "0,sd,global,,5,0.2", 1, "header lacks a valid scheme/band"),
    ("scheme=1 band=NIR", "3,sd,global,,5,0.2", 3, "stage 3 not in scheme"),
    ("scheme=1 band=NIR", "0,sd,bogus,,5,0.2", 3, "unknown key kind 'bogus'"),
], ids=["no-band", "bad-scheme", "stage", "key-kind"])
def test_standardizer_file_faults(tmp_path, header, row, line, message):
    """A standardizer header without a valid scheme and band, a row of a
    stage the scheme lacks and a row of an unknown key kind are each a
    ParseError at their line."""
    path = tmp_path / "std.csv"
    path.write_text(f"#cmfda standardizer v1 {header}\nstage,table,kind,key,seq,value\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_standardizer(path)
    assert str(err.value) == f"line {line}: {path}: {message}"


# --- table framing ------------------------------------------------------------------------

# Each table reader with its kind, the header keys of a valid file and its columns.
TABLE_READERS = {
    "series": (read_series, "series", "", SERIES_COLUMNS),
    "labels": (read_labels, "labels", "", dataio.LABEL_COLUMNS),
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
    "short-row", "column-row", "header", "open-quote",
    *(f"not-utf-8-{part}-{end}" for part in ("header", "columns", "row") for end in ("cr", "crlf")),
])
@pytest.mark.parametrize("table", list(TABLE_READERS))
def test_table_framing_faults(tmp_path, table, fault):
    """Every table reader meets a framing fault the same way: a byte that
    is not UTF-8, a field over csv's size limit, a short row, a wrong
    column-name row or a quoted field still open at the end of the file is a
    ParseError at its line, a wrong header a SchemaVersionMismatch. A byte
    that is not UTF-8 is at its line with LF, CR LF and CR line ends."""
    read, kind, meta, columns = TABLE_READERS[table]
    newline = {"cr": b"\r", "crlf": b"\r\n"}.get(fault.rsplit("-", 1)[-1], b"\n")
    fault = fault.removesuffix("-crlf").removesuffix("-cr")
    lines = [f"#cmfda {kind} v1 {meta}".encode(), ",".join(columns).encode(),
             b"," * (len(columns) - 1)]
    expected = {
        "not-utf-8-header": (1, "not utf-8 text"),
        "not-utf-8-columns": (2, "not utf-8 text"),
        "not-utf-8-row": (3, "not utf-8 text"),
        "field-too-large": (3, "field larger than field limit (131072)"),
        "short-row": (3, "expected %d fields, got 2" % len(columns)),
        "column-row": (2, f"expected columns {list(columns)}, got ['x', 'y']"),
        "open-quote": (3, "unexpected end of data"),
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
    elif fault == "open-quote":
        lines[2] = b'"' + lines[2]
    else:
        lines[0] = b"#cmfda other v1"
    path = tmp_path / "table.csv"
    path.write_bytes(newline.join(lines) + newline)
    if fault == "header":
        with pytest.raises(SchemaVersionMismatch) as err:
            read(path)
        assert str(err.value) == f"{path}: expected '#cmfda {kind} v1' header, got '#cmfda other v1'"
        return
    with pytest.raises(ParseError) as err:
        read(path)
    line, message = expected[fault]
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {path}: {message}")


@pytest.mark.parametrize("table", list(TABLE_READERS))
def test_table_without_a_column_name_row(tmp_path, table):
    """A table that ends after its header line is a ParseError at line 2."""
    read, kind, meta, _ = TABLE_READERS[table]
    path = tmp_path / "table.csv"
    path.write_text(f"#cmfda {kind} v1 {meta}\n")
    with pytest.raises(ParseError) as err:
        read(path)
    assert (err.value.line, str(err.value)) == (2, f"line 2: {path}: missing column header")


# --- the file writer ----------------------------------------------------------------------


def test_write_file_replaces_the_file_whole(tmp_path):
    """write_file writes its parts, in order, in place of the old file."""
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    dataio.write_file(path, [b"ab", memoryview(b"cd"), np.arange(3, dtype=np.uint8)])
    assert path.read_bytes() == b"abcd\x00\x01\x02"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


@pytest.mark.parametrize("fail", ["replace", "writev"])
def test_write_file_failure_leaves_the_old_file(tmp_path, monkeypatch, fail):
    """When the write or the rename fails, the path keeps its old bytes and
    no temporary file is left."""
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def failing(*args):
        raise OSError("injected failure")

    monkeypatch.setattr(os, fail, failing)
    with pytest.raises(OSError, match="injected failure"):
        dataio.write_file(path, [b"new"])
    monkeypatch.undo()
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_write_file_writes_through_a_symlink(tmp_path):
    """A symlink is written in place: the link stays, its target takes the
    bytes."""
    target, link = tmp_path / "target.bin", tmp_path / "link.bin"
    target.write_bytes(b"old")
    link.symlink_to(target)
    dataio.write_file(link, [b"new"])
    assert link.is_symlink() and target.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.bin", "target.bin"]


def test_write_file_into_a_missing_directory_leaves_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        dataio.write_file(tmp_path / "missing" / "out.bin", [b"new"])
    assert list(tmp_path.iterdir()) == []


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


def test_a_cr_only_table_names_the_undecodable_line_as_csv_counts_it(tmp_path):
    """A bare CR ends a line for csv, so it does for the not-UTF-8 fault: a
    labels file with CR line ends and byte 0xff on its fourth line is not
    UTF-8 text at line 4."""
    path = tmp_path / "labels.csv"
    lines = [b"#cmfda labels v1", ",".join(dataio.LABEL_COLUMNS).encode(),
             b"a,0,0,0,0", b"\xffb,1,0,0,0", b"c,2,0,0,0"]
    path.write_bytes(b"\r".join(lines) + b"\r")
    assert dataio.undecodable_line(path) == 4
    with pytest.raises(ParseError) as err:
        read_labels(path)
    assert (err.value.line, str(err.value)) == (4, f"line 4: {path}: not utf-8 text")


def csv_framing_oracle(path, data, names, chunk_rows):
    """The chunks that csv.reader frames a table's bytes into, as
    _table_chunks defines them: per chunk of ``chunk_rows`` rows read, the
    line numbers of its non-blank rows and its columns up to the first row
    of the wrong width, whose ParseError ends the table; a row csv refuses
    is a ParseError at its line before its chunk is given."""
    fh = io.TextIOWrapper(io.BytesIO(data), newline="", encoding="utf-8")
    fh.readline()
    reader = csv.reader(fh, strict=True)
    assert next(reader) == list(names)
    rows, error = [], None
    try:
        for row in reader:
            rows.append((reader.line_num + 1, row))
    except csv.Error as exc:
        rows = rows[:len(rows) // chunk_rows * chunk_rows]
        error = (f"line {reader.line_num + 1}: {path}: {exc}", reader.line_num + 1)
    chunks = []
    for start in range(0, len(rows), chunk_rows):
        kept = [(line, row) for line, row in rows[start:start + chunk_rows] if row]
        bad = next((k for k, (_, row) in enumerate(kept) if len(row) != len(names)), None)
        good = kept if bad is None else kept[:bad]
        chunks.append(([line for line, _ in kept],
                       {name: [row[k] for _, row in good] for k, name in enumerate(names)}))
        if bad is not None:
            line, row = kept[bad]
            return chunks, (f"line {line}: {path}: expected {len(names)} fields, got {len(row)}",
                            line)
    return chunks, error


def _framed(path, data, names):
    chunks = []
    try:
        for numbers, columns in dataio._table_chunks(path, "labels", names, data=data):
            chunks.append((list(numbers), {name: list(column) for name, column in columns.items()}))
    except ParseError as exc:
        return chunks, (str(exc), exc.line)
    return chunks, None


FIELD_TEXT = st.text(alphabet="ab1 \té#", max_size=3)


@settings(max_examples=300, deadline=None)
@example(rows=[["a"], ["b"] * 5, ["c"] * 5], ends=["\n"] * 15, final=True, long_row=None,
         chunk_rows=2)   # a wrong width first in a chunk
@example(rows=[["a"] * 5, [], ["b"] * 6, ["c"] * 5], ends=["\r\n"] * 15, final=False,
         long_row=None, chunk_rows=1024)   # mid-chunk, after a blank line
@example(rows=[["a"] * 5, ["b"] * 4], ends=["\r"] * 15, final=False, long_row=None,
         chunk_rows=2)   # last in a chunk
@given(
    rows=st.lists(st.one_of(
        st.lists(FIELD_TEXT, min_size=5, max_size=5),          # a row
        st.lists(FIELD_TEXT, min_size=1, max_size=7),          # maybe of the wrong width
        st.just([]),                                            # a blank line
    ), max_size=12),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=15, max_size=15),
    final=st.booleans(),
    long_row=st.none() | st.integers(0, 12),
    chunk_rows=st.sampled_from([1, 2, 1024]),
)
def test_bulk_framing_is_csv_framing(rows, ends, final, long_row, chunk_rows):
    """A table without quotes is framed in bulk into the chunks, line
    numbers, columns and ParseErrors of a csv.reader framing: blank lines,
    LF, CR LF and CR line ends, no final line end, rows of the wrong width
    anywhere in a chunk, and a field over csv's size limit (whose table
    csv frames)."""
    names = dataio.LABEL_COLUMNS
    lines = [",".join(row) for row in rows]
    if long_row is not None:
        lines.insert(long_row % (len(lines) + 1), "x" * (csv.field_size_limit() + 1) + ",0,0,0,0")
    text = ["#cmfda labels v1", ",".join(names), *lines]
    data = "".join(line + end for line, end in zip(text, ends)).encode()
    if not final and lines:
        data = data.rstrip(b"\r\n") if lines[-1] else data
    path = Path("table.csv")
    assert b'"' not in data
    assert (dataio._line_blocks(data) is None) == (long_row is not None)
    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        assert _framed(path, data, names) == csv_framing_oracle(path, data, names, chunk_rows)


# --- label aggregation ------------------------------------------------------


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


def test_site_pixels_are_a_row_major_sequence_built_on_first_access():
    site, _ = generate_site(small_config())
    pixels = site.pixels
    assert len(pixels) == SITE_SIDE * SITE_SIDE
    for idx in (0, 1, SITE_SIDE, 7 * SITE_SIDE + 13, len(pixels) - 1):
        row, col = divmod(idx, SITE_SIDE)
        assert (pixels[idx].pixel_id, pixels[idx].col, pixels[idx].row) == (
            f"t-{col:02d}-{row:02d}", col, row
        )
    assert pixels[-1] is pixels[len(pixels) - 1]
    assert pixels[-len(pixels)] is pixels[0]
    assert pixels[3] is pixels[3] is pixels[np.int64(3)]
    assert type(pixels[np.int64(4)].col) is int
    for bad in (len(pixels), -len(pixels) - 1):
        with pytest.raises(IndexError):
            pixels[bad]
    for part in (slice(None, None, 12), slice(-5, None), slice(40, 10, -7), slice(700, 800)):
        assert all(
            a is b for a, b in zip(pixels[part], [pixels[i] for i in range(*part.indices(625))])
        )
        assert len(pixels[part]) == len(range(*part.indices(625)))
    assert all(a is b for a, b in zip(pixels, [pixels[i] for i in range(len(pixels))]))
    assert sum(1 for _ in pixels) == len(pixels)


def test_site_pixel_subset_writes_the_rows_of_the_whole_site(tmp_path):
    cfg = small_config(seed=11)
    whole, _ = generate_site(cfg)
    write_series(tmp_path / "whole.csv", {whole.site_id: whole.pixels})
    fresh, _ = generate_site(cfg)
    keep = [600, 3, 317, 318]
    write_series(tmp_path / "subset.csv", {fresh.site_id: [fresh.pixels[i] for i in keep]})
    names = [fresh.pixels[i].pixel_id for i in keep]
    whole_lines = (tmp_path / "whole.csv").read_text().splitlines()
    header, rows = whole_lines[:2], whole_lines[2:]
    by_pixel = {name: [r for r in rows if r.split(",")[1] == name] for name in names}
    assert all(by_pixel.values())
    assert (tmp_path / "subset.csv").read_text().splitlines() == header + [
        r for name in names for r in by_pixel[name]
    ]


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
    nan_noise = {
        band: BandSignal(signal.coeffs, float("nan"))
        for band, signal in small_config().signals.items()
    }
    with pytest.raises(InvalidConfig):
        generate_site(small_config(signals=nan_noise))
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
