"""File formats and label aggregation; synthetic scenes (see ``synth``)
are imported from here too.

All text formats are comma-separated UTF-8 tables with a one-line
versioned header (``#cmfda <kind> v1 ...``) followed by a column-name row.
Reals are written with 9 significant digits, so values round-trip through
that precision; counts and dates round-trip exactly. The binary formats
are the mirrors of parsed tables (see "binary mirrors" below).

Every table is written by :func:`_write_table` or, where its bytes are
needed first, with its header writer (:func:`append_series_rows`,
:func:`replace_detections`), and read through :func:`_table_chunks`,
which alone opens a table file and checks its framing: header, column
names, field counts, UTF-8 text and what ``csv`` refuses. The row readers
take its rows through :func:`_rows`; the series, model and covariance
readers take its chunks column by column.
A fault in a table is a ``ParseError`` naming the file and, where it has
one, the line; a wrong header is a ``SchemaVersionMismatch``.
"""
from __future__ import annotations

import calendar
import contextlib
import csv
import datetime as dt
import hashlib
import io
import itertools
import json
import os
import re
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BAND_ORDER,
    CADENCE_DAYS,
    MAX_COMPOSITE_LAG,
    YEAR_DAYS,
    Band,
    CompactPixel,
    DeforestationLabel,
    EMPTY_ARRAYS,
    FlatSeries,
    Observation,
    PixelSeries,
    Reliability,
    SITE_SIDE,
    SeriesArrays,
    band_fill,
    band_range,
    cadence_error,
    day_of_year,
    distinct,
)
from .detection import CovarianceEntry, CubeCovarianceTable, DetectionResult
from .errors import (
    OutOfRange,
    ParseError,
    SchemaVersionMismatch,
    ShapeMismatch,
)
from .harmonic import N_COEFFS, HarmonicModel
from .standardize import (
    ECDF,
    FALLBACK_LEVELS,
    KeyKind,
    SD,
    SCHEME_STAGES,
    Scheme,
    StageTables,
    Standardizer,
)
from .training import ReportRow, TrainReport
from .synth import (  # noqa: F401  (scene generation is imported from here too)
    BandSignal,
    EventSpec,
    SynthConfig,
    generate_site,
    pixel_name,
    seasonal_cloud_prob,
    sonora_like_config,
    yucatan_like_config,
)
from .windows import DateInterval

MAGIC = "#cmfda"
VERSION = "v1"
ENCODING = "utf-8"

# NALCMS level-II class codes; 1-6 are the forest classes.
N_LANDUSE_CLASSES = 19
FOREST_CLASSES = frozenset(range(1, 7))

FINE_SIDE = 100          # 250 m cells per site side
FINE_PER_COARSE = 4      # 250 m cells per 1 km cell side


def real(x: float) -> str:
    return format(float(x), ".9g")


# --- versioned header helpers ----------------------------------------------


@contextlib.contextmanager
def replacing(path):
    """Give a temporary path beside ``path``; the file written there
    replaces ``path`` when the block ends without error, and is removed
    otherwise. A reader sees the old file or the new one, never part of
    one."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_header(fh, kind: str, columns: Sequence[str],
                  meta: Optional[Mapping[str, str]] = None) -> None:
    """Write a table's versioned header line and its column-name row."""
    parts = [MAGIC, kind, VERSION, *(f"{key}={value}" for key, value in (meta or {}).items())]
    fh.write(" ".join(parts) + "\n")
    csv.writer(fh).writerow(columns)


def _write_table(path, kind: str, columns: Sequence[str], rows,
                 meta: Optional[Mapping[str, str]] = None) -> None:
    """Write a table file: its header (see :func:`_write_header`), then
    ``rows``, an iterable of field lists."""
    with open(path, "w", newline="", encoding=ENCODING) as fh:
        _write_header(fh, kind, columns, meta)
        csv.writer(fh).writerows(rows)


def _read_header(fh, kind: str, path) -> dict[str, str]:
    line = fh.readline().rstrip("\n")
    parts = line.split()
    if len(parts) < 3 or parts[0] != MAGIC or parts[1] != kind or parts[2] != VERSION:
        raise SchemaVersionMismatch(
            f"{path}: expected '{MAGIC} {kind} {VERSION}' header, got {line!r}"
        )
    meta = {}
    for part in parts[3:]:
        key, _, value = part.partition("=")
        meta[key] = value
    return meta


def _parse_float(text: str, column: str, line: int, path) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}: bad real in column {column!r}: {text!r}", line=line) from None


def _parse_int(text: str, column: str, line: int, path) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{path}: bad integer in column {column!r}: {text!r}", line=line) from None


def _parse_date(text: str, column: str, line: int, path) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ParseError(f"{path}: bad ISO date in column {column!r}: {text!r}", line=line) from None


# --- series files ------------------------------------------------------------

SERIES_COLUMNS = (
    "site_id", "pixel_id", "col", "row", "nominal_date", "composite_doy",
    "reliability", "red", "nir", "blue", "mir", "ndvi", "evi",
)
BAND_COLUMNS = SERIES_COLUMNS[7:]   # in BAND_ORDER

_FILL_VALUES = tuple(band_fill(band) for band in BAND_ORDER)
_FILLS = np.array(_FILL_VALUES)
_RANGES = np.array([band_range(band) for band in BAND_ORDER]).T   # (2, 6): lo, hi
_RELIABILITY_CODES = frozenset(int(r) for r in Reliability)
_CLEAR = (int(Reliability.GOOD), int(Reliability.MARGINAL))


def _series_row(site_id, pixel_id, col, row, nominal: dt.date, composite_doy, reliability,
                values) -> list:
    """One series file row; ``values`` in BAND_ORDER, fill-coded, not NaN."""
    return [site_id, pixel_id, col, row, nominal.isoformat(), composite_doy, int(reliability),
            *map(real, values)]


def write_series(path, sites: Mapping[str, Sequence[PixelSeries]]) -> None:
    _write_table(path, "series", SERIES_COLUMNS, (
        _series_row(
            site_id, series.pixel_id, series.col, series.row,
            obs.nominal_date, obs.composite_doy, obs.reliability,
            map(obs.values.get, BAND_ORDER, _FILL_VALUES),
        )
        for site_id, pixels in sites.items()
        for series in pixels
        for obs in series.observations
    ))


def write_series_arrays(path, sites: Mapping[str, Sequence[CompactPixel]]) -> None:
    append_series_rows(path, _as_written(FlatSeries.from_sites(sites))[1])


def _as_written(flat: FlatSeries) -> tuple[FlatSeries, list[bytes]]:
    """The pixels as a series file written from them holds them, each value
    formatted once to 9 significant digits: the pixels with the values that
    text reads back as (NaN for a fill value), and the file's data rows as
    UTF-8 text in chunks of ``_CHUNK_ROWS`` rows."""
    c = flat.columns
    filled = np.where(np.isnan(c.values), _FILLS, c.values)
    values = np.empty_like(filled)
    pixel = np.repeat(np.arange(len(flat.keys)), np.diff(flat.bounds)).tolist()
    iso = {o: dt.date.fromordinal(o).isoformat() for o in set(c.ordinals.tolist())}
    width = len(BAND_ORDER)
    chunks = []
    for start in range(0, len(filled), _CHUNK_ROWS):
        s = slice(start, start + _CHUNK_ROWS)
        texts = [format(v, ".9g") for v in filled[s].ravel().tolist()]
        values[s] = np.fromiter(map(float, texts), float, count=len(texts)).reshape(-1, width)
        text = io.StringIO()
        csv.writer(text).writerows(
            [*flat.keys[p], iso[o], doy, code, *texts[width * i:width * (i + 1)]]
            for i, (p, o, doy, code) in enumerate(zip(
                pixel[s], c.ordinals[s].tolist(), c.doys[s].tolist(), c.reliability[s].tolist()
            ))
        )
        chunks.append(text.getvalue().encode(ENCODING))
    values[values == _FILLS] = np.nan
    return flat._replace(columns=c._replace(values=values)), chunks


# Rows per chunk of a parsed table: bounds the memory that the rows' field
# strings take at once.
_CHUNK_ROWS = 1024
# Bytes per read of a file that is hashed.
_HASH_BLOCK = 1 << 16


class _HashingReader(io.RawIOBase):
    """An unbuffered binary file that feeds every byte read from it to
    ``digest``."""

    def __init__(self, file, digest):
        self._file = file
        self._digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        if n:
            self._digest.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _open_text(path, digest=None):
    """``path`` opened as UTF-8 text for ``csv``; with ``digest``, a
    hashlib object, every byte read from the file is fed to it as well."""
    if digest is None:
        return open(path, newline="", encoding=ENCODING)
    raw = _HashingReader(open(path, "rb", buffering=0), digest)
    return io.TextIOWrapper(
        io.BufferedReader(raw, buffer_size=_HASH_BLOCK), newline="", encoding=ENCODING
    )


def undecodable_line(path) -> Optional[int]:
    """The number of the first line of ``path`` that is not UTF-8 text."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                line.decode(ENCODING)
            except UnicodeDecodeError:
                return number
    return None


def _table_chunks(path, kind: str, names: Sequence[str], on_header: Optional[Callable] = None,
                  digest=None):
    """Yield a table file's data rows, split by ``csv.reader``, in chunks.

    Each chunk is (line numbers of its non-blank rows, its columns over the
    rows before the first with the wrong field count), a row numbered by
    the line it ends on. A chunk with such a row is the last: resumed after
    it, the generator raises the row's ``ParseError``, so the caller has
    checked the rows before it first.
    Text that is not UTF-8 and a row ``csv`` refuses (a field over its size
    limit) are a ``ParseError`` at their line as soon as they are read.
    ``on_header``, when given, gets the header's key=value pairs before the
    column names are checked. ``digest``, a hashlib object, is fed the bytes read.
    """
    with _open_text(path, digest) as fh:
        try:
            header = _read_header(fh, kind, path)
            if on_header is not None:
                on_header(header)
            rows = csv.reader(fh)
            found = next(rows, None)
            if found is None:
                raise ParseError(f"{path}: missing column header", line=2)
            if found != list(names):
                raise ParseError(f"{path}: expected columns {list(names)}, got {found}", line=2)
            width = len(names)
            read = rows.line_num + 1   # lines read: the header, then csv's
            while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
                numbers: Sequence[int] = range(read + 1, read + 1 + len(chunk))
                if rows.line_num + 1 - read != len(chunk):   # a quoted field holds a line break
                    numbers = [read + n for n in itertools.accumulate(
                        1 + len(re.findall("\r\n|\r|\n", ",".join(row))) for row in chunk
                    )]
                read = rows.line_num + 1
                if not all(chunk):  # blank lines are skipped
                    numbers = [line for line, row in zip(numbers, chunk) if row]
                    chunk = [row for row in chunk if row]
                widths = list(map(len, chunk))
                n = len(chunk)
                if set(widths) - {width}:
                    n = next(k for k, w in enumerate(widths) if w != width)
                columns = list(zip(*chunk[:n])) if n else [()] * width
                yield numbers, dict(zip(names, columns))
                if n < len(chunk):
                    raise ParseError(
                        f"{path}: expected {width} fields, got {widths[n]}", line=numbers[n]
                    )
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not {ENCODING} text", line=undecodable_line(path)) from None
        except csv.Error as exc:
            # the header line is read before the csv reader counts lines
            raise ParseError(f"{path}: {exc}", line=rows.line_num + 1) from None


def _rows(path, kind: str, columns: Sequence[str], on_header: Optional[Callable] = None):
    """Yield (line number, row dict) for each data row of a table file, as
    :func:`_table_chunks` reads and checks it."""
    for lines, chunk in _table_chunks(path, kind, columns, on_header):
        for line, *fields in zip(lines, *chunk.values()):
            yield line, dict(zip(columns, fields))


def _attempt(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


def _parse_distinct(texts, parse, cache: dict) -> tuple[list, np.ndarray]:
    """``parse`` of each distinct string (None where it fails), parsed once
    per ``cache``, and each row's index into the results."""
    texts, codes = distinct(texts)
    for text in texts:
        if text not in cache:
            cache[text] = _attempt(parse, text)
    return [cache[text] for text in texts], codes


def _raise_first_failure(checks, n: int) -> None:
    """``checks`` are (mask of failing rows, explain) in the order a row is
    checked; call the explain of the first failing check of the first
    failing row, which raises."""
    bad = np.zeros(n, dtype=bool)
    for mask, _ in checks:
        bad |= mask
    if bad.any():
        k = int(np.argmax(bad))
        for mask, explain in checks:
            if mask[k]:
                explain(k)


def _gather(values, codes: np.ndarray, dtype) -> np.ndarray:
    return np.array(values, dtype=dtype)[codes]


def _parse_reals(texts) -> tuple[np.ndarray, np.ndarray]:
    """A column of reals (NaN where unparsable) and its mask of bad rows."""
    try:
        return np.fromiter(map(float, texts), float, count=len(texts)), np.zeros(len(texts), bool)
    except ValueError:
        parsed = [_attempt(float, t) for t in texts]
        bad = np.array([v is None for v in parsed], dtype=bool)
        return np.array([np.nan if v is None else v for v in parsed]), bad


class _SeriesChunk(NamedTuple):
    pixels: np.ndarray      # index into the file's pixels
    ordinals: np.ndarray
    lags: np.ndarray
    doys: np.ndarray
    reliability: np.ndarray
    values: np.ndarray


def _series_chunk(path, lines, columns, caches, pixels: dict, cols: list, rows: list):
    """Check and convert one chunk of series rows; new pixels are added to
    ``pixels`` (key -> index), ``cols`` and ``rows``.

    Every check runs over whole columns. When a row fails, the first
    failing row is reported with its first failing check, in this order:
    reliability, the six reals, nominal date, composite day, the
    observation's own range checks, col, row.
    """
    codes_parsed, codes_idx = _parse_distinct(columns["reliability"], int, caches["reliability"])
    rel_unknown = [c is not None and c not in _RELIABILITY_CODES for c in codes_parsed]
    reliability = [c if c in _RELIABILITY_CODES else 0 for c in codes_parsed]
    reals = [_parse_reals(columns[column]) for column in BAND_COLUMNS]
    n = len(columns["site_id"])
    values = np.column_stack([v for v, _ in reals]) if n else np.empty((0, len(BAND_ORDER)))

    dates, date_idx = _parse_distinct(
        columns["nominal_date"], dt.date.fromisoformat, caches["nominal_date"]
    )
    ordinals = _gather([d.toordinal() if d else 0 for d in dates], date_idx, np.int64)
    nominal_doys = _gather([day_of_year(d) if d else 0 for d in dates], date_idx, np.int64)
    year_days = _gather(
        [366 if d and calendar.isleap(d.year) else 365 for d in dates], date_idx, np.int64
    )
    doys_parsed, doy_idx = _parse_distinct(columns["composite_doy"], int, caches["composite_doy"])
    doys = _gather(
        [d if d is not None and 1 <= d <= YEAR_DAYS else 0 for d in doys_parsed],
        doy_idx, np.int64,
    )
    lags = doys - nominal_doys
    lags = np.where((lags >= 0) & (lags <= MAX_COMPOSITE_LAG), lags, lags + year_days)
    cols_parsed, col_idx = _parse_distinct(columns["col"], int, caches["col"])
    rows_parsed, row_idx = _parse_distinct(columns["row"], int, caches["row"])

    def text_error(parse, column):
        return lambda k: parse(columns[column][k], column, lines[k], path)

    def unknown_code(k):
        code = codes_parsed[codes_idx[k]]
        raise ParseError(f"{path}: unknown reliability code {code}", line=lines[k])

    def observation_error(k):
        try:
            Observation(
                nominal_date=dates[date_idx[k]],
                composite_doy=doys_parsed[doy_idx[k]],
                values=dict(zip(BAND_ORDER, values[k].tolist())),
                reliability=Reliability(codes_parsed[codes_idx[k]]),
            )
        except OutOfRange as exc:
            raise ParseError(f"{path}: {exc}", line=lines[k]) from None

    def failed(parsed, idx):
        return _gather([p is None for p in parsed], idx, bool)

    checks = [
        (failed(codes_parsed, codes_idx), text_error(_parse_int, "reliability")),
        (_gather(rel_unknown, codes_idx, bool), unknown_code),
        *((bad, text_error(_parse_float, column)) for (_, bad), column in zip(reals, BAND_COLUMNS)),
        (failed(dates, date_idx), text_error(_parse_date, "nominal_date")),
        (failed(doys_parsed, doy_idx), text_error(_parse_int, "composite_doy")),
        (
            (doys == 0)
            | (lags < 0) | (lags > MAX_COMPOSITE_LAG)
            | ~((values >= _RANGES[0]) & (values <= _RANGES[1])).all(axis=1),
            observation_error,
        ),
        (failed(cols_parsed, col_idx), text_error(_parse_int, "col")),
        (failed(rows_parsed, row_idx), text_error(_parse_int, "row")),
    ]
    _raise_first_failure(checks, n)

    keys, key_idx = distinct(list(zip(columns["site_id"], columns["pixel_id"])))
    _, first = np.unique(key_idx, return_index=True)
    for key, k in zip(keys, first.tolist()):
        if key not in pixels:
            pixels[key] = len(pixels)
            cols.append(cols_parsed[col_idx[k]])
            rows.append(rows_parsed[row_idx[k]])
    return _SeriesChunk(
        pixels=_gather([pixels[key] for key in keys], key_idx, np.intp),
        ordinals=ordinals,
        lags=lags,
        doys=doys,
        reliability=_gather(reliability, codes_idx, np.int8),
        values=values,
    )


def _parse_series(path, digest=None) -> FlatSeries:
    """Parse a series file column by column. A fault is reported as the
    row-by-row reading of the file would meet it: the first bad row (see
    :func:`_series_chunk`; a wrong field count is checked first), and a
    break of the 16-day cadence only after every row has passed.
    ``digest``, a hashlib object, is fed the bytes parsed."""
    caches: dict[str, dict] = {
        column: {} for column in ("reliability", "nominal_date", "composite_doy", "col", "row")
    }
    pixels: dict = {}
    cols: list = []
    rows: list = []
    chunks = []
    for lines, columns in _table_chunks(path, "series", SERIES_COLUMNS, digest=digest):
        chunks.append(_series_chunk(path, lines, columns, caches, pixels, cols, rows))
    if chunks:
        table = _SeriesChunk(*(np.concatenate(parts) for parts in zip(*chunks)))
    else:
        table = _SeriesChunk(*(np.empty(0, np.int64),) * 5, np.empty((0, len(BAND_ORDER))))
    keys = list(pixels)
    check_pixel_sites(path, keys)
    reliability = table.reliability.astype(np.int8)
    flat = FlatSeries.of_rows(
        [(*key, col, row) for key, col, row in zip(keys, cols, rows)], table.pixels,
        SeriesArrays(table.ordinals, table.ordinals + table.lags, table.doys.astype(np.int32),
                     reliability, np.isin(reliability, _CLEAR),
                     np.where(table.values == _FILLS, np.nan, table.values)),
    )
    same = np.repeat(np.arange(len(keys)), np.diff(flat.bounds))
    gap_bad = (np.diff(same) == 0) & (np.diff(flat.columns.ordinals) != CADENCE_DAYS)
    if gap_bad.any():
        bad = np.flatnonzero(gap_bad)
        # the first break of the pixel that comes first in the file
        j = int(bad[np.argmin([pixels[flat.keys[p][:2]] for p in same[bad].tolist()])])
        pixel_id = flat.keys[same[j]][1]
        prev, cur = (dt.date.fromordinal(int(o)) for o in flat.columns.ordinals[j:j + 2])
        raise ParseError(f"{path}: pixel {pixel_id!r}: {cadence_error(pixel_id, prev, cur)}")
    return flat


def check_pixel_sites(path, keys) -> None:
    """Refuse a pixel id that ``keys``, (site_id, pixel_id) pairs read from
    ``path``, hold under two sites: model, label and detection files key a
    pixel by its id alone."""
    sites: dict[str, str] = {}
    for site_id, pixel_id in keys:
        first = sites.setdefault(pixel_id, site_id)
        if first != site_id:
            raise ParseError(f"{path}: pixel {pixel_id!r} is under sites {first!r} and {site_id!r}")


def read_series_arrays(path) -> dict[str, list[CompactPixel]]:
    """Per site, each pixel's series as arrays (fill values read as NaN),
    pixels in order of first appearance, each sorted by date."""
    return _parse_series(path).sites()


def read_series_hashed(path) -> tuple[dict[str, list[CompactPixel]], str]:
    """:func:`read_series_arrays` of ``path`` and the SHA-256 of the very
    bytes it parsed, taken as the parser reads them: the file may change
    while it is read, and the digest then still names what was parsed."""
    digest = hashlib.sha256()
    flat = _parse_series(path, digest)
    return flat.sites(), digest.hexdigest()


def read_series_as_written(path) -> tuple[FlatSeries, list[bytes]]:
    """A series file's pixels as a series file written from them holds
    them (see :func:`series_as_written`), and that file's data rows (see
    :func:`append_series_rows`); each value is formatted once."""
    return _as_written(_parse_series(path))


def read_series(path) -> dict[str, list[PixelSeries]]:
    """Per site, each pixel's series as observations; same parse and order
    as :func:`read_series_arrays`."""
    flat = _parse_series(path)
    c = flat.columns
    observations = [
        Observation(dt.date.fromordinal(ordinal), doy, dict(zip(BAND_ORDER, values)),
                    Reliability(code))
        for ordinal, doy, code, values in zip(
            c.ordinals.tolist(), c.doys.tolist(), c.reliability.tolist(),
            np.where(np.isnan(c.values), _FILLS, c.values).tolist(),
        )
    ]
    stops = flat.bounds.tolist()
    out: dict[str, list[PixelSeries]] = {}
    for p, (site_id, pixel_id, col, row) in enumerate(flat.keys):
        out.setdefault(site_id, []).append(
            PixelSeries(pixel_id, col, row, tuple(observations[stops[p]:stops[p + 1]]))
        )
    return out


def series_as_written(sites: Mapping[str, Sequence[CompactPixel]]) -> dict[str, list[CompactPixel]]:
    """The pixels as :func:`read_series_arrays` gives them back from a
    series file written from them: each value passes through the file's
    9-significant-digit text, and one that lands on its band's fill value
    reads as missing."""
    return _as_written(FlatSeries.from_sites(sites))[0].sites()


def _file_digest(path):
    """The SHA-256 object fed the bytes of ``path``, read in blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest


def _sha256(path) -> str:
    return _file_digest(path).hexdigest()


def append_series_rows(path, rows: Sequence[bytes], digest=None):
    """Replace the series file ``path`` with one that ends in the data rows
    ``rows`` (see :func:`read_series_as_written`), and return the SHA-256
    object fed the new file's bytes as they are written.

    Without ``digest`` the rows follow a fresh header. With it, the SHA-256
    object fed the current bytes of ``path`` (see :func:`read_flat_mirrored`),
    those bytes are copied first, unchanged and unread by a decoder, and the
    digest is fed the bytes that follow them."""
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        if digest is None:
            digest, header = hashlib.sha256(), io.StringIO()
            _write_header(header, "series", SERIES_COLUMNS)
            rows = [header.getvalue().encode(ENCODING), *rows]
        else:
            with open(path, "rb") as old:
                last = b"\n"
                while block := old.read(_HASH_BLOCK):
                    fh.write(block)
                    last = block[-1:]
            if last not in (b"\n", b"\r"):
                rows = [b"\n", *rows]
        for chunk in rows:
            fh.write(chunk)
            digest.update(chunk)
    return digest


# --- binary mirrors ---------------------------------------------------------------
#
# A binary copy of what a reader makes of a table file lets the next reader
# skip the parse: fit's series.npy of its --series; an online state's
# history.npy of history.csv and covariances.npy of the covariances.csv rows
# a lookup can serve. A mirror is one JSON line (format tag, SHA-256 of the
# table bytes it mirrors, each array's dtype and shape), then the arrays'
# bytes, each start 8-byte aligned: one write, one read. It is derived, used
# only while its hash matches the table's current bytes; another format,
# such as the .npy sequences these once were, is refused and parsed around.

_SERIES_MIRROR = "cmfda series-mirror v2"
_COVARIANCE_MIRROR = "cmfda covariance-mirror v2"
_ALIGN = 8


def _write_mirror(path, header: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write a mirror of ``header`` and ``arrays``; it replaces ``path``
    when whole."""
    head = json.dumps({**header, "arrays": [[a.dtype.str, a.shape] for a in arrays]}).encode()
    parts = [head + b" " * (-(len(head) + 1) % _ALIGN) + b"\n"]
    for a in arrays:
        parts += [np.ascontiguousarray(a).reshape(-1).view(np.uint8), bytes(-a.nbytes % _ALIGN)]
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        if os.writev(fh.fileno(), parts) != sum(map(len, parts)):
            raise OSError(f"{tmp}: short write")


def _read_mirror(path, kind: str, digest: str, dtypes) -> Optional[tuple[dict, list[np.ndarray]]]:
    """The header and arrays of the mirror at ``path`` when it is whole, of
    format ``kind``, mirrors the bytes whose SHA-256 is ``digest`` and holds
    arrays of ``dtypes``; None otherwise."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(data) != len(data):
                return None
        end = data.index(b"\n") + 1
        header = json.loads(data[:end])
        if (not isinstance(header, dict) or header.get("format") != kind
                or header.get("sha256") != digest
                or [spec[0] for spec in header["arrays"]] != [np.dtype(d).str for d in dtypes]):
            return None
        arrays = []
        for dtype, shape in header["arrays"]:
            if not all(isinstance(n, int) and n >= 0 for n in shape):
                return None
            count = int(np.prod(shape, dtype=np.int64))
            arrays.append(np.frombuffer(data, dtype, count, end).reshape(shape))
            end += -(-arrays[-1].nbytes // _ALIGN) * _ALIGN
    except (OSError, ValueError, TypeError, KeyError, IndexError):  # missing, truncated or foreign
        return None
    return (header, arrays) if end == len(data) else None


def write_series_mirror(path, series_path, sites, digest: Optional[str] = None) -> None:
    """Write the mirror of the series file ``series_path``; ``sites``, a
    ``FlatSeries`` or per-site pixels, must be what a read of it gives, in
    the same order. ``digest`` is the SHA-256 of the bytes ``sites`` were
    parsed from (see :func:`read_series_hashed`); without it the file's
    current bytes are hashed, which is right only for a file no other
    process writes. The mirror replaces ``path`` when whole."""
    flat = sites if isinstance(sites, FlatSeries) else FlatSeries.from_sites(sites)
    header = {
        "format": _SERIES_MIRROR,
        "sha256": _sha256(series_path) if digest is None else digest,
        "pixels": flat.keys,
    }
    _write_mirror(path, header, [flat.bounds, *flat.columns])


def _load_mirror(path, digest: str) -> Optional[FlatSeries]:
    """The mirrored series when the mirror at ``path`` is whole and mirrors
    the series whose SHA-256 is ``digest``; None otherwise."""
    read = _read_mirror(path, _SERIES_MIRROR, digest,
                        [np.int64, *(a.dtype for a in EMPTY_ARRAYS)])
    if read is None:
        return None
    header, (bounds, *columns) = read
    keys = [tuple(key) for key in header["pixels"]]
    if bounds.shape != (len(keys) + 1,) or any(
        array.shape != (bounds[-1], *empty.shape[1:]) for array, empty in zip(columns, EMPTY_ARRAYS)
    ):
        return None
    return FlatSeries(keys, bounds, SeriesArrays(*columns))


def read_flat_mirrored(path, mirror_path) -> tuple[FlatSeries, object]:
    """The series file ``path`` as read, taken from the mirror at
    ``mirror_path`` while that mirrors the file's current bytes, and parsed
    when the mirror is missing, stale, truncated or unreadable; and the
    SHA-256 object fed those bytes, which are hashed once, a block at a
    time."""
    digest = _file_digest(path)
    flat = _load_mirror(mirror_path, digest.hexdigest())
    if flat is None:
        return _parse_series(path), digest
    check_pixel_sites(path, (key[:2] for key in flat.keys))
    return flat, digest


def read_series_mirrored(path, mirror_path) -> dict[str, list[CompactPixel]]:
    """``read_series_arrays(path)``, taken from its mirror while it can be
    (see :func:`read_flat_mirrored`)."""
    return read_flat_mirrored(path, mirror_path)[0].sites()


# --- label files --------------------------------------------------------------

LABEL_COLUMNS = ("pixel_id", "col", "row", "defo_count", "z")


def write_labels(path, labels: Sequence[DeforestationLabel]) -> None:
    _write_table(path, "labels", LABEL_COLUMNS, (
        [label.pixel_id, label.col, label.row, label.defo_count, label.z] for label in labels
    ))


def read_labels(path) -> list[DeforestationLabel]:
    out = []
    for line, row in _rows(path, "labels", LABEL_COLUMNS):
        try:
            out.append(
                DeforestationLabel(
                    pixel_id=row["pixel_id"],
                    col=_parse_int(row["col"], "col", line, path),
                    row=_parse_int(row["row"], "row", line, path),
                    defo_count=_parse_int(row["defo_count"], "defo_count", line, path),
                    z=_parse_int(row["z"], "z", line, path),
                )
            )
        except OutOfRange as exc:
            raise ParseError(f"{path}: {exc}", line=line) from None
    return out


# --- fine land-use files -------------------------------------------------------

LANDUSE_COLUMNS = ("col", "row", "landuse_class")


def write_landuse(path, grid: np.ndarray) -> None:
    grid = np.asarray(grid)
    _write_table(path, "landuse", LANDUSE_COLUMNS, (
        [c, r, int(grid[r, c])] for r in range(grid.shape[0]) for c in range(grid.shape[1])
    ))


def read_landuse(path) -> np.ndarray:
    grid = np.zeros((FINE_SIDE, FINE_SIDE), dtype=np.int16)
    seen = np.zeros((FINE_SIDE, FINE_SIDE), dtype=bool)
    for line, row in _rows(path, "landuse", LANDUSE_COLUMNS):
        c = _parse_int(row["col"], "col", line, path)
        r = _parse_int(row["row"], "row", line, path)
        cls = _parse_int(row["landuse_class"], "landuse_class", line, path)
        if not (0 <= c < FINE_SIDE and 0 <= r < FINE_SIDE):
            raise ParseError(f"{path}: cell ({c}, {r}) outside the 100x100 grid", line=line)
        if not 1 <= cls <= N_LANDUSE_CLASSES:
            raise ParseError(f"{path}: land-use class {cls} outside 1..19", line=line)
        grid[r, c] = cls
        seen[r, c] = True
    if not seen.all():
        raise ParseError(f"{path}: {int((~seen).sum())} cells missing from the 100x100 grid")
    return grid


def aggregate_labels(
    fine_t0: np.ndarray, fine_t1: np.ndarray, site_id: str = "site"
) -> list[DeforestationLabel]:
    """Count forest -> non-forest 250 m flips inside each 1 km cell; the
    binary label is 1 when at least one subpixel flipped."""
    fine_t0 = np.asarray(fine_t0)
    fine_t1 = np.asarray(fine_t1)
    expected = (FINE_SIDE, FINE_SIDE)
    if fine_t0.shape != expected or fine_t1.shape != expected:
        raise ShapeMismatch(
            f"expected two {expected} grids, got {fine_t0.shape} and {fine_t1.shape}"
        )
    forest0 = np.isin(fine_t0, list(FOREST_CLASSES))
    forest1 = np.isin(fine_t1, list(FOREST_CLASSES))
    flips = forest0 & ~forest1
    counts = flips.reshape(SITE_SIDE, FINE_PER_COARSE, SITE_SIDE, FINE_PER_COARSE).sum(
        axis=(1, 3)
    )
    labels = []
    for r in range(SITE_SIDE):
        for c in range(SITE_SIDE):
            n = int(counts[r, c])
            labels.append(
                DeforestationLabel(
                    pixel_id=pixel_name(site_id, c, r),
                    col=c,
                    row=r,
                    defo_count=n,
                    z=1 if n >= 1 else 0,
                )
            )
    return labels


# --- model files ---------------------------------------------------------------

MODEL_COLUMNS = ("pixel_id", "band", "a0", "a1", "a2", "a3", "a4", "n_obs")


def save_models(
    path,
    models: Mapping[tuple[str, Band], HarmonicModel],
    train_window: DateInterval,
) -> None:
    _write_table(
        path, "models", MODEL_COLUMNS,
        ([pixel_id, int(band), *map(real, model.coeffs), model.n_obs]
         for (pixel_id, band), model in models.items()),
        {"train_start": train_window.start.isoformat(), "train_end": train_window.end.isoformat()},
    )


_BANDS = {int(band): band for band in Band}


def load_models(path) -> tuple[DateInterval, dict[tuple[str, Band], HarmonicModel]]:
    """Parse a model file column by column. A fault is reported as a
    row-by-row reading would meet it: the first bad row, and its first
    failing check (band, a0..a4, then n_obs)."""
    windows = []

    def read_window(meta):
        try:
            windows.append(DateInterval(
                dt.date.fromisoformat(meta["train_start"]),
                dt.date.fromisoformat(meta["train_end"]),
            ))
        except (KeyError, ValueError):
            raise ParseError(f"{path}: header lacks a valid training window", line=1) from None

    models = {}
    caches: dict[str, dict] = {"band": {}, "n_obs": {}}
    for lines, columns in _table_chunks(path, "models", MODEL_COLUMNS, read_window):
        n = len(columns["pixel_id"])
        codes, code_rows = _parse_distinct(columns["band"], int, caches["band"])
        bands = [None if code is None else _BANDS.get(code) for code in codes]
        reals = [_parse_reals(columns[f"a{k}"]) for k in range(N_COEFFS)]
        counts, count_rows = _parse_distinct(columns["n_obs"], int, caches["n_obs"])

        def text_error(parse, column):
            return lambda k: parse(columns[column][k], column, lines[k], path)

        def unknown_band(k):
            raise ParseError(f"{path}: unknown band code {codes[code_rows[k]]}", line=lines[k])

        _raise_first_failure([
            (_gather([code is None for code in codes], code_rows, bool), text_error(_parse_int, "band")),
            (_gather([band is None for band in bands], code_rows, bool), unknown_band),
            *((bad, text_error(_parse_float, f"a{k}")) for k, (_, bad) in enumerate(reals)),
            (_gather([c is None for c in counts], count_rows, bool), text_error(_parse_int, "n_obs")),
        ], n)
        train = (windows[0].start, windows[0].end)
        for pixel_id, band, coeffs, n_obs in zip(
            columns["pixel_id"],
            np.array(bands, dtype=object)[code_rows].tolist(),
            map(tuple, np.column_stack([v for v, _ in reals]).tolist()),
            np.array(counts, dtype=object)[count_rows].tolist(),
        ):
            models[(pixel_id, band)] = HarmonicModel(band, pixel_id, coeffs, train, n_obs)
    return windows[0], models


# --- standardizer files ----------------------------------------------------------

STANDARDIZER_COLUMNS = ("stage", "table", "kind", "key", "seq", "value")

_KEY_SEP = "|"


def _encode_key(kind: KeyKind, key) -> str:
    if kind is KeyKind.GLOBAL:
        return ""
    if kind in (KeyKind.PIXEL, KeyKind.SITE, KeyKind.PERIOD):
        return str(key)
    return _KEY_SEP.join(str(part) for part in key)


# Integer parts after the site in an encoded key.
_KEY_INTS = {KeyKind.SITE_PERIOD: 1, KeyKind.CUBE: 2}


def _decode_key(kind: KeyKind, text: str):
    """The key that :func:`_encode_key` wrote as ``text``; ValueError when
    ``text`` is no key of ``kind``."""
    if kind is KeyKind.GLOBAL:
        return None
    if kind in (KeyKind.PIXEL, KeyKind.SITE):
        return text
    if kind is KeyKind.PERIOD:
        return int(text)
    site, *ints = text.rsplit(_KEY_SEP, _KEY_INTS[kind])
    if len(ints) != _KEY_INTS[kind]:
        raise ValueError(text)
    return (site, *map(int, ints))


def save_standardizer(path, std: Standardizer) -> None:
    # Standardizer reals are written exactly (shortest round-trip repr):
    # a chained ECDF stage ranks incoming values against these tables, so
    # any re-quantization would shift ranks at tie points.
    def rows():
        for stage_idx, stage in enumerate(std.stages):
            for kind, table in stage.sd_levels:
                for key, (sd, n) in table.items():
                    yield [stage_idx, SD, kind.value, _encode_key(kind, key), n, repr(float(sd))]
            for kind, table in stage.ecdf_levels:
                for key, sample in table.items():
                    for seq, value in enumerate(sample):
                        yield [stage_idx, ECDF, kind.value, _encode_key(kind, key), seq,
                               repr(float(value))]

    _write_table(path, "standardizer", STANDARDIZER_COLUMNS, rows(),
                 {"scheme": std.scheme.value, "band": std.band.name})


def load_standardizer(path) -> Standardizer:
    """Read a standardizer file. A row must name a stage of the header's
    scheme, that stage's table kind (sd or ecdf) and one of its fallback
    levels, with a key of that level."""
    header = {}

    def read_scheme(meta):
        try:
            header["scheme"], header["band"] = Scheme(meta["scheme"]), Band[meta["band"]]
        except (KeyError, ValueError):
            raise ParseError(f"{path}: header lacks a valid scheme/band", line=1) from None

    data: dict[int, dict] = {}   # stage -> kind -> key -> (sd, n) or [(seq, value)]
    for line, row in _rows(path, "standardizer", STANDARDIZER_COLUMNS, read_scheme):
        specs = SCHEME_STAGES[header["scheme"]]
        stage_idx = _parse_int(row["stage"], "stage", line, path)
        if not 0 <= stage_idx < len(specs):
            raise ParseError(f"{path}: stage {stage_idx} not in scheme", line=line)
        key_kind, transform_kind = specs[stage_idx]
        if row["table"] != transform_kind:
            raise ParseError(
                f"{path}: stage {stage_idx} is an {transform_kind} stage, got table "
                f"{row['table']!r}", line=line,
            )
        try:
            kind = KeyKind(row["kind"])
        except ValueError:
            raise ParseError(f"{path}: unknown key kind {row['kind']!r}", line=line) from None
        if kind not in FALLBACK_LEVELS[key_kind]:
            raise ParseError(
                f"{path}: key kind {kind.value!r} is no level of stage {stage_idx}", line=line
            )
        try:
            key = _decode_key(kind, row["key"])
        except ValueError:
            raise ParseError(f"{path}: bad {kind.value} key {row['key']!r}", line=line) from None
        table = data.setdefault(stage_idx, {}).setdefault(kind, {})
        if transform_kind == SD:
            sd = _parse_float(row["value"], "value", line, path)
            table[key] = (sd, _parse_int(row["seq"], "seq", line, path))
        else:
            seq = _parse_int(row["seq"], "seq", line, path)
            value = _parse_float(row["value"], "value", line, path)
            table.setdefault(key, []).append((seq, value))
    stages = []
    for stage_idx, (key_kind, transform_kind) in enumerate(SCHEME_STAGES[header["scheme"]]):
        tables = data.get(stage_idx, {})
        levels = [(kind, tables.get(kind, {})) for kind in FALLBACK_LEVELS[key_kind]]
        if transform_kind == SD:
            stages.append(StageTables(key_kind, SD, sd_levels=tuple(levels)))
        else:
            ecdf_levels = tuple(
                (kind, {key: np.array([v for _, v in sorted(entries)])
                        for key, entries in table.items()})
                for kind, table in levels
            )
            stages.append(StageTables(key_kind, ECDF, ecdf_levels=ecdf_levels))
    return Standardizer(scheme=header["scheme"], band=header["band"], stages=tuple(stages))


# --- covariance tables ----------------------------------------------------------

COVARIANCE_COLUMNS = ("level", "site", "square", "period", "var_nir", "cov", "var_ndvi", "n")


def _covariance_rows(table: CubeCovarianceTable) -> list[tuple]:
    """(level, site, square, period, entry) per entry, in file order; ""
    stands for a key part that the level lacks."""
    return [
        *(("cube", site, square, period, e) for (site, square, period), e in table.cubes.items()),
        *(("site_period", site, "", period, e) for (site, period), e in table.site_periods.items()),
        *(("site", site, "", "", e) for site, e in table.sites.items()),
    ]


def save_covariances(path, table: CubeCovarianceTable) -> None:
    _write_table(
        path, "covariances", COVARIANCE_COLUMNS,
        ([*key, real(e.var_nir), real(e.cov), real(e.var_ndvi), e.n]
         for *key, e in _covariance_rows(table)),
        {"min_cube_samples": str(table.min_cube_samples)},
    )


def write_covariance_mirror(path, covariance_path, table: CubeCovarianceTable) -> None:
    """Write the mirror of the covariance file ``covariance_path`` that
    ``table`` was saved to: the rows ``matrix_for`` can serve, with the
    values a load of the file gives. It replaces ``path`` when whole."""
    served = [row for row in _covariance_rows(table)
              if row[-1].n >= (table.min_cube_samples if row[0] == "cube" else 2)]
    values = [float(real(v)) for *_, e in served for v in (e.var_nir, e.cov, e.var_ndvi)]
    _write_mirror(path, {
        "format": _COVARIANCE_MIRROR,
        "sha256": _sha256(covariance_path),
        "min_cube_samples": table.min_cube_samples,
        "rows": [[*key, e.n] for *key, e in served],
    }, [np.array(values, dtype=float).reshape(-1, 3)])


def read_covariances_mirrored(path, mirror_path) -> CubeCovarianceTable:
    """``load_covariances(path)`` as ``matrix_for`` serves it: built from
    the served rows in the mirror at ``mirror_path`` while that mirrors the
    file's current bytes, parsed otherwise."""
    read = _read_mirror(mirror_path, _COVARIANCE_MIRROR, _sha256(path), [np.float64])
    if read is None or read[1][0].shape != (len(read[0]["rows"]), 3):
        return load_covariances(path)
    header, (values,) = read
    tables: dict[str, dict] = {"cube": {}, "site_period": {}, "site": {}}
    for (level, site, square, period, n), v in zip(header["rows"], values.tolist()):
        key = {"cube": (site, square, period), "site_period": (site, period)}.get(level, site)
        tables[level][key] = CovarianceEntry(*v, n)
    return CubeCovarianceTable(*tables.values(), header["min_cube_samples"])


def load_covariances(path) -> CubeCovarianceTable:
    """Parse a covariance file column by column. A fault is reported as a
    row-by-row reading would meet it: the first bad row, and its first
    failing check (reals, n, square and period where its level reads them,
    then the level)."""
    meta: dict = {}
    tables: dict[str, dict] = {"cube": {}, "site_period": {}, "site": {}}
    caches: dict[str, dict] = {"n": {}, "square": {}, "period": {}}
    for lines, columns in _table_chunks(path, "covariances", COVARIANCE_COLUMNS, meta.update):
        levels = np.array(columns["level"], dtype=object)
        n = levels.size
        is_cube = levels == "cube"
        reads_period = is_cube | (levels == "site_period")
        reals = [_parse_reals(columns[c]) for c in ("var_nir", "cov", "var_ndvi")]
        ints = {c: _parse_distinct(columns[c], int, caches[c]) for c in caches}

        def text_error(parse, column):
            return lambda k: parse(columns[column][k], column, lines[k], path)

        def unknown_level(k):
            raise ParseError(f"{path}: unknown level {levels[k]!r}", line=lines[k])

        def failed(column):
            parsed, idx = ints[column]
            return _gather([p is None for p in parsed], idx, bool)

        _raise_first_failure([
            *((bad, text_error(_parse_float, c))
              for (_, bad), c in zip(reals, ("var_nir", "cov", "var_ndvi"))),
            (failed("n"), text_error(_parse_int, "n")),
            (failed("square") & is_cube, text_error(_parse_int, "square")),
            (failed("period") & reads_period, text_error(_parse_int, "period")),
            (~(reads_period | (levels == "site")), unknown_level),
        ], n)
        counts, squares, periods = (
            np.array(parsed, dtype=object)[idx].tolist()
            for parsed, idx in (ints["n"], ints["square"], ints["period"])
        )
        entries = map(CovarianceEntry, *(v.tolist() for v, _ in reals), counts)
        for level, site, square, period, entry in zip(
            columns["level"], columns["site"], squares, periods, entries
        ):
            if level == "cube":
                tables[level][(site, square, period)] = entry
            elif level == "site_period":
                tables[level][(site, period)] = entry
            else:
                tables[level][site] = entry
    try:
        min_cube_samples = int(meta.get("min_cube_samples", "10"))
    except ValueError:
        raise ParseError(
            f"{path}: bad integer in header key 'min_cube_samples': {meta['min_cube_samples']!r}",
            line=1,
        ) from None
    return CubeCovarianceTable(
        cubes=tables["cube"],
        site_periods=tables["site_period"],
        sites=tables["site"],
        min_cube_samples=min_cube_samples,
    )


# --- detection files ----------------------------------------------------------

DETECTION_COLUMNS = ("pixel_id", "flagged", "first_flag_date", "triggering_band")


def _detection_rows(results: Sequence[DetectionResult]):
    return (
        [
            res.pixel_id,
            int(res.flagged),
            res.first_flag_date.isoformat() if res.first_flag_date else "",
            res.triggering_band.name if res.triggering_band else "",
        ]
        for res in results
    )


def write_detections(
    path, results: Sequence[DetectionResult], meta: Optional[Mapping[str, str]] = None
) -> None:
    _write_table(path, "detections", DETECTION_COLUMNS, _detection_rows(results), meta)


def replace_detections(
    path, results: Sequence[DetectionResult], meta: Optional[Mapping[str, str]] = None
) -> None:
    """Replace the detection file ``path`` with ``results`` unless it holds
    those very bytes already."""
    text = io.StringIO()
    _write_header(text, "detections", DETECTION_COLUMNS, meta)
    csv.writer(text).writerows(_detection_rows(results))
    data = text.getvalue().encode(ENCODING)
    with contextlib.suppress(OSError), open(path, "rb") as fh:
        if fh.read(len(data) + 1) == data:
            return
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(data)


def read_detections(path) -> tuple[dict[str, str], list[DetectionResult]]:
    meta: dict[str, str] = {}
    out = []
    for line, row in _rows(path, "detections", DETECTION_COLUMNS, meta.update):
        flagged = _parse_int(row["flagged"], "flagged", line, path)
        if flagged not in (0, 1):
            raise ParseError(f"{path}: flagged must be 0 or 1, got {flagged}", line=line)
        date = (
            _parse_date(row["first_flag_date"], "first_flag_date", line, path)
            if row["first_flag_date"]
            else None
        )
        band = None
        if row["triggering_band"]:
            band = Band.__members__.get(row["triggering_band"])
            if band is None:
                raise ParseError(
                    f"{path}: unknown band {row['triggering_band']!r} in column "
                    "'triggering_band'", line=line,
                )
        try:
            out.append(DetectionResult(row["pixel_id"], bool(flagged), date, band))
        except OutOfRange as exc:
            raise ParseError(f"{path}: {exc}", line=line) from None
    return meta, out


# --- train reports --------------------------------------------------------------

REPORT_COLUMNS = (
    "scope", "consec", "threshold_1", "threshold_2",
    "train_tss", "cv_tss", "producer_acc", "user_acc",
)


def _opt(value: Optional[float]) -> str:
    return "" if value is None else real(value)


def write_report(path, report: TrainReport) -> None:
    meta = {"rule": report.rule_kind}
    if report.band is not None:
        meta["band"] = report.band.name
    _write_table(path, "report", REPORT_COLUMNS, (
        [
            row.scope, row.consecutive,
            real(row.thresholds[0]) if row.thresholds else "",
            real(row.thresholds[1]) if len(row.thresholds) > 1 else "",
            _opt(row.train_tss), _opt(row.cv_tss), _opt(row.producer_acc), _opt(row.user_acc),
        ]
        for row in report.rows
    ), meta)


def read_report(path) -> TrainReport:
    header = {}

    def read_rule(meta):
        header["rule"] = meta.get("rule", "")
        try:
            header["band"] = Band[meta["band"]] if "band" in meta else None
        except KeyError:
            raise ParseError(f"{path}: unknown band {meta['band']!r} in header", line=1) from None

    rows = []
    for line, row in _rows(path, "report", REPORT_COLUMNS, read_rule):
        def opt(column):
            return _parse_float(row[column], column, line, path) if row[column] else None

        thresholds = tuple(opt(c) for c in ("threshold_1", "threshold_2") if row[c])
        rows.append(
            ReportRow(
                scope=row["scope"],
                consecutive=_parse_int(row["consec"], "consec", line, path),
                thresholds=thresholds,
                train_tss=opt("train_tss"),
                cv_tss=opt("cv_tss"),
                producer_acc=opt("producer_acc"),
                user_acc=opt("user_acc"),
            )
        )
    return TrainReport(rule_kind=header["rule"], band=header["band"], rows=tuple(rows))


def format_report_text(report: TrainReport) -> str:
    out = io.StringIO()
    title = f"Threshold training report ({report.rule_kind}"
    if report.band is not None:
        title += f", band {report.band.name}"
    title += ")"
    out.write(title + "\n" + "=" * len(title) + "\n")
    header = f"{'scope':<14}{'C':>3}{'threshold(s)':>22}{'train tss':>11}{'cv tss':>9}{'a_p':>7}{'a_u':>7}"
    out.write(header + "\n")
    for row in report.rows:
        thresholds = ", ".join(format(t, ".4g") for t in row.thresholds)
        def cell(value, width):
            return ("-" if value is None else format(value, ".4f")).rjust(width)
        out.write(
            f"{row.scope:<14}{row.consecutive:>3}{thresholds:>22}"
            + cell(row.train_tss, 11) + cell(row.cv_tss, 9)
            + cell(row.producer_acc, 7) + cell(row.user_acc, 7) + "\n"
        )
    return out.getvalue()
