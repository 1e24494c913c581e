"""File formats and label aggregation; synthetic scenes (see ``synth``)
are imported from here too.

All text formats are comma-separated UTF-8 tables with a one-line
versioned header (``#cmfda <kind> v1 ...``) followed by a column-name row.
Reals are written with 9 significant digits, so values round-trip through
that precision; counts and dates round-trip exactly. The binary formats
are the mirrors of parsed tables (see "binary mirrors" below).

Every file reaches the disk whole or not at all through :func:`write_file`;
every table through :func:`_write_table` (:func:`write_series_columns` and
:func:`save_models` format its rows in bulk) or, where its bytes are needed
first, :func:`_table_bytes` (:func:`append_series_rows`,
:func:`replace_detections`), and is read through
:func:`_table_chunks`, which alone checks its framing: header, column
names, field counts, UTF-8 text and what ``csv`` refuses; it frames a
table without quotes in bulk. The row readers take its rows through
:func:`_rows`; the series, model and covariance readers check its
chunks column by column (:func:`_check_columns`). A series, model or
covariance file is read once, whole, by :func:`_read_mirrored`, which
hashes those bytes and either takes the file's binary mirror, when the
mirror holds that hash, or parses the same bytes; the online history
grows by those bytes plus the data rows of a batch file as read
(:func:`append_series_rows`).
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
import stat
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BAND_ORDER,
    CADENCE_DAYS,
    CLEAR_CODES,
    MAX_COMPOSITE_LAG,
    YEAR_DAYS,
    Band,
    CompactPixel,
    DeforestationLabel,
    EMPTY_ARRAYS,
    FlatSeries,
    PixelSeries,
    Reliability,
    SITE_SIDE,
    SeriesArrays,
    band_fill,
    band_range,
    cadence_error,
    day_of_year,
    distinct,
    range_error,
    series_from_arrays,
)
from .detection import COVARIANCE_POOLS, CovarianceEntry, CubeCovarianceTable, DetectionResult
from .errors import (
    OutOfRange,
    ParseError,
    SchemaVersionMismatch,
    ShapeMismatch,
)
from .harmonic import N_COEFFS, ModelTable
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
FOREST_CLASSES = frozenset(range(1, 7))

FINE_SIDE = 100          # 250 m cells per site side
FINE_PER_COARSE = 4      # 250 m cells per 1 km cell side


def real(x: float) -> str:
    return format(float(x), ".9g")


# --- the file writer and versioned header helpers ---------------------------


def write_file(path, parts: Sequence) -> None:
    """Write the bytes of ``parts`` to ``path`` with one ``os.writev``,
    whole or not at all: into ``<path>.tmp``, which then replaces ``path``
    or, on any failure, is removed, leaving ``path`` as it was. A path that
    exists and is not a regular file (a device, a FIFO, a symlink) is
    written in place, as ``open`` writes it."""
    path = os.fspath(path)
    try:
        tmp = path if not stat.S_ISREG(os.lstat(path).st_mode) else f"{path}.tmp"
    except FileNotFoundError:
        tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if os.writev(fh.fileno(), parts) != sum(map(len, parts)):
                raise OSError(f"{tmp}: short write")
        if tmp != path:
            os.replace(tmp, path)
    except BaseException:
        if tmp != path:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _table_bytes(kind: str, columns: Sequence[str], rows,
                 meta: Optional[Mapping[str, str]] = None) -> bytes:
    """A table file's bytes: its versioned header line, its column-name
    row, then ``rows``, an iterable of field lists."""
    parts = [MAGIC, kind, VERSION, *(f"{key}={value}" for key, value in (meta or {}).items())]
    text = io.StringIO()
    text.write(" ".join(parts) + "\n")
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows(rows)
    return text.getvalue().encode(ENCODING)


def _write_table(path, kind: str, columns: Sequence[str], rows,
                 meta: Optional[Mapping[str, str]] = None, tail: bytes = b"") -> bytes:
    """Write a table file (see :func:`_table_bytes`) and then ``tail``, more
    data rows as bytes; return the bytes written."""
    data = _table_bytes(kind, columns, rows, meta) + tail  # a failed row leaves the path as it was
    write_file(path, [data])
    return data


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


def _bad_field(what: str, column: str, text: str) -> str:
    return f"bad {what} in column {column!r}: {text!r}"


def _field_parser(convert, what: str):
    """``parse(text, column, line, path)``: ``convert(text)``, or a
    ``ParseError`` that names a bad ``what`` in the column at the line."""
    def parse(text: str, column: str, line: int, path):
        try:
            return convert(text)
        except ValueError:
            raise ParseError(f"{path}: {_bad_field(what, column, text)}", line=line) from None
    return parse


_parse_float = _field_parser(float, "real")
_parse_int = _field_parser(int, "integer")
_parse_date = _field_parser(dt.date.fromisoformat, "ISO date")


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


# A data row as csv writes it, key fields first (_key_fields); ``%.9g`` is ``real``.
_SERIES_ROW = "%s%s,%d,%d" + ",%.9g" * len(BAND_ORDER) + "\r\n"
_QUOTED = re.compile('[",\r\n]')   # csv quotes a field that holds one of these


def _key_fields(key) -> str:
    """A pixel key's four fields and the comma after them, as csv writes them."""
    text = "%s,%s,%s,%s," % key
    if _QUOTED.search("".join(map(str, key))):
        line = io.StringIO()
        csv.writer(line).writerow(key)
        text = line.getvalue()[:-2] + ","
    return text


def write_series_columns(path, keys: Sequence[tuple], counts: Sequence[int], ordinals,
                         doys, reliability, values) -> None:
    """Write a series file of the rows of pixels ``keys``, each (site_id,
    pixel_id, col, row), the ``counts[p]`` rows of pixel p after those of
    the pixels before it. Row i holds nominal date ordinal ``ordinals[i]``,
    composite day ``doys[i]``, reliability code ``reliability[i]`` and the
    band values ``values[i]`` in BAND_ORDER, NaN (or the fill value) for
    fill. The rows are formatted in bulk, with the bytes csv writes."""
    ordinals = np.asarray(ordinals, dtype=np.int64).tolist()
    dates = {o: dt.date.fromordinal(o).isoformat() for o in set(ordinals)}
    values = np.asarray(values, dtype=float).reshape(-1, len(BAND_ORDER))
    rows = zip(
        itertools.chain.from_iterable(map(itertools.repeat, map(_key_fields, keys), counts)),
        map(dates.__getitem__, ordinals), np.asarray(doys).tolist(),
        np.asarray(reliability).tolist(), *np.where(np.isnan(values), _FILLS, values).T.tolist(),
    )
    _write_table(path, "series", SERIES_COLUMNS, (),
                 tail="".join(map(_SERIES_ROW.__mod__, rows)).encode(ENCODING))


def write_series(path, sites: Mapping[str, Sequence[PixelSeries]]) -> None:
    """Write a series file of the pixel series of ``sites``, site by site
    (see :func:`write_series_columns`)."""
    pixels = [(site_id, series) for site_id, group in sites.items() for series in group]
    observations = [obs for _, series in pixels for obs in series.observations]
    write_series_columns(
        path, [(site_id, s.pixel_id, s.col, s.row) for site_id, s in pixels],
        [len(s.observations) for _, s in pixels],
        [obs.nominal_date.toordinal() for obs in observations],
        [obs.composite_doy for obs in observations],
        [int(obs.reliability) for obs in observations],
        [list(map(obs.values.get, BAND_ORDER, _FILL_VALUES)) for obs in observations],
    )


# Rows per chunk of a parsed table: bounds the memory that the rows' field
# strings take at once.
_CHUNK_ROWS = 1024

# A line end, as csv and the text reader see one.
_LINE_END = re.compile(rb"\r\n|\r|\n")


def undecodable_line(path, data: Optional[bytes] = None) -> Optional[int]:
    """The number of the first line of ``path``, or of its bytes ``data``,
    that is not UTF-8 text, lines ending as csv ends them: at CR LF, CR or
    LF."""
    if data is None:
        data = _read_bytes(path)
    try:
        data.decode(ENCODING)
    except UnicodeDecodeError as exc:
        return 1 + len(_LINE_END.findall(data, 0, exc.start))
    return None


def _line_blocks(data: bytes) -> Optional[list[tuple[int, int]]]:
    """Bounds of blocks of whole lines of the table bytes ``data``, each at
    most csv's field size limit long, so that no line holds a field csv
    refuses; None when a line may be longer, or no block ends at a line
    feed."""
    limit, bounds, start = csv.field_size_limit(), [], 0
    while start < len(data):
        end = len(data) if len(data) - start <= limit else data.rfind(b"\n", start, start + limit) + 1
        if not end:
            return None
        bounds.append((start, end))
        start = end
    return bounds


def _bulk_chunks(data: bytes, bounds):
    """(line numbers, lines) per chunk of the data rows of the table bytes
    ``data``, split block by block (see :func:`_line_blocks`)."""
    blocks = (data[start:end].splitlines() for start, end in bounds)
    lines = itertools.islice(itertools.chain.from_iterable(blocks), 2, None)   # after the header
    number = 3
    while chunk := list(itertools.islice(lines, _CHUNK_ROWS)):
        yield range(number, number + len(chunk)), chunk
        number += len(chunk)


def _csv_chunks(rows):
    """(line numbers, rows) per chunk of the data rows of the csv reader
    ``rows``, which has read the column-name row."""
    read = rows.line_num + 1   # lines read: the header, then csv's
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        numbers: Sequence[int] = range(read + 1, read + 1 + len(chunk))
        if rows.line_num + 1 - read != len(chunk):   # a quoted field holds a line break
            numbers = [read + n for n in itertools.accumulate(
                1 + len(re.findall("\r\n|\r|\n", ",".join(row))) for row in chunk
            )]
        read = rows.line_num + 1
        yield numbers, chunk


def _table_chunks(path, kind: str, names: Sequence[str], on_header: Optional[Callable] = None,
                  data: Optional[bytes] = None):
    """Yield a table file's data rows in chunks.

    Each chunk is (line numbers of its non-blank rows, its columns over the
    rows before the first with the wrong field count), a row numbered by
    the line it ends on. A chunk with such a row is the last: resumed after
    it, the generator raises the row's ``ParseError``, so the caller has
    checked the rows before it first.
    A table whose bytes hold no quote character is framed in bulk (see
    :func:`_bulk_chunks`); any other, and one that may hold a line over
    csv's field size limit, by ``csv.reader``. Both give the same chunks
    and faults.
    Text that is not UTF-8 and a row ``csv`` refuses (a field over its size
    limit) are a ``ParseError`` at their line as soon as they are read.
    ``on_header``, when given, gets the header's key=value pairs before the
    column names are checked. The file is read whole, in one read, unless
    ``data`` holds its bytes as read already.
    """
    if data is None:
        data = _read_bytes(path)
    with io.TextIOWrapper(io.BytesIO(data), newline="", encoding=ENCODING) as fh:
        try:
            header = _read_header(fh, kind, path)
            if on_header is not None:
                on_header(header)
            # strict: a quoted field left open at the end of the file is an
            # error, so a file's rows end where its bytes do
            rows = csv.reader(fh, strict=True)
            found = next(rows, None)
            if found is None:
                raise ParseError(f"{path}: missing column header", line=2)
            if found != list(names):
                raise ParseError(f"{path}: expected columns {list(names)}, got {found}", line=2)
            width = len(names)
            bounds = None if b'"' in data else _line_blocks(data)
            for numbers, chunk in _csv_chunks(rows) if bounds is None else _bulk_chunks(data, bounds):
                if not all(chunk):  # blank lines are skipped
                    numbers = [line for line, row in zip(numbers, chunk) if row]
                    chunk = [row for row in chunk if row]
                # fields per row; csv would split a quote-free line at its commas alone
                widths, expected = (list(map(len, chunk)), width) if bounds is None else (
                    list(map(bytes.count, chunk, itertools.repeat(b","))), width - 1)
                n = len(chunk)
                if set(widths) - {expected}:
                    n = next(k for k, w in enumerate(widths) if w != expected)
                if bounds is None:
                    columns = list(zip(*chunk[:n])) if n else [()] * width
                else:   # the chunk's lines split into fields at once
                    fields = b",".join(chunk[:n]).decode(ENCODING).split(",") if n else []
                    columns = [fields[k::width] for k in range(width)]
                yield numbers, dict(zip(names, columns))
                if n < len(chunk):
                    raise ParseError(f"{path}: expected {width} fields, "
                                     f"got {widths[n] + width - expected}", line=numbers[n])
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not {ENCODING} text",
                             line=undecodable_line(path, data)) from None
        except csv.Error as exc:
            # the header line is read before the csv reader counts lines
            raise ParseError(f"{path}: {exc}", line=rows.line_num + 1) from None


def _rows(path, kind: str, columns: Sequence[str], on_header: Optional[Callable] = None,
          data: Optional[bytes] = None):
    """Yield (line number, row dict) for each data row of a table file, as
    :func:`_table_chunks` reads and checks it."""
    for lines, chunk in _table_chunks(path, kind, columns, on_header, data):
        for line, *fields in zip(lines, *chunk.values()):
            yield line, dict(zip(columns, fields))


def _attempt(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


def _gather(values, codes: np.ndarray, dtype) -> np.ndarray:
    return np.array(values, dtype=dtype)[codes]


_CONVERT = {"integer": int, "ISO date": dt.date.fromisoformat, "text": str}


class _Column(NamedTuple):
    """A column whose text parses as a ``kind`` ("real" or a key of
    _CONVERT) in the rows that ``reads``, a function of a chunk's text
    columns, masks (all when None), to a value that ``refused`` does not
    hold for (reals are not refused); a refused value fails with
    ``message`` formatted with it."""

    name: str
    kind: str
    refused: Optional[Callable] = None
    message: str = ""
    reads: Optional[Callable] = None

    def check(self, columns: dict, parsed: dict, caches: dict):
        """Parse this column of ``columns`` into ``parsed``; return its check
        (see :func:`_check_columns`): its text, then ``refused``."""
        texts = columns[self.name]
        if self.kind == "real":   # NaN where unparsable
            try:
                parsed[self.name] = np.fromiter(map(float, texts), float, count=len(texts))
                bad = np.zeros(len(texts), bool)
            except ValueError:
                reals = [_attempt(float, text) for text in texts]
                parsed[self.name] = np.array(reals, dtype=float)
                bad = np.array([v is None for v in reals], dtype=bool)
        else:
            (each, rows), cache = distinct(texts), caches.setdefault(self.name, {})
            values = [cache[text] if text in cache else cache.setdefault(
                text, _attempt(_CONVERT[self.kind], text)) for text in each]
            parsed[self.name] = values, rows
            bad = _gather([v is None or self.refused is not None and self.refused(v)
                           for v in values], rows, bool)
        if self.reads is not None:
            bad &= self.reads(columns)
        return bad, lambda k: (_bad_field(self.kind, self.name, texts[k])
                               if self.kind == "real" or values[rows[k]] is None
                               else self.message.format(values[rows[k]]))


def _check_columns(path, lines, columns, specs, caches: dict) -> dict:
    """The columns of ``specs`` of a chunk's text ``columns``, rows at
    ``lines`` (see :func:`_table_chunks`), parsed: reals as an array,
    others as their distinct values (None where unparsable), parsed once
    per ``caches[name]``, and each row's index into them. A spec is a
    ``_Column`` or a check of several columns: a function of the columns
    parsed so far, which may add columns it derives, returning (mask of
    failing rows, ``describe(k)``: row k's fault). ``specs`` are in the
    order a row is checked, and a fault is reported as a row-by-row reading
    would meet it: a ``ParseError`` at the first bad row, with that row's
    first failing check."""
    parsed: dict = {}
    checks = [spec.check(columns, parsed, caches) if isinstance(spec, _Column) else spec(parsed)
              for spec in specs]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(np.argmax(bad))
        describe = next(describe for mask, describe in checks if mask[k])
        raise ParseError(f"{path}: {describe(k)}", line=lines[k])
    return parsed


def _out_of_range(parsed: dict):
    """The check of a series row's observation as a whole (see
    ``core.range_error``); adds the columns "values" (the reals in
    BAND_ORDER), "ordinals", "doys" and "lags", 0 where a day is bad."""
    dates, date_idx = parsed["nominal_date"]
    doys_parsed, doy_idx = parsed["composite_doy"]
    values = np.column_stack([parsed[column] for column in BAND_COLUMNS])
    ordinals = _gather([d.toordinal() if d else 0 for d in dates], date_idx, np.int64)
    nominal_doys = _gather([day_of_year(d) if d else 0 for d in dates], date_idx, np.int64)
    year_days = _gather([365 + calendar.isleap(d.year) if d else 0 for d in dates], date_idx, np.int64)
    doys = _gather([d if d is not None and 1 <= d <= YEAR_DAYS else 0 for d in doys_parsed],
                   doy_idx, np.int64)
    lags = doys - nominal_doys
    lags = np.where((lags >= 0) & (lags <= MAX_COMPOSITE_LAG), lags, lags + year_days)
    parsed.update(values=values, ordinals=ordinals, doys=doys, lags=lags)
    return (
        (doys == 0) | (lags < 0) | (lags > MAX_COMPOSITE_LAG)
        | ~((values >= _RANGES[0]) & (values <= _RANGES[1])).all(axis=1),
        lambda k: range_error(dates[date_idx[k]], doys_parsed[doy_idx[k]],
                              dict(zip(BAND_ORDER, values[k].tolist()))),
    )


_SERIES_CHECKS = (
    _Column("reliability", "integer", lambda code: code not in _RELIABILITY_CODES,
            "unknown reliability code {}"),
    *(_Column(column, "real") for column in BAND_COLUMNS),
    _Column("nominal_date", "ISO date"),
    _Column("composite_doy", "integer"),
    _out_of_range,
    _Column("col", "integer"),
    _Column("row", "integer"),
)


class _SeriesChunk(NamedTuple):
    pixels: np.ndarray      # index into the file's pixels
    ordinals: np.ndarray
    lags: np.ndarray
    doys: np.ndarray
    reliability: np.ndarray
    values: np.ndarray


def _series_chunk(path, lines, columns, caches, pixels: dict):
    """Check and convert one chunk of series rows, checked in this order:
    reliability, the six reals, nominal date, composite day, the
    observation's own range checks, col, row. New pixels are added to
    ``pixels``, key -> (index, col, row)."""
    parsed = _check_columns(path, lines, columns, _SERIES_CHECKS, caches)
    (cols_parsed, col_idx), (rows_parsed, row_idx) = parsed["col"], parsed["row"]
    keys, key_idx = distinct(list(zip(columns["site_id"], columns["pixel_id"])))
    _, first = np.unique(key_idx, return_index=True)
    for key, k in zip(keys, first.tolist()):
        if key not in pixels:
            pixels[key] = len(pixels), cols_parsed[col_idx[k]], rows_parsed[row_idx[k]]
    parsed.update(pixels=_gather([pixels[key][0] for key in keys], key_idx, np.intp),
                  reliability=_gather(*parsed["reliability"], np.int8))
    return _SeriesChunk(*map(parsed.__getitem__, _SeriesChunk._fields))


def _parse_series(path, data: bytes) -> FlatSeries:
    """Parse the bytes ``data`` of the series file ``path`` column by
    column, chunk by chunk (see :func:`_series_chunk`; a wrong field count
    is checked first); a break of the 16-day cadence is checked only after
    every row has passed."""
    caches: dict = {}
    pixels: dict = {}
    chunks = []
    for lines, columns in _table_chunks(path, "series", SERIES_COLUMNS, data=data):
        chunks.append(_series_chunk(path, lines, columns, caches, pixels))
    if chunks:
        table = _SeriesChunk(*(np.concatenate(parts) for parts in zip(*chunks)))
    else:
        table = _SeriesChunk(*(np.empty(0, np.int64),) * 5, np.empty((0, len(BAND_ORDER))))
    keys = list(pixels)
    check_pixel_sites(path, keys)
    reliability = table.reliability.astype(np.int8)
    flat = FlatSeries.of_rows(
        [(*key, col, row) for key, (_, col, row) in pixels.items()], table.pixels,
        SeriesArrays(table.ordinals, table.ordinals + table.lags, table.doys.astype(np.int32),
                     reliability, np.isin(reliability, sorted(CLEAR_CODES)),
                     np.where(table.values == _FILLS, np.nan, table.values)),
    )
    same = np.repeat(np.arange(len(keys)), np.diff(flat.bounds))
    gap_bad = (np.diff(same) == 0) & (np.diff(flat.columns.ordinals) != CADENCE_DAYS)
    if gap_bad.any():
        bad = np.flatnonzero(gap_bad)
        # the first break of the pixel that comes first in the file
        j = int(bad[np.argmin([pixels[flat.keys[p][:2]][0] for p in same[bad].tolist()])])
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
    return read_series_file(path).flat.sites()


def read_series(path) -> dict[str, list[PixelSeries]]:
    """Per site, each pixel's series as observations; same parse and order
    as :func:`read_series_arrays`."""
    flat = read_series_file(path).flat
    c = flat.columns
    dates = list(map(dt.date.fromordinal, c.ordinals.tolist()))
    values = np.where(np.isnan(c.values), _FILLS, c.values)
    stops = flat.bounds.tolist()
    out: dict[str, list[PixelSeries]] = {}
    for p, (site_id, pixel_id, col, row) in enumerate(flat.keys):
        s = slice(stops[p], stops[p + 1])
        out.setdefault(site_id, []).append(series_from_arrays(
            pixel_id, col, row, dates[s], c.doys[s], c.reliability[s], values[s]
        ))
    return out


def append_series_rows(path, head: Optional[SeriesFile], rows: SeriesFile) -> str:
    """Replace the series file ``path`` with the bytes of ``head``, or a
    fresh header when it is None, followed by the data rows of ``rows`` as
    its file holds them (all after its column-name row), in one write; and
    return the SHA-256 of the bytes written, extending ``head``'s hash."""
    if head is None:
        data = _table_bytes("series", SERIES_COLUMNS, ())
        sha256 = hashlib.sha256(data)
    else:
        data, sha256 = head.data, head.sha256.copy()
    start = 0
    for _ in range(2):   # the header line and the column-name row
        end = _LINE_END.search(rows.data, start)
        start = end.end() if end else len(rows.data)
    parts = [data, b"" if data.endswith((b"\n", b"\r")) else b"\n", memoryview(rows.data)[start:]]
    for part in parts[1:]:
        sha256.update(part)
    write_file(path, parts)
    return sha256.hexdigest()


# --- binary mirrors ---------------------------------------------------------------
#
# A binary copy of what a reader makes of a table file lets the next reader
# skip the parse: fit's series.npy of its --series and models_<tag>.npy of
# each model file it writes (from the text written, not the fits); an online
# state's history.npy of history.csv and covariances.npy of the
# covariances.csv rows a lookup can serve, written again by a step that had
# to parse the file. A mirror is one JSON line (format tag, SHA-256 of the
# table bytes it mirrors, each array's dtype and shape), then the arrays'
# bytes, each start 8-byte aligned: one write, one read. It is derived: a
# reader reads the table's bytes once and takes the mirror only while its
# hash is theirs, parsing those same bytes otherwise; another format, such
# as the .npy sequences these once were, is refused and parsed around.

_SERIES_MIRROR = "cmfda series-mirror v2"
_COVARIANCE_MIRROR = "cmfda covariance-mirror v2"
_MODEL_MIRROR = "cmfda model-mirror v1"
_ALIGN = 8


def write_mirror(path, header: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write a mirror of ``header`` and ``arrays``; it replaces ``path``
    when whole."""
    head = json.dumps({**header, "arrays": [[a.dtype.str, a.shape] for a in arrays]}).encode()
    parts = [head + b" " * (-(len(head) + 1) % _ALIGN) + b"\n"]
    for a in arrays:
        parts += [np.ascontiguousarray(a).reshape(-1).view(np.uint8), bytes(-a.nbytes % _ALIGN)]
    write_file(path, parts)


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_mirror(path, kind: str, digest: str, dtypes) -> Optional[tuple[dict, list[np.ndarray]]]:
    """The header and arrays of the mirror at ``path`` when it is whole, of
    format ``kind``, mirrors the bytes whose SHA-256 is ``digest`` and holds
    arrays of ``dtypes``; None otherwise."""
    try:
        data = _read_bytes(path)
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


def _read_mirrored(path, mirror_path, kind: str, dtypes, parse, unmirror):
    """Read the table file ``path`` once: (what it holds, its bytes, the
    SHA-256 object fed them, whether the mirror gave what it holds). What it
    holds is ``unmirror(path, header, arrays)`` of the mirror at
    ``mirror_path`` (see :func:`_read_mirror`) while that mirrors these very
    bytes and ``unmirror`` does not refuse it with None, and
    ``parse(path, data)`` of the same bytes otherwise."""
    data = _read_bytes(path)
    sha256 = hashlib.sha256(data)
    held = None
    if mirror_path is not None:
        mirror = _read_mirror(mirror_path, kind, sha256.hexdigest(), dtypes)
        held = None if mirror is None else unmirror(path, *mirror)
    mirrored = held is not None
    if not mirrored:
        held = parse(path, data)
    return held, data, sha256, mirrored


class SeriesFile(NamedTuple):
    """A series file read once: what it holds, its bytes and the SHA-256
    object fed them."""

    flat: FlatSeries
    data: bytes
    sha256: object


def _series_from_mirror(path, header: dict, arrays) -> Optional[FlatSeries]:
    bounds, *columns = arrays
    keys = [tuple(key) for key in header["pixels"]]
    if bounds.shape != (len(keys) + 1,) or any(
        array.shape != (bounds[-1], *empty.shape[1:]) for array, empty in zip(columns, EMPTY_ARRAYS)
    ):
        return None
    check_pixel_sites(path, (key[:2] for key in keys))
    return FlatSeries(keys, bounds, SeriesArrays(*columns))


def read_series_file(path, mirror_path=None) -> SeriesFile:
    """The series file ``path``, read once (see :func:`_read_mirrored`):
    taken from the mirror at ``mirror_path``, when given, while that mirrors
    the bytes read, and parsed from them when the mirror is missing, stale,
    truncated or unreadable."""
    return SeriesFile(*_read_mirrored(
        path, mirror_path, _SERIES_MIRROR, [np.int64, *(a.dtype for a in EMPTY_ARRAYS)],
        _parse_series, _series_from_mirror,
    )[:3])


def write_series_mirror(path, flat: FlatSeries, digest: str) -> None:
    """Write the mirror of the series file whose bytes have the SHA-256
    ``digest``; ``flat`` must be what a read of those bytes gives. The
    mirror replaces ``path`` when whole."""
    header = {"format": _SERIES_MIRROR, "sha256": digest, "pixels": flat.keys}
    write_mirror(path, header, [flat.bounds, *flat.columns])


# --- label files --------------------------------------------------------------

LABEL_COLUMNS = ("pixel_id", "col", "row", "defo_count", "z")


def write_labels(path, labels: Sequence[DeforestationLabel]) -> None:
    _write_table(path, "labels", LABEL_COLUMNS, (
        [label.pixel_id, label.col, label.row, label.defo_count, label.z] for label in labels
    ))


def _pixel_rows(path, kind: str, columns: Sequence[str], on_header: Optional[Callable] = None,
                data: Optional[bytes] = None):
    """:func:`_rows` of a table of one row per pixel id (a label or
    detection file); a second row of a pixel id is refused at its line."""
    lines: dict[str, int] = {}
    for line, row in _rows(path, kind, columns, on_header, data):
        first = lines.setdefault(row["pixel_id"], line)
        if first != line:
            raise ParseError(f"{path}: pixel {row['pixel_id']!r} has a second row; the first is "
                             f"on line {first}", line=line)
        yield line, row


def read_labels(path) -> list[DeforestationLabel]:
    out = []
    for line, row in _pixel_rows(path, "labels", LABEL_COLUMNS):
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


# --- label aggregation -------------------------------------------------------


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


def save_models(path, models: ModelTable, train_window: DateInterval) -> tuple[dict, list[np.ndarray]]:
    """Write a model file of the table's rows under ``train_window``, its
    reals formatted in bulk as ``real`` formats them; return its mirror (see
    :func:`write_mirror`): the SHA-256 of the bytes written, and the rows
    as a read of them gives them (pixel ids, int8 band codes, coefficients
    parsed from their text, int64 n_obs)."""
    pixel_ids, codes, n_obs = models.pixel_ids, models.bands.tolist(), models.n_obs.tolist()
    values = tuple(models.coeffs.ravel().tolist())
    texts = ("%.9g," * len(values) % values).split(",")[:-1]   # each as ``real`` formats it
    rows = zip(pixel_ids, codes, *(texts[k::N_COEFFS] for k in range(N_COEFFS)), n_obs)
    meta = {"train_start": train_window.start.isoformat(),
            "train_end": train_window.end.isoformat()}
    quoted = _QUOTED.search("".join(pixel_ids))
    # unquoted, the rows are the bytes csv writes, formatted in one call
    tail = b"" if quoted else "".join(
        map("%s,%s,%s,%s,%s,%s,%s,%s\r\n".__mod__, rows)).encode(ENCODING)
    data = _write_table(path, "models", MODEL_COLUMNS, rows if quoted else (), meta, tail)
    coeffs = np.fromiter(map(float, texts), float, count=len(texts)).reshape(-1, N_COEFFS)
    header = {"format": _MODEL_MIRROR, "sha256": hashlib.sha256(data).hexdigest(),
              "pixels": pixel_ids, **meta}
    return header, [models.bands.astype(np.int8), coeffs, models.n_obs.astype(np.int64)]


_BAND_CODES = [int(band) for band in Band]
_INT64 = np.iinfo(np.int64)


def _train_window(path, meta: Mapping) -> DateInterval:
    """The training window in the header of the model file ``path``."""
    try:
        return DateInterval(dt.date.fromisoformat(meta["train_start"]),
                            dt.date.fromisoformat(meta["train_end"]))
    except (KeyError, ValueError):
        raise ParseError(f"{path}: header lacks a valid training window", line=1) from None


def _model_table(train: DateInterval, pixel_ids: list, bands, coeffs, n_obs) -> ModelTable:
    """The table of a model file's rows, each under the file's window."""
    return ModelTable(pixel_ids, bands, coeffs, n_obs,
                      np.full((len(pixel_ids), 2), [train.start.toordinal(), train.end.toordinal()],
                              dtype=np.int64))


_MODEL_CHECKS = (
    _Column("band", "integer", lambda code: code not in _BAND_CODES, "unknown band code {}"),
    *(_Column(f"a{k}", "real") for k in range(N_COEFFS)),
    _Column("n_obs", "integer", lambda n: not _INT64.min <= n <= _INT64.max,
            "n_obs {} outside int64"),
)


def _parse_models(path, data: bytes) -> tuple[DateInterval, ModelTable]:
    """Parse the bytes of a model file column by column, each row checked
    in this order: band, a0..a4, then n_obs, which must fit in int64."""
    windows = []
    tables = []
    caches: dict = {}
    for lines, columns in _table_chunks(path, "models", MODEL_COLUMNS,
                                        lambda meta: windows.append(_train_window(path, meta)),
                                        data):
        parsed = _check_columns(path, lines, columns, _MODEL_CHECKS, caches)
        tables.append(_model_table(
            windows[0], columns["pixel_id"], _gather(*parsed["band"], np.int8),
            np.column_stack([parsed[f"a{k}"] for k in range(N_COEFFS)]),
            _gather(*parsed["n_obs"], np.int64),
        ))
    return windows[0], ModelTable.concat(tables)


def _models_from_mirror(path, header: dict, arrays):
    """The mirrored table, or None (so the file is parsed) when the arrays'
    shapes are not the header's row count or a band code is no Band."""
    bands, coeffs, n_obs = arrays
    n = len(header["pixels"])
    if ((bands.shape, coeffs.shape, n_obs.shape) != ((n,), (n, N_COEFFS), (n,))
            or not np.isin(bands, _BAND_CODES).all()):
        return None
    train = _train_window(path, header)
    return train, _model_table(train, header["pixels"], bands, coeffs, n_obs)


def load_models(path, mirror_path=None) -> tuple[DateInterval, ModelTable]:
    """The training window and model table, rows in file order, of a model
    file read once (see :func:`_read_mirrored`): taken from the mirror at
    ``mirror_path`` while that mirrors the bytes read, and parsed from them
    otherwise (see :func:`_parse_models`)."""
    return _read_mirrored(path, mirror_path, _MODEL_MIRROR, [np.int8, np.float64, np.int64],
                          _parse_models, _models_from_mirror)[0]


# --- pool keys -------------------------------------------------------------------

# The parts of a key of each pool (``detection.pool_codes``), in order; a
# key of one part is that part, of none None. A standardizer file joins a
# key's parts with "|"; a covariance file gives each part its column.
_KEY_PARTS = {
    "pixel": ("pixel",), "site": ("site",), "global": (), "period": ("period",),
    "site_period": ("site", "period"), "cube": ("site", "square", "period"),
}
_KEY_SEP = "|"


def _key_parts(pool: str, key) -> tuple:
    return key if len(_KEY_PARTS[pool]) > 1 else (key,)[:len(_KEY_PARTS[pool])]


# --- standardizer files ----------------------------------------------------------

STANDARDIZER_COLUMNS = ("stage", "table", "kind", "key", "seq", "value")


def _encode_key(kind: KeyKind, key) -> str:
    return _KEY_SEP.join(map(str, _key_parts(kind.value, key)))


def _decode_key(kind: KeyKind, text: str):
    """The key that :func:`_encode_key` wrote as ``text``; ValueError when
    ``text`` is no key of ``kind``."""
    names = _KEY_PARTS[kind.value]
    parts = text.rsplit(_KEY_SEP, len(names) - 1) if names else []
    if len(parts) != len(names):
        raise ValueError(text)
    parts = [int(part) if name in ("square", "period") else part
             for name, part in zip(names, parts)]
    return tuple(parts) if len(parts) > 1 else parts[0] if parts else None


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
        levels = tuple((kind, tables.get(kind, {})) for kind in FALLBACK_LEVELS[key_kind])
        if transform_kind == SD:
            stages.append(StageTables(key_kind, SD, sd_levels=levels))
        else:
            stages.append(StageTables(key_kind, ECDF, ecdf_levels=tuple(
                (kind, {key: np.array([v for _, v in sorted(entries)])
                        for key, entries in table.items()})
                for kind, table in levels)))
    return Standardizer(scheme=header["scheme"], band=header["band"], stages=tuple(stages))


# --- covariance tables ----------------------------------------------------------

COVARIANCE_COLUMNS = ("level", "site", "square", "period", "var_nir", "cov", "var_ndvi", "n")


def _covariance_fields(pool: str) -> list[int]:
    """Where the parts of a key of ``pool`` go in a covariance row."""
    return [COVARIANCE_COLUMNS.index(name) for name in _KEY_PARTS[pool]]


def _covariance_rows(levels):
    """(pool, site, square, period, entry) per entry of ``levels``, (pool,
    {key: entry}) pairs, in file order; "" for a part the key lacks."""
    for pool, table in levels:
        fields = _covariance_fields(pool)
        for key, entry in table.items():
            row = [pool, "", "", "", entry]
            for k, part in zip(fields, _key_parts(pool, key)):
                row[k] = part
            yield row


def _covariance_table(rows, entries, min_cube_samples: int) -> CubeCovarianceTable:
    """The table of ``entries`` at ``rows``, (pool, site, square, period,
    ...) with parsed parts."""
    tables: dict[str, dict] = {pool: {} for pool in COVARIANCE_POOLS}
    fields = {pool: _covariance_fields(pool) for pool in COVARIANCE_POOLS}
    for row, entry in zip(rows, entries):
        parts = [row[k] for k in fields[row[0]]]
        tables[row[0]][tuple(parts) if len(parts) > 1 else parts[0]] = entry
    return CubeCovarianceTable(*tables.values(), min_cube_samples)


def _covariance_mirror(table: CubeCovarianceTable, digest: str,
                       read=float) -> tuple[dict, list[np.ndarray]]:
    """The mirror (see :func:`write_mirror`) of the covariance file whose
    bytes have the SHA-256 ``digest`` and hold ``table``, each value of
    which a read of the file gives as ``read(value)``: the rows that a
    lookup serves (see ``CubeCovarianceTable``)."""
    served = list(_covariance_rows(table.served_levels()))
    values = [read(v) for *_, e in served for v in (e.var_nir, e.cov, e.var_ndvi)]
    header = {"format": _COVARIANCE_MIRROR, "sha256": digest,
              "min_cube_samples": table.min_cube_samples, "rows": [[*key, e.n] for *key, e in served]}
    return header, [np.array(values, dtype=float).reshape(-1, 3)]


def save_covariances(path, table: CubeCovarianceTable) -> tuple[dict, list[np.ndarray]]:
    """Write a covariance file of ``table``; return the mirror of the bytes
    written (see :func:`_covariance_mirror`), its reals parsed from their
    text."""
    data = _write_table(path, "covariances", COVARIANCE_COLUMNS, (
        [*key, real(e.var_nir), real(e.cov), real(e.var_ndvi), e.n]
        for *key, e in _covariance_rows(table.levels())
    ), {"min_cube_samples": str(table.min_cube_samples)})
    return _covariance_mirror(table, hashlib.sha256(data).hexdigest(), lambda v: float(real(v)))


def write_covariance_mirror(path, table: CubeCovarianceTable, digest: str) -> None:
    """Write :func:`_covariance_mirror`; it replaces ``path`` when whole."""
    write_mirror(path, *_covariance_mirror(table, digest))


def _covariances_from_mirror(path, header: dict, arrays) -> Optional[CubeCovarianceTable]:
    (values,), rows = arrays, header["rows"]
    if values.shape != (len(rows), 3):
        return None
    entries = (CovarianceEntry(*v, row[-1]) for row, v in zip(rows, values.tolist()))
    return _covariance_table(rows, entries, header["min_cube_samples"])


def read_covariances_mirrored(path, mirror_path) -> tuple[CubeCovarianceTable, Optional[str]]:
    """``load_covariances(path)`` as a lookup serves it, the file read once
    (see :func:`_read_mirrored`): built from the served rows in the mirror
    at ``mirror_path`` while that mirrors the bytes read, and parsed from
    them otherwise; and, when parsed, the SHA-256 of the bytes read, under
    which the mirror can be written again (None when it served)."""
    table, _, sha256, mirrored = _read_mirrored(path, mirror_path, _COVARIANCE_MIRROR,
                                                [np.float64], load_covariances,
                                                _covariances_from_mirror)
    return table, None if mirrored else sha256.hexdigest()


def _keyed_by(part: str):
    """The ``reads`` of a covariance key column: rows of a level it keys."""
    pools = [pool for pool in COVARIANCE_POOLS if part in _KEY_PARTS[pool]]
    return lambda columns: np.isin(columns["level"], pools)


_COVARIANCE_REALS = ("var_nir", "cov", "var_ndvi")
_COVARIANCE_CHECKS = (
    *(_Column(column, "real") for column in _COVARIANCE_REALS),
    _Column("n", "integer"),
    *(_Column(part, "integer", reads=_keyed_by(part)) for part in ("square", "period")),
    _Column("level", "text", lambda level: level not in COVARIANCE_POOLS, "unknown level {!r}"),
)


def load_covariances(path, data: Optional[bytes] = None) -> CubeCovarianceTable:
    """Parse a covariance file, or its bytes ``data`` as read, column by
    column, each row checked in this order: the reals, n, square and period
    where its level reads them, then the level."""
    meta: dict = {}
    rows, entries = [], []
    caches: dict = {}
    for lines, columns in _table_chunks(path, "covariances", COVARIANCE_COLUMNS, meta.update, data):
        parsed = _check_columns(path, lines, columns, _COVARIANCE_CHECKS, caches)
        counts, squares, periods = (_gather(*parsed[c], object).tolist() for c in ("n", "square", "period"))
        entries += map(CovarianceEntry, *(parsed[c].tolist() for c in _COVARIANCE_REALS), counts)
        rows += zip(columns["level"], columns["site"], squares, periods)
    try:
        min_cube_samples = int(meta.get("min_cube_samples", "10"))
    except ValueError:
        raise ParseError(
            f"{path}: bad integer in header key 'min_cube_samples': {meta['min_cube_samples']!r}",
            line=1,
        ) from None
    return _covariance_table(rows, entries, min_cube_samples)


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
    path, held: bytes, results: Sequence[DetectionResult], meta: Optional[Mapping] = None
) -> None:
    """Replace the detection file ``path``, whose bytes as read are
    ``held``, with ``results`` unless those are the very bytes."""
    data = _table_bytes("detections", DETECTION_COLUMNS, _detection_rows(results), meta)
    if data != held:
        write_file(path, [data])


def read_detections(path, data: Optional[bytes] = None) -> tuple[dict, list[DetectionResult]]:
    """The header and rows of the detection file ``path`` (of its bytes
    ``data`` when read already)."""
    meta: dict[str, str] = {}
    out = []
    for line, row in _pixel_rows(path, "detections", DETECTION_COLUMNS, meta.update, data):
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
