"""File formats, label aggregation, and synthetic scene generation.

All text formats are comma-separated with a one-line versioned header
(``#cmfda <kind> v1 ...``) followed by a column-name row. Reals are
written with 9 significant digits, so values round-trip through that
precision; counts and dates round-trip exactly. The one binary format is
the series mirror (see :func:`write_series_mirror`).
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
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BAND_ORDER,
    CADENCE_DAYS,
    MAX_COMPOSITE_LAG,
    YEAR_DAYS,
    Band,
    CompactPixel,
    DefoType,
    DeforestationLabel,
    Observation,
    PixelSeries,
    Reliability,
    SITE_SIDE,
    SeriesArrays,
    SiteGrid,
    band_fill,
    band_range,
    cadence_error,
    day_of_year,
    distinct,
)
from .detection import DetectionResult
from .errors import (
    InvalidConfig,
    OutOfRange,
    ParseError,
    SchemaVersionMismatch,
    ShapeMismatch,
)
from .harmonic import N_COEFFS, HarmonicModel, design_matrix
from .standardize import (
    ECDF,
    KeyKind,
    SD,
    SCHEME_STAGES,
    Scheme,
    StageTables,
    Standardizer,
)
from .training import ReportRow, TrainReport
from .windows import DateInterval

MAGIC = "#cmfda"
VERSION = "v1"

# NALCMS level-II class codes; 1-6 are the forest classes.
N_LANDUSE_CLASSES = 19
FOREST_CLASSES = frozenset(range(1, 7))

FINE_SIDE = 100          # 250 m cells per site side
FINE_PER_COARSE = 4      # 250 m cells per 1 km cell side


def real(x: float) -> str:
    return format(float(x), ".9g")


def pixel_name(site_id: str, col: int, row: int) -> str:
    return f"{site_id}-{col:02d}-{row:02d}"


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


def _write_header(fh, kind: str, meta: Optional[Mapping[str, str]] = None) -> None:
    parts = [MAGIC, kind, VERSION]
    for key, value in (meta or {}).items():
        parts.append(f"{key}={value}")
    fh.write(" ".join(parts) + "\n")


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


def _check_column_names(names: Optional[list], columns: Sequence[str], path) -> None:
    """``names`` is the column-name row, None when the file ends before it."""
    if names is None:
        raise ParseError(f"{path}: missing column header", line=2)
    if names != list(columns):
        raise ParseError(f"{path}: expected columns {list(columns)}, got {names}", line=2)


def _rows(fh, columns: Sequence[str], path):
    """Yield (line_number, row dict); enforces the column-name row."""
    reader = csv.reader(fh)
    _check_column_names(next(reader, None), columns, path)
    for i, row in enumerate(reader, start=3):
        if not row:
            continue
        if len(row) != len(columns):
            raise ParseError(
                f"{path}: expected {len(columns)} fields, got {len(row)}", line=i
            )
        yield i, dict(zip(columns, row))


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
    with open(path, "w", newline="") as fh:
        _write_header(fh, "series")
        writer = csv.writer(fh)
        writer.writerow(SERIES_COLUMNS)
        for site_id, pixels in sites.items():
            for series in pixels:
                for obs in series.observations:
                    writer.writerow(_series_row(
                        site_id, series.pixel_id, series.col, series.row,
                        obs.nominal_date, obs.composite_doy, obs.reliability,
                        map(obs.values.get, BAND_ORDER, _FILL_VALUES),
                    ))


def write_series_arrays(path, sites: Mapping[str, Sequence[CompactPixel]], base=None) -> None:
    """Write the pixels' rows as a series file. With ``base``, a series
    file, its text is copied unchanged ahead of the rows, in place of a
    fresh header."""
    with open(path, "w", newline="") as fh:
        if base is None:
            _write_header(fh, "series")
            csv.writer(fh).writerow(SERIES_COLUMNS)
        else:
            with open(base, newline="") as old:
                last = ""
                while block := old.read(1 << 16):
                    fh.write(block)
                    last = block[-1]
            if last not in ("\n", "\r"):
                fh.write("\n")
        writer = csv.writer(fh)
        for site_id, pixels in sites.items():
            for cp in pixels:
                a = cp.arrays
                values = np.where(np.isnan(a.values), _FILLS, a.values).tolist()
                for ordinal, doy, reliability, row_values in zip(
                    a.ordinals.tolist(), a.doys.tolist(), a.reliability.tolist(), values
                ):
                    writer.writerow(_series_row(
                        site_id, cp.pixel_id, cp.col, cp.row, dt.date.fromordinal(ordinal),
                        doy, reliability, row_values,
                    ))


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
    """``open(path, newline="")``; with ``digest``, a hashlib object, every
    byte read from the file is fed to it as well."""
    if digest is None:
        return open(path, newline="")
    raw = _HashingReader(open(path, "rb", buffering=0), digest)
    return io.TextIOWrapper(io.BufferedReader(raw, buffer_size=_HASH_BLOCK), newline="")


def _table_chunks(path, kind: str, names: Sequence[str], on_header: Optional[Callable] = None,
                  digest=None):
    """Yield a table file's data rows, split by ``csv.reader``, in chunks.

    Each chunk is (line numbers of its non-blank rows, its columns over the
    rows before the first with the wrong field count). A chunk with such a
    row is the last: resumed after it, the generator raises the row's
    ``ParseError``, so the caller has checked the rows before it first.
    ``on_header``, when given, gets the header's key=value pairs before the
    column names are checked. ``digest``, a hashlib object, is fed the bytes read.
    """
    with _open_text(path, digest) as fh:
        header = _read_header(fh, kind, path)
        if on_header is not None:
            on_header(header)
        rows = csv.reader(fh)
        _check_column_names(next(rows, None), names, path)
        width = len(names)
        first_line = 3
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            numbers: Sequence[int] = range(first_line, first_line + len(chunk))
            first_line += len(chunk)
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


class _SeriesTable(NamedTuple):
    """A parsed series file. Pixel ``p`` is ``keys[p]`` = (site_id,
    pixel_id), in order of first appearance; its rows, sorted by nominal
    date, are ``bounds[p]:bounds[p + 1]`` of the row arrays."""

    keys: list
    cols: list
    rows: list
    bounds: np.ndarray
    ordinals: np.ndarray
    comp_ordinals: np.ndarray
    doys: np.ndarray
    reliability: np.ndarray
    values: np.ndarray      # (n_rows, 6), fill-coded


class _SeriesChunk(NamedTuple):
    pixels: np.ndarray      # index into _SeriesTable.keys
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


def _parse_series(path, digest=None) -> _SeriesTable:
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
    order = np.lexsort((table.ordinals, table.pixels))
    ordinals, pixel_idx = table.ordinals[order], table.pixels[order]
    gap_bad = (np.diff(pixel_idx) == 0) & (np.diff(ordinals) != CADENCE_DAYS)
    if gap_bad.any():
        j = int(np.argmax(gap_bad))
        pixel_id = keys[pixel_idx[j]][1]
        prev, cur = (dt.date.fromordinal(int(o)) for o in ordinals[j:j + 2])
        raise ParseError(f"{path}: pixel {pixel_id!r}: {cadence_error(pixel_id, prev, cur)}")
    return _SeriesTable(
        keys=keys,
        cols=cols,
        rows=rows,
        bounds=np.concatenate(([0], np.cumsum(np.bincount(pixel_idx, minlength=len(keys))))),
        ordinals=ordinals,
        comp_ordinals=ordinals + table.lags[order],
        doys=table.doys[order].astype(np.int32),
        reliability=table.reliability[order].astype(np.int8),
        values=table.values[order],
    )


def read_series_arrays(path) -> dict[str, list[CompactPixel]]:
    """Per site, each pixel's series as arrays (fill values read as NaN),
    pixels in order of first appearance, each sorted by date."""
    return _series_arrays(_parse_series(path))


def read_series_hashed(path) -> tuple[dict[str, list[CompactPixel]], str]:
    """:func:`read_series_arrays` of ``path`` and the SHA-256 of the very
    bytes it parsed, taken as the parser reads them: the file may change
    while it is read, and the digest then still names what was parsed."""
    digest = hashlib.sha256()
    table = _parse_series(path, digest)
    return _series_arrays(table), digest.hexdigest()


def _series_arrays(table: _SeriesTable) -> dict[str, list[CompactPixel]]:
    values = np.where(table.values == _FILLS, np.nan, table.values)
    clear = np.isin(table.reliability, _CLEAR)
    out: dict[str, list[CompactPixel]] = {}
    for p, (site_id, pixel_id) in enumerate(table.keys):
        s = slice(table.bounds[p], table.bounds[p + 1])
        arrays = SeriesArrays(
            table.ordinals[s], table.comp_ordinals[s], table.doys[s],
            table.reliability[s], clear[s], values[s],
        )
        out.setdefault(site_id, []).append(
            CompactPixel(pixel_id, table.cols[p], table.rows[p], arrays)
        )
    return out


def read_series(path) -> dict[str, list[PixelSeries]]:
    """Per site, each pixel's series as observations; same parse and order
    as :func:`read_series_arrays`."""
    table = _parse_series(path)
    out: dict[str, list[PixelSeries]] = {}
    for p, (site_id, pixel_id) in enumerate(table.keys):
        s = slice(table.bounds[p], table.bounds[p + 1])
        observations = tuple(
            Observation(
                nominal_date=dt.date.fromordinal(ordinal),
                composite_doy=doy,
                values=dict(zip(BAND_ORDER, row_values)),
                reliability=Reliability(code),
            )
            for ordinal, doy, code, row_values in zip(
                table.ordinals[s].tolist(), table.doys[s].tolist(),
                table.reliability[s].tolist(), table.values[s].tolist(),
            )
        )
        out.setdefault(site_id, []).append(
            PixelSeries(pixel_id, table.cols[p], table.rows[p], observations)
        )
    return out


def series_as_written(sites: Mapping[str, Sequence[CompactPixel]]) -> dict[str, list[CompactPixel]]:
    """The pixels as :func:`read_series_arrays` gives them back from a
    series file written from them: each value passes through the file's
    9-significant-digit text, and one that lands on its band's fill value
    reads as missing."""
    parts = [cp.arrays.values for cps in sites.values() for cp in cps]
    values = np.concatenate([np.empty((0, len(BAND_ORDER))), *parts])
    filled = np.where(np.isnan(values), _FILLS, values)
    read = np.array([float(real(v)) for v in filled.ravel().tolist()]).reshape(filled.shape)
    read = np.where(read == _FILLS, np.nan, read)
    out: dict[str, list[CompactPixel]] = {}
    start = 0
    for site_id, cps in sites.items():
        out[site_id] = []
        for cp in cps:
            stop = start + len(cp.arrays.values)
            out[site_id].append(replace(cp, arrays=cp.arrays._replace(values=read[start:stop])))
            start = stop
    return out


# --- series mirror --------------------------------------------------------------
#
# A binary copy of what read_series_arrays returns for a series file lets a
# reader skip the parse: fit leaves one of its --series beside its models,
# and an online state keeps one of its history.csv.
# The file is a sequence of .npy arrays: a JSON header (format tag, SHA-256
# of the series bytes it mirrors, and each pixel's site, id, col and row in
# read order), the pixels' row bounds, then one array per SeriesArrays field
# over all rows. The copy is derived, never authoritative: it is used only
# while its hash matches the series file's current bytes. The format tag
# predates its use beyond the online history and is kept, so a mirror's
# bytes depend only on the series it mirrors.

_MIRROR_FORMAT = "cmfda history-mirror v1"
_MIRROR_EMPTY = SeriesArrays(
    np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int32),
    np.empty(0, np.int8), np.empty(0, bool), np.empty((0, len(BAND_ORDER))),
)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def write_series_mirror(
    path, series_path, sites: Mapping[str, Sequence[CompactPixel]], digest: Optional[str] = None
) -> None:
    """Write the mirror of the series file ``series_path``; ``sites`` must
    be what :func:`read_series_arrays` returns for it, in the same order.
    ``digest`` is the SHA-256 of the bytes ``sites`` were parsed from (see
    :func:`read_series_hashed`); without it the file's current bytes are
    hashed, which is right only for a file no other process writes. The
    mirror replaces ``path`` when whole."""
    pixels = [(site_id, cp) for site_id, cps in sites.items() for cp in cps]
    header = {
        "format": _MIRROR_FORMAT,
        "sha256": _sha256(series_path) if digest is None else digest,
        "pixels": [[site_id, cp.pixel_id, int(cp.col), int(cp.row)] for site_id, cp in pixels],
    }
    bounds = np.cumsum([0] + [len(cp.arrays.ordinals) for _, cp in pixels], dtype=np.int64)
    columns = [
        np.concatenate([empty, *(cp.arrays[i] for _, cp in pixels)])
        for i, empty in enumerate(_MIRROR_EMPTY)
    ]
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        for array in (np.frombuffer(json.dumps(header).encode(), np.uint8), bounds, *columns):
            np.save(fh, array, allow_pickle=False)


def _load_mirror(path, digest: str) -> Optional[dict[str, list[CompactPixel]]]:
    """The mirror's sites when it is whole and mirrors the series whose
    SHA-256 is ``digest``; None otherwise."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(np.load(fh, allow_pickle=False).tobytes())
            if (not isinstance(header, dict) or header.get("format") != _MIRROR_FORMAT
                    or header.get("sha256") != digest):
                return None
            bounds = np.load(fh, allow_pickle=False)
            columns = SeriesArrays(*(np.load(fh, allow_pickle=False) for _ in _MIRROR_EMPTY))
    except (OSError, EOFError, ValueError):  # missing, truncated or not a mirror
        return None
    keys = header["pixels"]
    if bounds.dtype != np.int64 or bounds.shape != (len(keys) + 1,):
        return None
    for array, empty in zip(columns, _MIRROR_EMPTY):
        if array.dtype != empty.dtype or array.shape != (bounds[-1], *empty.shape[1:]):
            return None
    stops = bounds.tolist()
    out: dict[str, list[CompactPixel]] = {}
    for p, (site_id, pixel_id, col, row) in enumerate(keys):
        s = slice(stops[p], stops[p + 1])
        out.setdefault(site_id, []).append(
            CompactPixel(pixel_id, col, row, SeriesArrays(*(a[s] for a in columns)))
        )
    return out


def read_series_mirrored(path, mirror_path) -> dict[str, list[CompactPixel]]:
    """``read_series_arrays(path)``, taken from the mirror at
    ``mirror_path`` when that mirrors the current bytes of ``path``; the
    file is parsed when the mirror is missing, stale, truncated or
    unreadable."""
    sites = _load_mirror(mirror_path, _sha256(path))
    return read_series_arrays(path) if sites is None else sites


# --- label files --------------------------------------------------------------

LABEL_COLUMNS = ("pixel_id", "col", "row", "defo_count", "z")


def write_labels(path, labels: Sequence[DeforestationLabel]) -> None:
    with open(path, "w", newline="") as fh:
        _write_header(fh, "labels")
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for label in labels:
            writer.writerow([label.pixel_id, label.col, label.row, label.defo_count, label.z])


def read_labels(path) -> list[DeforestationLabel]:
    out = []
    with open(path, newline="") as fh:
        _read_header(fh, "labels", path)
        for line, row in _rows(fh, LABEL_COLUMNS, path):
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
    with open(path, "w", newline="") as fh:
        _write_header(fh, "landuse")
        writer = csv.writer(fh)
        writer.writerow(LANDUSE_COLUMNS)
        for r in range(grid.shape[0]):
            for c in range(grid.shape[1]):
                writer.writerow([c, r, int(grid[r, c])])


def read_landuse(path) -> np.ndarray:
    grid = np.zeros((FINE_SIDE, FINE_SIDE), dtype=np.int16)
    seen = np.zeros((FINE_SIDE, FINE_SIDE), dtype=bool)
    with open(path, newline="") as fh:
        _read_header(fh, "landuse", path)
        for line, row in _rows(fh, LANDUSE_COLUMNS, path):
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
    with open(path, "w", newline="") as fh:
        _write_header(
            fh,
            "models",
            {
                "train_start": train_window.start.isoformat(),
                "train_end": train_window.end.isoformat(),
            },
        )
        writer = csv.writer(fh)
        writer.writerow(MODEL_COLUMNS)
        for (pixel_id, band), model in models.items():
            writer.writerow(
                [pixel_id, int(band)] + [real(c) for c in model.coeffs] + [model.n_obs]
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
    if kind in (KeyKind.PIXEL, KeyKind.SITE):
        return str(key)
    if kind is KeyKind.PERIOD:
        return str(key)
    return _KEY_SEP.join(str(part) for part in key)


def _decode_key(kind: KeyKind, text: str):
    if kind is KeyKind.GLOBAL:
        return None
    if kind in (KeyKind.PIXEL, KeyKind.SITE):
        return text
    if kind is KeyKind.PERIOD:
        return int(text)
    parts = text.split(_KEY_SEP)
    if kind is KeyKind.SITE_PERIOD:
        return (parts[0], int(parts[1]))
    return (parts[0], int(parts[1]), int(parts[2]))


def save_standardizer(path, std: Standardizer) -> None:
    # Standardizer reals are written exactly (shortest round-trip repr):
    # a chained ECDF stage ranks incoming values against these tables, so
    # any re-quantization would shift ranks at tie points.
    with open(path, "w", newline="") as fh:
        _write_header(
            fh, "standardizer", {"scheme": std.scheme.value, "band": std.band.name}
        )
        writer = csv.writer(fh)
        writer.writerow(STANDARDIZER_COLUMNS)
        for stage_idx, stage in enumerate(std.stages):
            for kind, table in stage.sd_levels:
                for key, (sd, n) in table.items():
                    writer.writerow(
                        [stage_idx, SD, kind.value, _encode_key(kind, key), n, repr(float(sd))]
                    )
            for kind, table in stage.ecdf_levels:
                for key, sample in table.items():
                    for seq, value in enumerate(sample):
                        writer.writerow(
                            [stage_idx, ECDF, kind.value, _encode_key(kind, key), seq, repr(float(value))]
                        )


def load_standardizer(path) -> Standardizer:
    with open(path, newline="") as fh:
        meta = _read_header(fh, "standardizer", path)
        try:
            scheme = Scheme(meta["scheme"])
            band = Band[meta["band"]]
        except (KeyError, ValueError):
            raise ParseError(f"{path}: header lacks a valid scheme/band", line=1) from None
        specs = SCHEME_STAGES[scheme]
        sd_data: list[dict] = [dict() for _ in specs]
        ecdf_data: list[dict] = [dict() for _ in specs]
        for line, row in _rows(fh, STANDARDIZER_COLUMNS, path):
            stage_idx = _parse_int(row["stage"], "stage", line, path)
            if not 0 <= stage_idx < len(specs):
                raise ParseError(f"{path}: stage {stage_idx} not in scheme", line=line)
            try:
                kind = KeyKind(row["kind"])
            except ValueError:
                raise ParseError(f"{path}: unknown key kind {row['kind']!r}", line=line) from None
            key = _decode_key(kind, row["key"])
            if row["table"] == SD:
                sd = _parse_float(row["value"], "value", line, path)
                n = _parse_int(row["seq"], "seq", line, path)
                sd_data[stage_idx].setdefault(kind, {})[key] = (sd, n)
            else:
                seq = _parse_int(row["seq"], "seq", line, path)
                value = _parse_float(row["value"], "value", line, path)
                ecdf_data[stage_idx].setdefault(kind, {}).setdefault(key, []).append((seq, value))
    stages = []
    from .standardize import FALLBACK_LEVELS

    for stage_idx, (key_kind, transform_kind) in enumerate(specs):
        levels = FALLBACK_LEVELS[key_kind]
        if transform_kind == SD:
            sd_levels = tuple(
                (kind, dict(sd_data[stage_idx].get(kind, {}))) for kind in levels
            )
            stages.append(StageTables(key_kind, SD, sd_levels=sd_levels))
        else:
            ecdf_levels = tuple(
                (
                    kind,
                    {
                        key: np.array([v for _, v in sorted(entries)])
                        for key, entries in ecdf_data[stage_idx].get(kind, {}).items()
                    },
                )
                for kind in levels
            )
            stages.append(StageTables(key_kind, ECDF, ecdf_levels=ecdf_levels))
    return Standardizer(scheme=scheme, band=band, stages=tuple(stages))


# --- covariance tables ----------------------------------------------------------

COVARIANCE_COLUMNS = ("level", "site", "square", "period", "var_nir", "cov", "var_ndvi", "n")


def save_covariances(path, table: "CubeCovarianceTable") -> None:
    from .detection import CubeCovarianceTable  # noqa: F401  (type only)

    with open(path, "w", newline="") as fh:
        _write_header(fh, "covariances", {"min_cube_samples": str(table.min_cube_samples)})
        writer = csv.writer(fh)
        writer.writerow(COVARIANCE_COLUMNS)
        for (site, square, period), e in table.cubes.items():
            writer.writerow(
                ["cube", site, square, period, real(e.var_nir), real(e.cov), real(e.var_ndvi), e.n]
            )
        for (site, period), e in table.site_periods.items():
            writer.writerow(
                ["site_period", site, "", period, real(e.var_nir), real(e.cov), real(e.var_ndvi), e.n]
            )
        for site, e in table.sites.items():
            writer.writerow(
                ["site", site, "", "", real(e.var_nir), real(e.cov), real(e.var_ndvi), e.n]
            )


def load_covariances(path) -> "CubeCovarianceTable":
    """Parse a covariance file column by column. A fault is reported as a
    row-by-row reading would meet it: the first bad row, and its first
    failing check (reals, n, square and period where its level reads them,
    then the level)."""
    from .detection import CovarianceEntry, CubeCovarianceTable

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


def write_detections(
    path, results: Sequence[DetectionResult], meta: Optional[Mapping[str, str]] = None
) -> None:
    with open(path, "w", newline="") as fh:
        _write_header(fh, "detections", meta)
        writer = csv.writer(fh)
        writer.writerow(DETECTION_COLUMNS)
        for res in results:
            writer.writerow(
                [
                    res.pixel_id,
                    int(res.flagged),
                    res.first_flag_date.isoformat() if res.first_flag_date else "",
                    res.triggering_band.name if res.triggering_band else "",
                ]
            )


def read_detections(path) -> tuple[dict[str, str], list[DetectionResult]]:
    out = []
    with open(path, newline="") as fh:
        meta = _read_header(fh, "detections", path)
        for line, row in _rows(fh, DETECTION_COLUMNS, path):
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
    with open(path, "w", newline="") as fh:
        _write_header(fh, "report", meta)
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in report.rows:
            t1 = real(row.thresholds[0]) if row.thresholds else ""
            t2 = real(row.thresholds[1]) if len(row.thresholds) > 1 else ""
            writer.writerow(
                [
                    row.scope, row.consecutive, t1, t2,
                    _opt(row.train_tss), _opt(row.cv_tss),
                    _opt(row.producer_acc), _opt(row.user_acc),
                ]
            )


def read_report(path) -> TrainReport:
    with open(path, newline="") as fh:
        meta = _read_header(fh, "report", path)
        rows = []
        for line, row in _rows(fh, REPORT_COLUMNS, path):
            thresholds = tuple(
                _parse_float(row[c], c, line, path)
                for c in ("threshold_1", "threshold_2")
                if row[c]
            )
            def opt(column):
                return _parse_float(row[column], column, line, path) if row[column] else None
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
    band = Band[meta["band"]] if "band" in meta else None
    return TrainReport(rule_kind=meta.get("rule", ""), band=band, rows=tuple(rows))


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


# --- synthetic scenes -------------------------------------------------------------


@dataclass(frozen=True)
class BandSignal:
    """Harmonic coefficients and noise level of one band's clean signal."""

    coeffs: tuple[float, float, float, float, float]
    noise_sd: float = 0.0


@dataclass(frozen=True)
class EventSpec:
    """A step change applied to every observation from ``date`` on."""

    pixels: tuple[tuple[int, int], ...]   # (col, row)
    date: dt.date
    shifts: Mapping[Band, float]


@dataclass(frozen=True)
class SynthConfig:
    site_id: str
    start: dt.date
    end: dt.date
    signals: Mapping[Band, BandSignal]
    cloud_prob: tuple[float, ...]         # monthly probability of a cloudy flag
    marginal_prob: float = 0.1
    events: tuple[EventSpec, ...] = ()
    seed: int = 0
    defo_type: DefoType = DefoType.UNKNOWN


# Real (non-fill) data ranges used to clip noisy synthetic values; kept
# inside the acceptance range and away from the fill codes.
_CLIP = {band: (0.0, 1.0) for band in BAND_ORDER[:4]}
_CLIP.update({band: (-0.2, 1.0) for band in BAND_ORDER[4:]})


def _validate_config(cfg: SynthConfig) -> None:
    if cfg.end < cfg.start:
        raise InvalidConfig("end date before start date")
    if len(cfg.cloud_prob) != 12:
        raise InvalidConfig("cloud_prob needs one probability per month")
    if any(not 0 <= p <= 1 for p in cfg.cloud_prob):
        raise InvalidConfig("cloud probabilities must lie in [0, 1]")
    if not 0 <= cfg.marginal_prob <= 1:
        raise InvalidConfig("marginal probability must lie in [0, 1]")
    if any(p + cfg.marginal_prob > 1 for p in cfg.cloud_prob):
        raise InvalidConfig("cloudy plus marginal probability exceeds 1")
    for band in BAND_ORDER:
        if band not in cfg.signals:
            raise InvalidConfig(f"missing signal for band {band.name}")
    # worst-case cumulative shift per band: shifts only stack on a pixel
    # hit by several events
    per_pixel: dict[tuple[int, int], dict[Band, float]] = {}
    for event in cfg.events:
        if not cfg.start <= event.date <= cfg.end:
            raise InvalidConfig(f"event date {event.date} outside the scene dates")
        for col, row in event.pixels:
            if not (0 <= col < SITE_SIDE and 0 <= row < SITE_SIDE):
                raise InvalidConfig(f"event pixel ({col}, {row}) outside the site")
            totals = per_pixel.setdefault((col, row), {})
            for band, shift in event.shifts.items():
                totals[band] = totals.get(band, 0.0) + shift
    down = {band: 0.0 for band in BAND_ORDER}
    up = {band: 0.0 for band in BAND_ORDER}
    for totals in per_pixel.values():
        for band, shift in totals.items():
            down[band] = min(down[band], shift)
            up[band] = max(up[band], shift)
    for band, signal in cfg.signals.items():
        if signal.noise_sd < 0:
            raise InvalidConfig(f"{band.name}: negative noise sd")
        amplitude = sum(abs(c) for c in signal.coeffs[1:])
        lo, hi = _CLIP[band]
        if signal.coeffs[0] - amplitude + down[band] < lo - 1e-9:
            raise InvalidConfig(f"{band.name}: clean signal can fall below {lo}")
        if signal.coeffs[0] + amplitude + up[band] > hi + 1e-9:
            raise InvalidConfig(f"{band.name}: clean signal can exceed {hi}")


def generate_site(cfg: SynthConfig) -> tuple[SiteGrid, list[DeforestationLabel]]:
    """Deterministic synthetic site: per-band harmonics plus noise, monthly
    cloud flags, and step-change events; labels mirror the event pixel set."""
    _validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    n_pixels = SITE_SIDE * SITE_SIDE

    dates = []
    d = cfg.start
    while d <= cfg.end:
        dates.append(d)
        d += dt.timedelta(days=16)
    n_dates = len(dates)
    months = np.array([d.month - 1 for d in dates])
    cloud_p = np.asarray(cfg.cloud_prob)[months]

    offsets = rng.integers(0, 16, size=(n_pixels, n_dates))
    quality_draw = rng.random(size=(n_pixels, n_dates))
    noise = {
        band: rng.standard_normal((n_pixels, n_dates)) * cfg.signals[band].noise_sd
        for band in BAND_ORDER
    }

    composite_dates = np.array(
        [[dates[j].toordinal() + offsets[i, j] for j in range(n_dates)] for i in range(n_pixels)]
    )
    composite_doys = np.array(
        [
            [day_of_year(dt.date.fromordinal(int(o))) for o in row]
            for row in composite_dates
        ]
    )

    reliability = np.where(
        quality_draw < cloud_p[None, :],
        int(Reliability.CLOUDY),
        np.where(
            quality_draw < cloud_p[None, :] + cfg.marginal_prob,
            int(Reliability.MARGINAL),
            int(Reliability.GOOD),
        ),
    )

    shift = {band: np.zeros((n_pixels, n_dates)) for band in BAND_ORDER}
    event_pixels: set[tuple[int, int]] = set()
    for event in cfg.events:
        post = np.array([d >= event.date for d in dates])
        for col, row in event.pixels:
            event_pixels.add((col, row))
            idx = row * SITE_SIDE + col
            for band, amount in event.shifts.items():
                shift[band][idx, post] += amount

    values = {}
    for band in BAND_ORDER:
        coeffs = np.asarray(cfg.signals[band].coeffs)
        clean = np.array(
            [design_matrix(composite_doys[i]) @ coeffs for i in range(n_pixels)]
        )
        lo, hi = _CLIP[band]
        values[band] = np.clip(clean + shift[band] + noise[band], lo, hi)

    pixels = []
    labels = []
    for row in range(SITE_SIDE):
        for col in range(SITE_SIDE):
            idx = row * SITE_SIDE + col
            observations = tuple(
                Observation(
                    nominal_date=dates[j],
                    composite_doy=int(composite_doys[idx, j]),
                    values={band: float(values[band][idx, j]) for band in BAND_ORDER},
                    reliability=Reliability(int(reliability[idx, j])),
                )
                for j in range(n_dates)
            )
            pid = pixel_name(cfg.site_id, col, row)
            pixels.append(PixelSeries(pid, col, row, observations))
            deforested = (col, row) in event_pixels
            labels.append(
                DeforestationLabel(
                    pixel_id=pid,
                    col=col,
                    row=row,
                    defo_count=16 if deforested else 0,
                    z=1 if deforested else 0,
                )
            )
    site = SiteGrid(site_id=cfg.site_id, pixels=tuple(pixels), defo_type=cfg.defo_type)
    return site, labels


# Monthly cloudy probabilities; the April-September wet season doubles the
# base rate.
def seasonal_cloud_prob(base: float = 0.06) -> tuple[float, ...]:
    return tuple(2 * base if 4 <= month <= 9 else base for month in range(1, 13))


_DEFAULT_SIGNALS = {
    Band.RED: BandSignal((0.08, 0.02, 0.012, 0.006, 0.004)),
    Band.NIR: BandSignal((0.42, 0.05, 0.03, 0.012, 0.008)),
    Band.BLUE: BandSignal((0.05, 0.01, 0.006, 0.003, 0.002)),
    Band.MIR: BandSignal((0.18, 0.03, 0.018, 0.008, 0.005)),
    Band.NDVI: BandSignal((0.68, -0.06, -0.04, 0.015, 0.01)),
    Band.EVI: BandSignal((0.55, -0.05, -0.03, 0.012, 0.008)),
}


def _with_noise(noise_sd: float) -> dict[Band, BandSignal]:
    return {
        band: BandSignal(signal.coeffs, noise_sd)
        for band, signal in _DEFAULT_SIGNALS.items()
    }


def _scenario_config(
    site_id: str,
    shifts: Mapping[Band, float],
    defo_type: DefoType,
    seed: int,
    noise_sd: float,
    n_events: int,
    first_year: int,
    event_years: Sequence[int],
    cloud_base: float,
) -> SynthConfig:
    picker = np.random.default_rng(seed + 987654321)
    chosen = picker.choice(SITE_SIDE * SITE_SIDE, size=n_events, replace=False)
    events = []
    for idx in sorted(int(i) for i in chosen):
        col, row = idx % SITE_SIDE, idx // SITE_SIDE
        year = int(picker.choice(list(event_years)))
        month = int(picker.integers(2, 11))
        day = int(picker.integers(1, 29))
        events.append(
            EventSpec(pixels=((col, row),), date=dt.date(year, month, day), shifts=dict(shifts))
        )
    last_predict_year = first_year + 6
    return SynthConfig(
        site_id=site_id,
        start=dt.date(first_year, 1, 1),
        end=dt.date(last_predict_year + 1, 5, 1),
        signals=_with_noise(noise_sd),
        cloud_prob=seasonal_cloud_prob(cloud_base),
        marginal_prob=0.08,
        events=tuple(events),
        seed=seed,
        defo_type=defo_type,
    )


def sonora_like_config(
    seed: int = 0,
    noise_sd: float = 0.02,
    n_events: int = 30,
    first_year: int = 2003,
    event_years: Sequence[int] = (2005, 2006, 2007, 2008, 2009),
    cloud_base: float = 0.06,
) -> SynthConfig:
    """Forest-to-water scene: deforestation shows as an NIR drop."""
    return _scenario_config(
        "sonora-like", {Band.NIR: -0.3}, DefoType.FOREST_TO_WATER,
        seed, noise_sd, n_events, first_year, event_years, cloud_base,
    )


def yucatan_like_config(
    seed: int = 0,
    noise_sd: float = 0.02,
    n_events: int = 30,
    first_year: int = 2003,
    event_years: Sequence[int] = (2005, 2006, 2007, 2008, 2009),
    cloud_base: float = 0.06,
) -> SynthConfig:
    """Forest-to-urban/cropland scene: deforestation shows as an NDVI drop."""
    return _scenario_config(
        "yucatan-like", {Band.NDVI: -0.3}, DefoType.FOREST_TO_URBAN_CROPLAND,
        seed, noise_sd, n_events, first_year, event_years, cloud_base,
    )
