"""Output invariants of the benchmark's commands, and output digests.

Each check raises :class:`InvariantError` when an output breaks a rule that
must hold whatever the program's speed; the runner counts that command as
failed. Files are parsed here with the csv module, independently of cmfda's
readers, except train reports, which must parse with ``dataio.read_report``.
"""
from __future__ import annotations

import csv
import datetime as dt
import hashlib
import re
from pathlib import Path


class InvariantError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantError(message)


def read_table(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Header metadata and rows of a ``#cmfda <kind> v1 k=v ...`` file."""
    with open(path, newline="") as fh:
        header = fh.readline().split()
        _require(header[:1] == ["#cmfda"], f"{path.name}: missing #cmfda header")
        meta = dict(item.split("=", 1) for item in header[3:] if "=" in item)
        return meta, list(csv.DictReader(fh))


def check_fit(out_dir: Path, n_pixels: int, n_bands: int, n_windows: int) -> None:
    """One model file per window; models plus skipped fits cover every
    (pixel, band, window)."""
    files = sorted(out_dir.glob("models_*.csv"))
    _require(len(files) == n_windows, f"{len(files)} model files for {n_windows} windows")
    text = (out_dir / "fit_report.txt").read_text()
    fitted = re.search(r"fitted (\d+) models", text)
    skipped = re.search(r"skipped (\d+) ", text)
    _require(bool(fitted and skipped), "fit_report.txt lacks its counts")
    total = int(fitted.group(1)) + int(skipped.group(1))
    _require(total == n_pixels * n_bands * n_windows,
             f"fits + skips = {total}, expected {n_pixels * n_bands * n_windows}")
    rows = sum(len(read_table(f)[1]) for f in files)
    _require(rows == int(fitted.group(1)), f"model files hold {rows} rows, report says {fitted.group(1)}")


def check_detections(path: Path, pixels: set[str]) -> int:
    """Results plus skipped pixels are exactly the series' pixels, each once.
    Returns the number of flagged pixels."""
    meta, rows = read_table(path)
    ids = [r["pixel_id"] for r in rows]
    skipped_path = Path(str(path) + ".skipped.txt")
    skipped = skipped_path.read_text().split() if skipped_path.exists() else []
    _require(int(meta.get("skipped", "0")) == len(skipped),
             f"{path.name}: header says {meta.get('skipped')} skipped, file lists {len(skipped)}")
    covered = ids + skipped
    _require(len(covered) == len(set(covered)), f"{path.name}: a pixel appears twice")
    _require(set(covered) == pixels,
             f"{path.name}: covers {len(set(covered) & pixels)} of {len(pixels)} pixels"
             f" and {len(set(covered) - pixels)} unknown ones")
    flagged = 0
    for r in rows:
        _require(r["flagged"] in ("0", "1"), f"{path.name}: bad flagged value {r['flagged']!r}")
        _require((r["flagged"] == "1") == bool(r["first_flag_date"]),
                 f"{path.name}: {r['pixel_id']} flag and date disagree")
        flagged += r["flagged"] == "1"
    return flagged


def parse_report_tss(text: str) -> float:
    """The TSS line that ``cmfda report`` prints, checked to lie in [-1, 1]."""
    match = re.search(r"^tss: (-?[0-9.]+)$", text, re.MULTILINE)
    _require(match is not None, "report prints no numeric tss")
    value = float(match.group(1))
    _require(-1.0 <= value <= 1.0, f"tss {value} outside [-1, 1]")
    return value


def grid(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step)) + 1
    return [lo + k * step for k in range(n)]


def check_train_report(path: Path, dataio, rule: str, grids: list[list[float]],
                       sites: set[str]) -> float:
    """The report parses, names the rule, covers C = 2..6 on the pooled
    data, keeps every threshold on the requested grid and every skill score
    in its range. Returns the best pooled training TSS."""
    report = dataio.read_report(path)
    _require(report.rule_kind == rule, f"{path.name}: rule {report.rule_kind!r}, expected {rule!r}")
    pooled = [r for r in report.rows if r.scope == "all"]
    _require(sorted(r.consecutive for r in pooled) == [2, 3, 4, 5, 6],
             f"{path.name}: pooled rows for C = {[r.consecutive for r in pooled]}")
    for row in report.rows:
        _require(2 <= row.consecutive <= 6, f"{path.name}: C = {row.consecutive}")
        _require(len(row.thresholds) == len(grids), f"{path.name}: {row.thresholds} thresholds")
        for value, allowed in zip(row.thresholds, grids):
            _require(any(abs(value - g) < 1e-9 for g in allowed),
                     f"{path.name}: threshold {value} is off the requested grid")
        for name in ("train_tss", "cv_tss"):
            value = getattr(row, name)
            _require(value is None or -1.0 <= value <= 1.0, f"{path.name}: {name} {value}")
        for name in ("producer_acc", "user_acc"):
            value = getattr(row, name)
            _require(value is None or 0.0 <= value <= 1.0, f"{path.name}: {name} {value}")
    if rule == "multivariate":
        scopes = {r.scope for r in report.rows}
        _require(sites <= scopes, f"{path.name}: no row for sites {sorted(sites - scopes)}")
    return max(r.train_tss for r in pooled if r.train_tss is not None)


def check_online_batch(path: Path, pixels: set[str], first: dt.date, last: dt.date,
                       flagged: dict[str, str]) -> None:
    """New flags name known pixels, fall inside the monitored year plus its
    extension, and never repeat an earlier flag; ``flagged`` is updated."""
    _, rows = read_table(path)
    for r in rows:
        pid, date = r["pixel_id"], r["first_flag_date"]
        _require(pid in pixels, f"{path.name}: unknown pixel {pid}")
        _require(first <= dt.date.fromisoformat(date) <= last,
                 f"{path.name}: flag date {date} outside {first}..{last}")
        _require(pid not in flagged, f"{path.name}: {pid} flagged again")
        flagged[pid] = date


def check_online_state(state_dir: Path, flagged: dict[str, str]) -> None:
    """The state's flagged set is the union of the batch outputs."""
    _, rows = read_table(state_dir / "flagged.csv")
    state = {r["pixel_id"]: r["first_flag_date"] for r in rows}
    _require(state == flagged, f"{state_dir.name}: flagged.csv disagrees with the batch outputs")


def tss(flagged: set[str], positives: set[str], scored: set[str]):
    """True skill statistic of ``flagged`` over ``scored``; None when a class
    is empty."""
    hits = len(flagged & positives & scored)
    negatives = scored - positives
    if not positives or not negatives:
        return None
    false_alarms = len((flagged & scored) - positives)
    return hits / len(positives & scored) - false_alarms / len(negatives)


def digests(work: Path, inputs: set[str]) -> dict[str, str]:
    """sha256 of every output file under ``work`` (inputs excluded)."""
    out = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        rel = path.relative_to(work).as_posix()
        if rel not in inputs:
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def tree_digest(file_digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name, digest in sorted(file_digests.items()):
        h.update(f"{name} {digest}\n".encode())
    return h.hexdigest()
