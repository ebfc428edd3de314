"""Delimited-text ingest and export for passenger-flow records.

The on-disk format is a UTF-8 CSV with header
``station_id,day_index,slot_index,count``, one observed cell per row.
Stations are ordered by first appearance; cells absent from the file are
zero-filled and counted rather than interpolated, since completion is a
modeling step, not an ingest step.

A well-formed file is parsed in blocks of ``BLOCK_ROWS`` rows, one
``np.loadtxt`` call each on the same handle.  Each block is checked with
array operations (index ranges, finite non-negative counts, no cell twice
in the block or already marked in a per-cell ``seen`` mask) and scattered
into a station-major tensor that grows in place as new ids appear, so
ingest holds the tensor, its mask and one block, never an array or object
per row of the whole file.  Any file those checks cannot vouch for is read
again by the row loop, which is the parser of record: it names the line of
the first bad row, or accepts what only Python's ``int``/``float`` accept
(``1_0``).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

HEADER = ["station_id", "day_index", "slot_index", "count"]

# object, not U<n>: a fixed-width string dtype would cut long ids short
_RECORD = np.dtype([("sid", object), ("day", np.int64), ("slot", np.int64),
                    ("count", np.float64)])
# rows per np.loadtxt call: one block of records costs about 0.7 MB
BLOCK_ROWS = 8192


@dataclass
class LoadReport:
    """Ingest bookkeeping: rows read, stations found, cells zero-filled."""

    n_rows: int
    n_stations: int
    missing_count: int


def _parse_row(row, line_no, n_days, n_slots):
    if len(row) != 4:
        raise ValueError(f"line {line_no}: expected 4 fields, got {len(row)}")
    sid = row[0]
    try:
        day = int(row[1])
        slot = int(row[2])
        count = float(row[3])
    except ValueError:
        raise ValueError(f"line {line_no}: malformed indices or count: {row!r}") from None
    if not 0 <= day < n_days:
        raise ValueError(f"line {line_no}: day_index {day} outside [0, {n_days})")
    if not 0 <= slot < n_slots:
        raise ValueError(f"line {line_no}: slot_index {slot} outside [0, {n_slots})")
    if count < 0:
        raise ValueError(f"line {line_no}: negative count for ({sid}, {day}, {slot})")
    if not math.isfinite(count):
        raise ValueError(f"line {line_no}: non-finite count for ({sid}, {day}, {slot})")
    return sid, day, slot, count


def _csv_rows(fh):
    """``csv.reader`` rows, each with the file line it ends on (a quoted newline spans
    two), and csv's own errors (a field past ``csv.field_size_limit()``, say) raised
    as ``ValueError`` naming the line."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None


def _check_header(rows):
    header = next(rows, (0, None))[1]
    if header != HEADER:
        raise ValueError(f"expected header {','.join(HEADER)!r}, got {header!r}")


def _scatter_block(fh, n_days, n_slots, station_row, tensor, seen):
    """Parse and check the next block of rows, then scatter it into ``tensor``.

    Returns the block's row count, or None where the row loop must decide.
    The block's arrays die on return, so the next block's parse never
    overlaps this one.
    """
    try:
        rec = np.loadtxt(fh, dtype=_RECORD, delimiter=",", comments=None, quotechar='"',
                         ndmin=1, max_rows=BLOCK_ROWS)
    except (ValueError, OverflowError):
        return None
    if not len(rec):
        return 0
    day, slot, count = rec["day"], rec["slot"], rec["count"]
    if (day.min() < 0 or day.max() >= n_days or slot.min() < 0 or slot.max() >= n_slots
            or not np.isfinite(count).all() or count.min() < 0):
        return None
    codes = np.array([station_row.setdefault(sid, len(station_row)) for sid in rec["sid"]],
                     dtype=np.int64)
    if len(station_row) > len(tensor):
        # in place, station-major: the new stations' cells are appended as zeros;
        # no view of either buffer outlives the block that made it
        tensor.resize((len(station_row), n_days, n_slots), refcheck=False)
        seen.resize((len(station_row), n_days, n_slots), refcheck=False)
    cell = (codes * n_days + day) * n_slots + slot
    in_order = np.sort(cell)
    if (in_order[1:] == in_order[:-1]).any() or seen.reshape(-1)[cell].any():
        return None
    seen.reshape(-1)[cell] = True
    tensor.reshape(-1)[cell] = count
    return len(rec)


def _ingest_array(path, n_days, n_slots):
    """Parse and check the file block by block; None where the row loop must decide."""
    station_row = {}
    tensor = np.zeros((0, n_days, n_slots))
    seen = np.zeros((0, n_days, n_slots), dtype=bool)
    n_rows = 0
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        _check_header(_csv_rows(fh))
        # blank lines are skipped, as by csv.reader; a header-only file is the
        # row loop's "no records found"
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        while True:
            rows = _scatter_block(fh, n_days, n_slots, station_row, tensor, seen)
            if rows is None:
                return None
            n_rows += rows
            if rows < BLOCK_ROWS:
                break
    if not n_rows:
        return None
    report = LoadReport(n_rows=n_rows, n_stations=len(station_row),
                        missing_count=tensor.size - n_rows)
    return tensor, list(station_row), report


def _ingest_rows(path, n_days, n_slots):
    station_ids = []
    station_row = {}
    cells = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(fh)
        _check_header(rows)
        for line_no, row in rows:
            if not row:
                continue
            sid, day, slot, count = _parse_row(row, line_no, n_days, n_slots)
            if sid not in station_row:
                station_row[sid] = len(station_ids)
                station_ids.append(sid)
            key = (sid, day, slot)
            if key in cells:
                raise ValueError(f"line {line_no}: duplicate record for {key}")
            cells[key] = count

    if not station_ids:
        raise ValueError("no records found")
    tensor = np.zeros((len(station_ids), n_days, n_slots))
    for (sid, day, slot), count in cells.items():
        tensor[station_row[sid], day, slot] = count
    report = LoadReport(n_rows=len(cells), n_stations=len(station_ids),
                        missing_count=tensor.size - len(cells))
    return tensor, station_ids, report


def _whole(extent):
    if not float(extent).is_integer():
        raise ValueError(f"declared extents must be whole numbers, got {extent!r}")
    return int(extent)


def ingest(path, extents):
    """Read records into a dense (stations, days, slots) tensor.

    ``extents`` declares (n_days, n_slots); the station extent is discovered.
    Returns ``(tensor, station_ids, LoadReport)``.
    """
    n_days, n_slots = (_whole(e) for e in extents)
    if n_days < 1 or n_slots < 1:
        raise ValueError("declared extents must be positive")
    loaded = _ingest_array(path, n_days, n_slots)
    return loaded if loaded is not None else _ingest_rows(path, n_days, n_slots)


def export(path, tensor, station_ids):
    """Write every cell in canonical (station, day, slot) order.

    Counts are written with full precision so an export re-ingests to an
    equal tensor.  A negative or non-finite count, which ingest would
    refuse, raises ``ValueError`` naming its cell before the file is opened.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError("tensor must be 3-way (stations, days, slots)")
    if len(station_ids) != tensor.shape[0]:
        raise ValueError("one id per station required")
    bad = ~np.isfinite(tensor) | (tensor < 0)
    if bad.any():
        # the first cell ingest would refuse on re-reading; -0.0 is not below zero
        l, day, slot = np.unravel_index(np.argmax(bad), bad.shape)
        count = float(tensor[l, day, slot])
        kind = "negative" if count < 0 else "non-finite"
        raise ValueError(f"{kind} count {count!r} for ({station_ids[l]}, {day}, {slot})")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        slots = range(tensor.shape[2])
        for sid, station in zip(station_ids, tensor.tolist()):
            for day, counts in enumerate(station):
                writer.writerows(zip(repeat(sid), repeat(day), slots, counts))
