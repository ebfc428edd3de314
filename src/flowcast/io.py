"""Delimited-text ingest and export for passenger-flow records.

The on-disk format is a UTF-8 CSV, a leading byte-order mark allowed, with header
``station_id,day_index,slot_index,count``, one observed cell per row.
Stations are ordered by first appearance; cells absent from the file are
zero-filled and counted rather than interpolated, since completion is a
modeling step, not an ingest step.

Ingest reads the file once, in blocks of ``BLOCK_ROWS`` (1,024) records, and
holds the tensor and one block, never an array or object per row of the
whole file.  Each block is one ``np.loadtxt`` call, which ends it at a record
(reading on past a quoted newline or a blank line), checked with array
operations (index ranges, finite non-negative counts, no cell twice in the
block or already written) and scattered into a station-major tensor that
grows in place as new ids appear.  Unwritten cells are NaN: counts are
finite, so a cell has been seen iff it is not NaN, and the unseen cells are
zero-filled at the end, one station slab at a time.  The first block those
checks cannot vouch for goes, with the rest of the file, to the row loop,
which is the parser of record: it names the line of the first bad row, or
accepts what only Python's ``int``/``float`` accept (``1_0``), and scatters
each row into the same tensor, doubling it in place as stations appear.  So
does a block with a field ``csv`` refuses for its length; ``csv`` reads a
block only where that can happen: the block is longer than
``csv.field_size_limit()`` and holds a line that long or a quote.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .tensor_ops import as_whole

HEADER = ["station_id", "day_index", "slot_index", "count"]

# object, not U<n>: a fixed-width string dtype would cut long ids short
_RECORD = np.dtype([("sid", object), ("day", np.int64), ("slot", np.int64),
                    ("count", np.float64)])
# records per np.loadtxt call: a block's lines, records and str ids cost about 0.2 MB
BLOCK_ROWS = 1024


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


def _csv_rows(lines, offset=0):
    """``csv.reader`` rows, each with the file line it ends on (a quoted newline spans
    two) when ``offset`` lines came before ``lines``, and csv's own errors (a field past
    ``csv.field_size_limit()``, say) raised as ``ValueError`` naming the line."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield offset + reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"line {offset + reader.line_num}: {exc}") from None


def _check_header(fh):
    header = next(_csv_rows(fh), (0, None))[1]
    if header != HEADER:
        raise ValueError(f"expected header {','.join(HEADER)!r}, got {header!r}")


def _resize(tensor, n_stations):
    """Resize ``tensor`` in place to ``n_stations`` station slabs, any new ones unseen
    (NaN).  No reference check: no view of its buffer may be alive across the call."""
    old = len(tensor)
    tensor.resize((n_stations,) + tensor.shape[1:], refcheck=False)
    tensor[old:] = np.nan


def _recorded(fh, lines):
    """The lines of ``fh``, each appended to ``lines`` as it is read."""
    for line in fh:
        lines.append(line)
        yield line


def _station_codes(sids, station_row):
    """Each row's station number, an id not yet in ``station_row`` taking the next one:
    one lookup per run of rows with equal ids, in row order."""
    ends = np.concatenate(([True], sids[1:] != sids[:-1], [True])).nonzero()[0]
    runs = [station_row.setdefault(s, len(station_row)) for s in sids[ends[:-1]]]
    return np.array(runs, dtype=np.int64).repeat(ends[1:] - ends[:-1])


def _scatter_block(lines, fh, n_days, n_slots, station_row, tensor):
    """Parse ``BLOCK_ROWS`` records from ``lines`` and then ``fh``, check them, then
    scatter them into ``tensor``.  Every line read from ``fh`` is appended to ``lines``;
    numpy reads none past its last record, so a block ends where a record does.

    Returns the block's row count, or None where the row loop must decide;
    then no cell of the block has been written.
    """
    try:
        rec = np.loadtxt(chain(lines, _recorded(fh, lines)), dtype=_RECORD, delimiter=",",
                         comments=None, quotechar='"', ndmin=1, max_rows=BLOCK_ROWS)
    except (ValueError, OverflowError):
        return None
    # csv can refuse a field for its length only in such a block: an unquoted field
    # is no longer than its line, a quoted one no longer than its block
    if len("".join(lines)) > csv.field_size_limit() and any(
            len(line) > csv.field_size_limit() or '"' in line for line in lines):
        try:
            list(csv.reader(lines))
        except csv.Error:
            return None
    if not len(rec):
        return 0
    day, slot, count = rec["day"], rec["slot"], rec["count"]
    if (day.min() < 0 or day.max() >= n_days or slot.min() < 0 or slot.max() >= n_slots
            or not np.isfinite(count).all() or count.min() < 0):
        return None
    cell = (_station_codes(rec["sid"], station_row) * n_days + day) * n_slots + slot
    if len(station_row) > len(tensor):
        _resize(tensor, len(station_row))
    in_order = np.sort(cell)
    flat = tensor.reshape(-1)
    if (in_order[1:] == in_order[:-1]).any() or not np.isnan(flat[cell]).all():
        return None
    flat[cell] = count
    return len(rec)


def _scatter_rows(lines, offset, n_days, n_slots, station_row, tensor):
    """The row loop over ``lines``, which follow the file's first ``offset`` lines:
    scatter each row into ``tensor`` and return the rows read."""
    n_rows = 0
    for line_no, row in _csv_rows(lines, offset):
        if not row:
            continue
        sid, day, slot, count = _parse_row(row, line_no, n_days, n_slots)
        l = station_row.setdefault(sid, len(station_row))
        if l == len(tensor):
            _resize(tensor, 2 * l + 1)
        if not math.isnan(tensor[l, day, slot]):
            raise ValueError(f"line {line_no}: duplicate record for {(sid, day, slot)}")
        tensor[l, day, slot] = count
        n_rows += 1
    return n_rows


def _ingest(path, n_days, n_slots, blocks=True, row_loop=True):
    """Blocks until one fails its checks, then the row loop from that block's first
    line on.  Without ``blocks`` the row loop reads the whole file; without
    ``row_loop`` the result is None where the row loop would have to decide."""
    station_row = {}
    tensor = np.empty((0, n_days, n_slots))
    n_rows = 0
    with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        _check_header(fh)
        line_no = 1  # a header that checks out is one line
        # blank lines are skipped, as by csv.reader
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rest = fh
        while blocks and (lines := list(islice(fh, BLOCK_ROWS))):
            rows = _scatter_block(lines, fh, n_days, n_slots, station_row, tensor)
            if rows is None:
                if not row_loop:
                    return None
                rest = chain(lines, fh)
                break
            n_rows += rows
            line_no += len(lines)
        n_rows += _scatter_rows(rest, line_no, n_days, n_slots, station_row, tensor)

    if not station_row:
        if not row_loop:
            return None
        raise ValueError("no records found")
    _resize(tensor, len(station_row))
    for slab in tensor:
        slab[np.isnan(slab)] = 0.0
    report = LoadReport(n_rows=n_rows, n_stations=len(station_row),
                        missing_count=tensor.size - n_rows)
    return tensor, list(station_row), report


def _ingest_array(path, n_days, n_slots):
    """The block parse alone: None where the row loop must decide."""
    return _ingest(path, n_days, n_slots, row_loop=False)


def _ingest_rows(path, n_days, n_slots):
    """The row loop alone, over the whole file."""
    return _ingest(path, n_days, n_slots, blocks=False)


def ingest(path, extents):
    """Read records into a dense (stations, days, slots) tensor.

    ``extents`` declares (n_days, n_slots); the station extent is discovered.
    Returns ``(tensor, station_ids, LoadReport)``.
    """
    n_days, n_slots = (as_whole(e, f"extents[{k}]") for k, e in enumerate(extents))
    return _ingest(path, n_days, n_slots)


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
