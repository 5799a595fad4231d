"""Flight records: ingestion, maneuver annotation, scaling, splits, features.

A flight is one read-only float64 block, a row per equally-sampled channel
(:class:`FlightRecord`), plus an ordered list of maneuver segments.  Ingest
and :func:`emit_csv` move the block whole; the parsed-flight cache stores it
whole and serves only the rows of the channels a reader asks for.  CSV layout:

    time_s,TRQ,WF,...          header: time column first, then channels
    0.0,312.5,260.1,...        one row per sample

``time_s`` is implied by the sample rate and is regenerated on emit.
Ingest only requires it to be the first column with finite cells, then
drops it: its values are not compared with the sample rate.  Maneuver
annotations live in a separate CSV with columns
``flight_id,label,start_index,end_index,excluded`` where ``end_index`` is
exclusive and ``excluded`` is 0 or 1.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import itertools
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib import format as npy_format

from .errors import (
    ConfigError,
    DegenerateChannel,
    EmptyDataset,
    IncompleteSplit,
    IoError,
    LengthMismatch,
    MalformedCsv,
    MissingChannel,
    NonNumericCell,
    OverlappingIds,
    TargetExcluded,
    UnknownChannel,
    ZeroVariance,
)
from .settings import check, setting

TIME_COLUMN = "time_s"
MANEUVER_COLUMNS = ("flight_id", "label", "start_index", "end_index", "excluded")

# Channel catalogue: name -> physical unit.
CHANNEL_UNITS: dict[str, str] = {
    "TRQ": "Nm",
    "COL": "%",
    "T1": "°C",
    "T45": "°C",
    "TOil": "°C",
    "POil": "psi",
    "P0": "psi",
    "NR": "%",
    "TAT": "°C",
    "NP": "%",
    "NG": "%",
    "NGR": "%",
    "WF": "lb/h",
    "AIRSPEED": "kts",
}

CHANNEL_ORDER: tuple[str, ...] = tuple(CHANNEL_UNITS)

#: Input set used by the multi-input torque predictors.
DEFAULT_FEATURES: tuple[str, ...] = ("COL", "T1", "P0", "NR", "AIRSPEED")


@dataclass(frozen=True)
class ManeuverSegment:
    """Half-open sample range [start_index, end_index) with a label."""

    label: str
    start_index: int
    end_index: int
    excluded: bool = False

    def __post_init__(self):
        if not (0 <= self.start_index < self.end_index):
            raise LengthMismatch(
                f"bad maneuver range [{self.start_index}, {self.end_index})"
            )

    @property
    def n_samples(self) -> int:
        return self.end_index - self.start_index


@dataclass(frozen=True, eq=False)
class FlightRecord:
    """All channels of one flight at a fixed sample rate, as one block.

    ``samples`` is a read-only, C-order float64 array of finite cells, one
    row per channel of ``channel_names``; :meth:`values` returns a row view.
    The record owns it: any input is copied once, except a read-only
    C-order float64 array that owns its memory, which is kept as it is.
    :meth:`with_maneuvers` shares the block and does not check it again.
    A record may hold only some of a flight's channels, or none: a cache
    read projected onto the channels a stage uses (:func:`ingest_cached`).
    Records compare and hash by identity, as does every tssid value type
    that holds an array.
    """

    flight_id: str
    sample_rate_hz: float
    channel_names: tuple[str, ...]
    samples: np.ndarray
    maneuvers: tuple[ManeuverSegment, ...] = ()

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise LengthMismatch(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        names = tuple(self.channel_names)
        for i, name in enumerate(names):
            if name in names[:i]:
                raise UnknownChannel(f"duplicate channel {name!r}")
        block = self.samples
        if not (type(block) is np.ndarray and block.dtype == np.float64 and block.flags.owndata
                and block.flags.c_contiguous and not block.flags.writeable):
            try:
                block = np.array(block, dtype=np.float64, order="C")
            except ValueError as exc:  # ragged rows
                raise LengthMismatch(f"flight {self.flight_id!r}: {exc}") from None
            block.setflags(write=False)
        if block.ndim != 2 or len(block) != len(names):
            raise LengthMismatch(f"flight {self.flight_id!r}: samples of shape "
                                 f"{block.shape} for {len(names)} channels")
        if block.size and not np.isfinite([block.min(), block.max()]).all():  # NaN propagates
            row, col = np.argwhere(~np.isfinite(block))[0]
            raise NonNumericCell(int(col) + 1, names[row], "non-finite")
        object.__setattr__(self, "channel_names", names)
        object.__setattr__(self, "samples", block)
        self._check_maneuvers()

    def _check_maneuvers(self) -> None:
        n = self.n_samples
        for seg in self.maneuvers:
            if seg.end_index > n:
                raise LengthMismatch(f"flight {self.flight_id!r}: maneuver {seg.label!r} ends "
                                     f"at {seg.end_index}, flight has {n} samples")

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[1])

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate_hz

    def values(self, name: str) -> np.ndarray:
        """The samples of channel ``name``: a read-only row of the block."""
        try:
            return self.samples[self.channel_names.index(name)]
        except ValueError:
            raise MissingChannel(f"flight {self.flight_id!r} has no channel {name!r}") from None

    def with_maneuvers(self, segments: Iterable[ManeuverSegment]) -> "FlightRecord":
        """This flight with other maneuvers; the new record shares the block."""
        rec = copy.copy(self)
        object.__setattr__(rec, "maneuvers", tuple(segments))
        rec._check_maneuvers()
        return rec

    def included_mask(self) -> np.ndarray:
        """Boolean mask of samples inside non-excluded maneuvers.

        A record with no annotations counts as one included segment.
        """
        if not self.maneuvers:
            return np.ones(self.n_samples, dtype=bool)
        mask = np.zeros(self.n_samples, dtype=bool)
        for seg in self.maneuvers:
            if not seg.excluded:
                mask[seg.start_index:seg.end_index] = True
        return mask

    def scoring_segments(self) -> tuple[ManeuverSegment, ...]:
        """Non-excluded segments, whole flight if unannotated."""
        if not self.maneuvers:
            return (ManeuverSegment("flight", 0, self.n_samples),)
        return tuple(s for s in self.maneuvers if not s.excluded)


# --- CSV ---------------------------------------------------------------------

_CSV_BLOCK_ROWS = 1024


def ingest_csv(path: str | Path, sample_rate_hz: float,
               flight_id: str | None = None) -> FlightRecord:
    """Read one flight CSV into a :class:`FlightRecord`.

    The header must start with ``time_s``; every other column becomes a
    channel.  Cells must parse as finite floats (:class:`NonNumericCell`
    reports the 1-based data row and the channel name otherwise), and all
    columns must have equal length (ragged rows raise
    :class:`LengthMismatch`).  Text that is not UTF-8, or a cell longer
    than the csv module's field limit, raises :class:`MalformedCsv`.

    A well-formed body is parsed by numpy's C reader into one float64
    block.  Any other file (a blank line, a quoted cell, ``1_000``, a
    non-finite or bad cell, ...) goes through the cell-by-cell
    :func:`_read_csv_strict`, which accepts and rejects exactly the same
    files with the same messages.
    """
    path = Path(path)
    if flight_id is None:
        flight_id = path.stem
    parsed = _read_csv_fast(path)
    header, data = parsed if parsed is not None else _read_csv_strict(path)
    return FlightRecord(flight_id, sample_rate_hz, header[1:], data[:, 1:].T)


def ingest_cached(path: str | Path, sample_rate_hz: float, flight_id: str,
                  cache_dir: str | Path, channels: Collection[str] | None = None,
                  digest: str | None = None) -> tuple[FlightRecord, str]:
    """:func:`ingest_csv` through a parsed-flight cache; also returns the
    sha256 hex digest of the CSV's bytes.

    The cache holds at most one entry per flight,
    ``<cache_dir>/<flight_id>/<sha256>.npy``: the record's block from the
    last successful ingest of the flight's CSV, keyed by the digest of the
    CSV's bytes.  A hit takes the channel names from the CSV's first line
    and reads the rows it serves into one read-only block that the record
    keeps, so it gives bitwise the rows a fresh ingest gives, and any edit
    to the CSV is a miss.  An entry that cannot be read, does not fit the
    header or holds a non-finite cell among the rows served counts as a
    miss; a miss ingests the CSV and, only if that succeeds, replaces the
    flight's entry with the whole block.

    ``channels`` projects the record onto those channels, in the CSV's
    order: a hit reads only their rows, so it costs 8 B per requested cell,
    and ``()`` reads none and serves the sample count alone.  A channel the
    CSV lacks is a :class:`MissingChannel`, as :meth:`FlightRecord.values`
    raises it.  ``digest`` is the CSV's digest as an earlier read of the
    stage recorded it: the entry under it is read without hashing the CSV
    again.  A miss whose CSV, once parsed, no longer has the digest looked
    up (recorded or just taken) raises :class:`IoError`, so a record is
    always that of the bytes its digest names, and a stage never mixes two
    versions of a flight.
    """
    path = Path(path)
    if digest is None:
        digest = file_sha256(path)
    entry = Path(cache_dir) / flight_id / f"{digest}.npy"
    hit = _load_entry(path, entry, flight_id, channels)
    if hit is not None:
        with contextlib.suppress(NonNumericCell):
            return FlightRecord(flight_id, sample_rate_hz, *hit), digest
    rec = ingest_csv(path, sample_rate_hz, flight_id)
    # a record parsed from other bytes than the digest's is neither returned nor stored
    if file_sha256(path) != digest:
        raise IoError(f"{path} changed while the stage was reading it")
    _store_entry(entry, rec)
    if channels is None:
        return rec, digest
    rows = _channel_rows(rec.channel_names, channels, flight_id)
    block = rec.samples[rows]
    block.setflags(write=False)
    return FlightRecord(flight_id, sample_rate_hz, [rec.channel_names[r] for r in rows],
                        block), digest


def file_sha256(path: Path) -> str:
    """sha256 hex digest of a file's bytes, read into one 64 KiB buffer in turn."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    try:
        with open(path, "rb", buffering=0) as fh:
            while n := fh.readinto(buf):
                digest.update(view[:n])
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def _channel_rows(names: Sequence[str], channels: Collection[str] | None,
                  flight_id: str) -> list[int]:
    """The rows of ``names`` that hold ``channels`` (every row for None), in order."""
    if channels is None:
        return list(range(len(names)))
    for name in channels:
        if name not in names:
            raise MissingChannel(f"flight {flight_id!r} has no channel {name!r}")
    return [r for r, name in enumerate(names) if name in channels]


def _load_entry(path: Path, entry: Path, flight_id: str, channels: Collection[str] | None
                ) -> tuple[list[str], np.ndarray] | None:
    """Channel names and samples of the rows a cache hit serves; None for a
    missing or unusable entry.

    The entry's ``.npy`` header must declare a C-order float64 block with
    one row per channel of the CSV header, and the file must hold exactly
    that block.  Each requested row is contiguous in the file and is read
    straight into its row of the returned block.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            names = [h.strip() for h in next(csv.reader(fh))][1:]
        with open(entry, "rb") as fh:
            if npy_format.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = npy_format.read_array_header_1_0(fh)
            if (dtype != np.float64 or fortran or len(shape) != 2
                    or shape[0] != len(names) or shape[1] < 1):
                return None
            start, row_bytes = fh.tell(), 8 * shape[1]
            if os.fstat(fh.fileno()).st_size - start != row_bytes * shape[0]:
                return None
            rows = _channel_rows(names, channels, flight_id)
            data = np.empty((len(rows), shape[1]))
            for out, r in zip(data, rows):
                fh.seek(start + row_bytes * r)
                if fh.readinto(out) != row_bytes:
                    return None
    except (OSError, ValueError, StopIteration, csv.Error):
        return None
    data.setflags(write=False)  # a block that owns its memory: the record keeps it
    return [names[r] for r in rows], data


def _store_entry(entry: Path, rec: FlightRecord) -> None:
    """Make ``entry`` the flight's only cache entry; best effort.

    The samples go to a uniquely named ``.tmp`` file that is then renamed
    into place, so concurrent stages never read a half-written entry.
    """
    tmp = None
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, rec.samples, allow_pickle=False)
        os.replace(tmp, entry)
        for old in entry.parent.glob("*.npy"):
            if old != entry:
                old.unlink(missing_ok=True)
    except OSError:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)


def _read_csv_fast(path: Path) -> tuple[list[str], np.ndarray] | None:
    """Header and finite float64 body of a well-formed flight CSV, else None.

    ``np.loadtxt`` skips blank lines silently and parses lines longer than
    the csv module's field limit, which the strict reader refuses, so
    either kind of line ends the fast parse.  Every other difference from
    the strict reader makes the parse raise ``ValueError`` or gives a
    column count other than the header's.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = [h.strip() for h in next(csv.reader(fh), ())]
            if header[:1] != [TIME_COLUMN] or len(header) < 2:
                return None
            first = fh.readline()
            if not first:
                return None
            data = np.loadtxt(_plain_lines(itertools.chain((first,), fh)),
                              delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error):
        return None
    if data.shape[1] != len(header) or not np.isfinite(data).all():
        return None
    return header, data


def _plain_lines(lines: Iterable[str]) -> Iterator[str]:
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit or not line.rstrip("\r\n"):
            raise ValueError("line left to the strict reader")
        yield line


def _read_csv_strict(path: Path) -> tuple[list[str], np.ndarray]:
    """Cell-by-cell reader; raises the exact error for a malformed file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
                rows = list(reader)
            except StopIteration:
                raise MissingChannel(f"{path}: empty file") from None
            except (UnicodeDecodeError, csv.Error) as exc:
                raise _malformed(path, reader, exc) from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    header = [h.strip() for h in header]
    if not header or header[0] != TIME_COLUMN:
        raise MissingChannel(f"{path}: first column must be {TIME_COLUMN!r}")
    names = header[1:]
    if not names:
        raise MissingChannel(f"{path}: no data channels")
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")

    width = len(header)
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise LengthMismatch(
                f"{path}: row {r} has {len(row)} cells, header has {width}"
            )
    try:
        data = np.asarray(rows, dtype=np.float64)
    except ValueError:
        data = _parse_cells_strict(rows, header, path)
    if not np.all(np.isfinite(data)):
        r, c = np.argwhere(~np.isfinite(data))[0]
        col = TIME_COLUMN if c == 0 else names[c - 1]
        raise NonNumericCell(int(r) + 1, col, rows[r][c])
    return header, data


def _malformed(path: Path, reader, exc: Exception) -> MalformedCsv:
    """The error for text the csv reader cannot take: not UTF-8, or a cell
    past the field limit.  Names the first bad byte or the line."""
    if isinstance(exc, UnicodeDecodeError):
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as bad:
            return MalformedCsv(f"{path}: byte {bad.start} is not UTF-8 ({bad.reason})")
        except OSError:
            pass
        return MalformedCsv(f"{path}: not UTF-8 text")
    return MalformedCsv(f"{path}: line {reader.line_num}: {exc}")


def _parse_cells_strict(rows, header, path) -> np.ndarray:
    """Slow path: locate the offending cell for an exact error message."""
    out = np.empty((len(rows), len(header)))
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            try:
                out[r, c] = float(cell)
            except ValueError:
                raise NonNumericCell(r + 1, header[c], cell) from None
    return out


def emit_csv(record: FlightRecord, path: str | Path) -> None:
    """Write a flight CSV that ingests back bit-exact."""
    time_s = np.arange(record.n_samples) / record.sample_rate_hz
    write_float_csv(path, (TIME_COLUMN,) + record.channel_names, [time_s, *record.samples])


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator:
    """Open ``<path>.tmp`` for writing; it replaces ``path`` when the block ends.

    ``mode`` is ``"w"`` (UTF-8 text, ``\\n`` written as given) or ``"wb"``.
    The parent directory is created.  A reader of ``path`` sees the old
    file or the whole new one, never a partial write; a block that raises
    leaves no ``<path>.tmp`` behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_float_csv(path: str | Path, header: Sequence[str],
                    columns: Sequence[np.ndarray]) -> None:
    """Write equal-length float columns as a CSV, atomically.

    Floats are rendered with ``repr``, the shortest string that round-trips
    the exact float64 value.  Rows are formatted and written in blocks of
    ``_CSV_BLOCK_ROWS`` to a ``.tmp`` file that then replaces ``path``, so
    no string the size of the whole file is ever built.
    """
    path = Path(path)
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise LengthMismatch(f"{path.name}: CSV columns must share one length")
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            rows = zip(*(c[lo:lo + _CSV_BLOCK_ROWS].tolist() for c in cols))
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def save_maneuvers(maneuvers: Mapping[str, Sequence[ManeuverSegment]],
                   path: str | Path) -> None:
    """Write flight_id -> segments (as :func:`load_maneuvers` returns) to one CSV."""
    lines = [",".join(MANEUVER_COLUMNS)]
    for flight_id, segments in maneuvers.items():
        for seg in segments:
            lines.append(
                f"{flight_id},{seg.label},{seg.start_index},"
                f"{seg.end_index},{int(seg.excluded)}"
            )
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _maneuver_row(path: Path, r: int, row: Sequence[str], flight_ids: Collection[str] | None,
                  n_samples: Mapping[str, int]) -> tuple[str, ManeuverSegment]:
    def bad(why: str) -> MalformedCsv:
        return MalformedCsv(f"{path}: data row {r}: {why}")

    if len(row) != len(MANEUVER_COLUMNS):
        raise bad(f"{len(row)} cells, expected {len(MANEUVER_COLUMNS)}")
    flight_id, label, start, end, excluded = row
    if flight_ids is not None and flight_id not in flight_ids:
        raise bad(f"flight {flight_id!r} is not in the corpus")
    if excluded not in ("0", "1"):
        raise bad(f"excluded must be 0 or 1, got {excluded!r}")
    try:
        seg = ManeuverSegment(label, int(start), int(end), excluded == "1")
    except (ValueError, LengthMismatch) as exc:
        raise bad(str(exc)) from None
    n = n_samples.get(flight_id)
    if n is not None and seg.end_index > n:
        raise bad(f"flight {flight_id!r} segment {label!r} ends at {seg.end_index}, "
                  f"the flight has {n} samples")
    return flight_id, seg


def load_maneuvers(path: str | Path, flight_ids: Collection[str] | None = None,
                   n_samples: Mapping[str, int] | None = None
                   ) -> dict[str, tuple[ManeuverSegment, ...]]:
    """Read a maneuver annotation CSV; returns flight_id -> segments.

    The header must be exactly ``MANEUVER_COLUMNS``.  A row needs five
    cells, integer indices with ``0 <= start_index < end_index``,
    ``excluded`` 0 or 1, a flight among ``flight_ids`` when given, an end
    within its flight's ``n_samples`` when given, and no overlap with
    another segment of its flight.  Anything else is a
    :class:`MalformedCsv` naming the file and the 1-based data row.
    """
    path = Path(path)
    out: dict[str, list[tuple[int, ManeuverSegment]]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header != list(MANEUVER_COLUMNS):
                    raise MalformedCsv(f"{path}: header must be {','.join(MANEUVER_COLUMNS)}, "
                                       f"got {'nothing' if header is None else ','.join(header)}")
                for r, row in enumerate(reader, start=1):
                    flight_id, seg = _maneuver_row(path, r, row, flight_ids, n_samples or {})
                    out.setdefault(flight_id, []).append((r, seg))
            except (UnicodeDecodeError, csv.Error) as exc:
                raise _malformed(path, reader, exc) from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    for flight_id, rows in out.items():
        ordered = sorted(rows, key=lambda rs: rs[1].start_index)
        for (r0, a), (r1, b) in zip(ordered, ordered[1:]):
            if b.start_index < a.end_index:
                raise MalformedCsv(
                    f"{path}: data row {r1}: flight {flight_id!r} segment "
                    f"{b.label!r} [{b.start_index},{b.end_index}) overlaps "
                    f"{a.label!r} [{a.start_index},{a.end_index}) of data row {r0}")
    return {k: tuple(seg for _, seg in v) for k, v in out.items()}


def filter_maneuvers(record: FlightRecord, exclude_labels: Iterable[str]) -> FlightRecord:
    """Mark segments whose label is in ``exclude_labels`` as excluded.

    Exclusion only ever grows: segments already excluded stay excluded, so
    an empty label set returns the record unchanged and the operation is
    idempotent.
    """
    labels = set(exclude_labels)
    segs = tuple(
        replace(s, excluded=s.excluded or (s.label in labels))
        for s in record.maneuvers
    )
    return record.with_maneuvers(segs)


# --- correlation -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Pearson correlations over pooled, non-excluded samples."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        if v.shape != (len(self.names), len(self.names)):
            raise LengthMismatch("correlation matrix shape does not match names")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def corr(self, a: str, b: str) -> float:
        ia, ib = self.names.index(a), self.names.index(b)
        return float(self.values[ia, ib])


def correlation_matrix(records: Iterable[FlightRecord]) -> CorrelationMatrix:
    """Pearson correlation matrix across flights, of the first flight's channels.

    Samples inside excluded maneuvers are dropped before pooling.  Raises
    :class:`ZeroVariance` if any pooled channel is constant.  A flight
    whose channel set differs from the first flight's is a
    :class:`MissingChannel` naming both flights and the channel.

    The pool is streamed flight by flight and never concatenated: a first
    pass takes each channel's sum, min and max, a second accumulates the
    centred co-moment matrix one flight block at a time.  ``records`` is
    iterated once per pass, in the same order, so it may be an iterable
    that reads each flight again when it is reached, and then at most one
    flight is held at a time.
    """
    first = None
    n = 0
    for rec in records:
        if first is None:
            first = rec
            names = tuple(rec.channel_names)
            k = len(names)
            total = np.zeros(k)
            lo = np.full(k, np.inf)
            hi = np.full(k, -np.inf)
        else:
            _same_channels(first, rec)
        block = _included_block(rec, names)
        if block.shape[0]:
            n += block.shape[0]
            total += block.sum(axis=0)
            np.minimum(lo, block.min(axis=0), out=lo)
            np.maximum(hi, block.max(axis=0), out=hi)
    if first is None:
        raise EmptyDataset("correlation_matrix needs at least one flight")
    if n < 2:
        raise EmptyDataset("correlation_matrix needs at least two pooled samples")
    for nm, a, b in zip(names, lo, hi):
        if a == b:
            raise ZeroVariance(f"channel {nm!r} is constant over pooled samples")
    mean = total / n
    comoment = np.zeros((k, k))
    for rec in records:
        block = _included_block(rec, names)
        block -= mean
        comoment += block.T @ block
    d = np.sqrt(np.diag(comoment))
    c = comoment / d[:, None] / d[None, :]
    c = 0.5 * (c + c.T)
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(names, c)


def _same_channels(first: FlightRecord, rec: FlightRecord) -> None:
    """Refuse ``rec`` unless it carries exactly the channels of ``first``."""
    for a, b in ((first, rec), (rec, first)):
        for name in a.channel_names:
            if name not in b.channel_names:
                raise MissingChannel(f"flight {b.flight_id!r} has no channel {name!r}, "
                                     f"which flight {a.flight_id!r} has")


def _included_block(rec: FlightRecord, names: tuple[str, ...]) -> np.ndarray:
    """(included samples, channels) float64 block of one flight."""
    mask = rec.included_mask()
    block = np.empty((int(np.count_nonzero(mask)), len(names)))
    for j, nm in enumerate(names):
        block[:, j] = rec.values(nm)[mask]
    return block


# --- min-max scaling ----------------------------------------------------------

@dataclass(frozen=True)
class ScalerParams:
    """Per-channel (min, max) fitted on training flights."""

    bounds: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        object.__setattr__(
            self, "bounds",
            {k: (float(v[0]), float(v[1])) for k, v in dict(self.bounds).items()},
        )

    def channel_bounds(self, name: str) -> tuple[float, float]:
        try:
            return self.bounds[name]
        except KeyError:
            raise UnknownChannel(f"no scaler parameters for channel {name!r}") from None


def fit_minmax(records: Sequence[FlightRecord],
               names: Sequence[str] | None = None) -> ScalerParams:
    """Fit per-channel min-max bounds over all samples of ``records``."""
    if not records:
        raise EmptyDataset("fit_minmax needs at least one flight")
    if names is None:
        names = records[0].channel_names
    bounds = {}
    for nm in names:
        lo = min(float(rec.values(nm).min()) for rec in records)
        hi = max(float(rec.values(nm).max()) for rec in records)
        if hi == lo:
            raise DegenerateChannel(f"channel {nm!r} is constant; cannot scale")
        bounds[nm] = (lo, hi)
    return ScalerParams(bounds)


def apply_minmax(params: ScalerParams, record: FlightRecord) -> FlightRecord:
    """Scale every channel of ``record`` to (x - min) / (max - min).

    The map is affine and unclamped, so out-of-range values land outside
    [0, 1] rather than being distorted.
    """
    lo, hi = _bounds(params, record)
    return replace(record, samples=(record.samples - lo) / (hi - lo))


def invert_minmax(params: ScalerParams, record: FlightRecord) -> FlightRecord:
    """Inverse of :func:`apply_minmax`."""
    lo, hi = _bounds(params, record)
    return replace(record, samples=record.samples * (hi - lo) + lo)


def _bounds(params: ScalerParams, record: FlightRecord) -> np.ndarray:
    """Each channel's min and max, as two (channels, 1) columns."""
    return np.array([params.channel_bounds(nm) for nm in record.channel_names]).T[..., None]


def scale_series(params: ScalerParams, name: str, values: np.ndarray) -> np.ndarray:
    lo, hi = params.channel_bounds(name)
    return (np.asarray(values, dtype=np.float64) - lo) / (hi - lo)


def unscale_series(params: ScalerParams, name: str, values: np.ndarray) -> np.ndarray:
    lo, hi = params.channel_bounds(name)
    return np.asarray(values, dtype=np.float64) * (hi - lo) + lo


# --- splits -------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSplit:
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        ids = self.all_ids  # an id twice in one list or in two lists
        if len(set(ids)) != len(ids):
            twice = sorted({i for i in ids if ids.count(i) > 1})
            raise OverlappingIds(f"train/val/test list these flight ids twice: {twice}")

    @property
    def all_ids(self) -> tuple[str, ...]:
        return self.train_ids + self.val_ids + self.test_ids


def split_dataset(flight_ids: Sequence[str],
                  fractions: Sequence[float] | None = None,
                  explicit: Mapping[str, Sequence[str]] | None = None,
                  seed: int = 0) -> DatasetSplit:
    """Partition flight ids into train/val/test.

    Either ``fractions`` (train, val, test summing to 1; shuffled with
    ``seed``) or ``explicit`` (mapping with keys train/val/test that must
    cover ``flight_ids`` exactly and pairwise-disjointly).
    """
    ids = list(flight_ids)
    if len(set(ids)) != len(ids):
        raise OverlappingIds("duplicate flight ids in corpus")
    if explicit is not None:
        tr = tuple(explicit.get("train", ()))
        va = tuple(explicit.get("val", ()))
        te = tuple(explicit.get("test", ()))
        split = DatasetSplit(tr, va, te)
        listed = set(split.all_ids)
        corpus = set(ids)
        if listed != corpus:
            missing = sorted(corpus - listed)
            extra = sorted(listed - corpus)
            raise IncompleteSplit(
                f"split does not cover corpus exactly; missing={missing}, unknown={extra}"
            )
        return split
    if fractions is None:
        raise IncompleteSplit("need either fractions or explicit split lists")
    if len(fractions) != 3:
        raise IncompleteSplit("fractions must be (train, val, test)")
    f = [float(x) for x in fractions]
    if any(x < 0 for x in f) or abs(sum(f) - 1.0) > 1e-9:
        raise IncompleteSplit(f"fractions must be non-negative and sum to 1, got {f}")
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    n = len(ids)
    n_train = int(round(f[0] * n))
    n_val = int(round(f[1] * n))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    return DatasetSplit(
        tuple(order[:n_train]),
        tuple(order[n_train:n_train + n_val]),
        tuple(order[n_train + n_val:]),
    )


# --- feature selection --------------------------------------------------------

@dataclass(frozen=True)
class FeatureRules:
    """Rules applied to a correlation matrix to pick model inputs."""

    exclude: tuple[str, ...] = ()
    min_abs_corr: float | None = setting(None, lo=0, hi=1)
    max_abs_corr: float | None = setting(None, lo=0, hi=1)

    def __post_init__(self):
        check(self, ConfigError)
        lo, hi = self.min_abs_corr, self.max_abs_corr
        if lo is not None and hi is not None and lo > hi:
            raise ConfigError(f"min_abs_corr: must be <= max_abs_corr {hi}, got {lo}")


def select_features(corr: CorrelationMatrix, target: str,
                    rules: FeatureRules = FeatureRules()) -> tuple[str, ...]:
    """Choose input channels for predicting ``target``.

    Order follows the correlation matrix.  ``exclude`` removes names;
    correlation bounds are applied against |corr(channel, target)|.  Dropping the target itself
    raises :class:`TargetExcluded`.
    """
    if target not in corr.names:
        raise MissingChannel(f"target {target!r} not in correlation matrix")
    if target in rules.exclude:
        raise TargetExcluded(f"rules would drop the prediction target {target!r}")
    chosen = []
    for nm in corr.names:
        if nm == target:
            continue
        if nm in rules.exclude:
            continue
        r = abs(corr.corr(nm, target))
        if rules.min_abs_corr is not None and r < rules.min_abs_corr:
            continue
        if rules.max_abs_corr is not None and r > rules.max_abs_corr:
            continue
        chosen.append(nm)
    return tuple(chosen)
