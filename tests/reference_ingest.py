"""Cell-by-cell reference for :func:`tssid.flightdata.ingest_csv`.

This is the ``csv.reader`` ingest that the C-parsed reader replaced, kept
verbatim as an oracle: every cell becomes a Python ``str`` before numpy
parses it.  ``tests/test_flightdata.py`` requires ``ingest_csv`` to return
a bitwise-equal record, or to raise the same exception class with the same
message, on every generated file.
"""

import csv
from pathlib import Path

import numpy as np

from tssid.errors import (
    EmptyDataset,
    IoError,
    LengthMismatch,
    MissingChannel,
    NonNumericCell,
)
from tssid.flightdata import CHANNEL_UNITS, TIME_COLUMN, Channel, FlightRecord


def ingest_csv(path, sample_rate_hz, flight_id=None):
    """Read one flight CSV into a :class:`FlightRecord`."""
    path = Path(path)
    if flight_id is None:
        flight_id = path.stem
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingChannel(f"{path}: empty file") from None
            rows = list(reader)
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

    channels = tuple(
        Channel(name, CHANNEL_UNITS.get(name, ""), data[:, j + 1])
        for j, name in enumerate(names)
    )
    return FlightRecord(flight_id, sample_rate_hz, channels)


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
