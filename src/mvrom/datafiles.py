"""On-disk formats for paired datasets.

Binary layout: magic "MVROM1" (6 bytes), then four little-endian 64-bit
header values (dim as u64, count as u64, two float64 parameters -- viscosity
and time-scale for field datasets, noise scale and 0 for mechanics), then
count row-major float64 pairs (input row, target row).  A plain-text
columnar export exists for inspection and external plotting.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"MVROM1"
_HEADER = struct.Struct("<QQdd")


class NonFiniteValueError(ValueError):
    """A table to be written holds a NaN or Inf."""


@dataclass(frozen=True)
class PairHeader:
    dim: int
    count: int
    param1: float
    param2: float


def save_pairs(path, X: np.ndarray, Y: np.ndarray, param1: float = 0.0, param2: float = 0.0):
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape != Y.shape or X.ndim != 2:
        raise ValueError(f"expected matching (m, dim) arrays, got {X.shape} and {Y.shape}")
    m, dim = X.shape
    interleaved = np.empty((2 * m, dim), "<f8")
    interleaved[0::2] = X
    interleaved[1::2] = Y
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(dim, m, float(param1), float(param2)))
        interleaved.tofile(fh)


def load_pairs(path) -> tuple[np.ndarray, np.ndarray, PairHeader]:
    """Read a pair file; its size must be exactly what its header implies, and
    its values finite: a NaN or Inf is named by its pair (1 is the first) and path.

    The file's values are read once, into one array: X and Y are its even
    and odd rows, as views."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a pair-dataset file (bad magic {magic!r})")
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        dim, count, p1, p2 = _HEADER.unpack(head)
        size = os.fstat(fh.fileno()).st_size
        expected = len(MAGIC) + _HEADER.size + 16 * count * dim
        if size != expected:
            raise ValueError(
                f"{path}: {size} bytes, but {count} pairs of dimension {dim} need {expected}"
            )
        interleaved = np.fromfile(fh, "<f8", 2 * count * dim).reshape(2 * count, dim)
    # NaN and Inf reach min or max, which need no array of the file's size
    if interleaved.size and not np.isfinite([interleaved.min(), interleaved.max()]).all():
        row = np.flatnonzero(~np.isfinite(interleaved).all(axis=1))[0]
        raise ValueError(f"{path}: non-finite value in pair {row // 2 + 1}, "
                         f"{('input X', 'target Y')[row % 2]}")
    return interleaved[0::2], interleaved[1::2], PairHeader(dim, count, p1, p2)


def export_pairs_text(path, X: np.ndarray, Y: np.ndarray):
    """Comma-separated columns x0..x{d-1},y0..y{d-1}, one pair per line."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    dim = X.shape[1]
    header = ",".join([f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)])
    np.savetxt(path, np.hstack([X, Y]), delimiter=",", header=header, comments="")


def write_table_csv(path, rows: list[dict], columns: list[str]):
    """Small deterministic CSV writer used for error tables, failure lists
    and traces: each line ends in a bare newline, and a field holding a
    comma, a quote or a line break is quoted as the ``csv`` module quotes
    it.  A NaN or Inf raises ``NonFiniteValueError`` naming the file, the row
    (1 is the first after the header) and the column, before the file is
    opened."""
    path = Path(path)
    lines = [[_fmt(row.get(c), path, i, c) for c in columns] for i, row in enumerate(rows, 1)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([columns, *lines])


def _fmt(v, path, row: int, column: str) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise NonFiniteValueError(f"{path}: {v} in row {row}, column '{column}'")
        return f"{v:.10g}"
    return str(v)
