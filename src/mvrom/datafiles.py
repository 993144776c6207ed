"""On-disk formats: pair datasets, checkpoints and CSV tables.

The two binary files are framed alike, by ``write_values`` and
``read_values``: a magic, a header that the caller packs or parses, then as
many little-endian float64 values as the header implies.
- Pair file: magic "MVROM1", dim and count as u64, two float64 parameters
  (viscosity and time-scale for field datasets, noise scale and 0 for
  mechanics), then count row-major pairs (input row, target row).
- Checkpoint (``vae.save_checkpoint``): magic "MVAECKPT", the version and
  the JSON header's length as two u32, the JSON header (sizes, latent,
  settings and each parameter's name and shape), then the parameters in
  that order, a pointcloud latent's points last.
A plain-text columnar export of pairs exists for inspection and plotting.
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


def write_values(path, magic: bytes, header: bytes, arrays):
    """``magic``, ``header``, then each array's values as row-major float64,
    written to `<path>.tmp`, which then replaces ``path``: an interrupted
    write leaves an earlier file at ``path`` whole, and no temp file."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic + header)
            for a in arrays:
                np.ascontiguousarray(a, "<f8").tofile(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_values(path, magic: bytes, what: str, parse, name_bad):
    """(header, values) of a file framed by ``write_values``, named ``what``.
    ``parse(read)`` takes the header through ``read(n)`` (n bytes, or a
    ValueError) and returns (header, value count); the file's size must be
    exactly what that implies.  The values are read once, into one array; a
    NaN or Inf, screened for by min and max, raises with ``name_bad(header,
    index of the first)``.  Every ValueError names the path."""
    with open(path, "rb") as fh:
        if (found := fh.read(len(magic))) != magic:
            raise ValueError(f"{path}: not a {what} (bad magic {found!r})")

        def read(n: int) -> bytes:
            if len(data := fh.read(n)) < n:
                raise ValueError(f"truncated {what} header")
            return data

        try:
            header, count = parse(read)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        size, expected = os.fstat(fh.fileno()).st_size, fh.tell() + 8 * count
        if size != expected:
            raise ValueError(f"{path}: {size} bytes, but its header implies {expected}")
        values = np.fromfile(fh, "<f8", count)
    if count and not np.isfinite([values.min(), values.max()]).all():
        raise ValueError(f"{path}: {name_bad(header, int(np.argmax(~np.isfinite(values))))}")
    return header, values


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
    header = _HEADER.pack(X.shape[1], X.shape[0], float(param1), float(param2))
    write_values(path, MAGIC, header, [np.stack([X, Y], axis=1)])  # (m, 2, dim): pair by pair


def _pair_header(read) -> tuple[PairHeader, int]:
    header = PairHeader(*_HEADER.unpack(read(_HEADER.size)))
    if header.count == 0:
        raise ValueError("holds no pairs")
    return header, 2 * header.count * header.dim


def load_pairs(path) -> tuple[np.ndarray, np.ndarray, PairHeader]:
    """Read a pair file; it must hold a pair, its size must be exactly what
    its header implies, and its values finite: a NaN or Inf is named by its
    pair (1 is the first) and path.

    The file's values are read once, into one array: X and Y are views of it."""
    header, values = read_values(
        path, MAGIC, "pair-dataset file", _pair_header,
        lambda h, i: f"non-finite value in pair {i // (2 * h.dim) + 1}, "
                     f"{('input X', 'target Y')[i // h.dim % 2]}")
    pairs = values.reshape(header.count, 2, header.dim)
    return pairs[:, 0], pairs[:, 1], header


def read_text(path) -> str:
    """The text of ``path``; a file that does not decode is a ValueError naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        where = f"byte {exc.start}: {exc.reason}"
        raise ValueError(f"{path}: not {exc.encoding} text ({where})") from None


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
