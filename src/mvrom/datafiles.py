"""On-disk formats for paired datasets.

Binary layout: magic "MVROM1" (6 bytes), then four little-endian 64-bit
header values (dim as u64, count as u64, two float64 parameters -- viscosity
and time-scale for field datasets, noise scale and 0 for mechanics), then
count row-major float64 pairs (input row, target row).  A plain-text
columnar export exists for inspection and external plotting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"MVROM1"
_HEADER = struct.Struct("<QQdd")


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
    interleaved = np.empty((2 * m, dim))
    interleaved[0::2] = X
    interleaved[1::2] = Y
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(dim, m, float(param1), float(param2)))
        interleaved.astype("<f8").tofile(fh)


def load_pairs(path) -> tuple[np.ndarray, np.ndarray, PairHeader]:
    """Read a pair file; its size must be exactly what its header implies."""
    data = Path(path).read_bytes()
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        raise ValueError(f"{path}: not a pair-dataset file (bad magic {magic!r})")
    start = len(MAGIC) + _HEADER.size
    if len(data) < start:
        raise ValueError(f"{path}: truncated header")
    dim, count, p1, p2 = _HEADER.unpack_from(data, len(MAGIC))
    expected = start + 16 * count * dim
    if len(data) != expected:
        raise ValueError(
            f"{path}: {len(data)} bytes, but {count} pairs of dimension {dim} need {expected}"
        )
    interleaved = np.frombuffer(data, "<f8", 2 * count * dim, start).reshape(2 * count, dim)
    return (
        interleaved[0::2].copy(),
        interleaved[1::2].copy(),
        PairHeader(dim, count, p1, p2),
    )


def export_pairs_text(path, X: np.ndarray, Y: np.ndarray):
    """Comma-separated columns x0..x{d-1},y0..y{d-1}, one pair per line."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    dim = X.shape[1]
    header = ",".join([f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)])
    np.savetxt(path, np.hstack([X, Y]), delimiter=",", header=header, comments="")


def write_table_csv(path, rows: list[dict], columns: list[str]):
    """Small deterministic CSV writer used for error tables and traces."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)
