"""The benchmark's patch points name functions that exist.

``bench/tracing.py`` wraps public functions of the package by name and lists
a name it cannot find as ``absent`` instead of failing, so a renamed or
removed function would silently drop out of the traced figures.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_bench_patch_point_exists():
    tracer = tracing.Tracer(tracing.trace_points(workloads.MODULES))
    with tracer:
        pass
    assert tracer.absent == []
