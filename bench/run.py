"""Benchmark entry point.

    python3 bench/run.py --workload burgers-train --seed 1 --seconds 30 --trace 0

Builds nothing: it imports ``mvrom`` from ``src/`` of the checkout it sits
in and pins BLAS to one thread before numpy is imported.  The last line of
standard output is the result; the line before it is the run's record
(environment, per-workload figures, exact counts, problems).  Exits 0 only
when every output check passed, 1 when one failed and 2 when the program
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("burgers-train", "klein-train", "post-train")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvrom" / "__init__.py").is_file():
        print(f"bench: the program is missing (no {SRC.name}/mvrom in {ROOT})", file=sys.stderr)
        return 2
    # must precede the first numpy import: one thread is both faster at these
    # shapes and the condition under which results repeat bit for bit
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MVROM_OUTPUT_ROOT", None)  # keep every output inside the checkout
    sys.path.insert(0, str(SRC))
    import workloads

    result, record = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        reference=workloads.load_reference(args.workload), blas_threads=BLAS_THREADS,
    )
    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
