"""Benchmark of stablevol's ABC filters.

Run from the root of a source checkout:

    python3 bench/run.py --workload apf_shifted --seed 1 --seconds 10 --trace 0

``--trace 0`` times whole units with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` interleaves untraced and traced units and
reports the per-layer metrics.  Every metric is printed as
``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A traced run also
writes its first traced unit's spans to ``.bench_out/``.  See
``bench/README.md`` for the workloads and what each metric predicts.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def import_package() -> float:
    """Import stablevol from this checkout's ``src``; returns seconds taken."""
    if not (SRC / "stablevol" / "__init__.py").is_file():
        raise SystemExit(f"error: no stablevol package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("stablevol")
    elapsed = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "stablevol":
        raise SystemExit(f"error: imported stablevol from {package.__file__}, not {SRC}")
    return elapsed


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {var: os.environ[var] for var in THREAD_ENV},
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _number(value):
    return value if math.isfinite(value) else None


def main(argv=None, size: str = "full") -> int:
    import_s = import_package()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    machine = machine_info()
    report = workloads.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), size=size, import_s=import_s
    )
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for line in report.info:
        print(line)
    for name, (value, unit) in report.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in report.problems:
        print("problem: " + problem, file=sys.stderr)
    if report.spans:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"machine": machine, "workload": args.workload}) + "\n")
            for span in report.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans {len(report.spans)} written to {path.relative_to(ROOT)}")
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": _number(value), "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
