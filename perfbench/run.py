"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wide-5k --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs it once untraced and once with per-layer spans and prints
the per-layer metrics.  Each metric is printed as a ``name value unit`` line;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The program is imported from ``src/`` of the same checkout;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    measurement = WORKLOADS[args.workload].run(args.seed, args.seconds, bool(args.trace))
    metrics = measurement.per_layer if args.trace else measurement.end_to_end()
    fail_frac = measurement.failed / max(1, measurement.attempted)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<24} {value:.6g} {unit}")
    print(f"{args.workload}  {'fail_frac':<24} {fail_frac:.6g} frac")
    print(json.dumps({
        "correct": measurement.failed == 0 and measurement.attempted > 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
