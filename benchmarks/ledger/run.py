"""Benchmark entry point: one run of one workload, from the repository root.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Equivalent to ``python -m benchmarks.ledger run --workload NAME --seed N
--seconds S [--traced]``; the last line of standard output is the run's
JSON summary.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.ledger.cli import main  # noqa: E402


def _translate(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = ["run", "--workload", args.workload, "--seed", str(args.seed)]
    out += ["--seconds", str(args.seconds)]
    return out + (["--traced"] if args.trace else [])


if __name__ == "__main__":
    sys.exit(main(_translate(sys.argv[1:])))
