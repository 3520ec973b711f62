"""Command-line interface: ``python -m repro.analysis [paths...]``."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_paths
from repro.analysis.reporting import REPORTERS
from repro.analysis.rules import all_rules


def _split_codes(raw: Optional[str]) -> Tuple[str, ...]:
    if not raw:
        return ()
    return tuple(code.strip() for code in raw.split(",") if code.strip())


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for --help tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: per-file unit-suffix, dB/linear, determinism, "
            "API-contract, observability, fault-injection and "
            "process-state static analysis for the RFly reproduction"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule-code prefixes to enable (e.g. U,R301)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule-code prefixes to disable",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="GLOB",
        help="path glob/substring to skip (repeatable)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline JSON file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write current findings to FILE as a new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit code.

    Exit status: 0 when no findings survive filtering (or when writing
    a baseline), 1 when findings remain, 2 on usage errors.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.severity:<7}  {rule.name}")
        return 0

    select, ignore = _split_codes(args.select), _split_codes(args.ignore)
    known_codes = [rule.code for rule in all_rules()]
    for flag, prefixes in (("--select", select), ("--ignore", ignore)):
        for prefix in prefixes:
            if not any(code.startswith(prefix) for code in known_codes):
                print(
                    f"reprolint: {flag} {prefix!r} matches no registered rule "
                    "(see --list-rules)",
                    file=sys.stderr,
                )
                return 2

    config = AnalysisConfig(
        select=select,
        ignore=ignore,
        exclude_paths=tuple(args.exclude),
    )
    findings = analyze_paths(args.paths, config)

    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(
            f"reprolint: wrote baseline with {len(findings)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0

    if args.baseline:
        try:
            keys = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"reprolint: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        findings = apply_baseline(findings, keys)

    print(REPORTERS[args.format](findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
