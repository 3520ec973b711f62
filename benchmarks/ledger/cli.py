"""``python -m benchmarks.ledger``: run the wall-clock ledger or compare two sets.

``run`` launches every requested workload in a fresh, single-threaded
interpreter, one at a time, and prints each metric with its unit,
direction and bound, then a one-line JSON summary. ``compare A B``
judges two sets of saved runs metric by metric.

The launcher itself imports nothing from the program: a checkout
without it fails in the first worker, and the launcher exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger import compare as compare_mod
from benchmarks.ledger.spec import (
    DEFAULT_SECONDS,
    END_TO_END,
    LAYERS,
    PER_LAYER,
    WORKLOAD_NAMES,
    contract_metrics,
)

ROOT = Path(__file__).resolve().parents[2]

#: Where workers put temporary files (checkpoint caches), inside the checkout.
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Fresh interpreters timed only through set-up; with the measuring
#: worker's own set-up they give three ``setup_s`` samples per run.
SETUP_PROBES = 2

#: Every run, probes included, ends within this many seconds.
RUN_DEADLINE_S = 175.0

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class LedgerError(RuntimeError):
    """A worker failed; the run has no result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    WORK_DIR.mkdir(exist_ok=True)
    env["TMPDIR"] = str(WORK_DIR)
    return env


def _run_worker(args: Sequence[str], timeout_s: float) -> Tuple[float, str]:
    """Run one worker; returns (seconds until ``ready``, remaining stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.ledger.worker", *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(timeout_s, 1.0), proc.kill)
    watchdog.start()
    try:
        assert proc.stdout is not None
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise LedgerError(f"worker {' '.join(args)} exited with code {code}")
    return setup_s, rest


def run_one(
    workload: str, seed: int, seconds: float, traced: bool, out_dir: Optional[Path]
) -> Dict[str, Any]:
    """One run of one workload; returns its validated report envelope."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup_samples = [
        _run_worker([*common, "--probe"], deadline - time.perf_counter())[0]
        for _ in range(SETUP_PROBES)
    ]
    args = [*common, "--seconds", str(seconds)]
    stem = f"{workload}-seed{seed}" + ("-traced" if traced else "")
    if traced:
        args.append("--traced")
        if out_dir is not None:
            args += ["--spans", str(out_dir / f"{stem}.spans.jsonl")]
    setup_s, output = _run_worker(args, deadline - time.perf_counter())
    setup_samples.append(setup_s)
    lines = output.strip().splitlines()
    if not lines:
        raise LedgerError(f"worker for {workload} printed no result")
    body = json.loads(lines[-1])
    metrics = body["metrics"]
    metrics["end_to_end"]["setup_s"] = statistics.median(setup_samples)
    metrics["setup_samples_s"] = setup_samples
    context = dict(body["context"], nproc=os.cpu_count(), cpu=_cpu_model())
    # Imported late: the launcher must not need the program to start.
    from repro.obs.reports import bench_report, write_json_atomic

    report = bench_report("ledger", metrics, context)
    if out_dir is not None:
        write_json_atomic(out_dir / f"{stem}.json", report)
    return report


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def format_report(report: Dict[str, Any]) -> List[str]:
    """The human-readable table of one run."""
    context, metrics = report["context"], report["metrics"]
    lines = [
        f"ledger {context['workload']} seed={context['seed']} "
        f"passes={metrics['passes']} (scored {context['scored_passes']}) "
        f"reads={metrics['reads']} fixes={metrics['fixes']} "
        f"nproc={context['nproc']}",
        f"  {'metric':34} {'value':>14}  {'unit':6} {'better':7} bound",
    ]
    e2e = metrics["end_to_end"]
    for metric in END_TO_END:
        if metric.name in e2e:
            lines.append(
                f"  {metric.label:34} {e2e[metric.name]:>14.6g}  "
                f"{metric.unit:6} {metric.better:7} {metric.bound_text}"
            )
    if context["workload"] == "fig12_regen":
        lines.append(
            "  Fig. 12 error, paper vs measured (not gated): median "
            f"0.19 vs {e2e['median_error_m']:.3f} m, "
            f"p90 0.53 vs {e2e['p90_error_m']:.3f} m"
        )
    layers = metrics.get("per_layer")
    if layers is not None:
        lines.append("  per layer (traced run)")
        moves = {f"{layer.name}.share_ratio": layer.moves for layer in LAYERS}
        for metric in PER_LAYER:
            note = f"  should move {moves[metric.name]}" if metric.name in moves else ""
            lines.append(
                f"  {metric.label:34} {layers[metric.name]:>14.6g}  "
                f"{metric.unit:6} {metric.better:7}{note}"
            )
        for name in metrics["absent_targets"]:
            lines.append(f"  absent target: {name}")
    for failure in metrics["gate_failures"]:
        lines.append(f"  INCORRECT: {failure}")
    return lines


def summary_line(report: Dict[str, Any]) -> str:
    """The one-line JSON result: contract metrics only."""
    metrics = report["metrics"]
    if "per_layer" in metrics:
        values, table = metrics["per_layer"], contract_metrics(PER_LAYER)
    else:
        values, table = metrics["end_to_end"], contract_metrics(END_TO_END)
    return json.dumps(
        {
            "correct": metrics["correct"],
            "attempted": metrics["attempted"],
            "failed": metrics["failed"],
            "metrics": {
                m.name: {"value": values[m.name], "unit": m.unit} for m in table
            },
        }
    )


def _cmd_run(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    all_correct = True
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            try:
                report = run_one(workload, seed, args.seconds, args.traced, out_dir)
            except LedgerError as error:
                print(f"ledger: {error}", file=sys.stderr)
                return 2
            print("\n".join(format_report(report)))
            print(summary_line(report), flush=True)
            all_correct = all_correct and report["metrics"]["correct"]
    return 0 if all_correct else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    side_a = compare_mod.load_set(Path(args.a))
    side_b = compare_mod.load_set(Path(args.b))
    rows = compare_mod.compare_sets(side_a, side_b)
    print("\n".join(compare_mod.format_rows(rows)))
    if args.write:
        compare_mod.write_baseline(Path(args.write), side_a, side_b, rows)
    bad = [row for row in rows if row.verdict != "ok"]
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", choices=WORKLOAD_NAMES)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=1, help="seeds N .. N+runs-1")
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument("--traced", action="store_true")
    run.add_argument("--out", help="directory for run reports and span files")
    run.set_defaults(func=_cmd_run)
    cmp = sub.add_parser("compare", help="compare two directories of runs")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.add_argument("--write", help="also write the two-set baseline report here")
    cmp.set_defaults(func=_cmd_compare)
    args = parser.parse_args(argv)
    return int(args.func(args))
