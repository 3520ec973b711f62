"""One ledger run of one workload, in a fresh single-threaded interpreter.

``python -m benchmarks.ledger.worker --workload NAME --seed N`` imports
the program, resolves the scenario and runs one untimed smoke-size
warm-up pass, then prints ``ready``: the launcher's clock for
``setup_s`` stops there. With ``--probe`` the worker exits at that
point. Otherwise it measures passes until ``--seconds`` have elapsed
and at least ``min_passes`` passes are done, optionally repeats the
same passes under the tracer, and prints the run's report body as the
last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.ledger import tracer
from benchmarks.ledger.spec import LAYERS, Layer
from benchmarks.ledger.workloads import WORKLOADS, PassResult, Workload

#: A serve workload whose median error exceeds this is wrong, not slow
#: (measured 0.005-0.010 m).
SERVE_ERROR_GATE_M = 0.05


def measure(
    workload: Workload,
    params: Dict[str, Any],
    seed: int,
    seconds: float,
    min_passes: int,
) -> List[PassResult]:
    """Untraced passes until ``seconds`` and ``min_passes`` are both met."""
    results: List[PassResult] = []
    start = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - start < seconds:
        index = len(results)
        results.append(workload.run_pass(params, workload.pass_seed(seed, index)))
    return results


def measure_traced(
    workload: Workload,
    params: Dict[str, Any],
    seed: int,
    n_passes: int,
    recorder: tracer.Recorder,
    layers: Sequence[Layer] = LAYERS,
) -> Tuple[List[PassResult], List[str]]:
    """The same passes again with every layer boundary wrapped."""
    results: List[PassResult] = []
    with tracer.wrapped(recorder, layers) as absent:
        for index in range(n_passes):
            recorder.pass_index = index
            results.append(workload.run_pass(params, workload.pass_seed(seed, index)))
    return results, absent


def _quantile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(
    workload: Workload, results: Sequence[PassResult], scored: int
) -> Dict[str, Any]:
    """Host-time metrics over every pass, simulated ones over the first
    ``scored`` passes (so they do not depend on how fast the host is).

    ``reads_per_s`` is the median of the passes' own rates, so a burst
    of contention on a shared host moves one pass, not the run.
    """
    fix_times = [t for r in results for t in r.fix_times_s]
    sims = [r.sim for r in results[:scored]]
    errors = [e for sim in sims for e in sim.errors_m]
    metrics: Dict[str, Any] = {
        "reads_per_s": _quantile([r.sim.reads / r.wall_s for r in results], 50.0),
        "fix_p50_ms": _quantile(fix_times, 50.0) * 1e3,
        "fix_p90_ms": _quantile(fix_times, 90.0) * 1e3,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "median_error_m": _quantile(errors, 50.0),
        "p90_error_m": _quantile(errors, 90.0),
        "failed_fraction": (
            sum(sim.failed for sim in sims) / sum(sim.attempted for sim in sims)
        ),
    }
    if workload.serve:
        read_times = [t for r in results for t in r.read_times_s]
        latencies = [t for sim in sims for t in sim.latencies_s]
        metrics["read_p50_ms"] = _quantile(read_times, 50.0) * 1e3
        metrics["virtual_p99_ms"] = _quantile(latencies, 99.0) * 1e3
    return metrics


def per_layer(
    recorder: tracer.Recorder,
    untraced: Sequence[PassResult],
    traced: Sequence[PassResult],
) -> Dict[str, Any]:
    """Layer metrics of the traced run plus the services' own counts."""
    traced_wall_s = sum(r.wall_s for r in traced)
    counts: Dict[str, int] = {}
    for result in traced:
        for key, value in result.sim.counts:
            counts[key] = counts.get(key, 0) + value
    metrics = tracer.layer_metrics(
        recorder, traced_wall_s, sum(r.sim.busy_s for r in traced)
    )
    metrics.update(
        {
            "serve.applied": counts.get("applied", 0),
            "serve.shed": counts.get("shed", 0),
            "serve.rejected": counts.get("rejected", 0),
            "serve.lost": counts.get("lost", 0),
            "serve.catchup_poses": counts.get("catchup_poses", 0),
            "serve.handoffs": counts.get("handoffs", 0),
            "serve.degraded_fraction": (
                counts.get("degraded", 0) / counts["applied"]
                if counts.get("applied")
                else 0.0
            ),
            "faults.injected": sum(r.sim.injected for r in traced),
            "ledger.tracing_overhead_ratio": (
                traced_wall_s / sum(r.wall_s for r in untraced) - 1.0
            ),
        }
    )
    return metrics


def gate(
    workload: Workload,
    e2e: Dict[str, Any],
    untraced: Sequence[PassResult],
    traced: Optional[Sequence[PassResult]],
) -> List[str]:
    """Reasons the run's outputs are wrong (empty when they are right).

    An exception that is not a typed ``RFlyError`` never reaches here:
    it escapes the pass and the worker exits non-zero.
    """
    failures = []
    errors = [e for r in untraced for e in r.sim.errors_m]
    if not all(np.isfinite(errors)):
        failures.append("a fix is not finite")
    if workload.serve and not e2e["median_error_m"] <= SERVE_ERROR_GATE_M:
        failures.append(
            f"median error {e2e['median_error_m']:.4f} m exceeds "
            f"{SERVE_ERROR_GATE_M} m"
        )
    if traced is not None and [r.sim for r in traced] != [r.sim for r in untraced]:
        failures.append("the traced run's simulated outputs differ from the untraced run")
    return failures


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    spans_path: Optional[str] = None,
    smoke: bool = False,
    min_passes: Optional[int] = None,
    layers: Sequence[Layer] = LAYERS,
) -> Dict[str, Any]:
    """Measure one run; returns its report body (metrics and context)."""
    params = workload.resolved(workload.smoke if smoke else workload.params)
    scored = workload.min_passes if min_passes is None else min_passes
    untraced = measure(workload, params, seed, seconds, scored)
    e2e = end_to_end(workload, untraced, scored)
    metrics: Dict[str, Any] = {
        "end_to_end": e2e,
        "passes": len(untraced),
        "reads": sum(r.sim.reads for r in untraced),
        "fixes": sum(len(r.fix_times_s) for r in untraced),
        "attempted": sum(r.sim.attempted for r in untraced),
        "failed": sum(r.sim.failed for r in untraced),
        "pass_wall_s": [r.wall_s for r in untraced],
        "pass_reads": [r.sim.reads for r in untraced],
    }
    traced_results = None
    if traced:
        recorder = tracer.Recorder()
        traced_results, absent = measure_traced(
            workload, params, seed, len(untraced), recorder, layers
        )
        metrics["per_layer"] = per_layer(recorder, untraced, traced_results)
        metrics["absent_targets"] = absent
        if spans_path:
            recorder.write_jsonl(spans_path)
    failures = gate(workload, e2e, untraced, traced_results)
    metrics["correct"] = not failures
    metrics["gate_failures"] = failures
    context = {
        "workload": workload.name,
        "seed": seed,
        "pass_seeds": [
            workload.pass_seed(seed, 0),
            workload.pass_seed(seed, len(untraced) - 1),
        ],
        "scored_passes": scored,
        "seconds": seconds,
        "traced": traced,
        "smoke": smoke,
        "params": dict(workload.smoke if smoke else workload.params),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return {"metrics": metrics, "context": context}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # Set-up ends after one smoke-size pass: lazy imports, first-touch
    # allocations and the scenario registry are warm before timing.
    workload.run_pass(workload.resolved(workload.smoke), workload.pass_seed(args.seed, 0))
    print("ready", flush=True)
    if args.probe:
        return 0
    body = run(workload, args.seed, args.seconds, args.traced, args.spans)
    print(json.dumps(body, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
