"""hapticsched benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  With ``--trace 0`` the run reports the
end-to-end metrics: calls in a fresh child process are timed for at least
S seconds and at least 100 calls, each scaled to a reference machine speed
(``calibrate.py``), then several fresh processes time the cold start.  With ``--trace 1`` one child records spans around the
package's public functions and the run reports the per-layer metrics.
Every output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Children are started one after another, never in parallel, and each is
waited for.  ``--smoke`` shrinks every count to one round of inputs, to
check the plumbing; its numbers are not measurements.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "hapticsched"
# a timing percentile is reported only with at least ten samples beyond it
MIN_CALLS = 100
SETUP_RUNS = 5
DEADLINE_S = 170.0

END_TO_END = {
    "call_p50_s": "s",
    "call_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildError(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run one child process to completion and return its JSON result."""
    # a fixed hash seed gives every child the same dict and set layouts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(samples)
    return ordered[min(max(math.ceil(len(ordered) * q), 1), len(ordered)) - 1]


def end_to_end(workload, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    min_calls = workload.cycle if smoke else MIN_CALLS
    run = child(["run", workload.name, str(seed), str(seconds), "0", str(min_calls)], deadline)
    setups = [child(["setup", workload.name, str(seed)], deadline) for _ in range(1 if smoke else SETUP_RUNS)]
    samples = run["normalized_s"]
    setup_s = [s["import_s"] + s["first_call_s"] - s["warm_call_s"] for s in setups]
    metrics = {
        "call_p50_s": statistics.median(samples),
        "call_p90_s": quantile(samples, 0.9),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    tally = run["tally"]
    consistent = all(s["first_sha256"] == run["first_sha256"] for s in setups)
    print(f"{workload.name} seed {seed}: {len(samples)} timed calls in {run['measured_s']:.2f} s, "
          "single-client closed loop, one process, workers = 1")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:.6g} {END_TO_END[name]}")
    print(f"  samples      {len(samples)} calls, {len(samples) - math.ceil(len(samples) * 0.9)} beyond p90")
    print(f"  wall time    p50 {statistics.median(run['wall_s']):.6g} s, p90 {quantile(run['wall_s'], 0.9):.6g} s "
          f"before speed normalization; calibration kernel median {statistics.median(run['kernel_s']):.4g} s")
    print(f"  setup        median of {len(setups)} fresh processes, wall time: import "
          f"{statistics.median(s['import_s'] for s in setups):.4f} s, first-call excess "
          f"{statistics.median(s['first_call_s'] - s['warm_call_s'] for s in setups):.4f} s")
    print(f"  failed_frac  {tally['failed']}/{tally['attempted']} checks")
    if tally["verdict_fail"]:
        print(f"  verdicts     {tally['verdict_fail']}/{tally['rows']} compare rows say fail")
    print(f"  output_sha256 {run['output_sha256']} (first round of inputs); repeat in-process "
          f"{'identical' if run['deterministic'] else 'DIFFERS'}; fresh processes "
          f"{'identical' if consistent else 'DIFFER'}")
    return {"correct": run["deterministic"] and consistent and tally["failed"] == 0,
            "attempted": tally["attempted"], "failed": tally["failed"],
            "metrics": {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}}


def per_layer(workload, seed: int, smoke: bool, deadline: float) -> dict:
    calls = workload.cycle if smoke else workload.trace_calls
    run = child(["run", workload.name, str(seed), "0", "1", str(calls)], deadline)
    tally = run["tally"]
    print(f"{workload.name} seed {seed}: traced run of {calls} calls "
          f"({run['traced_s']:.2f} s traced, {run['untraced_s']:.2f} s untraced)")
    for name, value in run["per_layer"].items():
        print(f"  {name:<42} {value:.6g} {PER_LAYER[name]}")
    print(f"  failed_frac  {tally['failed']}/{tally['attempted']} checks; traced output "
          f"{'identical to' if run['deterministic'] else 'DIFFERS from'} untraced")
    return {"correct": run["deterministic"] and tally["failed"] == 0,
            "attempted": tally["attempted"], "failed": tally["failed"],
            "metrics": {name: {"value": value, "unit": PER_LAYER[name]}
                        for name, value in run["per_layer"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description="hapticsched benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="one round of inputs per count; not a measurement")
    args = parser.parse_args()
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no hapticsched sources at {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # byte-compile first, so that no measured import pays for compiling
    compileall.compile_dir(PACKAGE, quiet=1)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = per_layer(workload, args.seed, args.smoke, deadline)
        else:
            result = end_to_end(workload, args.seed, args.seconds, args.smoke, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
