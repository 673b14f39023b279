"""One fresh interpreter per measurement, started by run.py.

    child.py run   WORKLOAD SEED SECONDS TRACE CALLS
    child.py setup WORKLOAD SEED

``run`` times at least CALLS calls for at least SECONDS (TRACE 0), or
records the traced run of exactly CALLS calls (TRACE 1); ``setup`` times
the cold start.  Either prints one JSON object
as its last line of standard output.  The package is imported from the
``src`` directory of the checkout holding this file, and from nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import CONFIGS, WORKLOADS, CallFailed, Tally, encode, load_env

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
# a run never measures longer than this, even short of its minimum call count
HARD_CAP_S = 100.0


def timed_import() -> float:
    start = time.perf_counter()
    import hapticsched
    import hapticsched.cli  # noqa: F401  (the CLI workloads' entry point)
    elapsed = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(hapticsched.__file__).resolve().parents:
        sys.exit(f"hapticsched imported from {hapticsched.__file__}, not from {src}")
    return elapsed


def invoke(workload, env, inp):
    """One call; a raised exception becomes a failed output."""
    try:
        return workload.call(env, inp)
    except (Exception, SystemExit) as exc:  # the loop must go on and count it
        traceback.print_exc(file=sys.stderr)
        return CallFailed(repr(exc))


def input_stream(workload, seed: int):
    return workload.inputs(random.Random(f"{workload.name}/{seed}"), str(CONFIGS / workload.config))


def run_untraced(workload, env, seed: int, seconds: float, min_calls: int) -> dict:
    tally = Tally()
    stream = input_stream(workload, seed)
    warmup = [next(stream) for _ in range(workload.cycle)]
    digest = hashlib.sha256()
    first = None
    for inp in warmup:  # untimed: fills caches and finishes lazy set-up
        out = invoke(workload, env, inp)
        first = encode(out) if first is None else first
        digest.update(encode(out))
        tally.add(workload.check(env, inp, out))

    from calibrate import speed, timed_kernel

    # the kernel runs before the first call and after every call, so each
    # call is bracketed by two kernel times
    samples, kernel_s = [], [timed_kernel()]
    clock = time.perf_counter
    begin = clock()
    while True:
        for _ in range(workload.cycle):
            inp = next(stream)
            t0 = clock()
            out = invoke(workload, env, inp)
            samples.append(clock() - t0)
            kernel_s.append(timed_kernel())
            tally.add(workload.check(env, inp, out))
        elapsed = clock() - begin
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(samples) >= min_calls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    repeat = encode(invoke(workload, env, warmup[0]))
    return {
        "wall_s": samples,
        "normalized_s": [t * speed((a + b) / 2) for t, a, b in zip(samples, kernel_s, kernel_s[1:])],
        "kernel_s": kernel_s,
        "measured_s": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "tally": vars(tally),
        "output_sha256": digest.hexdigest(),
        "first_sha256": hashlib.sha256(first).hexdigest(),
        "deterministic": repeat == first,
    }


def run_traced(workload, env, seed: int, n_calls: int) -> dict:
    """Each input runs once untraced and once traced, alternating which
    goes first; the two totals give the tracing overhead."""
    from tracer import Tracer

    tracer = Tracer()
    tally, traced_tally = Tally(), Tally()
    stream = input_stream(workload, seed)
    for _ in range(workload.cycle):  # untimed warm-up, as in the untraced run
        inp = next(stream)
        tally.add(workload.check(env, inp, invoke(workload, env, inp)))
    inputs = [next(stream) for _ in range(n_calls)]
    clock = time.perf_counter
    totals = {False: 0.0, True: 0.0}
    transparent = True
    for i, inp in enumerate(inputs):
        outs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = clock()
            outs[traced] = invoke(workload, env, inp)
            totals[traced] += clock() - t0
            if traced:
                tracer.uninstall()
        transparent &= encode(outs[True]) == encode(outs[False])
        checked = workload.check(env, inp, outs[True])
        tally.add(checked)
        traced_tally.add(checked)
    metrics = tracer.metrics(
        overhead_frac=totals[True] / totals[False] - 1.0,
        rows=traced_tally.rows,
        fail_rows=traced_tally.verdict_fail,
    )
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.npz")
    return {"per_layer": metrics, "tally": vars(tally), "deterministic": transparent,
            "traced_s": totals[True], "untraced_s": totals[False]}


def setup(workload, seed: int) -> dict:
    """Cold cost in this fresh process: the package import, then the first
    call and two warm repeats of the same input."""
    import_s = timed_import()
    env = load_env(workload)
    inp = next(input_stream(workload, seed))
    clock = time.perf_counter
    times = []
    for _ in range(3):
        t0 = clock()
        out = invoke(workload, env, inp)
        times.append(clock() - t0)
        if len(times) == 1:
            first = encode(out)
    return {"import_s": import_s, "first_call_s": times[0], "warm_call_s": statistics.median(times[1:]),
            "first_sha256": hashlib.sha256(first).hexdigest()}


def main(argv: list[str]) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        result = setup(workload, seed)
    else:
        seconds, trace, calls = float(argv[3]), argv[4] == "1", int(argv[5])
        timed_import()
        env = load_env(workload)
        if trace:
            result = run_traced(workload, env, seed, calls)
        else:
            result = run_untraced(workload, env, seed, seconds, calls)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
