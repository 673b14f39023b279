"""The benchmark's four workloads: their seeded inputs, the timed call and
the correctness check of each output.

Every workload is a single-client closed loop: one call starts only after
the previous one has returned, in one process, with
``experiment.workers = 1``.  All per-call inputs are derived from the
workload seed; the program receives only argv, the INI files in
``configs/`` and library arguments.

Nothing here imports hapticsched at module level: the child process times
that import itself, and the parent never imports the package.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

CONFIGS = Path(__file__).resolve().parent / "configs"
SCHEMES = ("DS", "SPS", "SRR", "FA")
RIGOROUS_HORIZON_S = 3.5
SWEEP_STEPS = 41
COMPARE_T_IB = "1ms,2ms"
VERDICTS = ("pass", "fail", "infeasible")


@dataclass
class Tally:
    """Checks made on outputs.  ``failed`` counts broken operations (a
    call that raised, an undocumented exit status, a missing row, a value
    out of range); ``verdict_fail`` counts compare rows whose documented
    verdict is ``fail``, which is the program's answer and not a broken
    operation."""

    attempted: int = 0
    failed: int = 0
    rows: int = 0
    verdict_fail: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.rows += other.rows
        self.verdict_fail += other.verdict_fail


@dataclass(frozen=True)
class CallFailed:
    """Stands in for the output of a call that raised."""

    error: str


@dataclass
class Env:
    """The imported package and the workload's loaded configuration."""

    cli: object
    curves: object
    scheduling: object
    schemes: dict
    loaded: object
    walk_rates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    cycle: int          # calls in one complete round of inputs; runs end on a round boundary
    trace_calls: int    # size of the traced run, fixed so that its counts repeat exactly
    inputs: Callable[[random.Random, str], Iterator]   # (rng, INI path) -> per-call inputs
    call: Callable[[Env, object], object]
    check: Callable[[Env, object, object], Tally]


def load_env(workload: Workload) -> Env:
    """Import the package (already imported by the caller's timed import)
    and load the workload's INI file, outside any timed region."""
    import hapticsched.cli as cli
    from hapticsched import curves, experiments, scheduling
    from hapticsched.radio import SchedulingScheme

    return Env(
        cli=cli,
        curves=curves,
        scheduling=scheduling,
        schemes={name: SchedulingScheme.parse(name) for name in SCHEMES},
        loaded=experiments.load_config(CONFIGS / workload.config),
    )


def encode(output) -> bytes:
    """Bytes of one output, for the determinism digest."""
    if isinstance(output, CallFailed):
        return b"failed:" + output.error.encode()
    if isinstance(output[0], int):
        status, text = output
        return f"{status}\n".encode() + text.encode()
    details, distance = output
    return repr((details.theta, details.x_bits, details.d0_s, details.long_run_rate_bps, distance)).encode()


def _cli_call(env: Env, argv: list[str]) -> tuple[int, str]:
    """``hapticsched.cli.main(argv)`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = env.cli.main(argv)
    return status, buf.getvalue()


def _rows(output, expected: int):
    """CSV rows of a CLI output as dicts, or None when the call raised or
    the row count is not the expected one."""
    if isinstance(output, CallFailed):
        return None
    lines = output[1].splitlines()
    if len(lines) != expected + 1:
        return None
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        return None
    return [dict(zip(header, row)) for row in rows]


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


# sweep-tib -----------------------------------------------------------------
# Why: analytic only, the simulator is bypassed.  Drop walks are about half
# of a call, the bound (max_stable_theta, crossing_time) a quarter, CSV
# formatting and config_hash most of the rest.

def _sweep_inputs(rng: random.Random, config: str) -> Iterator[list[str]]:
    while True:
        start_ms = rng.uniform(0.8, 1.2)
        stop_ms = rng.uniform(2.8, 3.2)
        yield ["sweep", "--config", config, "--param", "t_ib",
               "--from", f"{start_ms:.6f}ms", "--to", f"{stop_ms:.6f}ms", "--steps", str(SWEEP_STEPS)]


def _sweep_check(env: Env, argv, output) -> Tally:
    expected = SWEEP_STEPS * len(SCHEMES)
    rows = _rows(output, expected)
    if rows is None or output[0] != 0:
        return Tally(attempted=expected, failed=expected, rows=0 if rows is None else len(rows))
    capacity = env.loaded.radio.total_rate * env.loaded.haptic.t_p
    good = sum(
        row["status"] == "ok"
        and 0.0 <= _number(row["drop_rate"]) <= 1.0
        and 0.0 <= _number(row["remainder_bits"]) <= capacity
        for row in rows
    )
    return Tally(attempted=expected, failed=expected - good, rows=len(rows))


# compare-offgrid -----------------------------------------------------------
# Why: 2001 slots per period is not a multiple of the 10-slot grant period,
# so every scheme runs the event-by-event simulator path over light
# background traffic (about 200 packets): the haptic layer is nearly the
# whole call, and the compare verdicts are exercised.  At the documented
# defaults every scheme replicates one period and compare shows nothing
# the other workloads do not.

def _compare_inputs(rng: random.Random, config: str) -> Iterator[list[str]]:
    while True:
        yield ["compare", "--config", config, "--param", "t_ib", "--values", COMPARE_T_IB,
               "--horizon", "50s", "--seed", str(rng.randrange(1, 2**31))]


def _compare_check(env: Env, argv, output) -> Tally:
    expected = len(COMPARE_T_IB.split(",")) * len(SCHEMES)
    rows = _rows(output, expected)
    seed = argv[argv.index("--seed") + 1]
    if rows is None or any(row["verdict"] not in VERDICTS or row["seed"] != seed for row in rows):
        return Tally(attempted=expected, failed=expected, rows=0 if rows is None else len(rows))
    fails = sum(row["verdict"] == "fail" for row in rows)
    # exit status 2 exactly when some row fails, 0 otherwise
    failed = 0 if output[0] == (2 if fails else 0) else expected
    return Tally(attempted=expected, failed=failed, rows=len(rows), verdict_fail=fails)


# simulate-heavy ------------------------------------------------------------
# Why: about 600k background packets per call on the clean replicated
# path, a working set well past the caches.  supply_at/time_of_supply
# searchsorted, leftover_arrivals and the sorts dominate; the haptic layer
# is under 1%.  ROADMAP's "one heavy background load".

def _heavy_inputs(rng: random.Random, config: str) -> Iterator[list[str]]:
    while True:
        for scheme in rng.sample(SCHEMES, len(SCHEMES)):
            yield ["simulate", "--config", config, "--scheme", scheme,
                   "--seed", str(rng.randrange(1, 2**31))]


def _heavy_check(env: Env, argv, output) -> Tally:
    rows = _rows(output, 1)
    if rows is None or output[0] != 0:
        return Tally(attempted=1, failed=1, rows=0 if rows is None else len(rows))
    row = rows[0]
    scheme = argv[argv.index("--scheme") + 1]
    if scheme not in env.walk_rates:
        loaded = env.loaded
        walk = env.scheduling.drop_walk(env.schemes[scheme], loaded.radio, loaded.haptic, slotted=True)
        env.walk_rates[scheme] = walk.drop_rate
    good = (
        row["scheme"] == scheme
        and _number(row["haptic_drop_rate"]) == env.walk_rates[scheme]
        and math.isfinite(_number(row["leftover_p99_s"]))
    )
    return Tally(attempted=1, failed=0 if good else 1, rows=1)


# bound-rigorous ------------------------------------------------------------
# Why: no CLI verb reaches horizontal_distance, so without this workload
# the public rigorous bound goes unmeasured.  About 28,000 crossing_time
# calls per result at a 3.5 s horizon.

def _bound_inputs(rng: random.Random, config: str) -> Iterator[tuple[str, float]]:
    while True:
        for scheme in rng.sample(SCHEMES, len(SCHEMES)):
            yield scheme, 10.0 ** rng.uniform(-6.0, -3.0)


def _bound_call(env: Env, inp: tuple[str, float]):
    scheme, epsilon = env.schemes[inp[0]], inp[1]
    curves, loaded = env.curves, env.loaded
    leftover = loaded.leftover
    details = curves.leftover_delay_bound_details(scheme, loaded.radio, loaded.haptic, leftover, epsilon)
    distance = curves.horizontal_distance(
        curves.ArrivalCurve(details.theta, leftover.lambda_rate, leftover.sigma),
        details.x_bits,
        curves.LeftoverServiceCurve(scheme, loaded.radio, loaded.haptic),
        RIGOROUS_HORIZON_S,
    )
    return details, distance


def _bound_check(env: Env, inp, output) -> Tally:
    if isinstance(output, CallFailed):
        return Tally(attempted=1, failed=1)
    details, distance = output
    curve = env.curves.LeftoverServiceCurve(env.schemes[inp[0]], env.loaded.radio, env.loaded.haptic)
    good = math.isfinite(distance) and distance >= env.curves.crossing_time(curve, details.x_bits)
    return Tally(attempted=1, failed=0 if good else 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-tib", "sweep_tib.ini", 1, 160, _sweep_inputs, _cli_call, _sweep_check),
        Workload("compare-offgrid", "compare_offgrid.ini", 1, 48, _compare_inputs, _cli_call, _compare_check),
        Workload("simulate-heavy", "simulate_heavy.ini", 4, 48, _heavy_inputs, _cli_call, _heavy_check),
        Workload("bound-rigorous", "bound_rigorous.ini", 4, 12, _bound_inputs, _bound_call, _bound_check),
    )
}
