"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured evidence.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
The aggregate radio rate (total_rate) is a free parameter of the model;
checks that depend on its absolute value state the rate they use on their
evidence line.
"""

import time

import numpy as np
import pytest

from hapticsched import (
    HapticTrafficModel,
    LeftoverServiceCurve,
    LeftoverTrafficModel,
    RadioConfig,
    SchedulingScheme,
    SimConfig,
    drop_walk,
    empirical_quantile,
    haptic_access_delay,
    leftover_delay_bound_details,
    remainder_of_service,
    run,
)
from hapticsched.cli import main
from test_event_oracle import naive_outcome

S = SchedulingScheme
TTIS = (0.125e-3, 0.25e-3, 0.5e-3, 1e-3)
LEFTOVER = LeftoverTrafficModel(4.0, 12000.0)


def radio(tti, t_pg_slots=10, rate=1e6):
    return RadioConfig(10, rate, tti, tti, t_pg_slots * tti, 1e-4)


def haptic(t_ib):
    return HapticTrafficModel(1.0, 0.2, t_ib, 50e-3)


def spacing_grid():
    return [round((1e-3 + k * 0.05e-3) * 1e9) / 1e9 for k in range(41)]


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_01_access_delay_constants():
    t0 = time.time()
    ok = True
    for tti in TTIS:
        ns = round(tti * 1e9)
        cfg = radio(tti)
        ok &= haptic_access_delay(S.DYNAMIC, cfg) == 7 * ns / 1e9
        ok &= haptic_access_delay(S.FAST_UPLINK, cfg) == 4 * ns / 1e9
        ok &= haptic_access_delay(S.SEMI_PERSISTENT, cfg) == 14 * ns / 1e9
        ok &= haptic_access_delay(S.SOFT_RESERVATION, cfg, in_burst=True) == 14 * ns / 1e9
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"DS=7 TTI, FA=4 TTI, SPS/SRR(burst)=14 TTI exactly on all TTIs ({elapsed:.2f}s)")


def test_criterion_02_dynamic_scheduling_drop_threshold():
    t0 = time.time()
    cfg = radio(0.5e-3)
    ok = True
    for t_ib in spacing_grid():
        drops = drop_walk(S.DYNAMIC, cfg, haptic(t_ib)).dropped
        ok &= (drops == 0) == (t_ib >= 2e-3)
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report(2, ok, f"DS drops are zero exactly on [2, 3] ms and positive on [1, 2) ms, 41 points ({elapsed:.2f}s)")


def test_criterion_03_fast_uplink_universal_zero_drop():
    t0 = time.time()
    ok = True
    for tti in TTIS:
        cfg = radio(tti)
        for t_ib in spacing_grid():
            ok &= drop_walk(S.FAST_UPLINK, cfg, haptic(t_ib)).dropped == 0
        for t_ib in (1e-3, 1.25e-3, 1.5e-3, 1.75e-3, 2e-3, 2.25e-3, 2.5e-3, 2.75e-3, 3e-3):
            sim = run(SimConfig(cfg, haptic(t_ib), LEFTOVER, S.FAST_UPLINK, 20.0, 1))
            ok &= sim.haptic_drop_rate == 0.0
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(3, ok, f"FA drop rate is zero for every TTI and spacing, walk and simulator ({elapsed:.2f}s)")


def test_criterion_04_reserved_scheme_usable_regions():
    t0 = time.time()
    ok = True
    details = []
    for tti, quoted in ((0.125e-3, 1.3e-3), (0.25e-3, 2.5e-3)):
        cfg = radio(tti)
        for scheme in (S.SEMI_PERSISTENT, S.SOFT_RESERVATION):
            drops = {t: drop_walk(scheme, cfg, haptic(t)).dropped for t in spacing_grid()}
            threshold = min(t for t, d in drops.items() if d == 0)
            ok &= all(d == 0 for t, d in drops.items() if t >= threshold)
            ok &= all(d > 0 for t, d in drops.items() if t < threshold)
            ok &= abs(threshold - quoted) <= 0.05e-3 + 1e-12
            details.append(f"{scheme.value}@{tti * 1e3:g}ms->{threshold * 1e3:g}ms")
    cfg = radio(0.5e-3)
    for scheme in (S.SEMI_PERSISTENT, S.SOFT_RESERVATION):
        ok &= all(drop_walk(scheme, cfg, haptic(t)).dropped > 0 for t in spacing_grid())
    elapsed = time.time() - t0
    report(4, ok, f"zero-drop thresholds within one 0.05 ms step of 1.3/2.5 ms ({', '.join(details)}); "
                  f"no zero-drop region at 0.5 ms ({elapsed:.2f}s)")


def test_criterion_05_remainder_orderings():
    t0 = time.time()
    cfg = radio(0.5e-3)
    spacings = (1e-3, 2e-3, 3e-3)
    sps = [remainder_of_service(S.SEMI_PERSISTENT, cfg, haptic(t)) for t in spacings]
    srr = [remainder_of_service(S.SOFT_RESERVATION, cfg, haptic(t)) for t in spacings]
    ds = [remainder_of_service(S.DYNAMIC, cfg, haptic(t)) for t in spacings]
    fa = [remainder_of_service(S.FAST_UPLINK, cfg, haptic(t)) for t in spacings]
    ok = srr[1] > sps[1]
    ok &= len(set(sps)) == 1 and len(set(srr)) == 1
    ok &= ds == sorted(ds) and fa == sorted(fa)
    for t in (2e-3, 2.5e-3, 3e-3):  # both schemes lossless here
        ok &= remainder_of_service(S.DYNAMIC, cfg, haptic(t)) == remainder_of_service(S.FAST_UPLINK, cfg, haptic(t))
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report(5, ok, f"SRR {srr[1]:.0f} > SPS {sps[1]:.0f} bits; SPS/SRR spacing-invariant; "
                  f"DS/FA nondecreasing and equal when lossless ({elapsed:.2f}s)")


def test_criterion_06_curve_identity_between_demand_schemes():
    u = np.linspace(0.0, 3.0, 1000)
    ok = True
    for t_ib in (2.5e-3, 3e-3):  # above both the DS gate (2 ms) and the FA gate (one TTI)
        ds = LeftoverServiceCurve(S.DYNAMIC, radio(0.5e-3), haptic(t_ib)).value(u)
        fa = LeftoverServiceCurve(S.FAST_UPLINK, radio(0.5e-3), haptic(t_ib)).value(u)
        ok &= bool(np.allclose(ds, fa, rtol=1e-12, atol=0.0))
    report(6, ok, "DS and FA leftover envelopes agree pointwise (rtol 1e-12) on 1000 points over [0, 3 periods]")


def test_criterion_07_bound_validity_against_simulator():
    t0 = time.time()
    rate = 5e6  # aggregate rate is a free parameter; chosen and stated here
    cfg = radio(0.5e-3, rate=rate)
    h = haptic(2e-3)
    seeds = (1, 2, 3, 4, 5)
    horizon = 31000.0
    ok = True
    lines = []
    for scheme in S:
        bounds = {eps: leftover_delay_bound_details(scheme, cfg, h, LEFTOVER, eps).d0_s for eps in (1e-1, 1e-2)}
        worst = {eps: 0.0 for eps in bounds}
        for seed in seeds:
            rep = run(SimConfig(cfg, h, LEFTOVER, scheme, horizon, seed))
            ok &= len(rep.leftover_delays) >= 1.2e5
            for eps, bound in bounds.items():
                q = empirical_quantile(rep.leftover_delays, 1 - eps)
                ok &= q <= bound
                worst[eps] = max(worst[eps], q)
        lines.append(
            f"{scheme.value}: q90<={worst[1e-1] * 1e3:.2f}ms vs {bounds[1e-1] * 1e3:.2f}ms, "
            f"q99<={worst[1e-2] * 1e3:.2f}ms vs {bounds[1e-2] * 1e3:.2f}ms"
        )
    elapsed = time.time() - t0
    report(7, ok, f"empirical tail quantiles below the bound in all 5x4 runs at total_rate={rate:g} b/s, "
                  f"horizon {horizon:g}s ({'; '.join(lines)}) ({elapsed:.1f}s)")


def test_criterion_08_soft_reservation_improves_on_standing_grant():
    h = haptic(2e-3)
    ok = True
    # strict ordering holds at any feasible aggregate rate, including the default
    for rate in (1e6, 1e5):
        cfg = radio(0.125e-3, t_pg_slots=4, rate=rate)
        d_sps = leftover_delay_bound_details(S.SEMI_PERSISTENT, cfg, h, LEFTOVER, 1e-5).d0_s
        d_srr = leftover_delay_bound_details(S.SOFT_RESERVATION, cfg, h, LEFTOVER, 1e-5).d0_s
        ok &= d_srr < d_sps
    # the quoted ~25% improvement is rate-sensitive; reported at 1e5 b/s
    cfg = radio(0.125e-3, t_pg_slots=4, rate=1e5)
    d_sps = leftover_delay_bound_details(S.SEMI_PERSISTENT, cfg, h, LEFTOVER, 1e-5).d0_s
    d_srr = leftover_delay_bound_details(S.SOFT_RESERVATION, cfg, h, LEFTOVER, 1e-5).d0_s
    ratio = (d_sps - d_srr) / d_sps
    ok &= 0.10 <= ratio <= 0.40
    report(8, ok, f"SRR bound below SPS at both rates; improvement {ratio * 100:.1f}% at total_rate=1e5 b/s "
                  f"(target 25% +/- 15 points)")


def test_criterion_09_oracle_equivalence_grid():
    # the per-slot oracle of tests/test_event_oracle.py shares no code with
    # the simulator's grant kernels or its chunks
    t0 = time.time()
    cases = [SimConfig(radio(tti), haptic(t_ib), LEFTOVER, scheme, 12.0, 1)
             for scheme in (S.DYNAMIC, S.FAST_UPLINK, S.SEMI_PERSISTENT)
             for tti in TTIS for t_ib in (1e-3, 1.5e-3, 2e-3, 3e-3)]
    # off the grid: 2001 slots per period against a 10-slot grant period and
    # a 4-slot SR period
    off_grid = HapticTrafficModel(1.0005, 0.2, 2e-3, 50e-3)
    cases += [SimConfig(radio(0.5e-3), off_grid, LEFTOVER, scheme, 12.0, 1)
              for scheme in (S.SEMI_PERSISTENT, S.SOFT_RESERVATION)]
    cases.append(SimConfig(RadioConfig(10, 1e6, 0.5e-3, 2e-3, 5e-3, 1e-4), off_grid, LEFTOVER, S.DYNAMIC, 12.0, 1))
    mismatched = []
    for cfg in cases:
        rep = run(cfg)
        counts, delays, remainder, _ = naive_outcome(cfg)
        if not (np.array_equal(rep.haptic_period_counts, counts)
                and np.array_equal(np.sort(np.repeat(rep.haptic_delays, rep.haptic_delay_counts)), delays)
                and rep.remainder_bits_per_period == remainder):
            mismatched.append(f"{cfg.scheme.value} tti={cfg.radio.tti} t_ib={cfg.haptic.t_ib} t_p={cfg.haptic.t_p}")
    elapsed = time.time() - t0
    ok = not mismatched and elapsed < 120.0
    report(9, ok, f"simulator equals the per-slot oracle (per-period counts, sorted delays, remainder) "
                  f"on the 3x4x4 grid and {len(cases) - 48} off-grid points ({elapsed:.1f}s)"
                  + (f"; mismatched: {', '.join(mismatched)}" if mismatched else ""))


def test_criterion_10_deterministic_outputs(tmp_path):
    sweep_args = ["sweep", "--scheme", "DS,SPS,SRR,FA", "--param", "t_ib",
                  "--from", "1ms", "--to", "3ms", "--steps", "21"]
    sim_args = ["simulate", "--scheme", "DS,FA", "--seed", "1,2", "--horizon", "15s"]
    ok = True
    for args, name in ((sweep_args, "sweep"), (sim_args, "sim")):
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        ok &= main(args + ["--out", str(a)]) == 0
        ok &= main(args + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    report(10, ok, "repeated sweep and simulate invocations produce byte-identical files")
