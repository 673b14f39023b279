import dataclasses
import logging
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st
from test_event_oracle import configs, make_config

from hapticsched import (
    ConfigError,
    HapticTrafficModel,
    InfeasibleError,
    LeftoverServiceCurve,
    LeftoverTrafficModel,
    RadioConfig,
    SchedulingScheme,
    SimConfig,
    SimReport,
    SizeDistribution,
    drop_walk,
    empirical_quantile,
    haptic_blocks,
    leftover_delay_bound_details,
    remainder_of_service,
    run,
    validate_against_walk,
)
from hapticsched import simulate as simulate_mod
from hapticsched.experiments import load_config
from hapticsched.scheduling import reserved_slots, slot_periods, slotted_machine

S = SchedulingScheme
LEFTOVER = LeftoverTrafficModel(4.0, 12000.0)


def radio(tti=0.5e-3, rate=1e6, t_pg=None):
    return RadioConfig(10, rate, tti, tti, t_pg or 10 * tti, 1e-4)


def haptic(t_ib=2e-3):
    return HapticTrafficModel(1.0, 0.2, t_ib, 50e-3)


def sim(scheme, tti=0.5e-3, t_ib=2e-3, horizon=15.0, seed=1, rate=1e6, leftover=LEFTOVER):
    return SimConfig(radio(tti, rate=rate), haptic(t_ib), leftover, scheme, horizon, seed)


class TestDeterminism:
    @pytest.mark.parametrize("scheme", list(S))
    def test_identical_config_identical_report(self, scheme):
        a = run(sim(scheme, horizon=30.0, seed=17))
        b = run(sim(scheme, horizon=30.0, seed=17))
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, field.name

    def test_seed_changes_leftover_delays(self):
        a = run(sim(S.DYNAMIC, horizon=30.0, seed=1))
        b = run(sim(S.DYNAMIC, horizon=30.0, seed=2))
        assert not np.array_equal(a.leftover_delays, b.leftover_delays)


class TestHapticSide:
    def test_fast_uplink_never_drops(self):
        for tti in (0.125e-3, 0.25e-3, 0.5e-3, 1e-3):
            for t_ib in (1e-3, 1.5e-3, 2e-3, 2.5e-3, 3e-3):
                report = run(sim(S.FAST_UPLINK, tti=tti, t_ib=t_ib))
                assert report.haptic_drop_rate == 0.0, (tti, t_ib)

    def test_dynamic_at_threshold_zero_drops_and_delay_cap(self):
        report = run(sim(S.DYNAMIC, horizon=100.0))
        assert report.haptic_drop_rate == 0.0
        assert report.haptic_delays.max() <= 7 * 0.5e-3

    def test_standing_grant_delay_cap(self):
        report = run(sim(S.SEMI_PERSISTENT, horizon=100.0))
        assert report.haptic_delays.max() <= 14 * 0.5e-3

    @pytest.mark.parametrize("scheme", list(S))
    def test_at_most_one_transmission_per_slot(self, scheme):
        cfg = sim(scheme, tti=0.125e-3, t_ib=1.3e-3)
        sa = simulate_mod.period_arrival_offsets_ns(cfg.haptic) // cfg.radio.tti_ns
        events = slotted_machine(cfg.scheme, cfg.radio, cfg.haptic, sa, cfg.slots_per_period, 0)
        assert len(np.unique(events.data_slots)) == len(events.data_slots)


class TestOracleEquivalence:
    @pytest.mark.parametrize("scheme", [S.DYNAMIC, S.FAST_UPLINK, S.SEMI_PERSISTENT, S.SOFT_RESERVATION])
    @pytest.mark.parametrize("tti", [0.25e-3, 0.5e-3])
    def test_counts_match_slotted_walk(self, scheme, tti):
        for t_ib in (1e-3, 2e-3, 3e-3):
            assert validate_against_walk(sim(scheme, tti=tti, t_ib=t_ib, horizon=12.0)), (scheme, tti, t_ib)

    def test_misphased_grants_rejected_at_validation(self):
        bad = RadioConfig(10, 1e6, 0.5e-3, 0.5e-3, 5.25e-3, 1e-4)  # grant period off the slot grid
        with pytest.raises(ConfigError, match="t_pg"):
            SimConfig(bad, haptic(), LEFTOVER, S.SEMI_PERSISTENT, 15.0, 1)

    def test_simulator_and_slotted_walk_reject_off_grid_alike(self):
        bad = RadioConfig(10, 1e6, 0.5e-3, 0.7e-3, 5.25e-3, 1e-4)  # SR and grant periods off the slot grid
        for scheme in (S.DYNAMIC, S.SEMI_PERSISTENT, S.SOFT_RESERVATION):
            with pytest.raises(ConfigError) as walk:
                drop_walk(scheme, bad, haptic(), slotted=True)
            with pytest.raises(ConfigError) as simulated:
                SimConfig(bad, haptic(), LEFTOVER, scheme, 15.0, 1)
            assert simulated.value.problems[0] == str(walk.value), scheme
        assert drop_walk(S.FAST_UPLINK, bad, haptic(), slotted=True).dropped == 0

    def test_short_horizon_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            SimConfig(radio(), haptic(), LEFTOVER, S.DYNAMIC, 5.0, 1)

    def test_horizon_guard_counts_whole_periods_on_the_ns_lattice(self):
        # t_p = 1.0000016 ms snaps to 1,000,002 ns = 2 slots of 500,001 ns; ten
        # t_p in float seconds is 10,000,016 ns, which holds only 9 periods
        tti = 500_001e-9
        r = RadioConfig(10, 1e6, tti, tti, 10 * tti, 1e-4)
        h = HapticTrafficModel(1.0000016e-3, tti, tti, 1.0000016e-3 - tti)
        with pytest.raises(ConfigError, match="horizon: must cover at least 10 traffic periods"):
            SimConfig(r, h, LEFTOVER, S.DYNAMIC, 10 * h.t_p, 1)
        assert SimConfig(r, h, LEFTOVER, S.DYNAMIC, 10 * 1_000_002e-9, 1).n_periods == 10

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match=f"seed: must be an integer >= 0, got {seed!r}"):
            SimConfig(radio(), haptic(), LEFTOVER, S.DYNAMIC, 15.0, seed)

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ConfigError, match="horizon: must be finite"):
            SimConfig(radio(), haptic(), LEFTOVER, S.DYNAMIC, horizon, 1)


class TestFastSlowAgreement:
    @pytest.mark.parametrize("scheme", list(S))
    def test_periodic_replication_equals_event_walk(self, scheme):
        # one replicated period against every chunk laid over a flat profile
        cfg = sim(scheme, horizon=12.0, seed=11)
        fast = run(cfg)
        slow = whole_array_run(cfg, reference_haptic_layer)
        assert np.array_equal(fast.haptic_period_counts, slow.haptic_period_counts)
        assert np.array_equal(delay_multiset(fast), delay_multiset(slow))
        assert np.allclose(fast.leftover_delays, slow.leftover_delays)
        assert fast.remainder_bits_per_period == pytest.approx(slow.remainder_bits_per_period)

    def test_drifting_grant_phase_uses_event_walk(self):
        # grant period that does not divide the traffic period: phase drifts
        cfg = SimConfig(radio(t_pg=3e-3), haptic(), LEFTOVER, S.SEMI_PERSISTENT, 12.0, 1)
        report = run(cfg)
        walk = drop_walk(S.SEMI_PERSISTENT, radio(t_pg=3e-3), haptic(), slotted=True)
        # phase-0 period must still match the one-period walk
        assert tuple(report.haptic_period_counts[0]) == (walk.transmitted, walk.dropped)


class TestLeftoverSide:
    def test_no_background_traffic_matches_analytic_remainder(self):
        quiet = LeftoverTrafficModel(1e-9, 12000.0)
        for scheme in S:
            report = run(sim(scheme, horizon=20.0, leftover=quiet))
            assert len(report.leftover_delays) == 0
            assert report.remainder_bits_per_period == remainder_of_service(scheme, radio(), haptic()), scheme

    # about one draw in seven qualifies, and about one SRR draw in a hundred
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(cfg=configs())
    # SRR with the flush grant at the burst end, with the last burst
    # arrival served by a grant inside the burst, and with the flush grant
    # (slot 24) on the slot the first sparse arrival (slot 20) sends in
    @example(cfg=make_config(S.SOFT_RESERVATION, 500_000, 20, 8, 4, 24, 1, 4, 10, 0))
    @example(cfg=make_config(S.SOFT_RESERVATION, 500_000, 20, 6, 12, 28, 1, 4, 10, 0))
    @example(cfg=make_config(S.SOFT_RESERVATION, 500_000, 40, 20, 4, 40, 1, 8, 10, 0))
    def test_remainder_and_envelope_charge_the_simulated_slots(self, cfg):
        """Where one period repeats verbatim and the slotted walk sends what
        the unslotted one does, the per-period charge is what the simulator
        occupies."""
        sa = simulate_mod.period_arrival_offsets_ns(cfg.haptic) // cfg.radio.tti_ns
        events = slotted_machine(cfg.scheme, cfg.radio, cfg.haptic, sa, cfg.slots_per_period, 0)
        assume(simulate_mod._replication_blocker(cfg.scheme, cfg.radio, cfg.slots_per_period, events) is None)
        slotted = drop_walk(cfg.scheme, cfg.radio, cfg.haptic, slotted=True)
        assume(slotted.transmitted == drop_walk(cfg.scheme, cfg.radio, cfg.haptic).transmitted)
        remainder = remainder_of_service(cfg.scheme, cfg.radio, cfg.haptic)
        assert run(cfg).remainder_bits_per_period == remainder
        curve = LeftoverServiceCurve(cfg.scheme, cfg.radio, cfg.haptic)
        assert curve.period_bits == cfg.radio.total_rate * cfg.haptic.t_p - remainder

    def test_flush_grant_on_the_period_end_is_not_charged_twice(self):
        # the last burst arrival (slot 17) waits for the grant at slot 20,
        # the next period's first reserved grant
        cfg = make_config(S.SOFT_RESERVATION, 500_000, 20, 18, 4, 8, 1, 5, 10, 0)
        assert run(cfg).remainder_bits_per_period == remainder_of_service(cfg.scheme, cfg.radio, cfg.haptic)

    def test_work_conservation(self):
        report = run(sim(S.SEMI_PERSISTENT, horizon=50.0, seed=5))
        served_bits = 12000.0 * len(report.leftover_delays)
        capacity = 1e6 * report.horizon_s  # upper bound on total supply
        assert served_bits <= capacity

    def test_single_packet_service_time(self):
        # an isolated packet on an idle full-rate channel finishes in size/rate
        quietish = LeftoverTrafficModel(0.01, 12000.0)
        report = run(sim(S.DYNAMIC, horizon=3000.0, seed=8, leftover=quietish))
        # at 0.01 pkt/s packets are effectively alone; DS slots barely perturb
        assert report.leftover_delays.min() >= 12000.0 / 1e6 - 1e-9
        assert report.leftover_delays.min() <= 12000.0 / (0.8e6) + 1e-9

    def test_bound_holds_on_moderate_run(self):
        cfg = sim(S.FAST_UPLINK, horizon=2000.0, seed=3, rate=5e6)
        report = run(cfg)
        bound = leftover_delay_bound_details(S.FAST_UPLINK, radio(rate=5e6), haptic(), LEFTOVER, 1e-1).d0_s
        assert empirical_quantile(report.leftover_delays, 0.9) <= bound

    def test_unstable_run_shows_growing_delays(self):
        heavy = LeftoverTrafficModel(4.0, 5e5)  # 2 Mb/s offered against <1 Mb/s
        report = run(sim(S.DYNAMIC, horizon=60.0, leftover=heavy))
        assert empirical_quantile(report.leftover_delays, 0.5) > 1.0

    def test_superlinear_detector_predicate(self):
        # fires only on a 10x blow-up with both samples above 100 packets;
        # rate-deficit (linear) growth doubles between samples and stays quiet
        assert simulate_mod.queue_blowup(150, 2000)
        assert not simulate_mod.queue_blowup(150, 300)
        assert not simulate_mod.queue_blowup(50, 900)


class TestCapacityProfile:
    @staticmethod
    def check_supply_against_per_slot_integration(prefix):
        # brute-force oracle: integrate slot by slot at 1 us resolution, the
        # slots after the prefix repeating the 40-slot cycle
        rng = np.random.default_rng(0)
        occupied = np.sort(rng.choice(prefix + 40, size=9 + prefix // 2, replace=False))
        profile = simulate_mod._CapacityProfile(
            occupied, prefix_slots=prefix, cycle_slots=40, horizon_slots=prefix + 120, tti_ns=1_000_000,
            total_rate=1e6, reduced_rate=0.2e6
        )
        occ = set(occupied.tolist())
        checks = {0, 1, 499, 500, 1000, 12999, 13000, 13001, 39999, 40000, 40001, 52999, 53000, 95000, 119999}
        for t_us in sorted(checks | {(prefix + 120) * 1000 - 1, (prefix + 120) * 1000}):
            total = 0.0
            for step in range(t_us):
                slot = step // 1000
                if slot >= prefix:
                    slot = prefix + (slot - prefix) % 40
                total += (0.2e6 if slot in occ else 1e6) * 1e-6
            assert profile.supply_at(np.array([t_us * 1000]))[0] == pytest.approx(total, rel=1e-9, abs=1e-6)
        assert profile.total_bits == pytest.approx(total, rel=1e-9, abs=1e-6)

    def test_supply_matches_per_slot_integration(self):
        self.check_supply_against_per_slot_integration(0)

    def test_supply_with_a_prefix_matches_per_slot_integration(self):
        self.check_supply_against_per_slot_integration(13)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("prefix", [0, 1, 13])
    def test_segments_equal_a_per_slot_loop(self, seed, prefix):
        # reference: one full-rate segment per gap and one reduced-rate segment
        # per occupied slot, and the cycle starting a segment of its own,
        # built slot by slot; the float cumsum depends on it.  The occupied
        # slots come unsorted and with repeats, and some draws hold the slots
        # around the cycle start and the last slot, where a per-slot mark of
        # the bounds can go wrong
        rng = np.random.default_rng(seed)
        period = int(rng.integers(1, 60))
        end = prefix + period
        occupied = rng.choice(end, size=int(rng.integers(0, end + 1)), replace=False)
        edges = [0, end - 1] if prefix == 0 else [prefix - 1, prefix, end - 1]
        occupied = np.concatenate([occupied, occupied[:3], edges[: seed % (len(edges) + 1)]])
        rng.shuffle(occupied)
        tti, full, reduced = 500_000, 1e6, 0.3e6
        occ = set(occupied.tolist())
        seg_t, seg_rate = [], []
        for s in range(end):
            if s in (0, prefix) or s in occ or s - 1 in occ:
                seg_t.append(s * tti)
                seg_rate.append(reduced if s in occ else full)
        profile = simulate_mod._CapacityProfile(occupied, prefix, period, end + 2 * period, tti, full, reduced)
        assert np.array_equal(profile.seg_t, np.array(seg_t, dtype=np.int64))
        assert np.array_equal(profile.seg_rate, np.array(seg_rate))
        assert np.array_equal(profile.occupied, np.isin(np.arange(end), occupied))

    def test_inversion_round_trip(self):
        rng = np.random.default_rng(1)
        occupied = np.sort(rng.choice(40, size=9, replace=False))
        profile = simulate_mod._CapacityProfile(
            occupied, prefix_slots=0, cycle_slots=40, horizon_slots=200, tti_ns=1_000_000,
            total_rate=1e6, reduced_rate=0.2e6
        )
        times_ns = rng.integers(0, 5 * 40 * 1_000_000, size=200)
        supply = profile.supply_at(times_ns)
        back = profile.time_of_supply(supply)
        assert np.allclose(back, times_ns / 1e9, atol=2e-9)

    def test_zero_rate_plateaus_resolve_at_next_rising_segment(self):
        profile = simulate_mod._CapacityProfile(
            np.array([1]), prefix_slots=0, cycle_slots=4, horizon_slots=8, tti_ns=1_000_000,
            total_rate=1e6, reduced_rate=0.0
        )
        # one full slot of capacity accrues by t=1ms and stalls until t=2ms
        t = profile.time_of_supply(np.array([1000.0 + 1e-9]))[0]
        assert t == pytest.approx(2e-3, abs=1e-9)

    def test_targets_past_horizon_are_unreachable(self):
        profile = simulate_mod._CapacityProfile(
            np.array([], dtype=np.int64), prefix_slots=0, cycle_slots=4, horizon_slots=8, tti_ns=1_000_000,
            total_rate=1e6, reduced_rate=1e6
        )
        assert np.isinf(profile.time_of_supply(np.array([profile.total_bits * 1.001]))[0])

    def test_a_cycle_without_capacity_leaves_the_prefix_reachable(self):
        # every cycle slot occupied at zero reduced rate: only the prefix's
        # two free slots supply bits, and nothing past them is reachable
        profile = simulate_mod._CapacityProfile(
            np.arange(2, 7), prefix_slots=3, cycle_slots=4, horizon_slots=15, tti_ns=1_000_000,
            total_rate=1e6, reduced_rate=0.0
        )
        assert profile.total_bits == 2000.0
        assert np.allclose(profile.time_of_supply(np.array([500.0, 1500.0])), [0.5e-3, 1.5e-3])
        assert np.isinf(profile.time_of_supply(np.array([2000.5]))[0])

    @pytest.mark.parametrize("reduced", [0.2e6, 0.0])
    def test_rising_segments_are_the_segments_unless_a_plateau_exists(self, reduced):
        profile = simulate_mod._CapacityProfile(
            np.array([1, 5, 6]), prefix_slots=2, cycle_slots=8, horizon_slots=30, tti_ns=1_000_000,
            total_rate=1e6, reduced_rate=reduced
        )
        rising = profile.seg_rate > 0
        for ris, seg in [(profile.ris_t, profile.seg_t), (profile.ris_S, profile.seg_S),
                         (profile.ris_rate, profile.seg_rate)]:
            assert ris.dtype == seg.dtype and np.array_equal(ris, seg[rising])
            assert np.shares_memory(ris, seg) == bool(rising.all())
            with pytest.raises(ValueError):
                ris[0] = 0

    @pytest.mark.parametrize("tables", [False, True])
    def test_targets_past_the_horizon_take_no_arithmetic(self, tables):
        # at 1e-300 b/s a target of a few bits lies about 1e305 cycles out,
        # whose time in ns overflows: it is past the horizon, so it is inf
        # with no overflow on the way
        profile = simulate_mod._CapacityProfile(
            np.array([1]), prefix_slots=0, cycle_slots=4, horizon_slots=60_000, tti_ns=500_000,
            total_rate=1e-300, reduced_rate=0.0
        )
        if tables:
            profile.build_lookup_tables()
        targets = np.array([0.0, profile.total_bits, 1200.0, 1e300, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = profile.time_of_supply(targets)
            scalar = profile.time_of_supply(1200.0)
        assert np.array_equal(got, [0.0, 30.0, np.inf, np.inf, np.inf]) and scalar == np.inf


@st.composite
def profile_lookups(draw):
    """A capacity profile's arguments, with or without a prefix, with
    zero-rate plateaus and with the horizon ending mid-cycle after a few or
    after thousands of cycles; times in ns, every slot bound of the first
    and the last profile span, random slot bounds and random instants; and
    one time for 0-d input."""
    tti = draw(st.sampled_from([125_000, 500_000, 1_000_000]))
    prefix = draw(st.sampled_from([0, 0, 1, 2, 7, 40]))
    cycle = draw(st.integers(1, 60))
    cycles = draw(st.one_of(st.integers(1, 4), st.integers(1000, 4000)))
    horizon = prefix + cycle * cycles + draw(st.integers(0, cycle - 1))
    occupied = draw(st.lists(st.integers(0, prefix + cycle - 1), max_size=prefix + cycle))
    reduced = draw(st.sampled_from([0.0, 0.0, 1e4, 0.25e6, 1e6]))
    args = (np.array(occupied, dtype=np.int64), prefix, cycle, horizon, tti, 1e6, reduced)
    span = prefix + cycle
    slots = np.concatenate([np.arange(min(span, horizon) + 1), np.arange(max(horizon - span, 0), horizon + 1),
                            draw(st.lists(st.integers(0, horizon), max_size=50))])
    times = np.concatenate([np.unique(slots) * tti,
                            draw(st.lists(st.integers(0, horizon * tti), max_size=50))]).astype(np.int64)
    return args, times, draw(st.integers(0, horizon * tti))


class TestLookupTablesEqualSearch:
    @settings(max_examples=200, deadline=None)
    @given(case=profile_lookups(), seed=st.integers(0, 2**32 - 1))
    # two full slots, then zero-rate plateaus
    @example(case=((np.arange(2, 30), 0, 30, 60, 500_000, 1e6, 0.0), np.arange(0, 60 * 500_000, 250_000), 7),
             seed=0)
    # 30 slots at 1% of the rate after a prefix: each bucket holds a dozen segment starts
    @example(case=((np.arange(5, 35), 5, 30, 95, 500_000, 1e6, 1e4), np.arange(0, 95 * 500_000, 125_000), 3),
             seed=1)
    # a cycle with no capacity: nothing folds, and the targets are read in place
    @example(case=((np.arange(2, 7), 3, 4, 15, 1_000_000, 1e6, 0.0), np.arange(0, 15 * 1_000_000, 250_000), 5),
             seed=2)
    # 2000 cycles of 30 slots with a prefix: k * cycle_bits rounds at every fold
    @example(case=((np.array([3, 8, 9, 20]), 2, 30, 2 + 30 * 2000 + 7, 500_000, 1e6, 0.25e6),
                   np.arange(0, (2 + 30 * 2000 + 7) * 500_000, 1_250_007), 11), seed=3)
    # every other slot at 0.8 of the rate, as under a latency-critical load:
    # buckets narrower than a segment, so one step resolves every target
    @example(case=((np.arange(0, 40, 2), 3, 40, 3 + 40 * 50 + 9, 500_000, 1e6, 0.8e6),
                   np.arange(0, (3 + 40 * 50 + 9) * 500_000, 312_501), 13), seed=4)
    # the same at 0.2 of the rate: such buckets would number past two per
    # slot, so the map stops there and a bucket can hold two starts (a walk)
    @example(case=((np.arange(0, 40, 2), 3, 40, 3 + 40 * 50 + 9, 500_000, 1e6, 0.2e6),
                   np.arange(0, (3 + 40 * 50 + 9) * 500_000, 312_501), 13), seed=5)
    def test_identical_arrays(self, case, seed):
        args, times, scalar = case
        search, tables = simulate_mod._CapacityProfile(*args), simulate_mod._CapacityProfile(*args)
        tables.build_lookup_tables()
        assert search.slot_S is None and tables.slot_S is not None
        times_before = times.copy()
        for t in (times, np.int64(scalar), np.array(scalar)):
            got, want = tables.supply_at(t), search.supply_at(t)
            assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(times, times_before)  # the lookups only read their input
        rng = np.random.default_rng(seed)
        supply = search.supply_at(times)
        total = search.total_bits
        starts = np.concatenate([search.ris_S, search.ris_S + search.cycle_bits])
        targets = np.concatenate([
            supply, np.nextafter(supply, -np.inf), np.nextafter(supply, np.inf), starts,
            np.nextafter(starts, -np.inf), np.nextafter(starts, np.inf), rng.uniform(-0.1, 1.5, 200) * total,
            [0.0, -1.0, total, total * (1 + 1e-12), total * 1.001, 1e300, np.inf, -np.inf, np.nan]])
        targets_before = targets.copy()
        with np.errstate(invalid="ignore"):
            got, want = tables.time_of_supply(targets), search.time_of_supply(targets)
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(targets, targets_before, equal_nan=True)
        # a 0-d or scalar target gives the scalar a 1-d call gives for it
        for target in (search.supply_at(np.int64(scalar)), total * 1.001, -1.0):
            for bits in (target, np.array(target)):
                got, want = tables.time_of_supply(bits), search.time_of_supply(bits)
                assert type(got) is type(want) is np.float64
                assert got == want == search.time_of_supply(np.array([target]))[0]

    @pytest.mark.parametrize("reduced, buckets, one_step", [
        (0.8e6, 46, True),   # 18,000 bits, the narrowest segment 400 of them: 45 buckets wide enough, one more
        (0.2e6, 80, False),  # 12,000 bits, the narrowest 100: 120 buckets, capped at two per slot
    ])
    def test_the_path_a_profile_takes(self, reduced, buckets, one_step):
        # 40 slots, every other one occupied; segment starts ±1 ulp, 0, NaN
        # and targets past the horizon resolve as the binary search does
        args = (np.arange(0, 40, 2), 0, 40, 40 * 50, 500_000, 1e6, reduced)
        search, tables = simulate_mod._CapacityProfile(*args), simulate_mod._CapacityProfile(*args)
        tables.build_lookup_tables()
        assert (tables._buckets, tables.one_step) == (buckets, one_step)
        starts = search.ris_S + 7 * search.cycle_bits
        targets = np.concatenate([starts, np.nextafter(starts, -np.inf), np.nextafter(starts, np.inf),
                                  [0.0, np.nan, search.total_bits * 1.001, np.inf]])
        with np.errstate(invalid="ignore"):
            got, want = tables.time_of_supply(targets), search.time_of_supply(targets)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got[:len(starts)], (search.ris_t + 7 * search.cycle_ns) / 1e9)  # a start is its own segment's
        assert got[-4] == 0.0 and np.isnan(got[-3]) and got[-2] == got[-1] == np.inf


def tile_gather(parts: list[np.ndarray], order: list[int], span: int) -> np.ndarray:
    """parts[order[c]] + c * span for every chunk c, laid end to end."""
    sizes = np.array([len(p) for p in parts], dtype=np.int64)
    lens = sizes[order]
    idx = np.repeat((np.cumsum(sizes) - sizes)[order] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    return np.concatenate(parts)[idx] + np.repeat(np.arange(len(order), dtype=np.int64) * span, lens)


class FlatProfile:
    """The cumulative background capacity as one segment table and one
    cumulative sum over the whole horizon."""

    def __init__(self, occupied_slots, n_slots, tti_ns, total_rate, reduced_rate):
        self.period_ns = n_slots * tti_ns
        occ = np.unique(occupied_slots)
        seg_t, seg_rate = [0], []
        for s in occ.tolist():
            if s * tti_ns > seg_t[-1]:
                seg_t.append(s * tti_ns)
                seg_rate.append(total_rate)
            seg_t.append((s + 1) * tti_ns)
            seg_rate.append(reduced_rate)
        if seg_t[-1] < n_slots * tti_ns:
            seg_t.append(n_slots * tti_ns)
            seg_rate.append(total_rate)
        bounds = np.array(seg_t, dtype=np.int64)
        self.seg_t = bounds[:-1]
        self.seg_rate = np.array(seg_rate, dtype=float)
        seg_bits = self.seg_rate * (np.diff(bounds) / 1e9)
        self.seg_S = np.concatenate([[0.0], np.cumsum(seg_bits)[:-1]])
        self.total_bits = float(np.sum(seg_bits))
        rising = self.seg_rate > 0
        self.ris_t, self.ris_S, self.ris_rate = self.seg_t[rising], self.seg_S[rising], self.seg_rate[rising]

    def supply_at(self, t_ns):
        k, r = np.divmod(np.asarray(t_ns, dtype=np.int64), self.period_ns)
        j = np.searchsorted(self.seg_t, r, side="right") - 1
        return k * self.total_bits + self.seg_S[j] + self.seg_rate[j] * (r - self.seg_t[j]) / 1e9

    def time_of_supply(self, bits):
        bits = np.asarray(bits, dtype=float)
        if self.total_bits <= 0 or len(self.ris_S) == 0:
            return np.full(bits.shape, np.inf)
        k = np.floor(bits / self.total_bits)
        res = bits - k * self.total_bits
        low = res < 0
        k[low] -= 1
        res[low] += self.total_bits
        high = res >= self.total_bits
        k[high] += 1
        res[high] -= self.total_bits
        j = np.maximum(np.searchsorted(self.ris_S, res, side="right") - 1, 0)
        t_ns = k * float(self.period_ns) + self.ris_t[j] + (res - self.ris_S[j]) / self.ris_rate[j] * 1e9
        out = t_ns / 1e9
        out[bits > self.total_bits * (1 + 1e-12)] = np.inf
        return out


def reference_haptic_layer(config):
    """The latency-critical layer with every chunk of the horizon laid end to
    end by a gather (full chunks memoised on their entry state, the partial
    final one walked) and a flat capacity profile over the horizon: the
    same (profile, counts, post-warm-up delays, delay counts, occupancy) as
    the simulator's prefix-and-cycle layout, computed without it: every
    delay of the horizon is laid out, each with a count of 1."""
    radio, haptic = config.radio, config.haptic
    tti = radio.tti_ns
    k_p = config.slots_per_period
    n_periods = config.n_periods
    n_slots = n_periods * k_p
    span = math.lcm(k_p, *(ns // tti for ns in slot_periods(config.scheme, radio).values()))
    period_sa = simulate_mod.period_arrival_offsets_ns(haptic) // tti
    chunk_sa = (np.arange(min(span, n_slots) // k_p, dtype=np.int64)[:, None] * k_p + period_sa).ravel()
    walked, seen, order, busy = [], {}, [], 0
    for _ in range(n_slots // span):
        if busy not in seen:
            seen[busy] = len(walked)
            walked.append(slotted_machine(config.scheme, config.radio, config.haptic, chunk_sa, span, busy))
        order.append(seen[busy])
        busy = max(walked[order[-1]].busy_end - span, 0)
    reserved = [reserved_slots(config.scheme, radio, haptic, span)] * len(walked)
    rest = n_slots % span
    if rest:
        order.append(len(walked))
        walked.append(slotted_machine(config.scheme, config.radio, config.haptic, chunk_sa[chunk_sa < rest], rest, busy))
        reserved.append(reserved_slots(config.scheme, radio, haptic, rest))

    def tiled(field, shift=span):
        return tile_gather([getattr(e, field) for e in walked], order, shift)

    tx_slots, dropped_slots = tiled("tx_arrival_slots"), tiled("dropped_arrival_slots")
    occupied = np.unique(np.concatenate([tiled("data_slots"), tile_gather(reserved, order, span)]))
    occupied = occupied[occupied < n_slots]
    reduced = (radio.n_channels - haptic_blocks(radio)) * radio.channel_rate
    profile = FlatProfile(occupied, n_slots, tti, radio.total_rate, reduced)
    counts = np.stack([np.bincount(tx_slots // k_p, minlength=n_periods),
                       np.bincount(dropped_slots // k_p, minlength=n_periods)], axis=1)
    occupancy = float(np.bincount(occupied // k_p, minlength=n_periods)[1:].mean())
    delays = tiled("delays_s", 0)[tx_slots >= k_p]
    return profile, counts, delays, np.ones(len(delays), dtype=np.int64), occupancy


class TestPrefixCycleLayoutEqualsFlatReference:
    @settings(max_examples=80, deadline=None)
    @given(cfg=configs(), seed=st.integers(0, 2**32 - 1))
    # t_p = 2001 slots against a 10-slot grant period: 12 periods end mid-chunk
    @example(cfg=make_config(S.SEMI_PERSISTENT, 500_000, 2001, 400, 16, 400, 1, 10, 12, 0), seed=0)
    # SRR chunk lcm(7, 3, 16) = 48 periods: the horizon ends before the cycle closes
    @example(cfg=make_config(S.SOFT_RESERVATION, 1_000_000, 7, 3, 3, 5, 3, 16, 10, 0), seed=1)
    # DS with k_sr = 4 against 30 slots: data spills across the chunk boundary
    @example(cfg=make_config(S.DYNAMIC, 1_000_000, 30, 10, 8, 12, 4, 1, 11, 5), seed=2)
    # DS in 4-slot chunks: the SR for the arrival in slot 3 sends its data two chunks on
    @example(cfg=make_config(S.DYNAMIC, 1_000_000, 4, 1, 4, 8, 4, 1, 10, 0), seed=3)
    def test_layer_equals_reference(self, cfg, seed):
        profile, counts, delays, delay_counts, occupancy = simulate_mod._haptic_layer(cfg)
        ref, ref_counts, ref_delays, _, ref_occupancy = reference_haptic_layer(cfg)
        assert counts.dtype == ref_counts.dtype and np.array_equal(counts, ref_counts)
        assert np.array_equal(np.sort(np.repeat(delays, delay_counts)), np.sort(ref_delays))
        assert occupancy == ref_occupancy
        # the flat profile sums every segment of the horizon in one cumsum,
        # the periodic one adds whole cycles: they agree to float rounding
        tti, n_slots = cfg.radio.tti_ns, cfg.n_periods * cfg.slots_per_period
        bits_tol = 1e-12 * ref.total_bits
        time_tol = bits_tol / ref.ris_rate.min()
        rng = np.random.default_rng(seed)
        times = np.concatenate([np.arange(n_slots + 1) * tti, rng.integers(0, n_slots * tti + 1, 300)])
        assert np.allclose(profile.supply_at(times), ref.supply_at(times), rtol=0, atol=bits_tol)
        assert profile.total_bits == pytest.approx(ref.total_bits, rel=0, abs=bits_tol)
        targets = rng.uniform(0, ref.total_bits, 300)
        assert np.allclose(profile.time_of_supply(targets), ref.time_of_supply(targets), rtol=0, atol=time_tol)

    @settings(max_examples=80, deadline=None)
    @given(cfg=configs())
    # DS in 2-slot chunks: an arrival's data lands up to three chunks on (reach 3)
    @example(cfg=make_config(S.DYNAMIC, 1_000_000, 2, 1, 1, 1, 2, 1, 10, 0))
    def test_each_walked_delay_is_kept_once_with_a_positive_count(self, cfg):
        _, _, delays, delay_counts, _ = simulate_mod._haptic_layer(cfg)
        ref_delays = reference_haptic_layer(cfg)[2]
        assert delay_counts.dtype == np.int64 and len(delay_counts) == len(delays)
        assert np.all(delay_counts > 0)
        # no warm-up delay left in with a zero count: the largest is the reference's
        assert (delays.max() if len(delays) else None) == (ref_delays.max() if len(ref_delays) else None)

    def test_layer_memory_does_not_grow_with_the_horizon(self):
        # 250,000 periods at the defaults: laid out per transmission, the
        # access delays alone took 232 MB; the per-period counts take 4 MB
        loaded = load_config()
        cfg = SimConfig(loaded.radio, loaded.haptic, loaded.leftover, S.DYNAMIC, 250_000.0, 1)
        simulate_mod.steady_cycle.cache_clear()  # a memoised walk would measure only the gather
        tracemalloc.start()
        try:
            simulate_mod._haptic_layer(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_on_the_grid_the_cycle_is_one_period(self):
        # the last arrival, in slot 1999, is sent on the grant at the period
        # boundary: that slot is reserved in the next period anyway
        late = HapticTrafficModel(1.0, 0.2, 2e-3, 0.7995)
        cfg = SimConfig(radio(), late, LEFTOVER, S.SEMI_PERSISTENT, 20.0, 1)
        events = slotted_machine(cfg.scheme, cfg.radio, cfg.haptic, simulate_mod.period_arrival_offsets_ns(late) // 500_000, 2000, 0)
        assert events.data_slots.max() == 2000
        profile = simulate_mod._haptic_layer(cfg)[0]
        assert (profile.prefix_ns, profile.cycle_ns) == (0, late.t_p_ns)

    @pytest.mark.parametrize("cfg, args", [
        (sim(S.SEMI_PERSISTENT, horizon=20.0), ("SPS", 1, 0, 1, 1, "clean")),
        (make_config(S.DYNAMIC, 1_000_000, 30, 10, 8, 12, 4, 1, 11, 5),
         ("DS", 2, 1, 1, 2, "t_p is not a multiple of t_sr")),
        (make_config(S.SOFT_RESERVATION, 1_000_000, 7, 3, 3, 5, 3, 16, 10, 0),
         ("SRR", 48, 1, 1, 2, "t_p is not a multiple of t_sr")),
    ])
    def test_path_record(self, cfg, args, caplog):
        with caplog.at_level(logging.DEBUG, "hapticsched.simulate"):
            run(cfg)
        records = [r for r in caplog.records if r.msg is simulate_mod._PATH_RECORD]
        assert len(records) == 1 and records[0].args == args


def whole_array_run(config, haptic_layer=None):
    """The simulator with its background queue drained in one whole-array
    pass, as it was computed before the block walk: every packet's supply at
    arrival, one running maximum and one inversion over the full timeline.
    haptic_layer defaults to the simulator's own."""
    radio, haptic = config.radio, config.haptic
    n_periods = config.n_periods
    n_slots = n_periods * config.slots_per_period
    horizon_s = n_slots * radio.tti_ns / 1e9
    warmup_s = haptic.t_p_ns / 1e9
    profile, counts, haptic_delays, delay_counts, occupancy = (haptic_layer or simulate_mod._haptic_layer)(config)
    arrivals = simulate_mod.leftover_arrivals(config.leftover, horizon_s, config.seed).times_s
    sigma = float(config.leftover.sigma)
    if config.leftover.size_distribution is SizeDistribution.EXPONENTIAL_MEAN:  # drawn whole from their own stream
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
        sizes = np.maximum(rng.exponential(sigma, len(arrivals)), np.finfo(float).tiny)
    else:
        sizes = np.full(len(arrivals), sigma)
    leftover_delays = np.array([], dtype=float)
    if len(arrivals):
        supply_at_arrival = profile.supply_at(np.round(arrivals * 1e9).astype(np.int64))
        cum = np.cumsum(sizes)
        backlog = np.maximum.accumulate(supply_at_arrival - (cum - sizes))
        completion = profile.time_of_supply(backlog + cum)
        finished = np.isfinite(completion)
        fin_times = completion[finished]
        t_mid = 0.5 * horizon_s
        q_mid = int(np.searchsorted(arrivals, t_mid, side="right") - np.searchsorted(fin_times, t_mid, side="right"))
        q_end = int(len(arrivals) - len(fin_times))
        if simulate_mod.queue_blowup(q_mid, q_end):
            raise InfeasibleError(
                f"leftover queue grew superlinearly ({q_mid} packets at mid-horizon, "
                f"{q_end} at the end): configuration is unstable"
            )
        leftover_delays = (completion - arrivals)[(arrivals >= warmup_s) & finished]
    post = counts[1:]
    tx_total, dr_total = int(post[:, 0].sum()), int(post[:, 1].sum())
    drop_rate = dr_total / (tx_total + dr_total) if (tx_total + dr_total) else 0.0
    slot_bits = haptic_blocks(radio) * radio.channel_rate * radio.tti
    return SimReport(
        config.scheme, drop_rate, np.asarray(haptic_delays, dtype=float), delay_counts, leftover_delays,
        radio.total_rate * haptic.t_p - slot_bits * occupancy, n_slots, config.seed, counts, horizon_s,
    )


def delay_multiset(report):
    """Every post-warm-up access delay of the horizon, sorted."""
    return np.sort(np.repeat(report.haptic_delays, report.haptic_delay_counts))


def assert_reports_identical(got, want, leftover_atol=0.0, delays_as_multiset=False):
    """Field by field; with delays_as_multiset, the access delays compare
    as the multisets they stand for, whatever the layout."""
    for field in dataclasses.fields(want):
        x, y = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("haptic_delays", "haptic_delay_counts") and delays_as_multiset:
            assert np.array_equal(delay_multiset(got), delay_multiset(want)), field.name
        elif field.name == "leftover_delays" and leftover_atol:
            assert x.dtype == y.dtype and x.shape == y.shape and np.allclose(x, y, rtol=0, atol=leftover_atol)
        elif isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@st.composite
def loaded_configs(draw):
    """Per-slot oracle configurations with a few hundred background packets
    at 5% to 160% of the channel rate: heavy enough to leave packets
    unfinished at the horizon."""
    cfg = draw(configs())
    horizon = cfg.n_periods * cfg.haptic.t_p
    lam = draw(st.integers(1, 400)) / horizon
    load = draw(st.floats(0.05, 1.6))
    leftover = LeftoverTrafficModel(lam, load * cfg.radio.total_rate / lam,
                                    draw(st.sampled_from(list(SizeDistribution))))
    return dataclasses.replace(cfg, leftover=leftover, seed=draw(st.integers(0, 2**31)))


def inject(times, size):
    """Patch the simulator's background draw to return the hand-built
    arrival times, whole to whole_array_run and in blocks to run, all of
    the one size."""

    class HandBuilt:
        times_s = times
        count_bound = len(times)

        def __init__(self, horizon):
            self.horizon_s = horizon

        def time_blocks(self, block):
            return (times[lo:lo + block] for lo in range(0, len(times), block))

        def size_draw(self):
            return lambda n: np.full(n, float(size))

    return mock.patch.object(simulate_mod, "leftover_arrivals", lambda model, horizon, seed: HandBuilt(horizon))


@pytest.fixture
def fresh_draws():
    """An empty kept-draw memo before and after the test: a test that patches
    the draw (the generator or the timeline) neither reads a draw kept
    before it nor leaves its own behind."""
    simulate_mod._kept_blocks.cache_clear()
    yield
    simulate_mod._kept_blocks.cache_clear()


def lookup(tables: bool):
    """Force the background layer's choice between lookup tables and binary
    search; the whole-array pass always searches."""
    return mock.patch.object(simulate_mod, "_tables_pay", lambda n_packets, profile_slots: tables)


class TestBlockWalkEqualsWholeArrayPass:
    @settings(max_examples=80, deadline=None)
    @given(cfg=loaded_configs(), block=st.sampled_from([1, 2, 7, simulate_mod._BLOCK]), reference=st.booleans(),
           tables=st.booleans())
    def test_every_field_identical(self, cfg, block, reference, tables):
        with mock.patch.object(simulate_mod, "_BLOCK", block), lookup(tables):
            got = run(cfg)
        if reference:  # against the flat profile over the horizon, equal to float rounding:
            # a quarter of the channels at most carries the latency-critical flow, so a
            # bits error of 1e-12 of the horizon supply moves a completion by less than
            # 2e-12 of the horizon
            want = whole_array_run(cfg, reference_haptic_layer)
            assert_reports_identical(got, want, leftover_atol=2e-12 * want.horizon_s, delays_as_multiset=True)
        else:
            assert_reports_identical(got, whole_array_run(cfg))

    @pytest.mark.parametrize("block", [1, 2, 7, simulate_mod._BLOCK])
    def test_blowup_raises_the_same_error(self, block, fresh_draws):
        # no latency-critical load and 1 Mbit packets on a 1 Mb/s channel: a
        # backlogged packet finishes on a whole second, the tenth exactly at
        # mid-horizon.  200 packets in the first 0.2 s leave 190 queued at
        # 10 s; 2500 more in the second half leave 2680 at the end
        idle = RadioConfig(10, 1e6, 0.5e-3, 0.5e-3, 5e-3, 0.0)
        cfg = SimConfig(idle, haptic(), LeftoverTrafficModel(4.0, 1e6), S.SEMI_PERSISTENT, 20.0, 1)
        times = np.concatenate([np.arange(200) / 1000, 10.0 + np.arange(1, 2501) / 256])
        with inject(times, cfg.leftover.sigma):
            with pytest.raises(InfeasibleError) as want:
                whole_array_run(cfg)
            for tables in (False, True):
                with mock.patch.object(simulate_mod, "_BLOCK", block), lookup(tables), \
                        pytest.raises(InfeasibleError) as got:
                    run(cfg)
                assert str(got.value) == str(want.value)
        assert "(190 packets at mid-horizon, 2680 at the end)" in str(want.value)

    @pytest.mark.parametrize("block", [7, simulate_mod._BLOCK])
    def test_the_delay_buffer_grows_past_the_time_draws_bound(self, block, fresh_draws):
        # gaps of half their mean: about 1,600 arrivals in 200 s at 4/s, past
        # the time draw's bound of 1,099, so the draw takes an extension chunk
        default_rng = np.random.default_rng

        class HalfGaps:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def standard_exponential(self, size):
                return self._rng.standard_exponential(size) / 2

        cfg = sim(S.DYNAMIC, horizon=200.0)
        bound = simulate_mod.leftover_arrivals(cfg.leftover, 200.0, cfg.seed).count_bound
        with mock.patch.object(np.random, "default_rng", HalfGaps), mock.patch.object(simulate_mod, "_BLOCK", block):
            got = run(cfg)
            want = whole_array_run(cfg)
        assert len(got.leftover_delays) > bound
        assert_reports_identical(got, want)

    def test_only_the_kept_delays_span_the_timeline(self):
        # about 2e5 packets.  The arrival times and the sizes are drawn per
        # block, so the walk holds one horizon-long array: the kept delays,
        # preallocated to the time draw's bound
        loaded = load_config()
        leftover = LeftoverTrafficModel(300.0, 1200.0, SizeDistribution.EXPONENTIAL_MEAN)
        cfg = SimConfig(loaded.radio, loaded.haptic, leftover, S.SEMI_PERSISTENT, 700.0, 1)
        horizon_s, warmup_s = cfg.n_periods * cfg.haptic.t_p_ns / 1e9, cfg.haptic.t_p_ns / 1e9
        profile = simulate_mod._haptic_layer(cfg)[0]
        timeline = simulate_mod.leftover_arrivals(leftover, horizon_s, cfg.seed)
        n, bound = len(timeline), timeline.count_bound
        block = 1024  # small blocks, so that their temporaries do not hide a whole-timeline array
        with mock.patch.object(simulate_mod, "_BLOCK", block):
            tracemalloc.start()
            try:
                simulate_mod._background_layer(cfg, profile, horizon_s, warmup_s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert n > 200_000 and peak < 8 * bound + 64 * 8 * block

    def test_run_record_counts_background_packets(self, caplog):
        # 2 Mb/s offered against less than 1 Mb/s, as about 80 or 8,000 packets
        # against a profile of one 2,000-slot period
        for leftover, path in [(LeftoverTrafficModel(4.0, 5e5), "search"), (LeftoverTrafficModel(400.0, 5e3), "table")]:
            cfg = sim(S.DYNAMIC, horizon=20.0, leftover=leftover)
            caplog.clear()
            with mock.patch.object(simulate_mod, "_BLOCK", 16), caplog.at_level(logging.DEBUG, "hapticsched.simulate"):
                report = run(cfg)
            records = [r for r in caplog.records if r.msg is simulate_mod._BACKGROUND_RECORD]
            assert len(records) == 1
            _, arrived, finished, unfinished, kept, blocks, lookup_path, packets, slots, source = records[0].args
            timeline = simulate_mod.leftover_arrivals(cfg.leftover, report.horizon_s, cfg.seed)
            assert arrived == len(timeline) and finished + unfinished == arrived
            assert unfinished > 0
            assert kept == len(report.leftover_delays)
            assert blocks == finished // 16 + 1  # the walk stops at the first unfinished packet
            assert lookup_path == path and packets == arrived and slots == cfg.slots_per_period
            assert source == "drawn"  # a draw bound past 16-packet blocks streams


def rate_for_bound(bound, horizon):
    """The background rate whose time draw over horizon has the bound."""
    root = (-10 + math.sqrt(100 + 4 * (bound - 15.5))) / 2  # e + 10 sqrt(e) + 16 = bound + 0.5
    lam = root * root / horizon
    assert simulate_mod.leftover_arrivals(LeftoverTrafficModel(lam, 1.0), horizon, 1).count_bound == bound
    return lam


def background_sources(caplog):
    """Whether each run drew its timeline or read the kept one, from the
    background records."""
    return [r.args[-1] for r in caplog.records if r.msg is simulate_mod._BACKGROUND_RECORD]


class TestKeptDrawEqualsFreshDraw:
    @settings(max_examples=60, deadline=None)
    @given(cfg=loaded_configs(), other=st.sampled_from(list(S)), tables=st.booleans())
    def test_every_field_identical(self, cfg, other, tables):
        """The run that draws and keeps the timeline, another scheme that
        reads it, then the first configuration again, reading it: its
        report is the fresh draw's, byte for byte."""
        simulate_mod._kept_blocks.cache_clear()
        with lookup(tables):
            try:
                fresh = run(cfg)
            except InfeasibleError:
                reject()
            try:  # the same timeline under another scheme, which must not write it
                run(dataclasses.replace(cfg, scheme=other))
            except (ConfigError, InfeasibleError):
                pass
            kept = run(cfg)
        info = simulate_mod._kept_blocks.cache_info()
        assert info.misses == 1 and info.hits >= 1 and info.currsize == 1
        assert_reports_identical(kept, fresh)

    @pytest.mark.parametrize("law", list(SizeDistribution))
    @pytest.mark.parametrize("bound", [0, simulate_mod._BLOCK - 1, simulate_mod._BLOCK])
    def test_bounds_up_to_one_block_are_kept(self, bound, law, caplog):
        # bound 0 stands for a horizon with no arrival: 1.5e-5 expected in 15 s
        lam = rate_for_bound(bound, 15.0) if bound else 1e-6
        cfg = sim(S.DYNAMIC, leftover=LeftoverTrafficModel(lam, 0.4e6 / max(lam, 1.0), law))
        simulate_mod._kept_blocks.cache_clear()
        with caplog.at_level(logging.DEBUG, "hapticsched.simulate"):
            fresh = run(cfg)
            run(dataclasses.replace(cfg, scheme=S.SEMI_PERSISTENT))
            kept = run(cfg)
        assert background_sources(caplog) == ["drawn and kept", "kept", "kept"]
        assert_reports_identical(kept, fresh)
        blocks = simulate_mod._kept_blocks(simulate_mod.leftover_arrivals(cfg.leftover, fresh.horizon_s, cfg.seed))
        if not bound:
            assert blocks == () and len(fresh.leftover_delays) == 0
        else:
            assert len(blocks) == 1 and len(fresh.leftover_delays) > 25_000
            for array in blocks[0][:4]:
                with pytest.raises(ValueError):  # shared by every run of the timeline
                    array[0] = 0

    @pytest.mark.parametrize("law", list(SizeDistribution))
    def test_a_bound_past_one_block_streams_and_keeps_nothing(self, law, caplog):
        lam = rate_for_bound(simulate_mod._BLOCK + 1, 15.0)
        cfg = sim(S.DYNAMIC, leftover=LeftoverTrafficModel(lam, 0.4e6 / lam, law))
        simulate_mod._kept_blocks.cache_clear()
        with caplog.at_level(logging.DEBUG, "hapticsched.simulate"):
            first, second = run(cfg), run(cfg)
        assert background_sources(caplog) == ["drawn", "drawn"]
        info = simulate_mod._kept_blocks.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (0, 0, 0, 1)
        assert_reports_identical(second, first)

    def test_the_memo_holds_the_last_kept_draw_only(self, caplog):
        simulate_mod._kept_blocks.cache_clear()
        with caplog.at_level(logging.DEBUG, "hapticsched.simulate"):
            for seed in (1, 2, 1):
                run(sim(S.FAST_UPLINK, seed=seed))
        assert background_sources(caplog) == ["drawn and kept"] * 3
        assert simulate_mod._kept_blocks.cache_info().currsize == 1


def walk_entry(cfg):
    return simulate_mod.steady_cycle(cfg.scheme, cfg.radio, cfg.haptic)


def offgrid(scheme, seed=1, horizon=30.0):
    """The haptic period of bench/configs/compare_offgrid.ini: 2001 slots,
    off the grant grid, so the chunks span several periods."""
    return SimConfig(radio(), HapticTrafficModel(1.0005, 0.2, 2e-3, 50e-3), LEFTOVER, scheme, horizon, seed)


class TestHapticLayerMemo:
    @pytest.mark.parametrize("make", [sim, offgrid], ids=["on-grid", "off-grid"])
    @pytest.mark.parametrize("scheme", list(S))
    def test_cold_and_warm_runs_identical(self, make, scheme):
        simulate_mod.steady_cycle.cache_clear()
        warm = [run(make(scheme, seed=seed)) for seed in (1, 2, 3)]
        info = simulate_mod.steady_cycle.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        for seed, got in zip((1, 2, 3), warm):
            simulate_mod.steady_cycle.cache_clear()
            assert_reports_identical(got, run(make(scheme, seed=seed)))
        # an equal configuration built afresh finds the same entry
        again = make(scheme, seed=1)
        again = dataclasses.replace(again, radio=dataclasses.replace(again.radio),
                                    haptic=dataclasses.replace(again.haptic))
        assert_reports_identical(run(again), warm[0])
        assert simulate_mod.steady_cycle.cache_info().hits == 1

    @settings(max_examples=40, deadline=None)
    @given(cfg=loaded_configs(), tables=st.booleans())
    def test_cold_and_warm_runs_identical_on_random_configurations(self, cfg, tables):
        simulate_mod.steady_cycle.cache_clear()
        with lookup(tables):
            try:
                cold = run(cfg)
            except InfeasibleError:
                reject()
            warm = run(cfg)
        assert simulate_mod.steady_cycle.cache_info().hits == 1
        assert_reports_identical(warm, cold)

    def test_shared_arrays_are_read_only(self):
        cfg = offgrid(S.DYNAMIC)
        a, b = run(cfg), run(dataclasses.replace(cfg, seed=2))
        profile, other = simulate_mod._haptic_layer(cfg)[0], simulate_mod._haptic_layer(cfg)[0]
        entry = walk_entry(cfg)
        shared = [entry.chunk_counts, entry.arrivals,
                  profile.seg_t, profile.seg_S, profile.seg_rate, profile.ris_t, profile.ris_S, profile.ris_rate]
        for array in shared:
            with pytest.raises(ValueError):
                array[0] = 0
        # each run's profile is its own copy of the entry's, sharing its arrays
        assert profile is not other and profile is not entry.profile
        assert profile.seg_S is other.seg_S is entry.profile.seg_S
        # the per-period counts and the access delays depend on the horizon:
        # each run lays out its own
        for field in ("haptic_period_counts", "haptic_delays", "haptic_delay_counts"):
            assert getattr(a, field) is not getattr(b, field)
            assert getattr(a, field).flags.writeable

    def test_a_multi_chunk_walk_lays_out_the_reserved_slots_once(self):
        cfg = offgrid(S.SOFT_RESERVATION)
        simulate_mod.steady_cycle.cache_clear()
        with mock.patch.object(simulate_mod, "reserved_slots", wraps=reserved_slots) as laid:
            run(cfg)
        entry = walk_entry(cfg)
        # the entry's full chunks, and the partial final one the run walks
        walked_chunks = len(entry.walked) + bool(cfg.n_periods * cfg.slots_per_period % entry.span)
        assert walked_chunks > 2
        assert laid.call_count == 1

    def test_every_run_writes_its_path_record(self, caplog):
        cfg = offgrid(S.SOFT_RESERVATION)
        simulate_mod.steady_cycle.cache_clear()
        with caplog.at_level(logging.DEBUG, "hapticsched.simulate"):
            run(cfg)
            run(cfg)
        records = [r.args for r in caplog.records if r.msg is simulate_mod._PATH_RECORD]
        assert len(records) == 2 and records[0] == records[1]

    def test_search_after_tables_still_searches(self):
        # 2 Mb/s offered against less than 1 Mb/s: about 8,000 packets against
        # one 2,000-slot period, so each run has packets to look up
        cfg = sim(S.DYNAMIC, horizon=20.0, leftover=LeftoverTrafficModel(400.0, 5e3))
        simulate_mod.steady_cycle.cache_clear()
        simulate_mod._haptic_layer(cfg)  # the miss, outside the spy
        original = simulate_mod._CapacityProfile.supply_at
        totals, searched = [], []

        def spy(profile, t_ns):
            # a run reads its horizon's total once, a scalar, before any
            # tables; the queue walk looks up arrays of arrival times
            (totals if np.ndim(t_ns) == 0 else searched).append(profile.slot_S is None)
            return original(profile, t_ns)

        with mock.patch.object(simulate_mod._CapacityProfile, "supply_at", spy):
            with lookup(True):
                tables = run(cfg)
            assert totals == [True]
            assert searched and not any(searched)
            totals.clear()
            searched.clear()
            with lookup(False):
                search = run(cfg)
            assert totals == [True]
            assert searched and all(searched)
        assert simulate_mod._haptic_layer(cfg)[0].slot_S is None
        assert_reports_identical(search, tables)

    def test_an_entry_does_not_grow_with_the_horizon(self):
        loaded = load_config()
        steady_cycle, entries = simulate_mod.steady_cycle, []

        def spy(*args):
            entries.append(steady_cycle(*args))
            return entries[-1]

        def arrays(entry):
            return [entry.chunk_counts, entry.arrivals, *[e.delays_s for e in entry.walked],
                    *[v for _, v in sorted(vars(entry.profile).items()) if isinstance(v, np.ndarray)]]

        steady_cycle.cache_clear()
        with mock.patch.object(simulate_mod, "steady_cycle", spy):
            for horizon in (2_000.0, 250_000.0):
                simulate_mod._haptic_layer(SimConfig(loaded.radio, loaded.haptic, loaded.leftover, S.DYNAMIC,
                                                     horizon, 1))
        info = steady_cycle.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        short, long = map(arrays, entries)
        assert len(short) == len(long) and all(x is y for x, y in zip(short, long))

    @settings(max_examples=40, deadline=None)
    @given(cfg=loaded_configs(), other=st.sampled_from(["shorter", "longer", "shorter than the cycle"]),
           tables=st.booleans())
    def test_a_run_after_another_horizon_equals_a_cold_run(self, cfg, other, tables):
        with lookup(tables):
            simulate_mod.steady_cycle.cache_clear()
            try:
                cold = run(cfg)
            except InfeasibleError:
                reject()
            # the periods of the prefix and one cycle: a horizon ending before
            # them lays out a partial chunk inside the cycle (at least 10
            # periods, as SimConfig asks)
            cycle_end = walk_entry(cfg).profile.slots // cfg.slots_per_period
            periods = {"shorter": max(10, cfg.n_periods - 3), "longer": 3 * cfg.n_periods + 1,
                       "shorter than the cycle": max(10, cycle_end - 1)}[other]
            simulate_mod.steady_cycle.cache_clear()
            try:
                run(dataclasses.replace(cfg, horizon=(periods + 0.5) * cfg.haptic.t_p))
            except InfeasibleError:
                pass  # the walk is memoised before the background queue is drained
            warm = run(cfg)
        info = simulate_mod.steady_cycle.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert_reports_identical(warm, cold)

    def test_validation_drains_no_background_queue(self):
        # a background load that blows up: run raises, the validation, which
        # reads only the latency-critical layer, draws no arrival at all
        idle = RadioConfig(10, 1e6, 0.5e-3, 0.5e-3, 5e-3, 0.0)
        cfg = SimConfig(idle, haptic(), LeftoverTrafficModel(4.0, 1e6), S.SEMI_PERSISTENT, 20.0, 1)
        times = np.concatenate([np.arange(200) / 1000, 10.0 + np.arange(1, 2501) / 256])
        with inject(times, cfg.leftover.sigma):
            with pytest.raises(InfeasibleError):
                run(cfg)
        with mock.patch.object(simulate_mod, "leftover_arrivals", side_effect=AssertionError("drawn")):
            assert validate_against_walk(cfg)


class TestQuantile:
    def test_nearest_rank_examples(self):
        assert empirical_quantile([1, 2, 3, 4], 0.5) == 2
        assert empirical_quantile([5], 0.3) == 5

    def test_uniform_quantile(self):
        rng = np.random.default_rng(123)
        samples = rng.uniform(0, 1, 100000)
        assert abs(empirical_quantile(samples, 0.99) - 0.99) < 0.01

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)

    def test_probability_validated(self):
        with pytest.raises(ConfigError):
            empirical_quantile([1.0], 1.5)

    @pytest.mark.parametrize("tail_from", [1, simulate_mod._TAIL_FROM])
    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.sampled_from([0.5, 1.0, 1.0 + 2**-52, 2.0, 7.25, 1e9]), min_size=1, max_size=60),
           p=st.floats(1e-6, 1 - 1e-6))
    @example(data=[7.25], p=1e-6)
    @example(data=[7.25], p=1 - 1e-6)
    @example(data=[1.0, 0.5, 2.0, 2.0], p=1e-6)
    @example(data=[1.0, 0.5, 2.0, 2.0], p=1 - 1e-6)
    def test_equals_sort_then_index_with_ties(self, tail_from, data, p):
        # a list, read through a sampled threshold from one sample on, or from _TAIL_FROM
        rank = min(max(math.ceil(p * len(data)), 1), len(data))
        with mock.patch.object(simulate_mod, "_TAIL_FROM", tail_from):
            assert empirical_quantile(data, p) == float(np.sort(data)[rank - 1])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3 * simulate_mod._TAIL_FROM), levels=st.sampled_from([1, 2, 5, None]),
           layout=st.sampled_from(["drawn", "sorted", "reversed", "strided"]), seed=st.integers(0, 2**32 - 1),
           p=st.floats(1e-6, 1 - 1e-6) | st.sampled_from([1e-6, 0.5, 0.9, 0.99, 1 - 1e-6]))
    # the strided sample sees only the large values: the threshold leaves too
    # few samples above it, and the whole sample is copied
    @example(n=2 * simulate_mod._TAIL_FROM, levels=None, layout="strided", seed=0, p=0.5)
    def test_large_samples_equal_sort_then_index(self, n, levels, layout, seed, p):
        rng = np.random.default_rng(seed)
        data = rng.exponential(1.0, n) if levels is None else rng.integers(0, levels, n).astype(float)
        if layout == "sorted":
            data.sort()
        elif layout == "reversed":
            data = np.sort(data)[::-1]
        elif layout == "strided":  # the largest values where a strided sample reads
            stride = max(n // simulate_mod._TAIL_SAMPLE, 1)
            data[::stride] = data.max() + 1.0
        rank = min(max(math.ceil(p * n), 1), n)
        want = float(np.sort(data)[rank - 1])
        copy = data.copy()
        assert empirical_quantile(data, p) == want
        assert np.array_equal(data, copy)  # the caller's sample is left as it was

