"""An independent per-slot oracle for the simulator's latency-critical flow.

`naive_outcome` implements the four grant rules straight from the model
notes, one slot at a time, and knows nothing of the simulator's machines,
its hyperperiod chunks or their cycle:

- DS: the SR goes out at the next SR opportunity, the gate is busy until
  three slots after it, data goes out four slots after it, and the access
  delay is (SR slot - arrival slot + 6) TTIs;
- FA: data goes out two slots after the arrival with a 4-TTI delay; the
  gate takes one arrival per slot;
- SPS and SRR standing grants: each grant serves the freshest arrival
  strictly before it and supersedes the rest (delay: grant - arrival + 4
  TTIs);
- SRR: grants are reserved inside the burst; outside it burst data is held
  through the flush grant and the sparse stretch follows the DS rule.

`naive_background` serves the background FIFO queue through the slots that
`naive_outcome` marks occupied, one packet and one slot at a time, and knows
nothing of the simulator's capacity profile, its cycle fold, its running
maximum or its lookup tables.
"""

import dataclasses
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from hapticsched import (
    ConfigError,
    HapticTrafficModel,
    InfeasibleError,
    LeftoverTrafficModel,
    RadioConfig,
    SchedulingScheme,
    SizeDistribution,
    haptic_blocks,
    leftover_arrivals,
    run,
)
from hapticsched import simulate as simulate_mod
from hapticsched.simulate import SimConfig

S = SchedulingScheme
QUIET = LeftoverTrafficModel(1e-3, 100.0)  # background traffic does not touch the haptic flow


def naive_outcome(cfg: SimConfig):
    """(per-period [sent, dropped] counts, post-warm-up delays, remainder bits,
    per-slot occupancy over the horizon)."""
    radio, haptic, scheme = cfg.radio, cfg.haptic, cfg.scheme
    tti = radio.tti_ns
    k_p, k_b = haptic.t_p_ns // tti, haptic.t_b_ns // tti
    k_sr, k_pg = radio.t_sr_ns // tti, radio.t_pg_ns // tti
    n_periods = round(cfg.horizon * 1e9) // haptic.t_p_ns
    n_slots = n_periods * k_p

    arriving = defaultdict(list)  # slot -> arrivals in that slot, in time order
    for p in range(n_periods):
        t = 0
        while t < haptic.t_b_ns:
            arriving[(p * haptic.t_p_ns + t) // tti].append(True)
            t += haptic.t_ib_ns
        t = haptic.t_b_ns
        while t < haptic.t_p_ns:
            arriving[(p * haptic.t_p_ns + t) // tti].append(False)
            t += haptic.t_nb_ns

    occupied = np.zeros(n_slots, dtype=bool)
    counts = np.zeros((n_periods, 2), dtype=np.int64)
    delays = []

    def send(slot, arrival, ttis):
        if slot < n_slots:
            occupied[slot] = True
        counts[arrival // k_p, 0] += 1
        if arrival >= k_p:
            delays.append(ttis * tti / 1e9)

    gate_open = 0  # first slot at which the SR/fast-uplink gate accepts again
    pending = []   # arrivals waiting for a standing grant
    for t in range(n_slots + k_pg + 1):
        standing = scheme is S.SEMI_PERSISTENT or (scheme is S.SOFT_RESERVATION and t % k_p < k_b)
        if t % k_pg == 0 and (standing or pending):
            if standing and t < n_slots:
                occupied[t] = True
            if pending and (scheme is S.SOFT_RESERVATION or t <= n_slots):
                for superseded in pending[:-1]:
                    counts[superseded // k_p, 1] += 1
                send(t, pending[-1], t - pending[-1] + 4)
                pending = []
        for in_burst in arriving.get(t, []):
            if scheme is S.SEMI_PERSISTENT or (scheme is S.SOFT_RESERVATION and in_burst):
                pending.append(t)
            elif t < gate_open:
                counts[t // k_p, 1] += 1
            elif scheme is S.FAST_UPLINK:
                gate_open = t + 1
                send(t + 2, t, 4)
            else:
                sr = t
                while sr % k_sr:
                    sr += 1
                gate_open = sr + 3
                send(sr + 4, t, sr - t + 6)

    per_period = occupied.reshape(n_periods, k_p).sum(axis=1)
    slot_bits = haptic_blocks(radio) * radio.channel_rate * radio.tti
    remainder = radio.total_rate * haptic.t_p - slot_bits * float(per_period[1:].mean())
    return counts, np.sort(delays), remainder, occupied


def naive_background(cfg: SimConfig, occupied: np.ndarray):
    """(sorted completion delays of the background packets that arrive after
    warm-up and finish within the horizon, packets left unfinished).

    Packets are served first come, first served: each starts when it
    arrives or when the one before it finishes, whichever is later, and
    drains slot by slot at total_rate in a free slot and at the rate of the
    channels the latency-critical flow leaves in an occupied one."""
    radio, tti = cfg.radio, cfg.radio.tti_ns
    n_slots = len(occupied)
    timeline = leftover_arrivals(cfg.leftover, n_slots * tti / 1e9, cfg.seed)
    times = np.concatenate([np.empty(0), *timeline.time_blocks(timeline.count_bound)])
    sizes = timeline.size_draw()(len(times))
    reduced = (radio.n_channels - haptic_blocks(radio)) * radio.channel_rate
    warmup = cfg.haptic.t_p_ns / 1e9
    delays, t = [], 0.0  # t: the instant, ns, at which the queue is next free
    for i, (arrival, size) in enumerate(zip(times.tolist(), sizes.tolist())):
        t, left = max(t, arrival * 1e9), size
        while left > 0:
            slot = int(t // tti)
            if slot >= n_slots:  # this packet and every later one are unfinished
                return np.sort(delays), len(times) - i
            rate = reduced if occupied[slot] else radio.total_rate
            end = (slot + 1) * tti
            if rate * (end - t) / 1e9 >= left:
                t += left / rate * 1e9
                left = 0.0
            else:
                left -= rate * (end - t) / 1e9
                t = end
        if arrival >= warmup:
            delays.append(t / 1e9 - arrival)
    return np.sort(delays), 0


def rounding_tolerance(radio: RadioConfig) -> float:
    """The largest distance, s, between a completion delay of the simulator
    and the oracle's.

    The simulator reads the capacity at each arrival instant rounded to
    whole nanoseconds; the oracle starts each packet at the drawn instant.
    So an arrival moves by at most 0.5 ns, plus the float rounding of the
    product t * 1e9 that is rounded, under 2e-5 ns for horizons under
    100 s.
    Capacity accrues at total_rate at most, so the capacity read at an
    arrival moves by at most 0.5 ns * total_rate bits, and so does every
    completion target, a maximum over earlier arrivals of such reads plus
    sums of sizes.  Inverted on a segment rising at the slowest positive
    rate, a completion moves by at most 0.5 ns * total_rate / that rate:
    the reduced rate, or total_rate when the latency-critical flow takes
    every channel and its slots serve nothing.  The delays subtract the
    same drawn instant on both sides.  Float rounding in the sums and
    products of either side adds under 1e-12 s at these rates and
    horizons.  (A target within that many bits of the start of a zero-rate
    plateau could jump the plateau; no draw or example here lands there.)"""
    reduced = (radio.n_channels - haptic_blocks(radio)) * radio.channel_rate
    slowest = reduced if reduced > 0 else radio.total_rate
    return (0.5 + 2e-5) * 1e-9 * radio.total_rate / slowest + 1e-12


def make_config(scheme, tti_ns, k_p, k_b, ib_q, nb_q, k_sr, k_pg, n_periods, extra_slots):
    """Times in whole slots, or in quarter slots for the arrival spacings."""
    s = lambda ns: ns / 1e9  # noqa: E731
    radio = RadioConfig(4, 1e5, s(tti_ns), s(k_sr * tti_ns), s(k_pg * tti_ns), s(tti_ns // 4))
    haptic = HapticTrafficModel(s(k_p * tti_ns), s(k_b * tti_ns), s(ib_q * tti_ns // 4), s(nb_q * tti_ns // 4))
    return SimConfig(radio, haptic, QUIET, scheme, s((n_periods * k_p + extra_slots) * tti_ns), 1)


@st.composite
def configs(draw, periods=(10, 14)):
    k_p = draw(st.integers(3, 40))
    k_b = draw(st.integers(1, k_p - 1))
    try:
        return make_config(
            draw(st.sampled_from(list(S))),
            draw(st.sampled_from([500_000, 1_000_000])),
            k_p,
            k_b,
            draw(st.integers(1, 4 * k_b)),
            draw(st.integers(1, 4 * (k_p - k_b))),
            draw(st.integers(1, 8)),
            draw(st.integers(1, 16)),
            draw(st.integers(*periods)),
            draw(st.integers(0, k_p - 1)),
        )
    except ConfigError:
        reject()


class TestAgainstNaiveOracle:
    @settings(max_examples=60, deadline=None)
    @given(cfg=configs())
    # t_p = 2001 slots is off the 10-slot grant grid: SPS/SRR hyperperiod is 10 periods,
    # so a 12-period horizon ends mid-hyperperiod
    @example(cfg=make_config(S.SEMI_PERSISTENT, 500_000, 2001, 400, 16, 400, 1, 10, 12, 0))
    @example(cfg=make_config(S.SOFT_RESERVATION, 500_000, 2001, 400, 16, 400, 1, 10, 12, 7))
    # DS with an SR period of 4 slots against a 30-slot period: hyperperiod of 2 periods, 11 periods
    @example(cfg=make_config(S.DYNAMIC, 1_000_000, 30, 10, 8, 12, 4, 1, 11, 5))
    # SRR hyperperiod lcm(7, 3, 16) = 48 periods: the horizon is shorter than one hyperperiod
    @example(cfg=make_config(S.SOFT_RESERVATION, 1_000_000, 7, 3, 3, 5, 3, 16, 10, 0))
    # FA with two arrivals in one slot
    @example(cfg=make_config(S.FAST_UPLINK, 1_000_000, 9, 4, 2, 3, 1, 1, 10, 0))
    # SRR's DS-gated sparse sends land in slots 1, 5 and 9, and slot 9 is the
    # next period's reserved slot 0: both sides charge 3 slots, 412.5 bits
    # left, where remainder_of_service charges period_counts' 4 slots (400 bits)
    @example(cfg=make_config(S.SOFT_RESERVATION, 500_000, 9, 1, 1, 8, 1, 1, 10, 0))
    def test_simulator_matches_per_slot_oracle(self, cfg):
        report = run(cfg)
        counts, delays, remainder, _ = naive_outcome(cfg)
        assert np.array_equal(report.haptic_period_counts, counts)
        assert np.array_equal(np.sort(np.repeat(report.haptic_delays, report.haptic_delay_counts)), delays)
        assert report.remainder_bits_per_period == remainder


def with_background(cfg: SimConfig, law: SizeDistribution, load: float, packets: int, seed: int = 1) -> SimConfig:
    """cfg with a Poisson background of about `packets` arrivals over its
    horizon, whose mean rate is `load` times total_rate."""
    lam = packets / cfg.horizon
    try:
        return dataclasses.replace(cfg, leftover=LeftoverTrafficModel(lam, load * cfg.radio.total_rate / lam, law),
                                   seed=seed)
    except ConfigError:
        reject()


@st.composite
def background_configs(draw):
    """configs() over 10-200 periods, with 20-1000 expected background
    packets in either size law, offering 10-80% of total_rate."""
    return with_background(draw(configs(periods=(10, 200))), draw(st.sampled_from(list(SizeDistribution))),
                           draw(st.floats(0.1, 0.8)), draw(st.integers(20, 1000)), draw(st.integers(0, 2**31)))


def assert_background_matches_naive_queue(cfg: SimConfig, block: int):
    """run's kept background delays, its queue walked in blocks of `block`
    packets, against naive_background; returns the oracle's unfinished
    count.  A draw that run finds unstable is rejected."""
    try:
        with mock.patch.object(simulate_mod, "_BLOCK", block):
            got = np.sort(run(cfg).leftover_delays)
    except InfeasibleError:
        reject()
    want, unfinished = naive_background(cfg, naive_outcome(cfg)[3])
    assert len(got) == len(want)
    if len(want):
        assert np.max(np.abs(got - want)) <= rounding_tolerance(cfg.radio)
    return unfinished


class TestBackgroundAgainstNaiveQueue:
    @settings(max_examples=150, deadline=None)
    @given(cfg=background_configs(), block=st.sampled_from([7, 64, simulate_mod._BLOCK]))
    def test_simulator_matches_per_packet_queue(self, cfg, block):
        """Blocks of 7 or 64 packets make the queue walk carry its running
        maximum from block to block, as a horizon of more than _BLOCK
        packets does."""
        assert_background_matches_naive_queue(cfg, block)

    def test_a_horizon_that_ends_with_packets_unfinished(self):
        cfg = with_background(make_config(S.SEMI_PERSISTENT, 500_000, 20, 5, 4, 8, 2, 4, 40, 0),
                              SizeDistribution.DETERMINISTIC, 0.8, 30)
        assert assert_background_matches_naive_queue(cfg, 7) > 0

    def test_exponential_sizes(self):
        cfg = with_background(make_config(S.DYNAMIC, 1_000_000, 30, 10, 8, 12, 4, 1, 100, 5),
                              SizeDistribution.EXPONENTIAL_MEAN, 0.6, 800)
        assert_background_matches_naive_queue(cfg, 64)

    # 2001 slots per period against a 10-slot grant period and a 1-slot SR
    # period: SRR's 10-period chunks repeat from the third chunk and DS's
    # one-period chunks from the third period, so the profile is a prefix
    # and a cycle folded after it
    @pytest.mark.parametrize("scheme, n_periods", [(S.SOFT_RESERVATION, 35), (S.DYNAMIC, 12)])
    def test_a_profile_with_a_prefix(self, scheme, n_periods):
        cfg = with_background(make_config(scheme, 500_000, 2001, 400, 16, 400, 1, 10, n_periods, 7),
                              SizeDistribution.EXPONENTIAL_MEAN, 0.7, 1000)
        profile = simulate_mod._haptic_layer(cfg)[0]
        assert profile.prefix_ns > 0 and profile.prefix_ns + profile.cycle_ns < cfg.horizon * 1e9
        assert_background_matches_naive_queue(cfg, 64)

    @pytest.mark.parametrize("scheme", list(S))
    def test_claimed_slots_that_serve_nothing(self, scheme):
        cfg = with_background(make_config(scheme, 500_000, 20, 5, 4, 8, 2, 4, 30, 3),
                              SizeDistribution.EXPONENTIAL_MEAN, 0.5, 600)
        # a latency-critical packet takes every channel block of its slot
        cfg = dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio, haptic_demand_norm=cfg.radio.tti))
        assert haptic_blocks(cfg.radio) == cfg.radio.n_channels
        assert_background_matches_naive_queue(cfg, 64)
