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
"""

from collections import defaultdict

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from hapticsched import (
    ConfigError,
    HapticTrafficModel,
    LeftoverTrafficModel,
    RadioConfig,
    SchedulingScheme,
    haptic_blocks,
    run,
)
from hapticsched.simulate import SimConfig

S = SchedulingScheme
QUIET = LeftoverTrafficModel(1e-3, 100.0)  # background traffic does not touch the haptic flow


def naive_outcome(cfg: SimConfig):
    """(per-period [sent, dropped] counts, post-warm-up delays, remainder bits)."""
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
    return counts, np.sort(delays), remainder


def make_config(scheme, tti_ns, k_p, k_b, ib_q, nb_q, k_sr, k_pg, n_periods, extra_slots):
    """Times in whole slots, or in quarter slots for the arrival spacings."""
    s = lambda ns: ns / 1e9  # noqa: E731
    radio = RadioConfig(4, 1e5, s(tti_ns), s(k_sr * tti_ns), s(k_pg * tti_ns), s(tti_ns // 4))
    haptic = HapticTrafficModel(s(k_p * tti_ns), s(k_b * tti_ns), s(ib_q * tti_ns // 4), s(nb_q * tti_ns // 4))
    return SimConfig(radio, haptic, QUIET, scheme, s((n_periods * k_p + extra_slots) * tti_ns), 1)


@st.composite
def configs(draw):
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
            draw(st.integers(10, 14)),
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
    def test_simulator_matches_per_slot_oracle(self, cfg):
        report = run(cfg)
        counts, delays, remainder = naive_outcome(cfg)
        assert np.array_equal(report.haptic_period_counts, counts)
        assert np.array_equal(np.sort(np.repeat(report.haptic_delays, report.haptic_delay_counts)), delays)
        assert report.remainder_bits_per_period == remainder
