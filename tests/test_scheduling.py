from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from test_event_oracle import configs, naive_outcome
from test_traffic import enumerate_expected

from hapticsched import (
    ConfigError,
    DropReport,
    HapticTrafficModel,
    RadioConfig,
    SchedulingScheme,
    drop_walk,
    ds_grant_latency,
    fa_grant_latency,
    haptic_access_delay,
    haptic_blocks,
    remainder_of_service,
)
from hapticsched.cli import main
from hapticsched.scheduling import (
    SlotEvents,
    demand_gate,
    period_counts,
    reserved_slots,
    slot_grid_problems,
    slotted_machine,
    standing_grants,
)
from hapticsched.traffic import period_arrival_offsets_ns
from hapticsched.units import ceil_div, to_ns, to_s

S = SchedulingScheme


def radio(tti, t_pg=None, t_sr=None):
    return RadioConfig(10, 1e6, tti, t_sr or tti, t_pg or 10 * tti, 1e-4)


def haptic(t_ib, **kw):
    args = dict(t_p=1.0, t_b=0.2, t_ib=t_ib, t_nb=50e-3)
    args.update(kw)
    return HapticTrafficModel(**args)


def ds_gate(cfg):
    return to_ns(ds_grant_latency(cfg))


def grid(start_ms, stop_ms, step_ms=0.05):
    n = round((stop_ms - start_ms) / step_ms)
    return [round((start_ms + k * step_ms) * 1e6) / 1e9 for k in range(n + 1)]


class TestDropWalkDynamic:
    def test_zero_drops_at_grant_latency_boundary(self):
        # spacing 2 ms equals the grant latency: boundary counts as schedulable
        report = drop_walk(S.DYNAMIC, radio(0.5e-3), haptic(2e-3))
        assert report.dropped == 0
        assert report.arrivals == 116

    def test_drops_below_grant_latency(self):
        report = drop_walk(S.DYNAMIC, radio(0.5e-3), haptic(1.5e-3))
        assert report.dropped > 0

    def test_zero_iff_spacing_at_least_grant_latency(self):
        for tti in (0.125e-3, 0.25e-3, 0.5e-3, 1e-3):
            cfg = radio(tti)
            gate = ds_grant_latency(cfg)
            for t_ib in grid(1.0, 3.0):
                report = drop_walk(S.DYNAMIC, cfg, haptic(t_ib))
                assert (report.dropped == 0) == (t_ib >= gate), (tti, t_ib)

    def test_transmitted_delays_are_the_flat_access_delay(self):
        report = drop_walk(S.DYNAMIC, radio(0.5e-3), haptic(2e-3))
        assert np.all(report.per_packet_delays == 3.5e-3)


class TestDropWalkFast:
    @pytest.mark.parametrize("tti", [0.125e-3, 0.25e-3, 0.5e-3, 1e-3])
    def test_zero_drops_across_full_spacing_range(self, tti):
        for t_ib in grid(1.0, 3.0):
            report = drop_walk(S.FAST_UPLINK, radio(tti), haptic(t_ib))
            assert report.dropped == 0, (tti, t_ib)

    def test_drops_when_spacing_below_one_slot(self):
        cfg = RadioConfig(10, 1e6, 1e-3, 1e-3, 10e-3, 1e-4)
        report = drop_walk(S.FAST_UPLINK, cfg, haptic(0.5e-3))
        assert report.dropped > 0


class TestDropWalkStandingGrant:
    def test_zero_drops_when_spacing_reaches_grant_period(self):
        # grant period 1.25 ms at the smallest slot: 1.3 ms spacing is clean
        report = drop_walk(S.SEMI_PERSISTENT, radio(0.125e-3), haptic(1.3e-3))
        assert report.dropped == 0

    def test_drops_at_half_millisecond_slot(self):
        report = drop_walk(S.SEMI_PERSISTENT, radio(0.5e-3), haptic(2e-3))
        assert report.dropped > 0

    def test_exact_coincidence_with_grants_is_clean(self):
        report = drop_walk(S.SEMI_PERSISTENT, radio(0.125e-3), haptic(1.25e-3))
        assert report.dropped == 0
        # coincident arrivals wait one full grant period
        assert report.per_packet_delays.max() == 1.25e-3 + 4 * 0.125e-3

    def test_delays_bounded_by_grant_period_plus_four_slots(self):
        for t_ib in (1e-3, 2e-3, 3e-3):
            report = drop_walk(S.SEMI_PERSISTENT, radio(0.5e-3), haptic(t_ib))
            assert report.per_packet_delays.max() <= 5e-3 + 4 * 0.5e-3 + 1e-12

    def test_exactly_one_transmission_per_grant(self):
        report = drop_walk(S.SEMI_PERSISTENT, radio(0.5e-3), haptic(1e-3))
        # 200 burst windows of 5 ms each hold 5 arrivals; one survives per window
        assert report.arrivals == report.transmitted + report.dropped
        assert report.transmitted == 40 + 16


class TestDropWalkSoftReservation:
    def test_matches_standing_grant_inside_burst(self):
        for tti, t_ib in ((0.125e-3, 1.3e-3), (0.25e-3, 2.5e-3)):
            report = drop_walk(S.SOFT_RESERVATION, radio(tti), haptic(t_ib))
            assert report.dropped == 0, (tti, t_ib)

    def test_burst_tail_rides_the_held_grant(self):
        # last burst arrival lands between the last in-burst grant and the
        # burst edge; the reserved grant is held and still serves it
        report = drop_walk(S.SOFT_RESERVATION, radio(0.125e-3), haptic(1.3e-3))
        assert report.dropped == 0

    def test_sparse_stretch_uses_dynamic_latency(self):
        report = drop_walk(S.SOFT_RESERVATION, radio(0.5e-3), haptic(2e-3))
        sparse_delays = report.per_packet_delays[report.per_packet_delays == 3.5e-3]
        assert len(sparse_delays) == 16


class TestWalkConsistency:
    @pytest.mark.parametrize("scheme", list(S))
    def test_arrival_count_matches_timeline(self, scheme):
        h = haptic(2e-3)
        report = drop_walk(scheme, radio(0.5e-3), h)
        assert report.arrivals == len(enumerate_expected(h))

    def test_report_identity(self):
        report = drop_walk(S.SEMI_PERSISTENT, radio(0.5e-3), haptic(2e-3))
        assert report.arrivals == report.transmitted + report.dropped
        assert report.drop_rate == report.dropped / report.arrivals


class TestEffectiveBurstCount:
    """The burst share of the per-period charge: the excess-burst allowance
    of the DS and FA envelopes."""

    def test_boundary_spacing_counts_as_schedulable(self):
        assert ds_gate(radio(0.5e-3)) == 2_000_000
        assert period_counts(S.DYNAMIC, radio(0.5e-3), haptic(2e-3)).excess == 100

    def test_every_second_packet_served(self):
        # 134 burst arrivals 1.5 ms apart behind a 2 ms gate
        assert period_counts(S.DYNAMIC, radio(0.5e-3), haptic(1.5e-3)).excess == 67

    def test_every_third_packet_served(self):
        # 223 burst arrivals 0.9 ms apart behind a 2 ms gate
        assert period_counts(S.DYNAMIC, radio(0.5e-3), haptic(0.9e-3)).excess == 75

    def test_equals_walk_burst_share(self):
        # against the plain-loop walk below, over the burst arrivals alone
        cfg = radio(0.5e-3)
        for scheme, gate in ((S.DYNAMIC, ds_gate(cfg)), (S.FAST_UPLINK, to_ns(fa_grant_latency(cfg)))):
            for t_ib in grid(1.0, 3.0):
                h = haptic(t_ib)
                offs = period_arrival_offsets_ns(h)
                sent, _ = ref_walk_demand(offs[offs < h.t_b_ns], gate, 0.0)
                assert period_counts(scheme, cfg, h).excess == len(sent), (scheme, t_ib)


class TestRemainder:
    def test_standing_grant_versus_soft_reservation(self):
        # 200 reserved slots against 40 burst grants, the flush grant at the
        # burst end (the 198 ms arrival's) and 16 sparse sends
        sps = remainder_of_service(S.SEMI_PERSISTENT, radio(0.5e-3), haptic(2e-3))
        srr = remainder_of_service(S.SOFT_RESERVATION, radio(0.5e-3), haptic(2e-3))
        assert sps == pytest.approx(980000.0, rel=1e-12)
        assert srr == pytest.approx(994300.0, rel=1e-12)
        assert srr > sps

    def test_reserved_schemes_ignore_burst_spacing(self):
        # SRR's flush grant is charged at all three spacings: the last burst
        # arrival waits for the grant at the burst end
        for scheme in (S.SEMI_PERSISTENT, S.SOFT_RESERVATION):
            values = {remainder_of_service(scheme, radio(0.5e-3), haptic(t)) for t in (1e-3, 2e-3, 3e-3)}
            assert len(values) == 1

    def test_demand_driven_grows_with_spacing(self):
        r2 = remainder_of_service(S.DYNAMIC, radio(0.5e-3), haptic(2e-3))
        r3 = remainder_of_service(S.DYNAMIC, radio(0.5e-3), haptic(3e-3))
        assert r3 > r2

    @pytest.mark.parametrize("t_pg", [1.25e-3, 2.5e-3, 5e-3, 10e-3])
    def test_soft_reservation_never_below_standing_grant(self, t_pg):
        # holds whenever the sparse spacing covers the grant period
        cfg = radio(0.5e-3, t_pg=t_pg)
        h = haptic(2e-3)
        assert h.t_nb >= t_pg
        assert remainder_of_service(S.SOFT_RESERVATION, cfg, h) >= remainder_of_service(S.SEMI_PERSISTENT, cfg, h)

    def test_demand_schemes_equal_when_both_lossless(self):
        for t_ib in (2e-3, 2.5e-3, 3e-3):
            ds = remainder_of_service(S.DYNAMIC, radio(0.5e-3), haptic(t_ib))
            fa = remainder_of_service(S.FAST_UPLINK, radio(0.5e-3), haptic(t_ib))
            assert ds == fa


# Reference walks: one arrival at a time, written as plain loops.  drop_walk
# computes the same rules with vectorised kernels and closed forms and must
# agree with these bit for bit.

def ref_walk_demand(offsets_ns, gate_ns, flat_delay_s):
    """Grant-on-demand walk (DS and FA): a packet is accepted only when the
    previous acceptance happened at least gate_ns earlier; the boundary
    counts as free."""
    busy = None
    delays, dropped = [], 0
    for a in offsets_ns:
        if busy is None or a >= busy:
            delays.append(flat_delay_s)
            busy = a + gate_ns
        else:
            dropped += 1
    return delays, dropped


def ref_walk_demand_slotted(offsets_ns, radio, fast):
    """Slot-quantized variant: arrivals round down to slots, SR waits round
    up to the next opportunity, and the busy window closes once the grant
    has been received (three slots after the SR slot)."""
    tti = radio.tti_ns
    if not fast and radio.t_sr_ns % tti:
        raise ConfigError("radio.t_sr: must be a whole number of TTIs for slotted scheduling")
    k_sr = radio.t_sr_ns // tti
    busy = None
    delays, dropped = [], 0
    for a in offsets_ns:
        sa = a // tti
        if busy is None or sa >= busy:
            if fast:
                busy = sa + 1
                delays.append(to_s(4 * tti))
            else:
                sr = ceil_div(sa, k_sr) * k_sr
                busy = sr + 3
                delays.append(to_s((sr - sa + 6) * tti))
        else:
            dropped += 1
    return delays, dropped


def ref_walk_granted(offsets_ns, t_pg_ns, extra_delay_ns, last_grant_ns=None):
    """Standing-grant walk: grants fire every t_pg_ns from zero; each grant
    transmits the freshest arrival strictly before it and drops the rest of
    the backlog.  An arrival coincident with a grant waits for the next one.
    Grants continue (or run to last_grant_ns inclusive) until every arrival
    is resolved."""
    delays, dropped = [], 0
    i, n = 0, len(offsets_ns)
    pend_last, pend_cnt = 0, 0
    k = 0
    while True:
        g = k * t_pg_ns
        while i < n and offsets_ns[i] < g:
            pend_last = offsets_ns[i]
            pend_cnt += 1
            i += 1
        if pend_cnt:
            delays.append(to_s((g - pend_last) + extra_delay_ns))
            dropped += pend_cnt - 1
            pend_cnt = 0
        if i >= n:
            break
        if last_grant_ns is not None and g >= last_grant_ns:
            break
        k += 1
    return delays, dropped


def ref_walk_granted_slotted(offsets_ns, radio, last_grant_slot=None):
    tti = radio.tti_ns
    if radio.t_pg_ns % tti:
        raise ConfigError("radio.t_pg: must be a whole number of TTIs for slotted scheduling")
    k_pg = radio.t_pg_ns // tti
    slots = offsets_ns // tti
    delays, dropped = [], 0
    i, n = 0, len(slots)
    pend_last, pend_cnt = 0, 0
    k = 0
    while True:
        g = k * k_pg
        while i < n and slots[i] < g:
            pend_last = slots[i]
            pend_cnt += 1
            i += 1
        if pend_cnt:
            delays.append(to_s((g - pend_last + 4) * tti))
            dropped += pend_cnt - 1
            pend_cnt = 0
        if i >= n:
            break
        if last_grant_slot is not None and g >= last_grant_slot:
            break
        k += 1
    return delays, dropped


def reference_walk(scheme, radio, haptic, slotted=False):
    """drop_walk composed from the reference loops."""
    offs = period_arrival_offsets_ns(haptic)
    tti = radio.tti_ns
    t_b = haptic.t_b_ns
    burst, sparse = offs[offs < t_b], offs[offs >= t_b]
    if scheme in (S.DYNAMIC, S.FAST_UPLINK):
        fast = scheme is S.FAST_UPLINK
        if slotted:
            delays, dropped = ref_walk_demand_slotted(offs, radio, fast)
        else:
            gate = to_ns(fa_grant_latency(radio) if fast else ds_grant_latency(radio))
            flat = haptic_access_delay(scheme, radio)
            b_delays, b_dropped = ref_walk_demand(burst, gate, flat)
            s_delays, s_dropped = ref_walk_demand(sparse, gate, flat)
            delays, dropped = b_delays + s_delays, b_dropped + s_dropped
    elif scheme is S.SEMI_PERSISTENT:
        if slotted:
            delays, dropped = ref_walk_granted_slotted(offs, radio)
        else:
            delays, dropped = ref_walk_granted(offs, radio.t_pg_ns, 4 * tti)
    else:
        if slotted:
            if t_b % tti:
                raise ConfigError("haptic.t_b: must be a whole number of TTIs for slotted scheduling")
            k_pg = radio.t_pg_ns // tti
            flush_slot = ceil_div(t_b // tti, k_pg) * k_pg
            b_delays, b_dropped = ref_walk_granted_slotted(burst, radio, last_grant_slot=flush_slot)
            s_delays, s_dropped = ref_walk_demand_slotted(sparse, radio, fast=False)
        else:
            flush = ceil_div(t_b, radio.t_pg_ns) * radio.t_pg_ns
            b_delays, b_dropped = ref_walk_granted(burst, radio.t_pg_ns, 4 * tti, last_grant_ns=flush)
            gate = to_ns(ds_grant_latency(radio))
            s_delays, s_dropped = ref_walk_demand(sparse, gate, haptic_access_delay(scheme, radio, in_burst=False))
        delays, dropped = b_delays + s_delays, b_dropped + s_dropped
    arrivals = len(offs)
    return DropReport(arrivals, len(delays), dropped, dropped / arrivals, np.asarray(delays, dtype=float))


@st.composite
def walk_inputs(draw, slotted_srr=False):
    """Radio and traffic in whole ns; SR, grant and burst lengths are
    sometimes off the slot grid, which the slotted walk must reject.  With
    slotted_srr they are always on it, as slotted SRR needs; t_p still
    falls on or off it."""
    tti = draw(st.sampled_from([125_000, 250_000, 500_000, 1_000_000, 333_333]))
    k_p = draw(st.integers(3, 300))
    t_p = k_p * tti + draw(st.sampled_from([0, 0, 1, tti // 3]))
    t_b = draw(st.integers(1, t_p - 1))
    if slotted_srr or draw(st.booleans()):
        t_b = min(max(tti, t_b // tti * tti), t_p - 1)
    t_ib = draw(st.integers(max(1, t_b // 200), t_b))
    t_nb = draw(st.integers(max(1, (t_p - t_b) // 200), t_p - t_b))
    on_grid = st.integers(1, 24).map(lambda k: k * tti)
    t_sr = draw(on_grid if slotted_srr else on_grid | st.integers(1, 24 * tti))
    t_pg = draw(on_grid if slotted_srr else on_grid | st.integers(tti, 24 * tti))
    try:
        radio = RadioConfig(10, 1e6, to_s(tti), to_s(t_sr), to_s(t_pg), 1e-5)
        return radio, HapticTrafficModel(to_s(t_p), to_s(t_b), to_s(t_ib), to_s(t_nb))
    except ConfigError:  # float rounding of t_p - t_b against t_nb
        reject()


@pytest.mark.exact
class TestWalkEqualsReferenceLoops:
    @settings(max_examples=300, deadline=None)
    @given(inputs=walk_inputs(), scheme=st.sampled_from(list(S)), slotted=st.booleans())
    # arrivals coincide with grants, and the spacing equals the DS gate
    @example(inputs=(radio(0.125e-3), haptic(1.25e-3)), scheme=S.SEMI_PERSISTENT, slotted=False)
    @example(inputs=(radio(0.5e-3), haptic(2e-3)), scheme=S.DYNAMIC, slotted=False)
    @example(inputs=(radio(0.5e-3), haptic(1.3e-3)), scheme=S.SOFT_RESERVATION, slotted=True)
    def test_counts_and_delays_are_identical(self, inputs, scheme, slotted):
        radio_cfg, h = inputs
        try:
            expected = reference_walk(scheme, radio_cfg, h, slotted)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                drop_walk(scheme, radio_cfg, h, slotted)
            assert str(info.value) == str(exc)
            return
        got = drop_walk(scheme, radio_cfg, h, slotted)
        assert (got.arrivals, got.transmitted, got.dropped) == (expected.arrivals, expected.transmitted, expected.dropped)
        assert got.drop_rate == expected.drop_rate
        assert got.per_packet_delays.dtype == expected.per_packet_delays.dtype
        assert np.array_equal(got.per_packet_delays, expected.per_packet_delays)


    @settings(max_examples=100, deadline=None)
    @given(inputs=walk_inputs(), scheme=st.sampled_from([S.DYNAMIC, S.FAST_UPLINK]))
    def test_demand_remainder_charges_the_walk_transmissions(self, inputs, scheme):
        radio_cfg, h = inputs
        walk = reference_walk(scheme, radio_cfg, h)
        slot_bits = haptic_blocks(radio_cfg) * radio_cfg.channel_rate * radio_cfg.tti
        expected = radio_cfg.total_rate * h.t_p - slot_bits * walk.transmitted
        assert remainder_of_service(scheme, radio_cfg, h) == expected


@pytest.mark.exact
class TestPeriodCountsEqualWalk:
    @settings(max_examples=300, deadline=None)
    @given(inputs=walk_inputs(), scheme=st.sampled_from(list(S)))
    # the burst spacing equal to, twice and 1 ns short of the grant period
    @example(inputs=(radio(0.5e-3), haptic(5e-3)), scheme=S.SEMI_PERSISTENT)
    @example(inputs=(radio(0.5e-3), haptic(10e-3)), scheme=S.SEMI_PERSISTENT)
    @example(inputs=(radio(0.5e-3), haptic(5e-3 - 1e-9)), scheme=S.SEMI_PERSISTENT)
    @example(inputs=(radio(0.5e-3), haptic(5e-3 - 1e-9)), scheme=S.SOFT_RESERVATION)
    # the last burst arrival (199 ms) in t_b's grant window [198, 201) ms
    @example(inputs=(radio(0.5e-3, t_pg=3e-3), haptic(1e-3)), scheme=S.SEMI_PERSISTENT)
    # the sparse spacing equal to the grant period
    @example(inputs=(radio(0.5e-3), haptic(2e-3, t_nb=5e-3)), scheme=S.SEMI_PERSISTENT)
    @example(inputs=(radio(0.5e-3), haptic(2e-3, t_nb=5e-3)), scheme=S.SOFT_RESERVATION)
    # a 1e5 s period: about 2e6 sparse arrivals, and 1e5 grants for SPS
    @example(inputs=(radio(0.5e-3), haptic(2e-3, t_p=1e5)), scheme=S.SOFT_RESERVATION)
    @example(inputs=(radio(0.5e-3, t_pg=1.0), haptic(2e-3, t_p=1e5, t_nb=10.0)), scheme=S.SEMI_PERSISTENT)
    @example(inputs=(radio(0.5e-3), haptic(2e-3, t_p=1e5)), scheme=S.DYNAMIC)
    def test_counts_and_drop_rate_are_the_walks(self, inputs, scheme):
        radio_cfg, h = inputs
        arrivals, transmitted = period_counts(scheme, radio_cfg, h)[:2]
        for walk in (reference_walk(scheme, radio_cfg, h), drop_walk(scheme, radio_cfg, h)):
            assert (arrivals, transmitted) == (walk.arrivals, walk.transmitted)
            assert (arrivals - transmitted) / arrivals == walk.drop_rate

    def test_the_shared_window_example_shares(self):
        cfg, h = radio(0.5e-3, t_pg=3e-3), haptic(1e-3)
        offs = period_arrival_offsets_ns(h)
        last_burst = offs[offs < h.t_b_ns][-1]
        assert last_burst // cfg.t_pg_ns == h.t_b_ns // cfg.t_pg_ns
        # 200 burst arrivals in 67 windows, 16 sparse ones in windows of their own, one shared
        assert period_counts(S.SEMI_PERSISTENT, cfg, h)[:2] == (216, 67 + 16 - 1)


class TestSlottedWalkAgainstPerSlotOracle:
    @settings(max_examples=60, deadline=None)
    @given(cfg=configs())
    def test_first_period_counts(self, cfg):
        """The slotted walk is one period from idle, as is the oracle's first
        period, except that a standing-grant group may straddle the period
        end: then the first arrival of the next period supersedes the last
        granted one of this period."""
        walk = drop_walk(cfg.scheme, cfg.radio, cfg.haptic, slotted=True)
        counts, _, _, _ = naive_outcome(cfg)
        straddles = 0
        if cfg.scheme in (S.SEMI_PERSISTENT, S.SOFT_RESERVATION):
            tti = cfg.radio.tti_ns
            k_p, k_pg = cfg.haptic.t_p_ns // tti, cfg.radio.t_pg_ns // tti
            offs = period_arrival_offsets_ns(cfg.haptic)
            if cfg.scheme is S.SOFT_RESERVATION:
                offs = offs[offs < cfg.haptic.t_b_ns]
            straddles = int((offs[-1] // tti // k_pg + 1) * k_pg > k_p)
        assert tuple(counts[0]) == (walk.transmitted - straddles, walk.dropped + straddles)


class TestPeriodCountsCache:
    @settings(max_examples=200, deadline=None)
    @given(inputs=walk_inputs(), scheme=st.sampled_from(list(S)))
    def test_cached_charge_equals_the_computed_one(self, inputs, scheme):
        """The cache lives across examples, so a hit on an equal key whose
        configuration counts differently would show here."""
        radio_cfg, h = inputs
        expected = period_counts.__wrapped__(scheme, radio_cfg, h)
        assert period_counts(scheme, radio_cfg, h) == expected
        assert period_counts(scheme, replace(radio_cfg), replace(h)) == expected

    def test_a_row_shares_one_entry_and_the_bound_rotates_in_eight(self):
        """A sweep row's drop rate, remainder and envelope read one entry, and
        a second bound over the four schemes hits on every one: with one
        entry instead of eight it would miss four more times."""
        period_counts.cache_clear()
        assert main(["sweep", "--param", "t_ib", "--values", "1ms,2ms,3ms"]) == 0
        info = period_counts.cache_info()
        assert (info.misses, info.hits) == (3 * 4, 2 * 3 * 4)
        period_counts.cache_clear()
        assert main(["bound", "--scheme", "DS,SPS,SRR,FA"]) == 0
        info = period_counts.cache_info()
        assert (info.misses, info.hits) == (4, 0)
        assert main(["bound", "--scheme", "DS,SPS,SRR,FA"]) == 0
        info = period_counts.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (4, 4, 8)


def machine_with_both_rules(scheme, radio, haptic, sa, n_slots, busy):
    """slotted_machine with both rules called directly on every arrival
    set, empty or not, and the slots its standing grants reserve: the
    reference for skipping an empty set and for reserved_slots."""
    tti = radio.tti_ns
    k_pg = radio.t_pg_ns // tti
    no_slots = np.array([], dtype=np.int64)
    granted, gated, reserved, last_grant = no_slots, sa, no_slots, None
    if scheme is S.SEMI_PERSISTENT:
        granted, gated, last_grant = sa, no_slots, n_slots
        reserved = np.arange(0, n_slots, k_pg, dtype=np.int64)
    elif scheme is S.SOFT_RESERVATION:
        k_p, k_b = ceil_div(haptic.t_p_ns, tti), haptic.t_b_ns // tti
        in_burst = (sa % k_p) < k_b
        granted, gated = sa[in_burst], sa[~in_burst]
        reserved = np.arange(0, n_slots, k_pg, dtype=np.int64)
        reserved = reserved[reserved % k_p < k_b]
    k_sr = None if scheme is S.FAST_UPLINK else radio.t_sr_ns // tti
    grant, served, superseded = standing_grants(granted, k_pg, last_grant)
    acc, data, delay, busy = demand_gate(gated, k_sr, busy)
    rejected = np.ones(len(gated), dtype=bool)
    rejected[acc] = False
    return SlotEvents(
        np.concatenate([grant[served], data]),
        np.concatenate([granted[served], gated[acc]]),
        np.concatenate([grant[served] - granted[served] + 4, delay]) * tti / 1e9,
        np.concatenate([granted[superseded], gated[rejected]]),
        busy,
    ), reserved


def assert_machine_equals_both_rules(scheme, radio_cfg, h, sa, n_slots, busy):
    """Every field of slotted_machine, and reserved_slots over the same
    slots, equal machine_with_both_rules, dtypes included."""
    got = slotted_machine(scheme, radio_cfg, h, sa, n_slots, busy)
    expected, expected_reserved = machine_with_both_rules(scheme, radio_cfg, h, sa, n_slots, busy)
    pairs = [(getattr(got, name), getattr(expected, name), name)
             for name in ("data_slots", "tx_arrival_slots", "delays_s", "dropped_arrival_slots")]
    pairs.append((reserved_slots(scheme, radio_cfg, h, n_slots), expected_reserved, "reserved_slots"))
    for got_field, expected_field, name in pairs:
        assert got_field.dtype == expected_field.dtype, name
        assert np.array_equal(got_field, expected_field), name
    assert got.busy_end == expected.busy_end
    assert type(got.busy_end) is type(expected.busy_end)


@pytest.mark.exact
class TestSlottedMachineSkipsEmptySets:
    @settings(max_examples=200, deadline=None)
    @given(cfg=configs(), data=st.data())
    def test_fields_equal_both_rules_called(self, cfg, data):
        """Any run of one period's arrivals, none included, from any gate
        state: DS and FA leave the standing-grant set empty, SPS the gated
        one, and SRR either when the run misses the burst or the sparse
        stretch."""
        tti, k_p = cfg.radio.tti_ns, cfg.slots_per_period
        offs = period_arrival_offsets_ns(cfg.haptic) // tti
        lo = data.draw(st.integers(0, len(offs)), label="lo")
        sa = offs[lo:data.draw(st.integers(lo, len(offs)), label="hi")]
        busy = data.draw(st.integers(0, k_p + 8), label="busy")
        assert_machine_equals_both_rules(cfg.scheme, cfg.radio, cfg.haptic, sa, k_p, busy)


@pytest.mark.exact
class TestSlottedBurstSplitEqualsRemainder:
    """SRR's machine, which splits its arrivals and its grants into burst and
    sparse by each slot modulo the period, equals both rules called on the
    sets that split gives, over several periods on and off the grant grid."""

    @settings(max_examples=200, deadline=None)
    @given(inputs=walk_inputs(slotted_srr=True), data=st.data())
    def test_machine_equals_the_remainder_form(self, inputs, data):
        """A run of several periods' arrivals, t_p on or off the grant grid
        and on or off the slot grid, cut at any slot, from any gate state:
        every field equals the machine with the % form and both rules
        called."""
        radio_cfg, h = inputs
        assert not slot_grid_problems(S.SOFT_RESERVATION, radio_cfg, h)
        k_p = ceil_div(h.t_p_ns, radio_cfg.tti_ns)
        periods = data.draw(st.integers(1, 6), label="periods")
        n_slots = data.draw(st.integers(1, periods * k_p + radio_cfg.t_pg_ns // radio_cfg.tti_ns), label="n_slots")
        self.assert_equals_remainder_form(radio_cfg, h, periods, n_slots, data.draw(st.integers(0, k_p + 8), label="busy"))

    @pytest.mark.parametrize("t_p", [1.0, 1.0005], ids=["on-grid", "off-grid"])
    @pytest.mark.parametrize("n_slots", [20_010, 12_345])
    def test_a_chunk_of_the_compare_configurations(self, t_p, n_slots):
        # the documented defaults and bench/configs/compare_offgrid.ini: 2000 or
        # 2001 slots per period against a 10-slot grant period; a full chunk of
        # the off-grid one is 10 periods, 20,010 slots
        self.assert_equals_remainder_form(radio(0.5e-3), haptic(2e-3, t_p=t_p), 10, n_slots, 3)

    @staticmethod
    def assert_equals_remainder_form(radio_cfg, h, periods, n_slots, busy):
        tti = radio_cfg.tti_ns
        k_p = ceil_div(h.t_p_ns, tti)
        sa = (np.arange(periods, dtype=np.int64)[:, None] * k_p + period_arrival_offsets_ns(h) // tti).ravel()
        sa = sa[sa < n_slots]
        assert_machine_equals_both_rules(S.SOFT_RESERVATION, radio_cfg, h, sa, n_slots, busy)
