"""Per-scheme grant mechanics: the two grant rules as integer-tick
kernels, the per-scheme machine that composes them on slots (the slotted
drop walk and the simulator both run it), the exact one-period drop walk
and its counts in closed form, the per-period slot charge and the
remainder of service.

Drop semantics follow the latest-data rule: at each transmission
opportunity only the freshest pending packet is sent and every packet it
supersedes counts as dropped.  Packets are never buffered across
opportunities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ._numpy import np
from .errors import ConfigError
from .radio import (
    RadioConfig,
    SchedulingScheme,
    ds_grant_latency,
    fa_grant_latency,
    haptic_access_delay,
)
from .traffic import HapticTrafficModel, period_arrival_offsets_ns
from .units import ceil_div, to_ns


@dataclass
class DropReport:
    """Outcome of one walk: counts and the access delay of each
    transmitted packet."""

    scheme: SchedulingScheme
    arrivals: int
    transmitted: int
    dropped: int
    drop_rate: float
    per_packet_delays: np.ndarray


def _make_report(scheme, arrivals: int, delays: np.ndarray) -> DropReport:
    transmitted = len(delays)
    dropped = arrivals - transmitted
    rate = dropped / arrivals if arrivals else 0.0
    return DropReport(scheme, arrivals, transmitted, dropped, rate, delays)


def standing_grants(ticks: np.ndarray, period: int, last_grant: int | None = None):
    """Standing-grant rule on integer ticks: grants fire every period from
    tick 0, and the grant at g transmits the freshest arrival strictly
    before it and supersedes the rest of its group.  An arrival coincident
    with a grant waits for the next one.  Arrivals whose grant falls past
    last_grant stay unresolved.

    ticks must be sorted.  Returns (each arrival's grant tick, served mask,
    dropped mask).
    """
    grant = (ticks // period + 1) * period
    served = np.ones(len(ticks), dtype=bool)
    served[:-1] = grant[1:] != grant[:-1]
    superseded = ~served
    if last_grant is not None:
        resolved = grant <= last_grant
        served &= resolved
        superseded &= resolved
    return grant, served, superseded


def demand_gate(slots: np.ndarray, k_sr: int | None, busy: int = 0):
    """Demand-gate rule on slots: DS when k_sr is given, FA when None.  An
    arrival at or after busy is accepted and closes the gate: DS sends its
    SR at the next opportunity, holds the grant three slots later and
    transmits one slot after that; FA transmits two slots after the arrival
    and is free again the next slot.  Every other arrival is dropped.

    slots must be sorted.  Each arrival's next accepted successor is found
    by one searchsorted, so only accepted arrivals are visited.  Returns
    (accepted indices, their data slots, their access delays in slots, the
    first slot at which the gate accepts again).
    """
    if k_sr is None:
        free = slots + 1
    else:
        free = -(-slots // k_sr) * k_sr + 3
    successor = np.searchsorted(slots, free).tolist()
    accepted, i, n = [], int(np.searchsorted(slots, busy)), len(slots)
    while i < n:
        accepted.append(i)
        i = successor[i]
    acc = np.array(accepted, dtype=np.int64)
    if len(acc):
        busy = int(free[acc[-1]])
    data = free[acc] + 1  # one slot past the slot the gate frees
    return acc, data, data - slots[acc] + 2, busy


def _gated(gate_ns: int, window_ns: int, spacing_ns: int) -> int:
    """Arrivals a demand gate of gate_ns accepts out of the ceil(window /
    spacing) evenly spaced ones of a window: every k-th, the boundary
    spacing == gate counting as free."""
    return ceil_div(ceil_div(window_ns, spacing_ns), max(1, ceil_div(gate_ns, spacing_ns)))


def _sparse_send_at(t_ns: int, radio: RadioConfig, haptic: HapticTrafficModel) -> bool:
    """Whether an SRR sparse arrival accepted by the DS gate transmits in the
    slot at t_ns (t_b <= t_ns < t_b + t_pg).  Sends sit 4 TTIs past an SR
    opportunity and past the burst end, so most instants are ruled out at
    once; otherwise the gate is stepped from the first sparse arrival, one
    accepted arrival at a time, exactly as the slotted DS rule runs it."""
    tti, t_sr, t_b, t_nb = radio.tti_ns, radio.t_sr_ns, haptic.t_b_ns, haptic.t_nb_ns
    if t_ns < t_b + 4 * tti or (t_ns - 4 * tti) % t_sr:
        return False
    j, send = 0, -1
    while t_b + j * t_nb < haptic.t_p_ns and send < t_ns:
        sr = ceil_div((t_b + j * t_nb) // tti * tti, t_sr) * t_sr
        send = sr + 4 * tti
        # the next arrival in a slot at or past sr + 3 TTIs reopens the gate
        j = ceil_div(ceil_div(sr + 3 * tti, tti) * tti - t_b, t_nb)
    return send == t_ns


@functools.lru_cache(maxsize=8)
def period_charge(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel) -> tuple[int, int]:
    """Slots the latency-critical flow claims in one traffic period, and the
    share of them one extra burst adds: (slots_per_period, slots_excess).

    This is the one per-period count behind the remainder of service, the
    leftover envelope and the unslotted DS/FA walk.  It is a closed form
    over the arrivals period_arrival_offsets_ns lays out, ceil(t_b / t_ib)
    in the burst and ceil((t_p - t_b) / t_nb) after it, and runs no walk.

    DS and FA claim one slot per accepted arrival.  Each regime is gated
    against its own spacing, so the boundary packet at the burst edge is
    not charged against the burst's worst-case grant wait; the excess is
    the accepted burst share.  SPS claims every grant: t_p // t_pg, and
    t_b // t_pg in a burst.  SRR claims every
    grant inside the burst, the flush grant when the last burst arrival's
    grant lands at or past the burst end (one at the period end is the
    next period's first reserved grant, one on a sparse send's slot shares
    that slot), and one slot per sparse arrival the DS gate accepts.  Its
    excess is the reserved burst grants only: the envelope's two edge slots
    cover the flush grant.

    Results are memoised, because the walk, the remainder and the envelope
    of one row each ask for the same count.  An entry keeps its models
    alive, so the cache holds two grid points of four schemes, not a whole
    sweep.
    """
    t_p, t_b = haptic.t_p_ns, haptic.t_b_ns
    if scheme is SchedulingScheme.SEMI_PERSISTENT:
        t_pg = radio.t_pg_ns
        return t_p // t_pg, t_b // t_pg
    t_ib, t_nb = haptic.t_ib_ns, haptic.t_nb_ns
    if scheme is SchedulingScheme.SOFT_RESERVATION:
        t_pg = radio.t_pg_ns
        grants = ceil_div(t_b, t_pg)
        flush_grant = ((ceil_div(t_b, t_ib) - 1) * t_ib // t_pg + 1) * t_pg
        flush = int(t_b <= flush_grant < t_p and not _sparse_send_at(flush_grant, radio, haptic))
        return grants + flush + _gated(to_ns(ds_grant_latency(radio)), t_p - t_b, t_nb), grants
    if scheme is SchedulingScheme.DYNAMIC:
        gate = to_ns(ds_grant_latency(radio))
    elif scheme is SchedulingScheme.FAST_UPLINK:
        gate = to_ns(fa_grant_latency(radio))
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    burst = _gated(gate, t_b, t_ib)
    return burst + _gated(gate, t_p - t_b, t_nb), burst


def _grant_delays(ticks: np.ndarray, radio: RadioConfig) -> np.ndarray:
    """Access delays, s, of the arrivals at ticks (ns) that the standing
    grants serve: the wait for the grant plus four TTIs."""
    grant, served, _ = standing_grants(ticks, radio.t_pg_ns)
    return (grant[served] - ticks[served] + 4 * radio.tti_ns) / 1e9


def slot_periods(scheme: SchedulingScheme, radio: RadioConfig) -> dict[str, int]:
    """The SR and standing-grant periods, ns, that the scheme's slotted
    machine follows, keyed by radio field: the SR gate for DS and SRR's
    sparse stretch, standing grants for SPS and SRR's burst."""
    periods = {}
    if scheme in (SchedulingScheme.DYNAMIC, SchedulingScheme.SOFT_RESERVATION):
        periods["t_sr"] = radio.t_sr_ns
    if scheme in (SchedulingScheme.SEMI_PERSISTENT, SchedulingScheme.SOFT_RESERVATION):
        periods["t_pg"] = radio.t_pg_ns
    return periods


def slot_grid_problems(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel) -> list[str]:
    """The slot-grid check of the simulator and the slotted walk alike: the
    times that must be whole TTIs for the scheme's slotted machine, its
    slot_periods and SRR's burst end, sorted by field."""
    on_grid = {f"radio.{name}": ns for name, ns in slot_periods(scheme, radio).items()}
    if scheme is SchedulingScheme.SOFT_RESERVATION:
        on_grid["haptic.t_b"] = haptic.t_b_ns
    return [f"{name}: must be a whole number of TTIs for slotted scheduling"
            for name in sorted(on_grid) if on_grid[name] % radio.tti_ns]


@dataclass
class SlotEvents:
    """Resolved outcome of a scheme's slotted machine over one span of slots."""

    data_slots: np.ndarray       # slots carrying a latency-critical transmission
    tx_arrival_slots: np.ndarray
    delays_s: np.ndarray
    dropped_arrival_slots: np.ndarray
    busy_end: int                # first slot at which a new SR procedure could start


def slotted_machine(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel,
                    sa: np.ndarray, n_slots: int, busy: int = 0) -> SlotEvents:
    """Run the scheme's grant machine over n_slots slots that start on a
    period boundary that is also an SR opportunity and a grant instant.  sa
    are the sorted arrival slots relative to that start; busy is the demand
    gate carried in, relative to the same start.  The slotted drop walk is
    one call over one period from an idle gate; the simulator calls it once
    per distinct hyperperiod chunk.

    Standing grants serve SPS arrivals (up to the grant at n_slots) and SRR
    burst arrivals (through the flush grant, wherever it lands); the demand
    gate takes DS and FA arrivals and SRR sparse ones.  The two arrival sets
    never interact, so their events are concatenated: burst first for SRR;
    a rule runs only on a non-empty set.  An SRR arrival is in a burst when
    its slot modulo the period, ceil(t_p / TTI) slots, lies before the burst
    end's slot.
    """
    tti = radio.tti_ns
    k_pg = radio.t_pg_ns // tti
    granted, gated, last_grant = sa[:0], sa, None
    if scheme is SchedulingScheme.SEMI_PERSISTENT:
        granted, gated, last_grant = sa, sa[:0], n_slots
    elif scheme is SchedulingScheme.SOFT_RESERVATION:
        in_burst = sa % ceil_div(haptic.t_p_ns, tti) < haptic.t_b_ns // tti
        granted, gated = sa[in_burst], sa[~in_burst]
    # each rule's (data slots, sent arrivals, delays in slots, dropped
    # arrivals), from a non-empty set only: an empty one gives empty arrays
    parts = []
    if len(granted):
        grant, served, superseded = standing_grants(granted, k_pg, last_grant)
        sent = granted[served]
        data = grant[served]
        parts.append((data, sent, data - sent + 4, granted[superseded]))
    if len(gated):
        k_sr = None if scheme is SchedulingScheme.FAST_UPLINK else radio.t_sr_ns // tti
        acc, data, delay, busy = demand_gate(gated, k_sr, busy)
        rejected = np.ones(len(gated), dtype=bool)
        rejected[acc] = False
        parts.append((data, gated[acc], delay, gated[rejected]))
    if len(parts) == 1:
        data, sent, delay, dropped = parts[0]
    else:  # SRR's burst first, or no arrival at all
        data, sent, delay, dropped = (np.concatenate(field) for field in zip(*parts or [(sa[:0],) * 4]))
    return SlotEvents(data, sent, delay * tti / 1e9, dropped, busy)


def reserved_slots(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel,
                   n_slots: int) -> np.ndarray:
    """The slots of n_slots, from a period start that is also a grant
    instant, that standing grants claim whether used or not: every grant
    slot for SPS, for SRR those in a burst by slotted_machine's test of its
    arrivals, none for DS and FA.  They depend on the configuration alone,
    so the simulator lays them out once per configuration, not per chunk."""
    if scheme not in (SchedulingScheme.SEMI_PERSISTENT, SchedulingScheme.SOFT_RESERVATION):
        return np.empty(0, dtype=np.int64)
    tti = radio.tti_ns
    reserved = np.arange(0, n_slots, radio.t_pg_ns // tti, dtype=np.int64)
    if scheme is SchedulingScheme.SOFT_RESERVATION:
        reserved = reserved[reserved % ceil_div(haptic.t_p_ns, tti) < haptic.t_b_ns // tti]
    return reserved


def drop_walk(
    scheme: SchedulingScheme,
    radio: RadioConfig,
    haptic: HapticTrafficModel,
    slotted: bool = False,
) -> DropReport:
    """Exact deterministic walk over one traffic period (no excess burst).

    With slotted=True the walk is slotted_machine over one period from an
    idle gate (arrival times rounded down to slot boundaries, SR waits
    rounded up to the next opportunity), the simulator's own machine.  Its
    span runs to the first grant at or past t_p, so every arrival of the
    period is resolved and whatever is not transmitted is dropped.
    """
    offs = period_arrival_offsets_ns(haptic)
    arrivals = len(offs)
    tti = radio.tti_ns

    if slotted:
        if problems := slot_grid_problems(scheme, radio, haptic):
            raise ConfigError(problems[0])
        span = ceil_div(haptic.t_p_ns, radio.t_pg_ns) * (radio.t_pg_ns // tti)
        return _make_report(scheme, arrivals, slotted_machine(scheme, radio, haptic, offs // tti, span).delays_s)

    if scheme in (SchedulingScheme.DYNAMIC, SchedulingScheme.FAST_UPLINK):
        delays = np.full(period_charge(scheme, radio, haptic)[0], haptic_access_delay(scheme, radio))
    elif scheme is SchedulingScheme.SEMI_PERSISTENT:
        delays = _grant_delays(offs, radio)
    elif scheme is SchedulingScheme.SOFT_RESERVATION:
        # The standing grant is held through the first instant at or past the
        # burst end, so burst-tail data still rides the reserved grant and
        # every burst arrival is resolved.
        n_burst = int(np.searchsorted(offs, haptic.t_b_ns))
        b_delays = _grant_delays(offs[:n_burst], radio)
        sent = _gated(to_ns(ds_grant_latency(radio)), haptic.t_p_ns - haptic.t_b_ns, haptic.t_nb_ns)
        delays = np.concatenate([b_delays, np.full(sent, haptic_access_delay(scheme, radio, in_burst=False))])
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return _make_report(scheme, arrivals, delays)


def _windows(first: int, step: int, n: int, period: int) -> int:
    """Distinct grant windows t // period among the n ticks first + i * step:
    each tick its own when step >= period; otherwise consecutive ticks
    differ by at most one window, so every window from the first tick's to
    the last's."""
    if step >= period or n < 2:
        return n
    return (first + (n - 1) * step) // period - first // period + 1


def drop_counts(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel) -> tuple[int, int]:
    """(arrivals, transmitted) of the unslotted drop_walk, from integer
    nanosecond arithmetic alone: no arrival is laid out.

    DS and FA send period_charge's count.  A standing grant sends one
    arrival per grant window holding any, and the burst and the sparse
    stretch are each evenly spaced, so SPS sends the burst's windows plus
    the sparse stretch's, less one when the last burst arrival and t_b
    share a window.  SRR sends the burst's windows (its grant is held
    through the flush) plus the sparse arrivals the DS gate accepts.
    drop_walk is the reference this is held to, count for count.
    """
    n_b, n_s = haptic.arrival_counts
    t_b = haptic.t_b_ns
    if scheme in (SchedulingScheme.DYNAMIC, SchedulingScheme.FAST_UPLINK):
        return n_b + n_s, period_charge(scheme, radio, haptic)[0]
    t_pg, t_ib = radio.t_pg_ns, haptic.t_ib_ns
    burst = _windows(0, t_ib, n_b, t_pg)
    if scheme is SchedulingScheme.SEMI_PERSISTENT:
        shared = int(n_s > 0 and (n_b - 1) * t_ib // t_pg == t_b // t_pg)
        return n_b + n_s, burst + _windows(t_b, haptic.t_nb_ns, n_s, t_pg) - shared
    if scheme is SchedulingScheme.SOFT_RESERVATION:
        return n_b + n_s, burst + _gated(to_ns(ds_grant_latency(radio)), haptic.t_p_ns - t_b, haptic.t_nb_ns)
    raise ConfigError(f"unknown scheme {scheme!r}")


def remainder_of_service(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel) -> float:
    """Capacity left to background traffic in one traffic period, bits: the
    full capacity less the slots period_charge counts.

    Demand-driven schemes consume one slot per transmitted packet.  A
    standing grant consumes every reserved slot whether used or not; soft
    reservation reserves only inside bursts and pays per transmission in
    the sparse stretch.
    """
    return radio.total_rate * haptic.t_p - radio.slot_bits * period_charge(scheme, radio, haptic)[0]
