"""Per-scheme grant mechanics at the analytic level: the two grant rules
as integer-tick kernels (shared with the simulator), the exact one-period
drop walk, the effective burst transmission count and remainder of service.

Drop semantics follow the latest-data rule: at each transmission
opportunity only the freshest pending packet is sent and every packet it
supersedes counts as dropped.  Packets are never buffered across
opportunities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .radio import (
    RadioConfig,
    SchedulingScheme,
    ds_grant_latency,
    fa_grant_latency,
    haptic_access_delay,
    haptic_blocks,
)
from .traffic import HapticTrafficModel, period_arrival_offsets_ns, period_counters
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

    CSV_HEADER = "scheme,tti_s,t_ib_s,arrivals,transmitted,dropped,drop_rate,max_access_delay_s"

    def max_access_delay(self) -> float:
        return float(self.per_packet_delays.max()) if len(self.per_packet_delays) else 0.0

    def csv_row(self, radio: RadioConfig, haptic: HapticTrafficModel) -> str:
        return (
            f"{self.scheme.value},{radio.tti!r},{haptic.t_ib!r},{self.arrivals},"
            f"{self.transmitted},{self.dropped},{self.drop_rate!r},{self.max_access_delay()!r}"
        )


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
    resolved = np.ones(len(ticks), dtype=bool) if last_grant is None else grant <= last_grant
    return grant, served & resolved, ~served & resolved


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
        free, data = slots + 1, slots + 2
    else:
        sr = -(-slots // k_sr) * k_sr
        free, data = sr + 3, sr + 4
    successor = np.searchsorted(slots, free).tolist()
    accepted, i, n = [], int(np.searchsorted(slots, busy)), len(slots)
    while i < n:
        accepted.append(i)
        i = successor[i]
    acc = np.array(accepted, dtype=np.int64)
    if len(acc):
        busy = int(free[acc[-1]])
    return acc, data[acc], data[acc] - slots[acc] + 2, busy


def _gate_stride(gate_ns: int, spacing_ns: int) -> int:
    """A demand gate of gate_ns accepts every k-th of evenly spaced
    arrivals, the boundary spacing == gate counting as free."""
    return max(1, ceil_div(gate_ns, spacing_ns))


def _demand_sent(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel) -> int:
    """Transmissions per period of the unslotted DS or FA walk.

    Worst-case gating is evaluated per regime: the burst stream and the
    sparse stream are each paced by their own spacing, so the boundary
    packet at the burst edge is not charged against the burst's worst-case
    grant wait.  Each regime is evenly spaced, so its accepted count is
    ceil(arrivals / stride); the regimes hold ceil(t_b / t_ib) and
    ceil((t_p - t_b) / t_nb) arrivals, as period_arrival_offsets_ns lays
    them out.
    """
    fast = scheme is SchedulingScheme.FAST_UPLINK
    gate = to_ns(fa_grant_latency(radio) if fast else ds_grant_latency(radio))
    n_burst = ceil_div(haptic.t_b_ns, haptic.t_ib_ns)
    n_sparse = ceil_div(haptic.t_p_ns - haptic.t_b_ns, haptic.t_nb_ns)
    return (ceil_div(n_burst, _gate_stride(gate, haptic.t_ib_ns))
            + ceil_div(n_sparse, _gate_stride(gate, haptic.t_nb_ns)))


def _grant_delays(ticks: np.ndarray, period: int, extra: int, tick_ns: int) -> np.ndarray:
    grant, served, _ = standing_grants(ticks, period)
    return (grant[served] - ticks[served] + extra) * tick_ns / 1e9


def _gate_delays(slots: np.ndarray, k_sr: int | None, tti_ns: int) -> np.ndarray:
    return demand_gate(slots, k_sr)[2] * tti_ns / 1e9


def _in_slots(ns: int, tti_ns: int, name: str, walk: str = "walk") -> int:
    if ns % tti_ns:
        raise ConfigError(f"{name}: must be a whole number of TTIs for the slotted {walk}")
    return ns // tti_ns


def drop_walk(
    scheme: SchedulingScheme,
    radio: RadioConfig,
    haptic: HapticTrafficModel,
    slotted: bool = False,
) -> DropReport:
    """Exact deterministic walk over one traffic period (no excess burst).

    With slotted=True the walk is re-run at slot granularity (arrival times
    rounded down to slot boundaries, SR waits rounded up to the next
    opportunity), matching the simulator's clock.  Every arrival of the
    period is resolved, so whatever is not transmitted is dropped.
    """
    offs = period_arrival_offsets_ns(haptic)
    arrivals = len(offs)
    n_burst = int(np.searchsorted(offs, haptic.t_b_ns))
    tti = radio.tti_ns

    if scheme in (SchedulingScheme.DYNAMIC, SchedulingScheme.FAST_UPLINK):
        fast = scheme is SchedulingScheme.FAST_UPLINK
        if slotted:
            # one physical pipeline, busy state carried across the burst edge,
            # exactly as the simulator runs it
            k_sr = None if fast else _in_slots(radio.t_sr_ns, tti, "radio.t_sr")
            delays = _gate_delays(offs // tti, k_sr, tti)
        else:
            delays = np.full(_demand_sent(scheme, radio, haptic), haptic_access_delay(scheme, radio))
        return _make_report(scheme, arrivals, delays)

    if scheme is SchedulingScheme.SEMI_PERSISTENT:
        if slotted:
            delays = _grant_delays(offs // tti, _in_slots(radio.t_pg_ns, tti, "radio.t_pg"), 4, tti)
        else:
            delays = _grant_delays(offs, radio.t_pg_ns, 4 * tti, 1)
        return _make_report(scheme, arrivals, delays)

    if scheme is SchedulingScheme.SOFT_RESERVATION:
        # The standing grant is held through the first instant at or past the
        # burst end, so burst-tail data still rides the reserved grant and
        # every burst arrival is resolved.
        if slotted:
            _in_slots(haptic.t_b_ns, tti, "haptic.t_b", "SRR walk")
            sa = offs // tti
            b_delays = _grant_delays(sa[:n_burst], _in_slots(radio.t_pg_ns, tti, "radio.t_pg"), 4, tti)
            s_delays = _gate_delays(sa[n_burst:], _in_slots(radio.t_sr_ns, tti, "radio.t_sr"), tti)
        else:
            b_delays = _grant_delays(offs[:n_burst], radio.t_pg_ns, 4 * tti, 1)
            sent = ceil_div(arrivals - n_burst, _gate_stride(to_ns(ds_grant_latency(radio)), haptic.t_nb_ns))
            s_delays = np.full(sent, haptic_access_delay(scheme, radio, in_burst=False))
        return _make_report(scheme, arrivals, np.concatenate([b_delays, s_delays]))

    raise ConfigError(f"unknown scheme {scheme!r}")


def effective_burst_count(gate_ns: int, haptic: HapticTrafficModel) -> int:
    """Closed-form transmissions per burst when a pre-transmission wait of
    gate_ns gates acceptance: only every k-th arrival gets through, with the
    boundary spacing == gate counting as schedulable."""
    k = _gate_stride(gate_ns, haptic.t_ib_ns)
    return int(haptic.t_b_ns // (k * haptic.t_ib_ns))


def remainder_of_service(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel) -> float:
    """Capacity left to background traffic in one traffic period, bits.

    Demand-driven schemes consume one slot per transmitted packet.  A
    standing grant consumes every reserved slot whether used or not; soft
    reservation reserves only inside bursts and pays per transmission in
    the sparse stretch.
    """
    m = haptic_blocks(radio)
    _, _, r_nb, _ = period_counters(haptic, 0.0)
    if scheme in (SchedulingScheme.DYNAMIC, SchedulingScheme.FAST_UPLINK):
        consumed = _demand_sent(scheme, radio, haptic)
    elif scheme is SchedulingScheme.SEMI_PERSISTENT:
        consumed = haptic.t_p_ns // radio.t_pg_ns
    elif scheme is SchedulingScheme.SOFT_RESERVATION:
        consumed = haptic.t_b_ns // radio.t_pg_ns + r_nb
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    slot_bits = m * radio.channel_rate * radio.tti
    return radio.total_rate * haptic.t_p - slot_bits * consumed

