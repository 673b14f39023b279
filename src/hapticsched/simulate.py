"""Slot-accurate discrete-event oracle.

Time advances in integer slots.  The latency-critical flow runs its grant
state machine on the slot grid and claims its channel blocks in the slot
where each transmission lands; reserved-but-unused standing grants still
claim their slots.  Whatever capacity is left in each slot drains the
background FIFO queue as fluid, so a background packet may finish mid-slot
with its completion time interpolated linearly.

When the configuration is cleanly periodic (grant and SR periods divide
the traffic period and no scheduler state crosses a period boundary), one
period is walked exactly and the pattern is replicated, which keeps
multi-hour horizons cheap.  Otherwise the machines walk the horizon one
hyperperiod chunk at a time: lcm of the traffic period and the SR and grant
periods the scheme follows, so every chunk starts on an SR opportunity and
a grant instant with the same arrivals.  The only state that crosses a
chunk boundary is the demand gate's busy slot, carried relative to the
chunk start and clamped at 0; standing-grant data never does, because the
grant at the boundary serves the freshest arrival before it.  A full
chunk's events therefore depend only on that entry state: they are
memoised on it and shifted into place when it repeats.  The partial final
chunk is walked explicitly, since a grant past the horizon leaves its
arrivals unresolved.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleError
from .radio import RadioConfig, SchedulingScheme, haptic_blocks
from .scheduling import demand_gate, drop_walk, standing_grants
from .traffic import (
    HapticTrafficModel,
    LeftoverTrafficModel,
    leftover_arrivals,
    period_arrival_offsets_ns,
)
from .units import to_ns

log = logging.getLogger(__name__)

_PATH_RECORD = "%s: %s path (%s), H = %d periods, %d chunks walked, %d reused"
_BACKGROUND_RECORD = ("%s: background %d packets arrived, %d finished, %d unfinished, "
                      "%d kept after warm-up, %d blocks walked")

# background packets per block of the queue walk: the block's temporaries
# stay in cache, and the per-block overhead is small next to its work
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    radio: RadioConfig
    haptic: HapticTrafficModel
    leftover: LeftoverTrafficModel
    scheme: SchedulingScheme
    horizon: float
    seed: int

    def __post_init__(self):
        problems = []
        tti = self.radio.tti_ns
        if self.horizon < 10 * self.haptic.t_p:
            problems.append(
                f"horizon: must cover at least 10 traffic periods, got {self.horizon!r} s "
                f"with t_p={self.haptic.t_p!r} s"
            )
        if self.haptic.t_p_ns % tti:
            problems.append("haptic.t_p: must be a whole number of TTIs for simulation")
        if self.scheme in (SchedulingScheme.DYNAMIC, SchedulingScheme.SOFT_RESERVATION):
            if self.radio.t_sr_ns % tti:
                problems.append("radio.t_sr: SR opportunities must fall on slot boundaries")
        if self.scheme in (SchedulingScheme.SEMI_PERSISTENT, SchedulingScheme.SOFT_RESERVATION):
            if self.radio.t_pg_ns % tti:
                problems.append("radio.t_pg: standing grants must fall on slot boundaries")
        if self.scheme is SchedulingScheme.SOFT_RESERVATION and self.haptic.t_b_ns % tti:
            problems.append("haptic.t_b: burst windows must end on a slot boundary for SRR")
        if problems:
            raise ConfigError(problems)

    @property
    def n_periods(self) -> int:
        return int(to_ns(self.horizon) // self.haptic.t_p_ns)

    @property
    def slots_per_period(self) -> int:
        return int(self.haptic.t_p_ns // self.radio.tti_ns)


@dataclass
class SimReport:
    scheme: SchedulingScheme
    haptic_drop_rate: float
    haptic_delays: np.ndarray
    leftover_delays: np.ndarray
    remainder_bits_per_period: float
    slots_simulated: int
    seed: int
    haptic_period_counts: np.ndarray  # (n_periods, 2): transmitted, dropped per arrival period
    horizon_s: float

    CSV_HEADER = "scheme,tti_s,t_ib_s,seed,haptic_drop_rate,haptic_delay_max_s,leftover_p99_s,remainder_bits"

    def csv_row(self, radio: RadioConfig, haptic: HapticTrafficModel) -> str:
        dmax = float(self.haptic_delays.max()) if len(self.haptic_delays) else 0.0
        p99 = empirical_quantile(self.leftover_delays, 0.99) if len(self.leftover_delays) else float("nan")
        return (
            f"{self.scheme.value},{radio.tti!r},{haptic.t_ib!r},{self.seed},"
            f"{self.haptic_drop_rate!r},{dmax!r},{p99!r},{self.remainder_bits_per_period!r}"
        )


@dataclass
class _HapticEvents:
    """Resolved outcome of a scheduler machine over one span of slots."""

    data_slots: np.ndarray       # slots carrying a latency-critical transmission
    reserved_slots: np.ndarray   # slots claimed by standing grants whether used or not
    tx_arrival_slots: np.ndarray
    delays_s: np.ndarray
    dropped_arrival_slots: np.ndarray
    busy_end: int                # first slot at which a new SR procedure could start

    def occupied(self) -> np.ndarray:
        return _sorted_unique(np.concatenate([self.data_slots, self.reserved_slots]))


def _sorted_unique(slots: np.ndarray) -> np.ndarray:
    """np.unique for integer slots: a sort and an adjacent-difference mask."""
    slots = np.sort(slots)
    keep = np.ones(len(slots), dtype=bool)
    keep[1:] = slots[1:] != slots[:-1]
    return slots[keep]


def _chunk_events(config: SimConfig, sa: np.ndarray, n_slots: int, busy: int) -> _HapticEvents:
    """Run the scheme's machine over n_slots slots that start on a period
    boundary that is also an SR opportunity and a grant instant.  sa are the
    arrival slots relative to that start; busy is the demand gate carried
    in, relative to the same start.

    Standing grants serve SPS arrivals (up to the grant at n_slots) and SRR
    burst arrivals (through the flush grant, wherever it lands); the demand
    gate takes DS and FA arrivals and SRR sparse ones.  The two arrival sets
    never interact, so their events are concatenated: burst first for SRR.
    """
    radio, haptic, scheme = config.radio, config.haptic, config.scheme
    tti = radio.tti_ns
    k_pg = radio.t_pg_ns // tti
    no_slots = np.array([], dtype=np.int64)
    granted, gated, reserved, last_grant = no_slots, sa, no_slots, None
    if scheme is SchedulingScheme.SEMI_PERSISTENT:
        granted, gated, last_grant = sa, no_slots, n_slots
        reserved = np.arange(0, n_slots, k_pg, dtype=np.int64)
    elif scheme is SchedulingScheme.SOFT_RESERVATION:
        k_p, k_b = haptic.t_p_ns // tti, haptic.t_b_ns // tti
        in_burst = (sa % k_p) < k_b
        granted, gated = sa[in_burst], sa[~in_burst]
        reserved = np.arange(0, n_slots, k_pg, dtype=np.int64)
        reserved = reserved[reserved % k_p < k_b]
    k_sr = None if scheme is SchedulingScheme.FAST_UPLINK else radio.t_sr_ns // tti
    grant, served, superseded = standing_grants(granted, k_pg, last_grant)
    acc, data, delay, busy = demand_gate(gated, k_sr, busy)
    rejected = np.ones(len(gated), dtype=bool)
    rejected[acc] = False
    return _HapticEvents(
        np.concatenate([grant[served], data]),
        reserved,
        np.concatenate([granted[served], gated[acc]]),
        np.concatenate([grant[served] - granted[served] + 4, delay]) * tti / 1e9,
        np.concatenate([granted[superseded], gated[rejected]]),
        busy,
    )


def _grid_periods(config: SimConfig) -> dict[str, int]:
    """The SR and standing-grant periods, in slots, that the scheme follows."""
    radio, scheme = config.radio, config.scheme
    grids = {}
    if scheme in (SchedulingScheme.DYNAMIC, SchedulingScheme.SOFT_RESERVATION):
        grids["t_sr"] = radio.t_sr_ns // radio.tti_ns
    if scheme in (SchedulingScheme.SEMI_PERSISTENT, SchedulingScheme.SOFT_RESERVATION):
        grids["t_pg"] = radio.t_pg_ns // radio.tti_ns
    return grids


def _replication_blocker(config: SimConfig, events: _HapticEvents) -> str | None:
    """Why one period's outcome does not replicate verbatim, or None when it
    does: grant and SR phases must realign at the period boundary and no
    state may cross it.  A grant landing exactly on the boundary is allowed
    for SPS because it rides the next period's reserved slot."""
    k_p = config.slots_per_period
    for name, k in _grid_periods(config).items():
        if k_p % k:
            return f"t_p is not a multiple of {name}"
    if events.busy_end > k_p:
        return "the SR pipeline is busy past the period end"
    limit = k_p + 1 if config.scheme is SchedulingScheme.SEMI_PERSISTENT else k_p
    if len(events.data_slots) and events.data_slots.max() >= limit:
        return "a transmission lands past the period end"
    return None


def _tile(parts: list[np.ndarray], order: list[int], span: int) -> np.ndarray:
    """parts[order[c]] + c * span for every chunk c, laid end to end."""
    sizes = np.array([len(p) for p in parts], dtype=np.int64)
    lens = sizes[order]
    idx = np.repeat((np.cumsum(sizes) - sizes)[order] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    return np.concatenate(parts)[idx] + np.repeat(np.arange(len(order), dtype=np.int64) * span, lens)


class _CapacityProfile:
    """Piecewise-linear cumulative background capacity, periodic over the
    occupancy pattern.  Supports exact evaluation and inversion."""

    def __init__(self, occupied_slots: np.ndarray, period_slots: int, repeats: int,
                 tti_ns: int, total_rate: float, reduced_rate: float):
        self.period_ns = period_slots * tti_ns
        self.repeats = repeats
        occ = _sorted_unique(np.asarray(occupied_slots, dtype=np.int64))
        if len(occ) and (occ[0] < 0 or occ[-1] >= period_slots):
            raise ValueError("occupied slots outside the profile period")
        # one reduced-rate segment per occupied slot, preceded by a full-rate
        # segment wherever a gap separates it from the previous one
        prev_end = np.zeros_like(occ)
        prev_end[1:] = occ[:-1] + 1
        starts = np.stack([prev_end, occ], axis=1)
        rates = np.tile(np.array([total_rate, reduced_rate], dtype=float), (len(occ), 1))
        keep = np.stack([occ > prev_end, np.ones(len(occ), dtype=bool)], axis=1)
        starts, rates = starts[keep], rates[keep]
        end = int(occ[-1]) + 1 if len(occ) else 0
        if end < period_slots:
            starts = np.append(starts, end)
            rates = np.append(rates, float(total_rate))
        bounds = np.append(starts, period_slots).astype(np.int64) * tti_ns
        self.seg_t = bounds[:-1]
        self.seg_rate = rates
        seg_bits = self.seg_rate * (np.diff(bounds) / 1e9)
        self.seg_S = np.concatenate([[0.0], np.cumsum(seg_bits)[:-1]])
        self.period_bits = float(np.sum(seg_bits))
        self.total_bits = self.period_bits * repeats
        rising = self.seg_rate > 0
        self.ris_t = self.seg_t[rising]
        self.ris_S = self.seg_S[rising]
        self.ris_rate = self.seg_rate[rising]
        self.n_occupied = len(occ)

    def supply_at(self, t_ns) -> np.ndarray:
        k, r = np.divmod(np.asarray(t_ns, dtype=np.int64), self.period_ns)
        j = np.searchsorted(self.seg_t, r, side="right") - 1
        return k * self.period_bits + self.seg_S[j] + self.seg_rate[j] * (r - self.seg_t[j]) / 1e9

    def time_of_supply(self, bits) -> np.ndarray:
        """Earliest time (seconds) at which cumulative capacity reaches each
        target; inf when the target lies past the horizon.  Targets that
        fall on a zero-rate plateau resolve at the next rising segment."""
        bits = np.asarray(bits, dtype=float)
        if self.period_bits <= 0 or len(self.ris_S) == 0:
            return np.full(bits.shape, np.inf)
        k = np.floor(bits / self.period_bits)
        res = bits - k * self.period_bits
        low = res < 0
        k[low] -= 1
        res[low] += self.period_bits
        high = res >= self.period_bits
        k[high] += 1
        res[high] -= self.period_bits
        # searchsorted returns at most len(ris_S), so only 0 can be undershot
        j = np.maximum(np.searchsorted(self.ris_S, res, side="right") - 1, 0)
        dt_ns = (res - self.ris_S[j]) / self.ris_rate[j] * 1e9
        t_ns = k * float(self.period_ns) + self.ris_t[j] + dt_ns
        out = t_ns / 1e9
        out[bits > self.total_bits * (1 + 1e-12)] = np.inf
        return out


def _haptic_layer(config: SimConfig):
    """Resolve the latency-critical flow over the whole horizon.

    One period is walked from idle state first.  When it replicates
    verbatim, its pattern is repeated over a periodic capacity profile.
    Otherwise the horizon is cut into hyperperiod chunks (see the module
    docstring): full chunks are memoised on the demand-gate state they enter
    with and shifted into place, the partial final chunk is walked
    explicitly, and the capacity profile spans the whole horizon.

    Returns (capacity profile, per-period counts, post-warm-up access
    delays, mean occupied slots per period).
    """
    radio, haptic = config.radio, config.haptic
    tti = radio.tti_ns
    k_p = config.slots_per_period
    n_periods = config.n_periods
    n_slots = n_periods * k_p
    reduced = (radio.n_channels - haptic_blocks(radio)) * radio.channel_rate
    period_sa = period_arrival_offsets_ns(haptic) // tti

    one = _chunk_events(config, period_sa, k_p, 0)
    blocker = _replication_blocker(config, one)
    if blocker is None:
        log.debug(_PATH_RECORD, config.scheme.value, "replicated", "clean", 1, 1, n_periods - 1)
        occupied = one.occupied()
        occupied = occupied[occupied < k_p]
        profile = _CapacityProfile(occupied, k_p, n_periods, tti, radio.total_rate, reduced)
        tx, dr = len(one.delays_s), len(one.dropped_arrival_slots)
        counts = np.tile(np.array([[tx, dr]], dtype=np.int64), (n_periods, 1))
        delays = np.tile(one.delays_s, max(n_periods - 1, 0))
        return profile, counts, delays, float(len(occupied))

    span = math.lcm(k_p, *_grid_periods(config).values())
    chunk_sa = (np.arange(min(span, n_slots) // k_p, dtype=np.int64)[:, None] * k_p + period_sa).ravel()
    walked: list[_HapticEvents] = []
    seen: dict[int, int] = {}  # entry busy -> index into walked
    order, busy = [], 0
    for _ in range(n_slots // span):
        if busy not in seen:
            seen[busy] = len(walked)
            walked.append(_chunk_events(config, chunk_sa, span, busy))
        order.append(seen[busy])
        busy = max(walked[order[-1]].busy_end - span, 0)
    rest = n_slots % span
    if rest:
        order.append(len(walked))
        walked.append(_chunk_events(config, chunk_sa[chunk_sa < rest], rest, busy))
    log.debug(_PATH_RECORD, config.scheme.value, "hyperperiod", blocker, span // k_p,
              len(walked), len(order) - len(walked))

    def tiled(field: str, shift: int = span) -> np.ndarray:
        return _tile([getattr(e, field) for e in walked], order, shift)

    tx_slots, dropped_slots = tiled("tx_arrival_slots"), tiled("dropped_arrival_slots")
    occupied = _sorted_unique(np.concatenate([tiled("data_slots"), tiled("reserved_slots")]))
    occupied = occupied[occupied < n_slots]
    profile = _CapacityProfile(occupied, n_slots, 1, tti, radio.total_rate, reduced)
    counts = np.stack([np.bincount(tx_slots // k_p, minlength=n_periods),
                       np.bincount(dropped_slots // k_p, minlength=n_periods)], axis=1)
    per_period_occ = np.bincount(occupied // k_p, minlength=n_periods)
    occupancy = float(per_period_occ[1:].mean()) if n_periods > 1 else float(per_period_occ.mean())
    return profile, counts, tiled("delays_s", 0)[tx_slots >= k_p], occupancy


def _background_layer(config: SimConfig, profile: _CapacityProfile, horizon_s: float,
                      warmup_s: float) -> np.ndarray:
    """Drain the background FIFO queue through the leftover capacity and
    return the completion delays of the finished packets that arrived after
    warm-up.

    Packet i finishes when cumulative capacity reaches
    max_{j <= i}(supply(a_j) - cum_{j-1}) + cum_i.  The packets are walked
    in blocks of _BLOCK, the running maximum carried from one block into
    the next, so every temporary stays block-sized; only the cumulative
    sizes are summed over the whole timeline at once, in the same order as
    an unblocked pass.  Completion times are nondecreasing and a target
    past the horizon is unreachable, so the unfinished packets are a
    suffix: a binary search for inf finds the first of them, and the walk
    stops at the block that holds it.

    Raises InfeasibleError when the queue grows superlinearly.
    """
    timeline = leftover_arrivals(config.leftover, horizon_s, config.seed)
    arrivals, sizes = timeline.times_s, timeline.sizes_bits
    n = len(arrivals)
    cum = np.cumsum(sizes)
    t_mid = 0.5 * horizon_s
    first_kept = int(np.searchsorted(arrivals, warmup_s, side="left"))
    delays = np.empty(n - first_kept)
    kept = finished = finished_mid = blocks = 0
    peak = -np.inf
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        blocks += 1
        a = arrivals[lo:hi]
        c = cum[lo:hi]
        level = profile.supply_at(np.round(a * 1e9).astype(np.int64))
        level -= c - sizes[lo:hi]
        level[0] = max(level[0], peak)
        np.maximum.accumulate(level, out=level)
        peak = level[-1]
        level += c
        completion = profile.time_of_supply(level)
        done = int(np.searchsorted(completion, np.inf))
        finished += done
        finished_mid += int(np.searchsorted(completion, t_mid, side="right"))
        start = min(max(first_kept - lo, 0), done)
        np.subtract(completion[start:done], a[start:done], out=delays[kept:kept + done - start])
        kept += done - start
        if done < hi - lo:
            break
    log.debug(_BACKGROUND_RECORD, config.scheme.value, n, finished, n - finished, kept, blocks)

    q_mid = int(np.searchsorted(arrivals, t_mid, side="right")) - finished_mid
    q_end = n - finished
    if queue_blowup(q_mid, q_end):
        raise InfeasibleError(
            f"leftover queue grew superlinearly ({q_mid} packets at mid-horizon, "
            f"{q_end} at the end): configuration is unstable"
        )
    return delays[:kept]


def run(config: SimConfig) -> SimReport:
    """Replay the configuration and measure drop rates, access delays,
    background completion delays and the spare per-period capacity.

    The horizon is snapped down to a whole number of traffic periods; the
    first period is discarded as warm-up.
    """
    radio, haptic, scheme = config.radio, config.haptic, config.scheme
    n_periods = config.n_periods
    n_slots = n_periods * config.slots_per_period
    horizon_s = n_slots * radio.tti_ns / 1e9
    warmup_s = haptic.t_p_ns / 1e9

    profile, counts, haptic_delays, occupancy = _haptic_layer(config)
    leftover_delays = _background_layer(config, profile, horizon_s, warmup_s)

    post = counts[1:] if n_periods > 1 else counts
    tx_total = int(post[:, 0].sum())
    dr_total = int(post[:, 1].sum())
    drop_rate = dr_total / (tx_total + dr_total) if (tx_total + dr_total) else 0.0
    slot_bits = haptic_blocks(radio) * radio.channel_rate * radio.tti
    remainder = radio.total_rate * haptic.t_p - slot_bits * occupancy

    return SimReport(
        scheme=scheme,
        haptic_drop_rate=drop_rate,
        haptic_delays=np.asarray(haptic_delays, dtype=float),
        leftover_delays=np.asarray(leftover_delays, dtype=float),
        remainder_bits_per_period=remainder,
        slots_simulated=n_slots,
        seed=config.seed,
        haptic_period_counts=counts,
        horizon_s=horizon_s,
    )


def queue_blowup(q_mid: int, q_end: int) -> bool:
    """Superlinear-growth detector: the backlog at the horizon exceeds ten
    times the backlog at half the horizon, with both above 100 packets."""
    return q_end > 10 * q_mid and min(q_mid, q_end) > 100


def empirical_quantile(delays, p: float) -> float:
    """Nearest-rank order statistic: the ceil(p*n)-th smallest sample."""
    if not (0 < p < 1):
        raise ConfigError(f"p must be in (0, 1), got {p!r}")
    data = np.array(delays, dtype=float)  # a copy: it is partitioned in place
    if len(data) == 0:
        raise ValueError("empty sample")
    rank = min(max(math.ceil(p * len(data)), 1), len(data))
    data.partition(rank - 1)
    return float(data[rank - 1])


def validate_against_walk(config: SimConfig) -> bool:
    """Cross-check the simulator against the analytic walk re-run at slot
    granularity: per-period transmitted/dropped counts must match exactly
    on every full period after warm-up (the final period is skipped because
    its tail may still be in flight at the horizon).  Both run the grant
    kernels of `scheduling`, so this checks the simulator's chunking,
    replication and per-period bookkeeping, not the grant rules."""
    report = run(config)
    walk = drop_walk(config.scheme, config.radio, config.haptic, slotted=True)
    expected = (walk.transmitted, walk.dropped)
    counts = report.haptic_period_counts
    ok = True
    for period in range(1, len(counts) - 1):
        got = (int(counts[period, 0]), int(counts[period, 1]))
        if got != expected:
            log.warning(
                "%s: period %d simulated (tx=%d, dropped=%d) != walk (tx=%d, dropped=%d)",
                config.scheme.value, period, got[0], got[1], expected[0], expected[1],
            )
            ok = False
    return ok
