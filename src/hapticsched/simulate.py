"""Slot-accurate discrete-event simulator.  Its independent check is the
per-slot oracle in tests/test_event_oracle.py.

Time advances in integer slots.  The latency-critical flow runs its grant
machine, scheduling.slotted_machine (the slotted drop walk's too), on the
slot grid and claims its channel blocks in the slot where each
transmission lands; reserved-but-unused standing grants still claim their
slots.  Whatever capacity is left in each slot drains the background FIFO
queue as fluid, so a background packet may finish mid-slot with its
completion time interpolated linearly.

The machine walks hyperperiod chunks: lcm of the traffic period and the
SR and grant periods the scheme follows (scheduling.slot_periods), so
every chunk starts on an SR opportunity and a grant instant with the same
arrivals.  Only the demand gate's busy slot crosses a chunk boundary,
carried relative to the chunk start and clamped at 0; standing-grant data
never does, because the grant at the boundary serves the freshest arrival
before it.  A full chunk's events thus depend only on that entry state,
so from the first entry state seen twice the chunks repeat: steady_cycle
walks full chunks from an idle gate to there, a prefix and one cycle, and
a run lays the prefix and then the cycle repeated to its horizon.  On the
grant grid, with no state crossing a period boundary, the chunk and the
cycle are one period and the prefix is empty.  The walk depends on no
seed, background model or horizon, so the last one is memoised, keyed on
(scheme, radio, haptic).  Each run walks its partial final chunk, since a
grant past the horizon leaves its arrivals unresolved.  Of the
latency-critical flow only the per-period counts span the horizon; each
walked chunk's access delays are kept once, with the number of chunks
that repeat them.  A horizon shorter than the prefix and one cycle still
walks them whole: on chunks of thousands of periods a short run pays for
the whole cycle's walk and profile.

The background queue is walked in blocks of packets as the timeline of
leftover_arrivals draws them on demand, in one loop to the end of the
timeline that also counts the arrivals.  Each block draws its arrival
times and its sizes, each from a stream of its own, and sums its sizes on
from the block before, so of the background flow only the kept completion
delays span the horizon.  Past the first packet left unfinished at the
horizon no block finishes a packet, but an overloaded run still draws and
walks every block.  Every scheme and grid point of a seed reads the
same timeline, so one whose draw bound fits one block is kept, with the
per-block arrays that depend on it alone, for the next run that reads
it: only the last such draw is memoised, so the runs of one seed in a row
share it, and a seed list, which runs its seeds innermost, draws every
run afresh.  A longer timeline streams and keeps nothing.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from ._numpy import np
from .errors import ConfigError, InfeasibleError
from .radio import RadioConfig, SchedulingScheme, haptic_blocks
from .scheduling import SlotEvents, drop_walk, reserved_slots, slot_grid_problems, slot_periods, slotted_machine
from .traffic import (
    ArrivalTimeline,
    HapticTrafficModel,
    LeftoverTrafficModel,
    leftover_arrivals,
    period_arrival_offsets_ns,
)
from .units import NS_PER_S, to_ns

log = logging.getLogger(__name__)

_PATH_RECORD = "%s: chunks of %d periods, prefix %d + cycle %d chunks, %d chunks walked"
_BACKGROUND_RECORD = ("%s: background %d packets arrived, %d finished, %d unfinished, "
                      "%d kept after warm-up, %d blocks walked, %s lookup (%d packets vs %d profile slots), "
                      "timeline %s")

# background packets per block of the queue walk: the block's temporaries
# stay in cache, and the per-block overhead is small next to its work
_BLOCK = 1 << 15

# the capacity profile multiplies rates by nanosecond spans of up to the
# horizon, and the queue walk sums packet sizes over it: a millionth of the
# float range leaves room for the walk's sums of the two and for a draw of
# sizes above its mean
_SUM_LIMIT = sys.float_info.max / 1e6

# empirical_quantile reads a threshold off a sample of about _TAIL_SAMPLE
# values once there are _TAIL_FROM: on fewer, such as compare's few hundred
# delays per row, the sample would cost more than the copy it saves
_TAIL_FROM = 4096
_TAIL_SAMPLE = 1024


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
        if not isinstance(self.seed, int) or self.seed < 0:
            problems.append(f"seed: must be an integer >= 0, got {self.seed!r}")
        if not math.isfinite(self.horizon):
            problems.append(f"horizon: must be finite, got {self.horizon!r}")
        elif math.isinf(self.horizon * NS_PER_S):  # to_ns could not snap it
            problems.append(f"horizon: must be finite in nanoseconds, got {self.horizon!r}")
        elif (n_periods := to_ns(self.horizon) // self.haptic.t_p_ns) < 10:
            problems.append(
                f"horizon: must cover at least 10 traffic periods, got {self.horizon!r} s "
                f"with t_p={self.haptic.t_p!r} s"
            )
        else:
            # arrays of eight-byte entries past sys.maxsize bytes, which numpy
            # refuses by their size, not for want of memory
            if n_periods * 2 * 8 > sys.maxsize:
                problems.append(f"horizon: {n_periods:.3g} traffic periods over {self.horizon!r} s "
                                f"have more per-period counts than an array holds")
            rate, lam, sigma = self.radio.total_rate, self.leftover.lambda_rate, self.leftover.sigma
            if rate * self.horizon * 1e9 > _SUM_LIMIT:
                problems.append(f"radio.total_rate: {rate!r} b/s over a {self.horizon!r} s horizon "
                                f"overflows the simulator's capacity sums")
            if lam * self.horizon * sigma > _SUM_LIMIT:
                problems.append(f"leftover: {lam!r} packets/s of {sigma!r} bits over a {self.horizon!r} s "
                                f"horizon overflow the simulator's queue sums")
            elif ArrivalTimeline(self.leftover, self.horizon, self.seed).count_bound * 8 > sys.maxsize:
                problems.append(f"leftover.lambda_rate: {lam!r} packets/s over a {self.horizon!r} s horizon "
                                f"draws more arrival times than an array holds")
        if self.haptic.t_p_ns % self.radio.tti_ns:
            problems.append("haptic.t_p: must be a whole number of TTIs for simulation")
        problems.extend(slot_grid_problems(self.scheme, self.radio, self.haptic))
        if problems:
            raise ConfigError(problems)
        # the horizon snapped down to whole traffic periods, set once as plain
        # attributes, as RadioConfig's lattice values are
        k_p = self.haptic.t_p_ns // self.radio.tti_ns
        object.__setattr__(self, "n_periods", n_periods)
        object.__setattr__(self, "slots_per_period", k_p)
        object.__setattr__(self, "n_slots", n_periods * k_p)
        object.__setattr__(self, "horizon_ns", n_periods * self.haptic.t_p_ns)


@dataclass
class SimReport:
    haptic_drop_rate: float
    haptic_delays: np.ndarray        # each walked chunk's post-warm-up access delays once
    haptic_delay_counts: np.ndarray  # chunks of the horizon that repeat each delay: np.repeat gives them all
    leftover_delays: np.ndarray
    remainder_bits_per_period: float
    slots_simulated: int
    haptic_period_counts: np.ndarray  # (n_periods, 2): transmitted, dropped per arrival period


class _CapacityProfile:
    """Piecewise-linear cumulative background capacity over a prefix and one
    cycle repeated after it without end, evaluated and inverted exactly: a
    time or bit target past the prefix folds back into the cycle, each
    completed cycle adding cycle_bits.  It depends on no horizon: a run
    cuts its bit targets at its own horizon's capacity.  The occupied slots
    come in any order, repeats allowed, and each must lie in
    [0, prefix_slots + cycle_slots), as steady_cycle filters them; they are
    not checked here."""

    def __init__(self, occupied_slots: np.ndarray, prefix_slots: int, cycle_slots: int,
                 tti_ns: int, total_rate: float, reduced_rate: float):
        self.prefix_ns, self.cycle_ns = prefix_slots * tti_ns, cycle_slots * tti_ns
        end = prefix_slots + cycle_slots
        occ = np.asarray(occupied_slots, dtype=np.int64)
        # one mark per slot bound, in one pass and no sort: a reduced-rate
        # segment per occupied slot, a full-rate one per gap between them,
        # and the cycle starting a segment of its own
        occupied = np.zeros(end + 1, dtype=bool)  # slot `end` stays free: it only bounds the last segment
        occupied[occ] = True
        mark = occupied.copy()
        mark[1:] |= occupied[:-1]
        mark[[0, prefix_slots, end]] = True
        bounds = np.flatnonzero(mark)
        starts = bounds[:-1]
        self.occupied = occupied[:end]  # per slot of the profile
        self.seg_rate = np.where(occupied[starts], float(reduced_rate), float(total_rate))
        self.slots, self.tti_ns, self._seg_slots = end, tti_ns, np.diff(bounds)
        self.seg_t = starts * tti_ns
        seg_bits = self._seg_slots * tti_ns / 1e9
        seg_bits *= self.seg_rate
        self.seg_S = np.empty(len(seg_bits))
        self.seg_S[0] = 0.0
        np.cumsum(seg_bits[:-1], out=self.seg_S[1:])
        cut = int(np.searchsorted(self.seg_t, self.prefix_ns))
        self.prefix_bits, self.cycle_bits = float(self.seg_S[cut]), float(np.sum(seg_bits[cut:]))
        rising = self.seg_rate > 0
        self.ris_t, self.ris_S, self.ris_rate = self.seg_t, self.seg_S, self.seg_rate
        if not rising.all():  # the rising segments are all of them unless a plateau exists
            self.ris_t, self.ris_S, self.ris_rate = self.seg_t[rising], self.seg_S[rising], self.seg_rate[rising]
        for array in (self.occupied, self.seg_t, self.seg_S, self.seg_rate, self._seg_slots,
                      self.ris_t, self.ris_S, self.ris_rate):
            array.flags.writeable = False  # a profile is shared by every run of its configuration
        self.slot_S = self.bucket_seg = None  # lookup tables, see build_lookup_tables

    def build_lookup_tables(self) -> None:
        """Replace the binary searches of supply_at and time_of_supply by
        O(1) table lookups with the same results, at O(slots) to build.

        Segment bounds lie on slot bounds, so each slot's segment start,
        cumulative supply and rate are table entries: supply_at reads them
        at the slot of each time.  Bit targets fall into equal buckets, of
        the profile's bits split finer than its narrowest rising segment,
        but at most two per slot.  Each bucket holds the last rising segment
        that starts in an earlier bucket (0 if none); the bucket map is
        nondecreasing, so that segment starts at or before every target in
        the bucket, and the segments that start inside the bucket finish
        the lookup.  When no bucket holds two starts, as _bucket places
        them, that is one step, to the next segment or not (one_step);
        otherwise it is a forward walk.  time_of_supply then reads the
        segment's cumulative supply, rate and start, the start as the float
        its sum converts it to."""
        slot_seg = np.repeat(np.arange(len(self.seg_t)), self._seg_slots)
        self.slot_t, self.slot_S, self.slot_rate = self.seg_t[slot_seg], self.seg_S[slot_seg], self.seg_rate[slot_seg]
        if len(self.ris_S):
            total = self.prefix_bits + self.cycle_bits
            narrowest = float(np.min(self.ris_rate * self._seg_slots[self.seg_rate > 0])) * self.tti_ns / 1e9
            need = total / narrowest if narrowest else math.inf  # buckets of the narrowest segment's width
            self._buckets = int(min(need, 2 * self.slots - 1)) + 1
            self._buckets_per_bit = self._buckets / total
            own = self._bucket(self.ris_S)
            self.one_step = bool(np.all(own[1:] != own[:-1]))
            # buckets 0..own[0] hold segment 0, and own[j]+1..own[j+1] hold j
            self.bucket_seg = np.repeat(np.maximum(np.arange(-1, len(own)), 0),
                                        np.diff(own, prepend=-1, append=self._buckets - 1))
            self._next_S = np.append(self.ris_S[1:], np.nan)  # NaN: the walk stops at the last segment
            self._ris_t_float = self.ris_t.astype(float)
        for array in vars(self).values():  # the tables are shared as the rest of the profile is
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    def _bucket(self, bits: np.ndarray) -> np.ndarray:
        """Bucket of each bit target, nondecreasing in the target (a rounded
        product by a positive factor keeps the order of its operands); NaN
        and targets outside the profile go to the first or the last bucket."""
        b = np.multiply(bits, self._buckets_per_bit)
        np.fmax(b, 0, out=b)
        np.fmin(b, self._buckets - 1, out=b)
        return b.astype(np.intp)

    def supply_at(self, t_ns) -> np.ndarray:
        """Cumulative capacity, bits, at each time, ns.  The segment of a
        time is a binary search, or with lookup tables (build_lookup_tables)
        its slot's entry; either way the evaluation runs in place, in one
        order of operations.  A 0-d time gives a scalar."""
        t = np.asarray(t_ns, dtype=np.int64)
        k = np.maximum(t - self.prefix_ns, 0) // self.cycle_ns  # times inside the prefix do not fold
        r = t - k * self.cycle_ns
        if self.slot_S is None:
            j = self.seg_t.searchsorted(r, side="right") - 1
            seg_t, seg_S, seg_rate = self.seg_t, self.seg_S, self.seg_rate
        else:  # the tables hold each slot's segment values
            j = r // self.tti_ns
            seg_t, seg_S, seg_rate = self.slot_t, self.slot_S, self.slot_rate
        r -= seg_t.take(j)
        dbits = seg_rate.take(j)
        dbits *= r
        dbits /= 1e9
        out = k * self.cycle_bits
        out += seg_S.take(j)
        out += dbits
        return out

    def time_of_supply(self, bits: np.ndarray) -> np.ndarray:
        """Earliest time (seconds) at which cumulative capacity reaches each
        target of a 1-d float array, over all time: a caller with a horizon
        cuts its targets at that horizon's capacity first.  Targets that
        fall on a zero-rate plateau resolve at the next rising segment; past
        the prefix of a cycle that supplies nothing, a target extends the
        last rising segment.  The targets are only read.

        Without lookup tables the segment is a binary search.  With them
        (build_lookup_tables) it is a bucket lookup and one step, or a
        short walk where a bucket holds more than one segment start.  The
        fold into the cycle and the evaluation are the same either way and
        run in place on the call's own temporaries, so both give the same
        bits."""
        if len(self.ris_S) == 0 or len(bits) == 0:
            return np.full(len(bits), np.inf)
        if self.cycle_bits <= 0:  # nothing accrues after the prefix
            k, res = np.zeros(bits.shape), bits  # res may be the caller's: read only
        else:  # targets inside the prefix do not fold
            k = np.subtract(bits, self.prefix_bits)
            k /= self.cycle_bits
            np.floor(k, out=k)
            np.maximum(k, 0, out=k)
            res = np.multiply(k, self.cycle_bits)
            np.subtract(bits, res, out=res)
            if not res.min() >= self.prefix_bits:  # below it, a target of the prefix or one folded a cycle too far
                low = res < self.prefix_bits
                low &= k > 0
                if low.any():
                    k[low] -= 1
                    res[low] += self.cycle_bits
            if not res.max() < self.prefix_bits + self.cycle_bits:
                high = res >= self.prefix_bits + self.cycle_bits
                if high.any():
                    k[high] += 1
                    res[high] -= self.cycle_bits
        # the last rising segment that starts at or before res, or 0
        if self.bucket_seg is None:
            j = self.ris_S.searchsorted(res, side="right")
            j -= 1
            np.maximum(j, 0, out=j)  # searchsorted returns at most len(ris_S), so only 0 can be undershot
            starts = self.ris_t  # converted to float as the sum below converts it
        else:
            j = self.bucket_seg.take(self._bucket(res))
            if self.one_step:  # the bucket's own segment start, if any, is the next one
                j += self._next_S.take(j) <= res
            else:
                walk = np.flatnonzero(self._next_S.take(j) <= res)
                while len(walk):
                    j[walk] += 1
                    walk = walk[self._next_S[j[walk]] <= res[walk]]
            starts = self._ris_t_float
        dt_ns = self.ris_S.take(j)
        np.subtract(res, dt_ns, out=dt_ns)
        dt_ns /= self.ris_rate.take(j)
        dt_ns *= 1e9
        t_ns = np.multiply(k, float(self.cycle_ns), out=k)
        t_ns += starts.take(j)
        t_ns += dt_ns
        t_ns /= 1e9
        return t_ns


def _chunk_order(n_chunks: int, start: int, cycle: int) -> np.ndarray:
    """order[c]: the index into the walked chunks of chunk c, the cycle of
    walked[start:] repeating from chunk start on."""
    order = np.arange(n_chunks)
    order[start:] = start + np.arange(n_chunks - start) % cycle
    return order


def _count_periods(out: np.ndarray, events: SlotEvents, k_p: int) -> None:
    """Fill out, (periods, 2), with a chunk's transmitted and dropped arrivals per period."""
    out[:, 0] = np.bincount(events.tx_arrival_slots // k_p, minlength=len(out))
    out[:, 1] = np.bincount(events.dropped_arrival_slots // k_p, minlength=len(out))


class SteadyCycle(NamedTuple):
    """The latency-critical flow of one configuration, with no horizon: the
    full chunks from an idle gate to the end of their first cycle.  Its
    arrays are read-only, and the walked chunks' events are only read."""

    span: int                       # slots per chunk
    arrivals: np.ndarray            # one chunk's arrival slots
    walked: tuple[SlotEvents, ...]  # the prefix's chunks, then the cycle's
    entries: tuple[int, ...]        # the busy gate each walked chunk is entered with
    start: int                      # the cycle is walked[start:]
    chunk_counts: np.ndarray        # (walked chunks, periods per chunk, 2): transmitted, dropped
    profile: _CapacityProfile       # capacity over the prefix and one cycle


@functools.lru_cache(maxsize=1)
def steady_cycle(scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel) -> SteadyCycle:
    """Walk full chunks from an idle gate until their entry state repeats
    (see the module docstring), and lay out the capacity profile over the
    prefix and one cycle.  A pure function of its arguments, so memoised:
    one entry serves every run of the configuration at any seed and any
    horizon, as a seed list or validate_against_walk then run repeat it."""
    tti, k_p = radio.tti_ns, int(haptic.t_p_ns // radio.tti_ns)
    span = math.lcm(k_p, *(ns // tti for ns in slot_periods(scheme, radio).values()))
    chunk_sa = (np.arange(span // k_p, dtype=np.int64)[:, None] * k_p
                + period_arrival_offsets_ns(haptic) // tti).ravel()
    chunk_reserved = reserved_slots(scheme, radio, haptic, span)  # the same in every full chunk

    walked, seen, busy = [], {}, 0  # seen: entry busy -> index into walked
    while busy not in seen:
        seen[busy] = len(walked)
        walked.append(slotted_machine(scheme, radio, haptic, chunk_sa, span, busy))
        busy = max(walked[-1].busy_end - span, 0)
    start = seen[busy]
    cycle = len(walked) - start

    # transmissions can land in later chunks (the carried SR gate, the SPS
    # boundary grant, the SRR flush grant); leaving out those on slots
    # reserved there anyway, they reach at most `reach` chunks ahead, so
    # from start + reach on only cycle chunks spill into a chunk
    spill = np.concatenate([e.data_slots for e in walked])
    spill = spill[spill >= span]
    if len(spill):
        is_reserved = np.zeros(span, dtype=bool)
        is_reserved[chunk_reserved] = True
        spill = spill[~is_reserved[spill % span]]
    reach = int(spill.max()) // span if len(spill) else 0
    laid = _chunk_order(start + reach + cycle, start, cycle).tolist()

    # the slots of the chunks the profile spans, repeats and all: the
    # profile marks each once
    end = len(laid) * span
    reserved = (np.arange(len(laid), dtype=np.int64)[:, None] * span + chunk_reserved).ravel()
    slots = np.concatenate([reserved, *[walked[i].data_slots + c * span for c, i in enumerate(laid)]])
    profile = _CapacityProfile(slots[slots < end], end - cycle * span, cycle * span, tti,
                               radio.total_rate, (radio.n_channels - haptic_blocks(radio)) * radio.channel_rate)
    counts = np.empty((len(walked), span // k_p, 2), dtype=np.intp)
    for c, e in enumerate(walked):
        _count_periods(counts[c], e, k_p)
    for array in (chunk_sa, counts):
        array.flags.writeable = False  # shared by every run of the configuration
    return SteadyCycle(span, chunk_sa, tuple(walked), tuple(seen), start, counts, profile)


def _haptic_layer(config: SimConfig):
    """Resolve the latency-critical flow over the whole horizon: lay the
    configuration's steady_cycle over it, walk the partial final chunk, and
    write the path record.  Returns (capacity profile, per-period counts,
    each walked chunk's post-warm-up access delays once, how many chunks of
    the horizon repeat each delay, mean occupied slots per period after
    warm-up).  The profile is the entry's, shared by every run of the
    configuration; the rest is the run's own.  The machine is causal, so up
    to the horizon the profile has the partial chunk's slots too.
    """
    scheme, radio, haptic, k_p = config.scheme, config.radio, config.haptic, config.slots_per_period
    steady, n_periods, n_slots = steady_cycle(scheme, radio, haptic), config.n_periods, config.n_slots
    per_chunk = steady.span // k_p
    n_full, rest = divmod(n_periods, per_chunk)  # rest: the partial final chunk's periods
    chunks, start = [*steady.walked], steady.start
    order = _chunk_order(n_full + bool(rest), start, len(chunks) - start)
    counts = np.empty((n_periods, 2), dtype=np.intp)
    counts[:n_full * per_chunk] = steady.chunk_counts[order[:n_full]].reshape(-1, 2)
    if rest:  # walked last, entered as the chunk it replaces
        chunks.append(slotted_machine(scheme, radio, haptic, steady.arrivals[steady.arrivals < rest * k_p],
                                      rest * k_p, steady.entries[order[n_full]]))
        _count_periods(counts[n_full * per_chunk:], chunks[-1], k_p)
        order[n_full] = len(chunks) - 1
    # chunk 0 on its own (its first period is warm-up), then each chunk
    # that the chunks after it repeat, once with its repeat count
    first, repeats = chunks[order[0]], np.bincount(order[1:], minlength=len(chunks)).tolist()
    parts, weights = zip(*[(first.delays_s[first.tx_arrival_slots >= k_p], 1)]
                         + [(e.delays_s, n) for e, n in zip(chunks, repeats) if n])
    delays = np.concatenate(parts)
    delay_counts = np.repeat(np.array(weights, dtype=np.int64), [len(p) for p in parts])

    # occupied slots after period 0, the cycle's counted once per completed cycle
    profile = steady.profile
    occ, prefix_slots = profile.occupied, profile.prefix_ns // radio.tti_ns
    cycle_slots = profile.slots - prefix_slots
    q = max(n_slots - prefix_slots, 0) // cycle_slots
    occupied = q * np.count_nonzero(occ[prefix_slots:]) + np.count_nonzero(occ[:n_slots - q * cycle_slots])
    occupancy = int(occupied - np.count_nonzero(occ[:k_p])) / (n_periods - 1)

    if log.isEnabledFor(logging.DEBUG):
        log.debug(_PATH_RECORD, scheme.value, per_chunk, prefix_slots // steady.span,
                  len(steady.walked) - start, len(chunks))
    return profile, counts, delays, delay_counts, occupancy


def _tables_pay(n_packets: float, profile_slots: int) -> bool:
    """Whether the profile's lookup tables repay their O(slots) build: each
    packet makes one lookup in supply_at and one in time_of_supply."""
    return n_packets >= profile_slots


class _Block(NamedTuple):
    """One block of the background timeline with the arrays of it that the
    queue walk reads and that depend on the timeline alone."""

    times: np.ndarray    # arrival times, s
    ns: np.ndarray       # the times rounded to whole nanoseconds
    cum: np.ndarray      # the running size sum through each packet, on from the blocks before
    before: np.ndarray   # the running size sum before each packet


def _timeline_blocks(timeline: ArrivalTimeline) -> Iterator[_Block]:
    """The timeline's blocks of _BLOCK arrival times, as they are drawn:
    each block's sizes from the size draw, summed on from the last block's
    total in the order of one pass over the timeline."""
    next_sizes = timeline.size_draw()
    carry = 0.0
    for a in timeline.time_blocks(_BLOCK):
        sizes = next_sizes(len(a))
        cum = sizes.copy()
        cum[0] += carry
        np.cumsum(cum, out=cum)
        carry = cum[-1]
        before = np.subtract(cum, sizes, out=sizes)
        yield _Block(a, np.round(a * 1e9).astype(np.int64), cum, before)
        del a, sizes, cum, before  # released before the next block is drawn


@functools.lru_cache(maxsize=1)
def _kept_blocks(timeline: ArrivalTimeline) -> tuple[_Block, ...]:
    """The blocks of a timeline whose draw bound fits one block, every array
    of them kept read-only.  One entry, keyed on the timeline's (model,
    horizon, seed), serves the runs that read the timeline in a row: every
    scheme and grid point of a one-seed invocation.  A seed list runs its
    seeds innermost, so the seed changes from run to run and each run draws
    afresh."""
    blocks = tuple(_timeline_blocks(timeline))
    for block in blocks:
        for array in block:
            array.flags.writeable = False
    return blocks


def _background_layer(config: SimConfig, profile: _CapacityProfile) -> np.ndarray:
    """Drain the background FIFO queue through the leftover capacity up to
    the horizon, snapped down to whole traffic periods, and return the
    completion delays of the finished packets that arrived after the
    first period's warm-up.

    Packet i finishes when cumulative capacity reaches its target,
    max_{j <= i}(supply(a_j) - cum_{j-1}) + cum_i.  The packets are walked
    in blocks of _BLOCK (_timeline_blocks), with the running maximum
    carried from block to block, so the bytes are those of one draw and one
    sum over the timeline.  A timeline whose draw bound fits one block is
    kept (_kept_blocks), and the next run of the same (model, horizon,
    seed) reads it; a longer one streams, and nothing spans it but the kept
    delays, in a buffer of the time draw's bound that grows only when the
    draw runs past it.  Every run calls leftover_arrivals for its timeline,
    kept or not.

    The finished packets are those whose target is at most the horizon's
    capacity, with a relative slack of 1e-12 for the rounding of the sums.
    The targets are nondecreasing, a running maximum plus a size sum, so
    the unfinished packets are a suffix: a binary search of each block's
    targets against that capacity finds the finished prefix, and only that
    prefix is inverted.  The walk runs to the end of the timeline: every
    block after the first unfinished packet finishes none of its packets,
    and is walked all the same, so one loop counts every arrival, the
    mid-horizon ones too.
    The profile is shared by every run of the configuration: the first run
    whose expected packet count is at least its slots builds its lookup
    tables, and every later run reads them, whatever its own count.

    Raises InfeasibleError when the queue grows superlinearly.
    """
    horizon_s, warmup_s = config.horizon_ns / 1e9, config.haptic.t_p_ns / 1e9
    capacity = float(profile.supply_at(config.horizon_ns)) * (1 + 1e-12)  # the horizon's, with slack for rounding
    timeline = leftover_arrivals(config.leftover, horizon_s, config.seed)
    if timeline.count_bound <= _BLOCK:
        hits = _kept_blocks.cache_info().hits
        blocks = _kept_blocks(timeline)
        source = "kept" if _kept_blocks.cache_info().hits > hits else "drawn and kept"
    else:
        blocks, source = _timeline_blocks(timeline), "drawn"
    if profile.slot_S is None and _tables_pay(config.leftover.lambda_rate * horizon_s, profile.slots):
        profile.build_lookup_tables()
    t_mid = 0.5 * horizon_s
    delays = np.empty(timeline.count_bound)
    n = arrived_mid = kept = finished = finished_mid = walked = 0
    peak = -np.inf
    for block in blocks:
        a = block.times
        n += len(a)
        arrived_mid += int(a.searchsorted(t_mid, side="right"))
        walked += 1
        level = profile.supply_at(block.ns)
        level -= block.before
        level[0] = max(level[0], peak)
        np.maximum.accumulate(level, out=level)
        peak = level[-1]
        level += block.cum
        done = int(level.searchsorted(capacity, side="right"))
        completion = profile.time_of_supply(level[:done])
        finished += done
        finished_mid += int(completion.searchsorted(t_mid, side="right"))
        start = min(int(a.searchsorted(warmup_s)), done)
        if kept + done - start > len(delays):  # the time draw ran past its bound
            delays = np.concatenate([delays[:kept], np.empty(len(delays) + len(a))])
        np.subtract(completion[start:done], a[start:done], out=delays[kept:kept + done - start])
        kept += done - start
        del block, a, level, completion  # released before the next block is drawn
    log.debug(_BACKGROUND_RECORD, config.scheme.value, n, finished, n - finished, kept, walked,
              "search" if profile.slot_S is None else "table", n, profile.slots, source)

    q_mid = arrived_mid - finished_mid
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

    The run covers config.n_periods whole traffic periods, config.horizon_ns,
    and discards the first as warm-up; slots_simulated is config.n_slots.
    """
    radio, haptic = config.radio, config.haptic
    profile, counts, haptic_delays, delay_counts, occupancy = _haptic_layer(config)
    leftover_delays = _background_layer(config, profile)

    tx_total, dr_total = (int(x) for x in counts[1:].sum(axis=0))
    drop_rate = dr_total / (tx_total + dr_total) if (tx_total + dr_total) else 0.0
    remainder = radio.total_rate * haptic.t_p - radio.slot_bits * occupancy

    return SimReport(
        haptic_drop_rate=drop_rate,
        haptic_delays=haptic_delays,
        haptic_delay_counts=delay_counts,
        leftover_delays=leftover_delays,
        remainder_bits_per_period=remainder,
        slots_simulated=config.n_slots,
        haptic_period_counts=counts,
    )


def queue_blowup(q_mid: int, q_end: int) -> bool:
    """Superlinear-growth detector: the backlog at the horizon exceeds ten
    times the backlog at half the horizon, with both above 100 packets."""
    return q_end > 10 * q_mid and min(q_mid, q_end) > 100


def empirical_quantile(delays, p: float) -> float:
    """Nearest-rank order statistic: the ceil(p*n)-th smallest sample.

    From _TAIL_FROM samples on, only the tail is copied and partitioned.  A
    threshold tau is read off a strided sample of about _TAIL_SAMPLE
    values, a margin of four standard deviations and more below the
    quantile.  Every sample below tau sorts before every other one (NaN
    sorts last), so when at least n - rank + 1 samples are not below tau,
    the quantile is among them at a known rank.  Otherwise, and on fewer
    samples, the whole sample is copied and partitioned.
    """
    if not (0 < p < 1):
        raise ConfigError(f"p must be in (0, 1), got {p!r}")
    data = np.asarray(delays, dtype=float)
    n = len(data)
    if n == 0:
        raise ValueError("empty sample")
    rank = min(max(math.ceil(p * n), 1), n)
    above = n - rank + 1  # the samples from the quantile on, in sorted order
    if n >= _TAIL_FROM:
        sample = data[::max(n // _TAIL_SAMPLE, 1)]
        expected = above / n * len(sample)
        k = math.ceil(expected + 4 * math.sqrt(expected) + 8)
        if k < len(sample):
            tau = np.partition(sample, len(sample) - k)[len(sample) - k]
            keep = data < tau
            np.logical_not(keep, out=keep)
            tail = data[keep]
            if len(tail) >= above:
                tail.partition(len(tail) - above)
                return float(tail[len(tail) - above])
    data = np.array(data)  # a copy: it is partitioned in place
    data.partition(rank - 1)
    return float(data[rank - 1])


def validate_against_walk(config: SimConfig) -> bool:
    """Cross-check the simulator against the analytic walk re-run at slot
    granularity: per-period transmitted/dropped counts must match exactly
    on every full period after warm-up (the final period is skipped because
    its tail may still be in flight at the horizon).  Both run
    scheduling.slotted_machine, so this checks the simulator's chunking and
    per-period bookkeeping, not the grant machine.

    The periods are compared in one array comparison, and each mismatched
    one logs a WARNING record, in period order.  The counts come from the
    latency-critical layer alone: no background queue is drawn or drained,
    so an unstable background load does not raise here, as it does in run."""
    counts = _haptic_layer(config)[1][1:-1]
    walk = drop_walk(config.scheme, config.radio, config.haptic, slotted=True)
    expected = (walk.transmitted, walk.dropped)
    mismatched = np.flatnonzero((counts != expected).any(axis=1)).tolist()
    for period in mismatched:
        log.warning("%s: period %d simulated (tx=%d, dropped=%d) != walk (tx=%d, dropped=%d)",
                    config.scheme.value, period + 1, *counts[period].tolist(), *expected)
    return not mismatched
