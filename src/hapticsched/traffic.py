"""Traffic models: the periodic bursty latency-critical flow and the
compound-Poisson background flow, with the seeded background arrival
timeline drawn from it."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from ._numpy import np
from .errors import ConfigError
from .units import NS_PER_S, ceil_div, positive_ns, to_ns


@dataclass(frozen=True)
class HapticTrafficModel:
    """Periodic bursty arrivals: each period of length t_p opens with a
    burst of duration t_b (spacing t_ib inside it) and continues with
    sparse arrivals every t_nb until the period ends.

    t_p_ns, t_b_ns, t_ib_ns and t_nb_ns hold the four times snapped to
    whole nanoseconds, set once the checks pass, and arrival_counts the
    arrivals of one period, (ceil(t_b / t_ib) in the burst, ceil((t_p -
    t_b) / t_nb) after it), in those nanoseconds.  The hash is that of the
    field tuple, computed once with them.
    """

    t_p: float
    t_b: float
    t_ib: float
    t_nb: float

    def __post_init__(self):
        problems = []
        for name in ("t_p", "t_b", "t_ib", "t_nb"):
            value = getattr(self, name)
            if value > 0 and not positive_ns(value):
                problems.append(f"haptic.{name}: must be at least 1 ns, got {value!r}")
            elif math.isinf(value * NS_PER_S):
                problems.append(f"haptic.{name}: must be finite in nanoseconds, got {value!r}")
        if not (0 < self.t_b < self.t_p):
            problems.append(f"haptic.t_b: must satisfy 0 < t_b < haptic.t_p, got t_b={self.t_b!r}, t_p={self.t_p!r}")
        if not (0 < self.t_ib <= self.t_b):
            problems.append(f"haptic.t_ib: must satisfy 0 < t_ib <= haptic.t_b, got t_ib={self.t_ib!r}, t_b={self.t_b!r}")
        if not (0 < self.t_nb <= self.t_p - self.t_b):
            problems.append(
                f"haptic.t_nb: must satisfy 0 < t_nb <= haptic.t_p - haptic.t_b, "
                f"got t_nb={self.t_nb!r}, t_p - t_b={self.t_p - self.t_b!r}"
            )
        if problems:
            raise ConfigError(problems)
        # plain attributes: a sweep builds a model per grid point and reads
        # all four, which a cached_property's first read makes slower
        object.__setattr__(self, "t_p_ns", to_ns(self.t_p))
        object.__setattr__(self, "t_b_ns", to_ns(self.t_b))
        object.__setattr__(self, "t_ib_ns", to_ns(self.t_ib))
        object.__setattr__(self, "t_nb_ns", to_ns(self.t_nb))
        object.__setattr__(self, "arrival_counts", (ceil_div(self.t_b_ns, self.t_ib_ns),
                                                    ceil_div(self.t_p_ns - self.t_b_ns, self.t_nb_ns)))
        object.__setattr__(self, "_hash", hash((self.t_p, self.t_b, self.t_ib, self.t_nb)))

    def __hash__(self) -> int:
        return self._hash


class SizeDistribution(Enum):
    DETERMINISTIC = "deterministic"
    EXPONENTIAL_MEAN = "exponential_mean"


@dataclass(frozen=True)
class LeftoverTrafficModel:
    """Background traffic: Poisson arrivals at lambda_rate packets/s with
    per-packet size parameter sigma in bits.  The simulator draws either
    fixed sizes of sigma or exponential sizes with mean sigma.  The hash is
    that of the field tuple, computed once."""

    lambda_rate: float
    sigma: float
    size_distribution: SizeDistribution = SizeDistribution.DETERMINISTIC

    def __post_init__(self):
        problems = []
        for name in ("lambda_rate", "sigma"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                problems.append(f"leftover.{name}: must be > 0 and finite, got {value!r}")
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "_hash", hash((self.lambda_rate, self.sigma, self.size_distribution)))

    def __hash__(self) -> int:
        return self._hash


def _check_times(times: np.ndarray, horizon: float, last: float) -> None:
    """A block's checks on its arrival times, which are not empty, after a
    block that ended at last."""
    if times[0] <= last or (times[1:] <= times[:-1]).any():
        raise ValueError("arrival times must be strictly increasing")
    if times[0] < 0 or times[-1] > horizon:
        raise ValueError("arrival times must lie within [0, horizon]")


@dataclass(frozen=True)
class ArrivalTimeline:
    """The seeded background timeline of leftover_arrivals, drawn on demand.
    time_blocks and size_draw each start a fresh draw from the seed, so the
    blocks concatenate to the same times however they fall, and the sizes
    drawn in any pieces concatenate to the same sizes.  times_s and len()
    draw all the times once, for a caller that wants them.

    A timeline is a value: equal (model, horizon_s, seed) give equal
    timelines with the same hash and the same draws, so a caller may key a
    kept draw on it, as the simulator does."""

    model: LeftoverTrafficModel
    horizon_s: float
    seed: int

    @property
    def count_bound(self) -> int:
        """The gaps per chunk of the time draw: ten standard deviations
        above the expected count, so the first chunk all but always
        reaches past the horizon, and this bounds the arrivals."""
        expected = self.model.lambda_rate * self.horizon_s
        return int(expected + 10 * math.sqrt(expected) + 16)

    def time_blocks(self, block: int) -> Iterator[np.ndarray]:
        """The arrival times in order, in blocks of at most block values.

        Gaps are exponential with mean 1/lambda_rate, drawn count_bound at a
        time as standard exponentials scaled in place by the mean: numpy's
        exponential(scale) is scale times a standard exponential, so these
        are its bits.  The first chunk's cumulative sums are the first
        times, and while the last time is within the horizon each further
        chunk adds its own sums to it.  A block draws at most block gaps of
        one chunk and sums them on from the block before, in the order of
        one pass over the chunk; the generator uses up its stream value by
        value, so the times are the same however the blocks fall.  An instant drawn
        twice (a zero gap, or one lost to rounding) is kept once, and each
        block is checked on from the last (see _check_times); one pass over
        the block finds both, and the dedupe and the full check run only
        when it does.
        """
        rng = np.random.default_rng(self.seed)
        mean_gap, chunk, horizon = 1.0 / self.model.lambda_rate, self.count_bound, self.horizon_s
        base = total = 0.0  # the last time of the chunk before, this chunk's gaps summed so far
        drawn, last = 0, -math.inf  # gaps drawn of this chunk, the last time yielded
        while True:
            n = min(block, chunk - drawn)
            times = rng.standard_exponential(n)
            times *= mean_gap
            times[0] += total
            np.cumsum(times, out=times)
            total, drawn = times[-1], drawn + n
            if base:  # adding 0 changes no time of the first chunk
                times += base
            if drawn == chunk:
                base, total, drawn = times[-1], 0.0, 0
            # a cumsum of nonnegative gaps is nondecreasing: the arrivals up
            # to the horizon are a prefix, and a repeated instant is adjacent
            end = int(times.searchsorted(horizon, side="right"))
            times = times[:end]
            # one pass finds a repeated instant and a time out of order
            # alike: without either, a block that starts at 0 or later is
            # strictly increasing from last and, cut at the horizon, within it
            if end and (times[0] <= last or times[0] < 0 or (times[1:] <= times[:-1]).any()):
                times = times[np.concatenate([[times[0] != last], times[1:] != times[:-1]])]
                if len(times):
                    _check_times(times, horizon, last)
            if len(times):
                last = times[-1]
                yield times
            del times  # released before the next block is drawn
            if end < n:
                return

    def size_draw(self) -> Callable[[int], np.ndarray]:
        """A function that draws the next n sizes, in arrival order, of a
        fresh size draw.  Exponential sizes come from a stream of their
        own, SeedSequence(seed).spawn(1)[0], which uses up its values one
        by one, so one draw and a draw in pieces give the same sizes; they
        are standard exponentials scaled in place by sigma, the bits of
        exponential(sigma), as in time_blocks."""
        sigma, rng = float(self.model.sigma), None
        if self.model.size_distribution is SizeDistribution.EXPONENTIAL_MEAN:
            rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(1)[0])

        def draw(n: int) -> np.ndarray:
            if rng is None:
                sizes = np.full(n, sigma)
            else:
                sizes = rng.standard_exponential(n)
                sizes *= sigma
                np.maximum(sizes, np.finfo(float).tiny, out=sizes)
            if (sizes <= 0).any():
                raise ValueError("sizes must be positive")
            return sizes

        return draw

    @cached_property
    def times_s(self) -> np.ndarray:
        return np.concatenate([np.empty(0), *self.time_blocks(self.count_bound)])

    def __len__(self) -> int:
        return len(self.times_s)


def period_arrival_offsets_ns(model: HapticTrafficModel) -> np.ndarray:
    """Arrival instants within one traffic period, in ns from the period start.

    The burst occupies [0, t_b) with spacing t_ib; sparse arrivals run from
    t_b (inclusive) to the period end with spacing t_nb: model.arrival_counts
    of each, counted exactly in integers.  A period whose arrivals no int64
    array can hold raises ConfigError naming haptic.t_p.
    """
    n_b, n_s = model.arrival_counts
    t_ib, t_b, t_nb = model.t_ib_ns, model.t_b_ns, model.t_nb_ns
    try:
        if (n_b + n_s) * 8 > sys.maxsize:
            raise OverflowError
        # stops that are whole multiples of the steps, so that numpy's
        # length, a true division, is each count exactly
        burst = np.arange(0, n_b * t_ib, t_ib, dtype=np.int64)
        sparse = np.arange(t_b, t_b + n_s * t_nb, t_nb, dtype=np.int64)
    except OverflowError:  # more entries than an array holds, or a start or step past int64
        raise ConfigError(f"haptic.t_p: one period of {n_b + n_s:.3g} arrivals over {model.t_p!r} s "
                          f"does not fit an array of int64 nanoseconds") from None
    return np.concatenate([burst, sparse])


def leftover_arrivals(model: LeftoverTrafficModel, horizon: float, seed: int) -> ArrivalTimeline:
    """Seeded Poisson background timeline on [0, horizon].

    Gaps are exponential with mean 1/lambda_rate; sizes follow the model's
    size law, exponential sizes from a stream of their own, so they do not
    depend on how many gaps were drawn.  The same (model, horizon, seed)
    always reproduces the same timeline.  Nothing is drawn yet: the
    timeline draws its times and sizes block by block on demand (see
    ArrivalTimeline.time_blocks).  The simulator calls this once per run
    and keeps the draw of the last short timeline it walked, for the runs
    of the same timeline after it.
    """
    if not 0 < horizon < math.inf:
        raise ConfigError(f"horizon must be > 0 and finite, got {horizon!r}")
    return ArrivalTimeline(model, horizon, seed)
