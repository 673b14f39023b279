"""Traffic models: the periodic bursty latency-critical flow and the
compound-Poisson background flow, plus concrete arrival timelines."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .units import positive_ns, to_ns


@dataclass(frozen=True)
class HapticTrafficModel:
    """Periodic bursty arrivals: each period of length t_p opens with a
    burst of duration t_b (spacing t_ib inside it) and continues with
    sparse arrivals every t_nb until the period ends.
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

    @cached_property
    def t_p_ns(self) -> int:
        return to_ns(self.t_p)

    @cached_property
    def t_b_ns(self) -> int:
        return to_ns(self.t_b)

    @cached_property
    def t_ib_ns(self) -> int:
        return to_ns(self.t_ib)

    @cached_property
    def t_nb_ns(self) -> int:
        return to_ns(self.t_nb)

    @cached_property
    def _period_offsets_ns(self) -> np.ndarray:
        burst = np.arange(0, self.t_b_ns, self.t_ib_ns, dtype=np.int64)
        sparse = np.arange(self.t_b_ns, self.t_p_ns, self.t_nb_ns, dtype=np.int64)
        offsets = np.concatenate([burst, sparse])
        offsets.flags.writeable = False  # shared by every caller of this model
        return offsets


class SizeDistribution(Enum):
    DETERMINISTIC = "deterministic"
    EXPONENTIAL_MEAN = "exponential_mean"


@dataclass(frozen=True)
class LeftoverTrafficModel:
    """Background traffic: Poisson arrivals at lambda_rate packets/s with
    per-packet size parameter sigma in bits.  The simulator draws either
    fixed sizes of sigma or exponential sizes with mean sigma."""

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


def _check_times(times: np.ndarray, horizon: float) -> None:
    """A timeline's checks on its arrival times, which are not empty."""
    if np.any(np.diff(times) <= 0):
        raise ValueError("arrival times must be strictly increasing")
    if times[0] < 0 or times[-1] > horizon:
        raise ValueError("arrival times must lie within [0, horizon]")


@dataclass
class ArrivalTimeline:
    """Ordered (arrival time, size) pairs over a finite horizon."""

    times_s: np.ndarray
    sizes_bits: np.ndarray
    horizon_s: float

    def __post_init__(self):
        self.times_s = np.asarray(self.times_s, dtype=float)
        self.sizes_bits = np.asarray(self.sizes_bits, dtype=float)
        if self.times_s.shape != self.sizes_bits.shape:
            raise ValueError("times and sizes must have matching lengths")
        if len(self.times_s):
            _check_times(self.times_s, self.horizon_s)
            if np.any(self.sizes_bits <= 0):
                raise ValueError("sizes must be positive")

    def __len__(self) -> int:
        return len(self.times_s)


@dataclass
class StreamedTimeline:
    """Ordered arrival times over a finite horizon, their sizes still in the
    generator: next_sizes continues it, so successive draws concatenate to
    the sizes of the matching ArrivalTimeline however they are split."""

    times_s: np.ndarray
    horizon_s: float
    model: LeftoverTrafficModel
    rng: np.random.Generator

    def __post_init__(self):
        self.times_s = np.asarray(self.times_s, dtype=float)
        if len(self.times_s):
            _check_times(self.times_s, self.horizon_s)

    def __len__(self) -> int:
        return len(self.times_s)

    def next_sizes(self, n: int) -> np.ndarray:
        """The sizes of the next n arrivals, in arrival order."""
        sizes = _draw_sizes(self.model, self.rng, n)
        if np.any(sizes <= 0):
            raise ValueError("sizes must be positive")
        return sizes


def period_arrival_offsets_ns(model: HapticTrafficModel) -> np.ndarray:
    """Arrival instants within one traffic period, in ns from the period start.

    The burst occupies [0, t_b) with spacing t_ib; sparse arrivals run from
    t_b (inclusive) to the period end with spacing t_nb.

    The array is built once per model and shared by every call on it, so
    it is read-only: a caller that needs to write takes a copy.
    """
    return model._period_offsets_ns


def _draw_times(model: LeftoverTrafficModel, horizon: float, seed: int) -> tuple[np.ndarray, np.random.Generator]:
    """The arrival times on [0, horizon] and the generator they leave, whose
    stream goes on with the sizes."""
    rng = np.random.default_rng(seed)
    mean_gap = 1.0 / model.lambda_rate
    expected = model.lambda_rate * horizon
    chunk = int(expected + 10 * math.sqrt(expected) + 16)
    gaps = rng.exponential(mean_gap, chunk)
    times = np.cumsum(gaps, out=gaps)
    while len(times) and times[-1] <= horizon:
        more = np.cumsum(rng.exponential(mean_gap, chunk)) + times[-1]
        times = np.concatenate([times, more])
    # a cumsum of nonnegative gaps is nondecreasing: the arrivals up to the
    # horizon are a prefix, and an instant drawn twice (a zero gap, or one
    # lost to rounding) repeats in adjacent entries
    times = times[: np.searchsorted(times, horizon, side="right")]
    repeated = times[1:] == times[:-1]
    if repeated.any():
        times = times[np.concatenate([[True], ~repeated])]
    return times, rng


def _draw_sizes(model: LeftoverTrafficModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """The next n sizes of the model's size law from rng.  An exponential
    draw uses up the stream value by value, so n draws at once and in
    blocks give the same sizes and leave the same state."""
    if model.size_distribution is SizeDistribution.DETERMINISTIC:
        return np.full(n, float(model.sigma))
    sizes = rng.exponential(model.sigma, n)
    np.maximum(sizes, np.finfo(float).tiny, out=sizes)
    return sizes


def leftover_arrivals(model: LeftoverTrafficModel, horizon: float, seed: int, *,
                      stream_sizes: bool = False) -> ArrivalTimeline | StreamedTimeline:
    """Seeded Poisson background timeline on [0, horizon].

    Gaps are exponential with mean 1/lambda_rate; sizes follow the model's
    size law and are drawn after all gaps, from the same generator.  The
    same (model, horizon, seed) always reproduces the same timeline.  With
    stream_sizes, the sizes are left in the generator: the StreamedTimeline
    returned draws them on demand, with the same bytes.
    """
    if horizon <= 0:
        raise ConfigError(f"horizon must be > 0, got {horizon!r}")
    times, rng = _draw_times(model, horizon, seed)
    if stream_sizes:
        return StreamedTimeline(times, horizon, model, rng)
    return ArrivalTimeline(times, _draw_sizes(model, rng, len(times)), horizon)
