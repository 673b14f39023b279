"""Radio-layer configuration and per-scheme access-delay constants.

The radio is an N-channel grid with one slot per transmission time
interval (TTI).  A latency-critical packet occupies one slot in time and
spreads over as many channels as its resource demand requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .units import NS_PER_S, ceil_div, positive_ns, to_ns, to_s


class SchedulingScheme(Enum):
    """The four uplink grant mechanisms under study."""

    DYNAMIC = "DS"
    SEMI_PERSISTENT = "SPS"
    SOFT_RESERVATION = "SRR"
    FAST_UPLINK = "FA"

    @classmethod
    def parse(cls, name: str) -> "SchedulingScheme":
        key = name.strip().upper()
        for member in cls:
            if key in (member.value, member.name):
                return member
        raise ConfigError(f"unknown scheduling scheme {name!r} (expected one of DS, SPS, SRR, FA)")


@dataclass(frozen=True)
class RadioConfig:
    """Static radio parameters.

    n_channels:          number of frequency channels
    total_rate:          aggregate rate over all channels, bits/s
    tti:                 slot length, seconds
    t_sr:                scheduling-request opportunity period, seconds
    t_pg:                pre-allocated grant period (SPS/SRR), seconds
    haptic_demand_norm:  per-packet resource demand divided by total rate,
                         seconds; zero means no latency-critical load

    tti_ns, t_sr_ns and t_pg_ns (the periods in whole nanoseconds),
    channel_rate and slot_bits (the background bits lost in each slot that
    carries or reserves a latency-critical transmission) are set once the
    checks pass, with the hash of the field tuple: every row of a sweep
    looks the model up in several caches.
    """

    n_channels: int
    total_rate: float
    tti: float
    t_sr: float
    t_pg: float
    haptic_demand_norm: float

    def __post_init__(self):
        problems = []
        if not isinstance(self.n_channels, int) or self.n_channels < 1:
            problems.append(f"radio.n_channels: must be an integer >= 1, got {self.n_channels!r}")
        if not 0 < self.total_rate < math.inf:
            problems.append(f"radio.total_rate: must be > 0 and finite, got {self.total_rate!r}")
        for name in ("tti", "t_sr", "t_pg", "haptic_demand_norm"):
            value = getattr(self, name)
            if name in ("tti", "t_sr") and not positive_ns(value):
                problems.append(f"radio.{name}: must be at least 1 ns, got {value!r}")
            elif not math.isfinite(value * NS_PER_S):  # to_ns could not snap it
                problems.append(f"radio.{name}: must be finite in nanoseconds, got {value!r}")
        if self.tti > 0 and self.t_pg < self.tti:
            problems.append(f"radio.t_pg: must be >= radio.tti, got t_pg={self.t_pg!r}, tti={self.tti!r}")
        if self.haptic_demand_norm < 0:
            problems.append(f"radio.haptic_demand_norm: must be >= 0, got {self.haptic_demand_norm!r}")
        if problems:
            raise ConfigError(problems)
        # plain attributes, as HapticTrafficModel's: a tti sweep builds a model per grid point
        object.__setattr__(self, "tti_ns", to_ns(self.tti))
        object.__setattr__(self, "t_sr_ns", to_ns(self.t_sr))
        object.__setattr__(self, "t_pg_ns", to_ns(self.t_pg))
        object.__setattr__(self, "channel_rate", self.total_rate / self.n_channels)
        # haptic_blocks raises when one packet needs more blocks than there are channels
        object.__setattr__(self, "slot_bits", haptic_blocks(self) * self.channel_rate * self.tti)
        object.__setattr__(self, "_hash", hash((self.n_channels, self.total_rate, self.tti, self.t_sr,
                                                 self.t_pg, self.haptic_demand_norm)))

    def __hash__(self) -> int:
        return self._hash


def haptic_blocks(config: RadioConfig) -> int:
    """Channel blocks one packet occupies within its single slot.

    The demand is spread in frequency, so the block count is the ceiling
    of (N * demand / TTI) and shrinks as the TTI grows.
    """
    demand_ns = to_ns(config.haptic_demand_norm)
    if demand_ns == 0:
        return 0
    m = ceil_div(config.n_channels * demand_ns, config.tti_ns)
    if m > config.n_channels:
        raise ConfigError(
            f"radio: a packet needs {m} channel blocks in one TTI but only "
            f"{config.n_channels} channels exist (demand too large for this TTI)"
        )
    return m


def ds_grant_latency(config: RadioConfig) -> float:
    """Worst-case wait from packet arrival until the grant is in hand under
    dynamic scheduling: SR-opportunity wait plus SR transmission, base-station
    processing and grant transmission, one slot each."""
    return to_s(config.t_sr_ns + 3 * config.tti_ns)


def fa_grant_latency(config: RadioConfig) -> float:
    """Pre-transmission wait under fast uplink access: one slot.  Packets
    spaced at least this far apart are never superseded."""
    return config.tti


def haptic_access_delay(scheme: SchedulingScheme, config: RadioConfig, in_burst: bool = False) -> float:
    """Worst-case radio access delay of one latency-critical packet.

    Dynamic scheduling pays the SR round trip plus six slots of
    transmission/processing; a standing grant pays its period plus four
    slots; fast uplink pays four slots flat.  Soft reservation behaves like
    the standing grant inside a burst and like dynamic scheduling outside.
    """
    tti = config.tti_ns
    if scheme is SchedulingScheme.DYNAMIC:
        return to_s(config.t_sr_ns + 6 * tti)
    if scheme is SchedulingScheme.SEMI_PERSISTENT:
        return to_s(config.t_pg_ns + 4 * tti)
    if scheme is SchedulingScheme.FAST_UPLINK:
        return to_s(4 * tti)
    if scheme is SchedulingScheme.SOFT_RESERVATION:
        if in_burst:
            return to_s(config.t_pg_ns + 4 * tti)
        return to_s(config.t_sr_ns + 6 * tti)
    raise ConfigError(f"unknown scheme {scheme!r}")
