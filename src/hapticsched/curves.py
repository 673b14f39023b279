"""Stochastic service/arrival envelopes for the background traffic and the
delay bound built from them.

The leftover service envelope is piecewise linear in the window length u:
it rises at the full rate C and, at every whole traffic period inside the
window, loses the capacity of the slots the latency-critical flow claims in
that period.  A fixed allowance for one excess burst plus two edge slots is
subtracted throughout, and the positive-part clamp is deliberately omitted,
so the envelope may be negative for small u.  Every inversion is done
conservatively: it returns the first instant after which the envelope never
dips below the requested level again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._numpy import np
from .errors import ConfigError, InfeasibleError
from .radio import RadioConfig, SchedulingScheme
from .scheduling import period_counts
from .traffic import HapticTrafficModel, LeftoverTrafficModel


@dataclass
class ArrivalCurve:
    """Linear envelope of the compound-Poisson background flow for a given
    tail-decay parameter theta, with violation bound exp(-theta * x)."""

    theta: float
    lambda_rate: float
    sigma: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ConfigError(f"theta must be > 0, got {self.theta!r}")
        if self.lambda_rate < 0 or self.sigma <= 0:
            raise ConfigError("lambda_rate must be >= 0 and sigma > 0")

    def rate(self) -> float:
        """Equivalent rate of the flow at this theta, bits/s.  Decreases to
        lambda * sigma as theta approaches zero."""
        return effective_bandwidth(self.lambda_rate, self.sigma, self.theta)


def effective_bandwidth(lambda_rate: float, sigma: float, theta: float) -> float:
    """lambda * (e^(theta sigma) - 1) / theta, bits/s; infinite where
    e^(theta sigma) overflows, which is above any finite rate."""
    try:
        return lambda_rate * math.expm1(theta * sigma) / theta
    except OverflowError:
        return math.inf


class LeftoverServiceCurve:
    """Leftover service envelope of one scheme, with its occupancy counters.

    slots_per_period is the per-period slot consumption charged inside the
    window; slots_excess is the extra one-burst allowance charged once.
    Both come from scheduling.period_counts, its slots and its excess.
    """

    def __init__(self, scheme: SchedulingScheme, radio: RadioConfig, haptic: HapticTrafficModel):
        self.scheme = scheme
        self.radio = radio
        _, _, self.slots_per_period, self.slots_excess = period_counts(scheme, radio, haptic)
        # bits lost per claimed slot, and the two fixed charges
        slot_bits = radio.slot_bits
        self.period_bits = slot_bits * self.slots_per_period
        self.offset_bits = slot_bits * (self.slots_excess + 2)
        self.t_p = haptic.t_p

    def value(self, u):
        """Envelope at window length u seconds, in bits (no positive-part
        clamp; may be negative for small u)."""
        u_arr = np.asarray(u, dtype=float)
        n_p = np.floor(u_arr / self.t_p)
        out = self.radio.total_rate * u_arr - self.period_bits * n_p - self.offset_bits
        return float(out) if np.isscalar(u) or out.ndim == 0 else out

    def dip(self, k: int) -> float:
        """Envelope at the k-th period boundary, just after its drop: the
        lowest value on [k * t_p, inf).  value(k * t_p) can miss the drop
        when k * t_p rounds to just below the boundary (15 * 0.018 does),
        so the k periods are counted here instead of floored from u."""
        return self.radio.total_rate * (k * self.t_p) - self.period_bits * k - self.offset_bits

    def long_run_rate(self) -> float:
        """Asymptotic slope of the envelope, bits/s.  This is the correct
        stability rate: the per-period charge grows linearly with the
        window, so it must be netted off the full rate."""
        consumption = self.period_bits / self.t_p
        rate = self.radio.total_rate - consumption
        if rate <= 0:
            raise InfeasibleError(
                f"{self.scheme.value}: latency-critical load saturates capacity "
                f"(consumption {consumption!r} b/s >= total rate {self.radio.total_rate!r} b/s)"
            )
        return rate


@functools.lru_cache(maxsize=1024)
def max_stable_theta(leftover: LeftoverTrafficModel, service_rate: float) -> float:
    """Largest tail-decay parameter that keeps the flow's equivalent rate
    below the service rate.

    Solved by bisection to 1e-12 relative width, then backed off by 1e-9 so
    the stability inequality stays strict.  Results are memoised, because a
    sweep asks for the same (leftover, service_rate) pair many times; an
    InfeasibleError is not cached and is raised afresh on each call.
    """
    lam, sig = leftover.lambda_rate, leftover.sigma
    if service_rate <= lam * sig:
        raise InfeasibleError(
            f"service rate {service_rate!r} b/s cannot carry the background load "
            f"(mean rate {lam * sig!r} b/s)"
        )
    hi = 1.0 / sig
    while effective_bandwidth(lam, sig, hi) < service_rate:
        hi *= 2.0
    lo = 0.0
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if effective_bandwidth(lam, sig, mid) < service_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * (1.0 - 1e-9)


def _first_dip_at_or_above(curve: LeftoverServiceCurve, bits: float) -> int:
    """Smallest k with curve.dip(k) >= bits.  Dips rise by
    long_run_rate * t_p per period, so every later dip clears bits too."""
    gain = curve.long_run_rate() * curve.t_p
    k = max(0, math.ceil((bits + curve.offset_bits) / gain))
    while curve.dip(k) < bits:
        k += 1
    while k > 0 and curve.dip(k - 1) >= bits:
        k -= 1
    return k


def crossing_time(curve: LeftoverServiceCurve, bits: float) -> float:
    """Conservative inversion: the earliest time after which the envelope
    stays at or above the requested level.

    The envelope dips at every period boundary, but consecutive dips rise
    by long_run_rate * t_p, so only the first period whose dip clears the
    level has to be found; the crossing then lies on the rising segment
    just before it.
    """
    if bits < 0:
        raise ConfigError(f"level must be >= 0, got {bits!r}")
    c = curve.radio.total_rate
    if curve.period_bits == 0:
        # no per-period loss: straight line through -offset
        return (bits + curve.offset_bits) / c
    k = _first_dip_at_or_above(curve, bits)
    if k == 0:
        return 0.0
    return (k - 1) * curve.t_p + (bits - curve.dip(k - 1)) / c


@dataclass
class DelayBoundResult:
    """Full bound computation for one scheme and outage target."""

    theta: float
    x_bits: float
    d0_s: float
    long_run_rate_bps: float


def leftover_delay_bound_details(
    scheme: SchedulingScheme,
    radio: RadioConfig,
    haptic: HapticTrafficModel,
    leftover: LeftoverTrafficModel,
    epsilon: float,
) -> DelayBoundResult:
    """Delay bound for the background traffic with outage target epsilon:
    the level x at which the tail bound exp(-theta * x) equals epsilon, and
    the time the envelope takes to clear it."""
    if not (0 < epsilon < 1):
        raise ConfigError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if not math.isfinite(1.0 / epsilon):
        raise ConfigError(f"1/epsilon must be finite, got {epsilon!r}")
    curve = LeftoverServiceCurve(scheme, radio, haptic)
    rate = curve.long_run_rate()
    theta = max_stable_theta(leftover, rate)
    x = math.log(1.0 / epsilon) / theta
    d0 = crossing_time(curve, x)
    return DelayBoundResult(theta, x, d0, rate)


def horizontal_distance(arrival: ArrivalCurve, x: float, curve: LeftoverServiceCurve, horizon: float) -> float:
    """Rigorous-mode bound: the largest horizontal gap between the arrival
    envelope lifted by x and the service envelope, computed exactly in O(1).

    The gap for a window starting at tau is
    h(tau) = crossing_time(curve, rate * tau + x) - tau.  While the
    conservative inversion stays on one rising segment, h falls with slope
    rate / C - 1 < 0.  It jumps up only where the level passes the dip at
    the end of that segment, curve.dip(k), at
    tau_k = (curve.dip(k) - x) / rate, with right limit k * t_p - tau_k,
    and these right limits shrink as k grows because the dips rise by
    long_run_rate * t_p > rate * t_p per period.  So the supremum is the
    larger of h(0) = crossing_time(curve, x) and the right limit at the
    first jump with tau_k >= 0.  It is attained within one traffic period,
    so horizon is only validated, not scanned.
    """
    if horizon < 2 * curve.t_p:
        raise ConfigError(f"horizon must span several traffic periods, got {horizon!r}")
    rate = arrival.rate()
    lrr = curve.long_run_rate()
    if rate >= lrr:
        raise InfeasibleError(
            f"arrival envelope rate {rate!r} b/s is not below the leftover long-run rate {lrr!r} b/s"
        )
    best = crossing_time(curve, x)
    if rate > 0 and curve.period_bits > 0:
        # the dip crossing_time(curve, x) climbs to; found by the same
        # comparisons, so rounding cannot skip a jump at tau = 0
        k = _first_dip_at_or_above(curve, x)
        tau = (curve.dip(k) - x) / rate
        best = max(best, k * curve.t_p - tau)
    return best
