import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from hapticsched import (
    ArrivalCurve,
    ConfigError,
    HapticTrafficModel,
    InfeasibleError,
    LeftoverServiceCurve,
    LeftoverTrafficModel,
    RadioConfig,
    SchedulingScheme,
    crossing_time,
    effective_bandwidth,
    horizontal_distance,
    leftover_delay_bound_details,
    max_stable_theta,
)

S = SchedulingScheme
LEFTOVER = LeftoverTrafficModel(4.0, 12000.0)


def radio(tti=0.5e-3, t_pg=None, rate=1e6, demand=1e-4):
    return RadioConfig(10, rate, tti, tti, t_pg or 10 * tti, demand)


def haptic(t_ib=2e-3):
    return HapticTrafficModel(1.0, 0.2, t_ib, 50e-3)


class TestCurveShape:
    def test_value_at_zero_is_the_fixed_charge(self):
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), haptic())
        # 2 blocks * 100 kb/s * 0.5 ms = 100 bits/slot; 40 burst grants + 2 edge slots
        assert curve.value(0.0) == pytest.approx(-4200.0, rel=1e-12)
        assert curve.value(0.0) <= 0

    def test_zero_demand_gives_full_capacity_line(self):
        curve = LeftoverServiceCurve(S.DYNAMIC, radio(demand=0.0), haptic())
        u = np.linspace(0.0, 2.5, 777)
        assert np.array_equal(curve.value(u), 1e6 * u)

    def test_demand_schemes_identical_above_both_gates(self):
        u = np.linspace(0.0, 3.0, 1000)
        ds = LeftoverServiceCurve(S.DYNAMIC, radio(), haptic(2.5e-3)).value(u)
        fa = LeftoverServiceCurve(S.FAST_UPLINK, radio(), haptic(2.5e-3)).value(u)
        assert np.allclose(ds, fa, rtol=1e-12)

    @pytest.mark.parametrize("scheme", list(S))
    def test_never_exceeds_full_capacity(self, scheme):
        curve = LeftoverServiceCurve(scheme, radio(), haptic())
        u = np.linspace(0.0, 5.0, 4001)
        assert np.all(curve.value(u) <= 1e6 * u + 1e-9)

    @pytest.mark.parametrize("scheme", list(S))
    def test_period_shift_additivity(self, scheme):
        curve = LeftoverServiceCurve(scheme, radio(), haptic())
        gain = curve.long_run_rate() * 1.0
        for u in (0.1, 0.37, 0.5, 0.93):
            assert curve.value(u + 1.0) - curve.value(u) == pytest.approx(gain, rel=1e-12)

    def test_soft_reservation_dominates_standing_grant(self):
        # sparse spacing 50 ms above the 5 ms grant period: fewer slots consumed
        srr = LeftoverServiceCurve(S.SOFT_RESERVATION, radio(), haptic())
        sps = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), haptic())
        u = np.linspace(0.0, 4.0, 2001)
        assert np.all(srr.value(u) >= sps.value(u))

    def test_reserved_schemes_independent_of_burst_spacing(self):
        # SPS at any spacing; SRR only where the last burst arrival's grant
        # lands in the same place, here the 200 ms burst end (see below)
        u = np.linspace(0.0, 3.0, 501)
        for scheme, spacings in ((S.SEMI_PERSISTENT, (1e-3, 2e-3, 3e-3, 97e-3)), (S.SOFT_RESERVATION, (1e-3, 2e-3, 3e-3))):
            curves = [LeftoverServiceCurve(scheme, radio(), haptic(t)).value(u) for t in spacings]
            for other in curves[1:]:
                assert np.array_equal(curves[0], other)

    def test_soft_reservation_charges_the_flush_grant_only_past_the_burst(self):
        # at 2 ms the last burst arrival (198 ms) waits for the grant at the
        # 200 ms burst end; at 97 ms it is at 194 ms, served at 195 ms
        flushed = LeftoverServiceCurve(S.SOFT_RESERVATION, radio(), haptic(2e-3))
        inside = LeftoverServiceCurve(S.SOFT_RESERVATION, radio(), haptic(97e-3))
        assert flushed.slots_per_period - inside.slots_per_period == 1
        assert flushed.slots_excess == inside.slots_excess
        assert flushed.period_bits - inside.period_bits == radio().slot_bits


class TestLongRunRate:
    def test_zero_demand_gives_full_rate(self):
        assert LeftoverServiceCurve(S.DYNAMIC, radio(demand=0.0), haptic()).long_run_rate() == 1e6

    def test_standing_grant_rate_matches_secant_slope(self):
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), haptic())
        rate = curve.long_run_rate()
        assert rate == pytest.approx(980000.0, rel=1e-12)
        u = 1000.0
        secant = (curve.value(u + 1.0) - curve.value(u)) / 1.0
        assert secant == pytest.approx(rate, rel=1e-9)

    def test_saturated_configuration_rejected(self):
        # 10 blocks on 10 channels with a grant every slot leaves nothing
        cfg = RadioConfig(10, 1e6, 1e-3, 1e-3, 1e-3, haptic_demand_norm=1e-3)
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, cfg, HapticTrafficModel(1.0, 0.2, 2e-3, 50e-3))
        with pytest.raises(InfeasibleError):
            curve.long_run_rate()

    def test_saturation_message_compares_what_the_check_compares(self):
        # exactly saturated up to rounding: 43 slots per period, one grant per slot
        cfg = RadioConfig(1, 1e4, 0.125e-3, 0.125e-3, 0.125e-3, 1e-4)
        h = HapticTrafficModel(43 * 0.125e-3, 0.125e-3, 0.125e-3, 0.125e-3)
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, cfg, h)
        with pytest.raises(InfeasibleError) as info:
            curve.long_run_rate()
        consumption, total = re.search(r"consumption (\S+) b/s >= total rate (\S+) b/s", str(info.value)).groups()
        assert float(consumption) >= float(total)


class TestMaxStableTheta:
    def test_solution_satisfies_the_rate_equation(self):
        theta = max_stable_theta(LEFTOVER, 0.98e6)
        star = theta / (1 - 1e-9)
        residual = abs(effective_bandwidth(4.0, 12000.0, star) - 0.98e6) / 0.98e6
        assert residual < 1e-9
        assert effective_bandwidth(4.0, 12000.0, theta) < 0.98e6  # strict stability

    def test_monotone_in_service_rate(self):
        t1 = max_stable_theta(LEFTOVER, 0.5e6)
        t2 = max_stable_theta(LEFTOVER, 1.0e6)
        assert t2 > t1

    def test_rate_near_mean_load_gives_tiny_theta(self):
        lam_sigma = 4.0 * 12000.0
        theta = max_stable_theta(LEFTOVER, lam_sigma * 1.0001)
        assert 0 < theta < 1e-7

    def test_infeasible_below_mean_load(self):
        with pytest.raises(InfeasibleError):
            max_stable_theta(LEFTOVER, 4.0 * 12000.0)

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.1, 500.0), sigma=st.floats(1.0, 1e5), ratio=st.floats(0.5, 50.0))
    def test_memoised_calls_repeat_the_bisection_bit_for_bit(self, lam, sigma, ratio):
        leftover = LeftoverTrafficModel(lam, sigma)
        rate = ratio * lam * sigma
        try:
            want = max_stable_theta.__wrapped__(leftover, rate)
        except InfeasibleError as exc:
            for _ in range(2):  # an error is raised afresh, never cached
                with pytest.raises(InfeasibleError) as info:
                    max_stable_theta(leftover, rate)
                assert str(info.value) == str(exc)
            return
        first, again = max_stable_theta(leftover, rate), max_stable_theta(LeftoverTrafficModel(lam, sigma), rate)
        assert first.hex() == want.hex() and again.hex() == want.hex()


class TestCrossingTime:
    def test_zero_level_zero_demand(self):
        curve = LeftoverServiceCurve(S.DYNAMIC, radio(demand=0.0), haptic())
        assert crossing_time(curve, 0.0) == 0.0

    def test_inverse_on_monotone_tail(self):
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), haptic())
        # pick a point deep inside a rising segment, past the last dip at its level
        u0 = 2.5
        x = curve.value(u0)
        assert curve.value(3.0) > x  # the next dip is already above the level
        assert crossing_time(curve, x) == pytest.approx(u0, abs=1e-12)

    def test_level_between_a_dip_and_a_rounded_down_period_multiple(self):
        # 15 * 0.018 rounds to just below the 15th period boundary, where
        # value() still reads the envelope before that period's drop
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), HapticTrafficModel(0.018, 0.006, 2e-3, 4e-3))
        boundary = 15 * curve.t_p
        after = np.nextafter(boundary, 1.0)
        x = curve.value(after) + 1.0
        assert curve.value(boundary) > x
        d0 = crossing_time(curve, x)
        assert d0 == pytest.approx(boundary + 1e-6, abs=1e-9)
        assert d0 > after

    @pytest.mark.parametrize("scheme", list(S))
    def test_defining_property_on_sampled_levels(self, scheme):
        curve = LeftoverServiceCurve(scheme, radio(), haptic())
        for x in (0.0, 150.0, 4200.0, 30000.0, 2.2e6):
            d0 = crossing_time(curve, x)
            ahead = np.linspace(d0, d0 + 3.5, 200001)
            assert np.all(curve.value(ahead) >= x - 1e-6), (scheme, x)
            if d0 > 0:
                before = np.linspace(max(0.0, d0 - 2e-4), d0, 64, endpoint=False)
                assert np.any(curve.value(before) < x + 1e-6), (scheme, x)


class TestDelayBound:
    def test_monotone_in_outage_probability(self):
        d_tight = leftover_delay_bound_details(S.DYNAMIC, radio(), haptic(), LEFTOVER, 1e-5).d0_s
        d_loose = leftover_delay_bound_details(S.DYNAMIC, radio(), haptic(), LEFTOVER, 1e-2).d0_s
        assert d_tight >= d_loose

    def test_demand_schemes_agree_between_gates(self):
        ds = leftover_delay_bound_details(S.DYNAMIC, radio(), haptic(2.5e-3), LEFTOVER, 1e-5).d0_s
        fa = leftover_delay_bound_details(S.FAST_UPLINK, radio(), haptic(2.5e-3), LEFTOVER, 1e-5).d0_s
        assert ds == fa

    def test_antitone_in_demand(self):
        bounds = [
            leftover_delay_bound_details(S.DYNAMIC, radio(demand=d), haptic(), LEFTOVER, 1e-5).d0_s
            for d in (0.5e-4, 1e-4, 2e-4)
        ]
        assert bounds == sorted(bounds)

    def test_near_certain_outage_approaches_zero_level_crossing(self):
        curve = LeftoverServiceCurve(S.DYNAMIC, radio(), haptic())
        d = leftover_delay_bound_details(S.DYNAMIC, radio(), haptic(), LEFTOVER, 1 - 1e-12).d0_s
        assert d == pytest.approx(crossing_time(curve, 0.0), rel=1e-6)

    def test_infeasible_load_propagates(self):
        heavy = LeftoverTrafficModel(4.0, 5e5)
        with pytest.raises(InfeasibleError):
            leftover_delay_bound_details(S.DYNAMIC, radio(), haptic(), heavy, 1e-5)

    def test_epsilon_validation(self):
        with pytest.raises(ConfigError):
            leftover_delay_bound_details(S.DYNAMIC, radio(), haptic(), LEFTOVER, 0.0)


class TestHorizontalDistance:
    def test_no_arrivals_collapses_to_crossing_time(self):
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), haptic())
        idle = ArrivalCurve(theta=1e-4, lambda_rate=0.0, sigma=12000.0)
        assert horizontal_distance(idle, 4200.0, curve, 3.5) == crossing_time(curve, 4200.0)

    def test_never_below_crossing_time(self):
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), haptic())
        theta = max_stable_theta(LEFTOVER, curve.long_run_rate())
        loaded = ArrivalCurve(theta=theta, lambda_rate=4.0, sigma=12000.0)
        for x in (0.0, 4200.0, 20000.0):
            assert horizontal_distance(loaded, x, curve, 3.5) >= crossing_time(curve, x)

    def test_matches_brute_force_on_small_instance(self):
        # one channel fully claimed by each packet, short periods
        cfg = RadioConfig(1, 1e5, 0.5e-3, 0.5e-3, 2e-3, haptic_demand_norm=0.5e-3)
        h = HapticTrafficModel(t_p=10e-3, t_b=2e-3, t_ib=1e-3, t_nb=4e-3)
        curve = LeftoverServiceCurve(S.DYNAMIC, cfg, h)
        rate = 0.5 * curve.long_run_rate()
        lam = rate / (math.expm1(1e-4 * 1200.0) / 1e-4)
        arrival = ArrivalCurve(theta=1e-4, lambda_rate=lam, sigma=1200.0)
        horizon = 5 * h.t_p
        got = horizontal_distance(arrival, 0.0, curve, horizon)

        # oracle: dense sup-inf scan at 10x finer resolution
        fine = cfg.tti / 40.0
        scan = np.arange(0.0, horizon + 6 * h.t_p, fine)
        beta = curve.value(scan)
        alpha_rate = arrival.rate()
        best = 0.0
        for tau in np.arange(0.0, horizon, fine):
            level = alpha_rate * tau
            below = np.nonzero(beta < level)[0]
            d = scan[below[-1]] + fine if len(below) else 0.0
            best = max(best, max(0.0, d - tau))
        assert abs(got - best) <= cfg.tti / 4.0 + 1e-12

    def test_overload_rejected(self):
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), haptic())
        hot = ArrivalCurve(theta=1e-3, lambda_rate=4.0, sigma=12000.0)
        assert hot.rate() > curve.long_run_rate()
        with pytest.raises(InfeasibleError):
            horizontal_distance(hot, 0.0, curve, 3.5)

    def test_level_on_a_period_dip_jumps_at_window_start(self):
        # x sits exactly on the first dip, so every later window start moves
        # the inversion one period out: the supremum is the right limit t_p
        # at tau = 0+, above h(0)
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, radio(), haptic())
        x = curve.value(1.0)
        assert x == 975800.0
        theta = max_stable_theta(LEFTOVER, curve.long_run_rate())
        loaded = ArrivalCurve(theta=theta, lambda_rate=4.0, sigma=12000.0)
        assert crossing_time(curve, x) == pytest.approx(0.98, abs=1e-12)
        assert horizontal_distance(loaded, x, curve, 3.5) == 1.0

    def test_stable_input_with_a_late_grid_maximum(self):
        # stable load whose supremum sits in the first period, while a
        # quarter-slot scan of window starts samples a jump past
        # 0.8 * horizon closer to its right limit than the first one
        cfg = RadioConfig(10, 1e6, 1e-3, 1e-3, 10e-3, 1e-4)
        h = HapticTrafficModel(t_p=0.05, t_b=0.0162, t_ib=2e-3, t_nb=0.01)
        curve = LeftoverServiceCurve(S.SEMI_PERSISTENT, cfg, h)
        background = LeftoverTrafficModel(24.11, 1200.0)
        theta = max_stable_theta(background, curve.long_run_rate())
        arrival = ArrivalCurve(theta, background.lambda_rate, background.sigma)
        got = horizontal_distance(arrival, 11292.2, curve, 0.2384)
        assert got == pytest.approx(0.0117093, abs=1e-7)
        d0 = crossing_time(curve, 11292.2)
        assert d0 == pytest.approx(0.0115922, abs=1e-7)
        assert got > d0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_supremum_brackets_a_quarter_slot_grid(self, data):
        draw = data.draw
        tti = draw(st.sampled_from([0.125e-3, 0.25e-3, 0.5e-3, 1e-3]))
        n_channels = draw(st.integers(1, 20))
        cfg = RadioConfig(
            n_channels,
            draw(st.floats(1e4, 1e7)),
            tti,
            tti * draw(st.integers(1, 4)),
            tti * draw(st.integers(1, 20)),
            draw(st.floats(0.0, tti)),
        )
        t_p = tti * draw(st.integers(4, 100))
        t_b = t_p * draw(st.floats(0.05, 0.9))
        h = HapticTrafficModel(
            t_p, t_b, t_b * draw(st.floats(0.01, 1.0)), (t_p - t_b) * draw(st.floats(0.01, 1.0))
        )
        curve = LeftoverServiceCurve(draw(st.sampled_from(list(S))), cfg, h)
        try:
            lrr = curve.long_run_rate()
        except InfeasibleError:
            reject()
        sigma = draw(st.floats(100.0, 20000.0))
        theta = 1e-4 / sigma
        load = draw(st.floats(0.0, 1.0 - 1e-9))
        arrival = ArrivalCurve(theta, load * lrr * theta / math.expm1(theta * sigma), sigma)
        assume(arrival.rate() < lrr)
        x = draw(st.floats(0.0, 5.0 * lrr * t_p))
        horizon = t_p * draw(st.integers(2, 3))

        # oracle: the inner inversion at every window start on a quarter-slot
        # grid plus every period breakpoint, clamped at zero
        step = tti / 4.0
        taus = np.unique(
            np.concatenate([np.arange(0.0, horizon, step), np.arange(0.0, horizon, t_p), [horizon]])
        )
        rate = arrival.rate()
        grid = max(max(0.0, crossing_time(curve, rate * tau + x) - tau) for tau in taus)

        exact = horizontal_distance(arrival, x, curve, horizon)
        # float rounding in crossing_time, which grows with the result's
        # magnitude (near-saturated draws give bounds of 1e13 s)
        tol = 1e-12 + 1e-14 * grid
        # the next grid point after the maximiser lies at most one step later,
        # where the gap has fallen by at most step * (1 - rate / C)
        assert -tol <= exact - grid <= step * (1.0 - rate / cfg.total_rate) + tol
