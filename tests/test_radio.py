import re

import pytest

from hapticsched import (
    ConfigError,
    RadioConfig,
    SchedulingScheme,
    ds_grant_latency,
    fa_grant_latency,
    haptic_access_delay,
    haptic_blocks,
)

S = SchedulingScheme


def radio(tti, t_sr=None, t_pg=None, n=10, rate=1e6, demand=1e-4):
    t_sr = tti if t_sr is None else t_sr
    t_pg = 10 * tti if t_pg is None else t_pg
    return RadioConfig(n_channels=n, total_rate=rate, tti=tti, t_sr=t_sr, t_pg=t_pg, haptic_demand_norm=demand)


class TestHapticBlocks:
    def test_one_block_at_millisecond_slot(self):
        # ceil(10 * 1e-4 / 1e-3) = 1 by direct ceiling arithmetic
        assert haptic_blocks(radio(1e-3)) == 1

    def test_eight_blocks_at_eighth_millisecond(self):
        # ceil(10 * 1e-4 / 1.25e-4) = 8
        assert haptic_blocks(radio(0.125e-3)) == 8

    def test_demand_of_exactly_one_channel_slot(self):
        cfg = RadioConfig(1, 1e6, 1e-3, 1e-3, 1e-3, haptic_demand_norm=1e-3)
        assert haptic_blocks(cfg) == 1

    def test_zero_demand_means_zero_blocks(self):
        assert haptic_blocks(radio(0.5e-3, demand=0.0)) == 0

    def test_rejects_demand_exceeding_channels(self):
        with pytest.raises(ConfigError):
            RadioConfig(1, 1e6, 1e-4, 1e-4, 1e-3, haptic_demand_norm=1e-3)

    @pytest.mark.parametrize("tti", [0.125e-3, 0.25e-3, 0.5e-3, 1e-3])
    def test_ceiling_bracketing(self, tti):
        cfg = radio(tti)
        m = haptic_blocks(cfg)
        lo = cfg.n_channels * cfg.haptic_demand_norm
        assert lo <= m * tti < lo + tti + 1e-15

    def test_nonincreasing_in_tti(self):
        ttis = [0.125e-3, 0.2e-3, 0.25e-3, 0.4e-3, 0.5e-3, 1e-3]
        blocks = [haptic_blocks(radio(t)) for t in ttis]
        assert blocks == sorted(blocks, reverse=True)


class TestAccessDelays:
    def test_dynamic_is_seven_slots_when_sr_period_equals_slot(self):
        cfg = radio(0.5e-3)
        assert haptic_access_delay(S.DYNAMIC, cfg) == 7 * 500000 / 1e9 == 3.5e-3

    def test_standing_grant_is_fourteen_slots_at_default_grant_period(self):
        cfg = radio(0.5e-3)
        assert haptic_access_delay(S.SEMI_PERSISTENT, cfg) == 14 * 500000 / 1e9 == 7e-3

    def test_fast_uplink_is_four_slots(self):
        for tti in (0.125e-3, 0.25e-3, 0.5e-3, 1e-3):
            assert haptic_access_delay(S.FAST_UPLINK, radio(tti)) == 4 * round(tti * 1e9) / 1e9

    def test_soft_reservation_switches_with_burst_flag(self):
        cfg = radio(0.5e-3)
        assert haptic_access_delay(S.SOFT_RESERVATION, cfg, in_burst=True) == haptic_access_delay(
            S.SEMI_PERSISTENT, cfg
        )
        assert haptic_access_delay(S.SOFT_RESERVATION, cfg, in_burst=False) == haptic_access_delay(
            S.DYNAMIC, cfg
        )

    def test_burst_flag_ignored_for_other_schemes(self):
        cfg = radio(0.5e-3)
        for scheme in (S.DYNAMIC, S.SEMI_PERSISTENT, S.FAST_UPLINK):
            assert haptic_access_delay(scheme, cfg, in_burst=True) == haptic_access_delay(scheme, cfg)

    @pytest.mark.parametrize("tti", [0.125e-3, 0.25e-3, 0.5e-3, 1e-3])
    def test_ordering_fast_dynamic_standing(self, tti):
        cfg = radio(tti)  # t_pg = 10*tti >= t_sr + 2*tti
        assert (
            haptic_access_delay(S.FAST_UPLINK, cfg)
            <= haptic_access_delay(S.DYNAMIC, cfg)
            <= haptic_access_delay(S.SEMI_PERSISTENT, cfg)
        )


class TestGrantLatencies:
    def test_dynamic_grant_latency_examples(self):
        assert ds_grant_latency(radio(0.5e-3)) == 2.0e-3
        assert ds_grant_latency(radio(1e-3)) == 4.0e-3
        assert ds_grant_latency(radio(0.125e-3)) == 0.5e-3

    def test_fast_grant_latency_is_one_slot(self):
        for tti in (0.125e-3, 0.5e-3, 1e-3):
            assert fa_grant_latency(radio(tti)) == tti


class TestValidation:
    def test_grant_period_below_slot_rejected(self):
        with pytest.raises(ConfigError, match="t_pg"):
            radio(0.5e-3, t_pg=0.1e-3)

    def test_sr_period_below_slot_allowed(self):
        cfg = radio(0.5e-3, t_sr=0.25e-3)
        assert cfg.t_sr == 0.25e-3

    @pytest.mark.parametrize("kw", [dict(tti=1e-10), dict(tti=0.5e-3, t_sr=1e-10), dict(tti=0.5e-9)])
    def test_time_rounding_to_zero_ns_rejected(self, kw):
        # 0.5 ns rounds half to even, to 0 ns
        field = "t_sr" if "t_sr" in kw else "tti"
        with pytest.raises(ConfigError, match=f"radio.{field}: must be at least 1 ns"):
            radio(**kw)

    @pytest.mark.parametrize("value", [1e300, float("nan")])
    @pytest.mark.parametrize("field", ["tti", "t_sr", "t_pg", "haptic_demand_norm"])
    def test_time_without_a_finite_ns_count_rejected(self, field, value):
        # to_ns would raise OverflowError or ValueError; a nan TTI or SR
        # period is already under 1 ns
        kw = dict(n_channels=10, total_rate=1e6, tti=0.5e-3, t_sr=0.5e-3, t_pg=5e-3, haptic_demand_norm=1e-4)
        problem = "must be at least 1 ns" if value != value and field in ("tti", "t_sr") else \
            "must be finite in nanoseconds"
        with pytest.raises(ConfigError, match=re.escape(f"radio.{field}: {problem}, got {value!r}")):
            RadioConfig(**{**kw, field: value})

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match=r"radio.total_rate: must be > 0 and finite"):
            radio(0.5e-3, rate=rate)

    def test_all_violations_reported(self):
        with pytest.raises(ConfigError) as err:
            RadioConfig(0, -1.0, 0.5e-3, 0.5e-3, 5e-3, 1e-4)
        assert len(err.value.problems) == 2

    def test_scheme_parsing(self):
        assert SchedulingScheme.parse("ds") is S.DYNAMIC
        assert SchedulingScheme.parse("SPS") is S.SEMI_PERSISTENT
        with pytest.raises(ConfigError):
            SchedulingScheme.parse("nope")
