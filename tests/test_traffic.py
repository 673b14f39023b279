import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from hapticsched import (
    ArrivalTimeline,
    ConfigError,
    HapticTrafficModel,
    LeftoverTrafficModel,
    SizeDistribution,
    leftover_arrivals,
)
from hapticsched.simulate import _BLOCK
from hapticsched.traffic import _check_times, period_arrival_offsets_ns

TABLE = dict(t_p=1.0, t_b=0.2, t_ib=2e-3, t_nb=50e-3)


def enumerate_expected(model):
    """Independent oracle: one period's arrival offsets in ns, built with
    plain while-loops."""
    times = []
    t = 0
    while t < model.t_b_ns:
        times.append(t)
        t += model.t_ib_ns
    t = model.t_b_ns
    while t < model.t_p_ns:
        times.append(t)
        t += model.t_nb_ns
    return times


def burst_and_sparse(model):
    offs = period_arrival_offsets_ns(model)
    n_burst = int(np.searchsorted(offs, model.t_b_ns))
    return n_burst, len(offs) - n_burst


class TestHapticArrivals:
    def test_one_period_counts(self):
        model = HapticTrafficModel(**TABLE)
        offs = period_arrival_offsets_ns(model)
        assert len(offs) == 116  # 100 burst + 16 sparse, from the enumeration oracle
        assert offs.tolist() == enumerate_expected(model)

    def test_single_arrival_burst(self):
        model = HapticTrafficModel(t_p=1.0, t_b=0.2, t_ib=0.2, t_nb=50e-3)
        offs = period_arrival_offsets_ns(model)
        assert offs[offs < model.t_b_ns].tolist() == [0]

    def test_partial_horizon(self):
        # the first 0.1 s of a period holds 50 burst arrivals
        offs = period_arrival_offsets_ns(HapticTrafficModel(**TABLE))
        assert np.searchsorted(offs, 100_000_000) == 50

    def test_invariant_non_integral_spacings_bounded(self):
        # ceil-vs-floor slack: at most two more arrivals than the floor counts
        model = HapticTrafficModel(t_p=1.0, t_b=0.2, t_ib=2.3e-3, t_nb=49e-3)
        floor = model.t_b_ns // model.t_ib_ns + (model.t_p_ns - model.t_b_ns) // model.t_nb_ns
        offs = period_arrival_offsets_ns(model)
        assert floor <= len(offs) <= floor + 2
        assert offs.tolist() == enumerate_expected(model)


class TestOffsetsConstruction:
    @settings(max_examples=200, deadline=None)
    @given(
        t_p=st.integers(2, 10**7),
        burst=st.floats(0.01, 0.99),
        spacings=st.tuples(st.floats(0.001, 1.0), st.floats(0.001, 1.0)),
    )
    def test_equal_to_the_arange_construction(self, t_p, burst, spacings):
        t_b = min(max(1, round(t_p * burst)), t_p - 1)
        t_ib = max(1, round(t_b * spacings[0]))
        t_nb = max(1, round((t_p - t_b) * spacings[1]))
        try:
            model = HapticTrafficModel(t_p / 1e9, t_b / 1e9, t_ib / 1e9, t_nb / 1e9)
        except ConfigError:  # float rounding of t_p - t_b against t_nb
            reject()
        offs = period_arrival_offsets_ns(model)
        expected = np.concatenate([np.arange(0, model.t_b_ns, model.t_ib_ns, dtype=np.int64),
                                   np.arange(model.t_b_ns, model.t_p_ns, model.t_nb_ns, dtype=np.int64)])
        assert offs.dtype == expected.dtype
        assert np.array_equal(offs, expected)


class TestArrivalCounts:
    @pytest.mark.parametrize("model", [
        HapticTrafficModel(**TABLE),
        HapticTrafficModel(t_p=1.0, t_b=0.2, t_ib=2.3e-3, t_nb=49e-3),
        # 1001 burst arrivals: t_b = 1000 t_ib + 24 ns, a quotient the float
        # length of numpy's arange(0, t_b, t_ib) rounds down to 1000
        HapticTrafficModel(t_p=9e9, t_b=8000000000.000001, t_ib=8000000.000000001, t_nb=9e9 - 8000000000.000001),
    ])
    def test_counts_are_the_runs_of_the_offsets(self, model):
        assert burst_and_sparse(model) == model.arrival_counts
        assert period_arrival_offsets_ns(model).tolist() == enumerate_expected(model)

    @pytest.mark.parametrize("t_p, t_nb, count", [(1e200, 50e-3, "2e+201"), (1e11, 1e10, "110")])
    def test_a_period_past_an_int64_array_refused(self, t_p, t_nb, count):
        """Too many arrivals for any array, or a step past int64."""
        model = HapticTrafficModel(t_p=t_p, t_b=0.2, t_ib=2e-3, t_nb=t_nb)
        with pytest.raises(ConfigError) as info:
            period_arrival_offsets_ns(model)
        assert str(info.value) == (f"haptic.t_p: one period of {count} arrivals over {t_p!r} s "
                                   "does not fit an array of int64 nanoseconds")


class TestCounters:
    def test_table_defaults(self):
        assert burst_and_sparse(HapticTrafficModel(**TABLE)) == (100, 16)

    def test_faster_burst_spacing(self):
        model = HapticTrafficModel(t_p=1.0, t_b=0.2, t_ib=1e-3, t_nb=50e-3)
        assert burst_and_sparse(model)[0] == 200
        r = [burst_and_sparse(HapticTrafficModel(t_p=1.0, t_b=0.2, t_ib=t, t_nb=50e-3))[0]
             for t in (1e-3, 1.5e-3, 2e-3, 3e-3)]
        assert r == sorted(r, reverse=True)


class TestLeftoverArrivals:
    def test_reproducible_byte_for_byte(self):
        model = LeftoverTrafficModel(4.0, 12000.0)
        a = leftover_arrivals(model, 200.0, seed=9)
        b = leftover_arrivals(model, 200.0, seed=9)
        assert a.times_s.tobytes() == b.times_s.tobytes()
        assert a.size_draw()(len(a)).tobytes() == b.size_draw()(len(b)).tobytes()
        c = leftover_arrivals(model, 200.0, seed=10)
        assert len(c) == 0 or not np.array_equal(a.times_s, c.times_s)

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_poisson_count_scale(self, seed):
        model = LeftoverTrafficModel(4.0, 12000.0)
        tl = leftover_arrivals(model, 1000.0, seed=seed)
        assert abs(len(tl) - 4000) <= 5 * math.sqrt(4000)

    def test_deterministic_sizes_give_mean_rate(self):
        # 4 packets/s of 12000 bits each carry 48 kbit/s on average
        model = LeftoverTrafficModel(4.0, 12000.0, SizeDistribution.DETERMINISTIC)
        tl = leftover_arrivals(model, 1000.0, seed=3)
        sizes = tl.size_draw()(len(tl))
        assert np.all(sizes == 12000.0)
        rate = sizes.sum() / 1000.0
        assert abs(rate - 48000.0) <= 5 * math.sqrt(4000) * 12.0

    def test_exponential_sizes_have_requested_mean(self):
        model = LeftoverTrafficModel(4.0, 12000.0, SizeDistribution.EXPONENTIAL_MEAN)
        tl = leftover_arrivals(model, 5000.0, seed=3)
        assert abs(tl.size_draw()(len(tl)).mean() - 12000.0) < 12000.0 * 0.05

    def test_tiny_horizon_is_empty(self):
        model = LeftoverTrafficModel(4.0, 12000.0)
        assert len(leftover_arrivals(model, 1e-9, seed=1)) == 0

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0])
    def test_rejects_a_horizon_not_positive_and_finite(self, horizon):
        with pytest.raises(ConfigError, match=f"horizon must be > 0 and finite, got {horizon!r}"):
            leftover_arrivals(LeftoverTrafficModel(4.0, 12000.0), horizon, seed=1)


_default_rng = np.random.default_rng


def unique_reference(model, horizon, seed):
    """Background timeline built as it was before the prefix slice: keep the
    times up to the horizon, then np.unique (a full sort)."""
    rng = np.random.default_rng(seed)
    mean_gap = 1.0 / model.lambda_rate
    expected = model.lambda_rate * horizon
    chunk = int(expected + 10 * math.sqrt(expected) + 16)
    times = np.cumsum(rng.exponential(mean_gap, chunk))
    while len(times) and times[-1] <= horizon:
        more = np.cumsum(rng.exponential(mean_gap, chunk)) + times[-1]
        times = np.concatenate([times, more])
    times = np.unique(times[times <= horizon])
    if model.size_distribution is SizeDistribution.DETERMINISTIC:
        sizes = np.full(len(times), float(model.sigma))
    else:  # from a stream of their own
        size_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        sizes = np.maximum(size_rng.exponential(model.sigma, len(times)), np.finfo(float).tiny)
    return times, sizes


class ZeroingGenerator:
    """A seeded generator whose exponential draws, standard or scaled, are
    zero at every every-th position of its stream: a zero gap repeats an
    arrival instant.  As in a real generator, n draws at once and in blocks
    give the same values, and a scaled draw is scale times a standard one."""

    def __init__(self, seed, every):
        self._rng = _default_rng(seed)
        self._every = every
        self._drawn = 0

    def _zeroed(self, out):
        out[-self._drawn % self._every :: self._every] = 0.0
        self._drawn += len(out)
        return out

    def standard_exponential(self, size):
        return self._zeroed(self._rng.standard_exponential(size))

    def exponential(self, scale, size):
        return self._zeroed(self._rng.exponential(scale, size))


class GivenGaps:
    """A generator whose standard exponential draws, scaled by the mean gap
    of a timeline at 4 packets/s, are the given gaps in turn, then gaps of
    10 s.  The mean gap is 1/4, a power of two, so the scaling is exact."""

    mean_gap = 0.25

    def __init__(self, gaps):
        self._gaps = list(gaps)

    def standard_exponential(self, size):
        out = np.full(size, 10.0)
        head, self._gaps = self._gaps[:size], self._gaps[size:]
        out[:len(head)] = head
        return out / self.mean_gap


class Recording:
    """A seeded generator that records the size of each standard
    exponential draw."""

    def __init__(self, seed):
        self._rng = _default_rng(seed)
        self.sizes = []

    def standard_exponential(self, size):
        self.sizes.append(size)
        return self._rng.standard_exponential(size)


class EvenGaps:
    """A generator whose exponential draws, standard or scaled, are all
    their mean."""

    def __init__(self, seed):
        pass

    def standard_exponential(self, size):
        return np.ones(size)

    def exponential(self, scale, size):
        return np.full(size, scale)


class TestScaledStandardDrawEqualsExponential:
    """The timeline draws its gaps and sizes as standard exponentials scaled
    in place; for the installed numpy these must be the bits of
    exponential(scale, n), drawn whole or in blocks, and leave the stream
    where that draw leaves it."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, 300.0).map(lambda lam: 1.0 / lam) | st.floats(1.0, 1e5),
        blocks=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
    )
    @example(seed=1, scale=0.25, blocks=[_BLOCK, 1, 7])
    def test_same_bytes(self, seed, scale, blocks):
        whole, scaled = _default_rng(seed), _default_rng(seed)
        want = whole.exponential(scale, sum(blocks))
        got = []
        for n in blocks:
            draw = scaled.standard_exponential(n)
            draw *= scale
            got.append(draw)
        assert np.concatenate(got).tobytes() == want.tobytes()
        assert scaled.bit_generator.state == whole.bit_generator.state


class TestLeftoverArrivalsEqualUniqueReference:
    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.5, 300.0),
        sigma=st.floats(1.0, 1e5),
        law=st.sampled_from(list(SizeDistribution)),
        horizon=st.floats(0.01, 30.0),
        seed=st.integers(0, 2**32 - 1),
        zero_every=st.none() | st.integers(2, 6),
    )
    @example(lam=4.0, sigma=12000.0, law=SizeDistribution.EXPONENTIAL_MEAN, horizon=200.0, seed=9, zero_every=2)
    def test_same_bytes(self, lam, sigma, law, horizon, seed, zero_every):
        model = LeftoverTrafficModel(lam, sigma, law)
        factory = _default_rng if zero_every is None else (lambda s: ZeroingGenerator(s, zero_every))
        with mock.patch.object(np.random, "default_rng", factory):
            got = leftover_arrivals(model, horizon, seed)
            times, sizes = unique_reference(model, horizon, seed)
            got_sizes = got.size_draw()(len(got))
            assert got.times_s.tobytes() == times.tobytes()
        assert got_sizes.tobytes() == sizes.tobytes()
        assert got.horizon_s == horizon


    def test_arrival_on_the_horizon_is_kept(self):
        # gaps of exactly 1/4 s put the 200th arrival on the 50 s horizon
        model = LeftoverTrafficModel(4.0, 12000.0)
        with mock.patch.object(np.random, "default_rng", EvenGaps):
            got = leftover_arrivals(model, 50.0, seed=1).times_s
            times, _ = unique_reference(model, 50.0, seed=1)
        assert got[-1] == 50.0 and len(got) == 200
        assert got.tobytes() == times.tobytes()


def generator(rng):
    """A default_rng stand-in: the real one, even gaps, or every rng-th value zero."""
    return {"default": _default_rng, "even": EvenGaps}.get(rng) or (lambda s: ZeroingGenerator(s, rng))


class TestStreamedTimelineEqualsWholeDraw:
    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.5, 300.0),
        sigma=st.floats(1.0, 1e5),
        law=st.sampled_from(list(SizeDistribution)),
        horizon=st.floats(0.01, 30.0),
        seed=st.integers(0, 2**32 - 1),
        rng=st.sampled_from(["default", "even"]) | st.integers(2, 6),
        block=st.sampled_from([1, 2, 7, _BLOCK]),
    )
    # every other gap zero: the first chunk of gaps falls short of the
    # horizon, so the times take the extension-chunk path
    @example(lam=4.0, sigma=12000.0, law=SizeDistribution.EXPONENTIAL_MEAN, horizon=200.0, seed=9, rng=2, block=7)
    def test_blocks_concatenate_to_the_whole_draw(self, lam, sigma, law, horizon, seed, rng, block):
        model = LeftoverTrafficModel(lam, sigma, law)
        with mock.patch.object(np.random, "default_rng", generator(rng)):
            times, sizes = unique_reference(model, horizon, seed)
            tl = leftover_arrivals(model, horizon, seed)
            assert isinstance(tl, ArrivalTimeline) and tl.horizon_s == horizon
            blocks = list(tl.time_blocks(block))
            draw = tl.size_draw()
            drawn = [draw(len(b)) for b in blocks]
            assert len(tl) == len(times) and tl.times_s.tobytes() == times.tobytes()
        assert all(0 < len(b) <= block for b in blocks)
        assert np.concatenate([np.empty(0), *blocks]).tobytes() == times.tobytes()
        assert np.concatenate([np.empty(0), *drawn]).tobytes() == sizes.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 7, _BLOCK])
    def test_blocks_on_the_extension_chunk_path(self, block):
        # every other gap zero: 1,099 gaps per chunk, of mean 1/4 s, sum to
        # about 137 s against a 200 s horizon
        model = LeftoverTrafficModel(4.0, 12000.0)
        tl = leftover_arrivals(model, 200.0, 9)
        made = []
        with mock.patch.object(np.random, "default_rng", lambda s: made.append(ZeroingGenerator(s, 2)) or made[-1]):
            times, _ = unique_reference(model, 200.0, 9)
            blocks = list(tl.time_blocks(block))
        assert [rng._drawn > tl.count_bound for rng in made] == [True, True]
        assert np.concatenate(blocks).tobytes() == times.tobytes()

    @pytest.mark.parametrize("lam, horizon, first", [(4.0, 50.0, 357), (300.0, 2000.0, _BLOCK)])
    def test_the_first_draw_is_at_most_the_bound(self, lam, horizon, first):
        # 4/s over 50 s: 200 expected arrivals, a bound of 200 + 10 sqrt(200) + 16
        tl = leftover_arrivals(LeftoverTrafficModel(lam, 1200.0), horizon, 1)
        made = []
        with mock.patch.object(np.random, "default_rng", lambda s: made.append(Recording(s)) or made[-1]):
            next(tl.time_blocks(_BLOCK))
        assert made[0].sizes == [first]

    def test_a_size_stream_only_for_exponential_sizes(self):
        tl = leftover_arrivals(LeftoverTrafficModel(4.0, 12000.0), 20.0, 1)
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("built")):
            assert tl.size_draw()(3).tolist() == [12000.0] * 3

    def test_a_repeated_instant_across_two_blocks_is_dropped(self):
        # every other gap zero from the first: blocks of two gaps each start
        # on a zero gap, which repeats the last instant of the block before
        model = LeftoverTrafficModel(4.0, 12000.0)
        with mock.patch.object(np.random, "default_rng", lambda s: ZeroingGenerator(s, 2)):
            times, _ = unique_reference(model, 20.0, 3)
            blocks = list(leftover_arrivals(model, 20.0, 3).time_blocks(2))
        assert [len(b) for b in blocks[1:-1]] == [1] * (len(blocks) - 2)
        assert np.concatenate(blocks).tobytes() == times.tobytes()


class TestTimelineContainer:
    @pytest.mark.parametrize("times, last, message", [
        ([0.5, 0.7], 0.5, "arrival times must be strictly increasing"),
        ([0.4, 0.7], 0.5, "arrival times must be strictly increasing"),
        ([0.6, 1.5], 0.5, "arrival times must lie within \\[0, horizon\\]"),
        # the first block: only the order within it and the horizon checked
        ([0.5, 0.5], -math.inf, "arrival times must be strictly increasing"),
        ([0.5, 0.2], -math.inf, "arrival times must be strictly increasing"),
        ([-0.1, 0.5], -math.inf, "arrival times must lie within \\[0, horizon\\]"),
        ([0.5, 1.5], -math.inf, "arrival times must lie within \\[0, horizon\\]"),
    ])
    def test_a_block_checked_on_from_the_last(self, times, last, message):
        with pytest.raises(ValueError, match=message):
            _check_times(np.array(times), 1.0, last=last)
        _check_times(np.array([0.6, 0.7]), 1.0, last=0.5)

    @pytest.mark.parametrize("gaps, message", [
        ([0.1, 0.1, -0.05, 0.1], "arrival times must be strictly increasing"),  # the second block starts behind the first
        ([0.1, -0.05], "arrival times must be strictly increasing"),  # out of order inside the first block
        ([-0.1, 0.2], "arrival times must lie within \\[0, horizon\\]"),
    ])
    def test_drawn_blocks_checked(self, gaps, message):
        tl = leftover_arrivals(LeftoverTrafficModel(4.0, 12000.0), 1.0, 1)
        with mock.patch.object(np.random, "default_rng", lambda s: GivenGaps(gaps)):
            with pytest.raises(ValueError, match=message):
                list(tl.time_blocks(2))
            with pytest.raises(ValueError, match=message):
                len(tl)


class TestModelValidation:
    def test_burst_longer_than_period_rejected(self):
        with pytest.raises(ConfigError, match="t_b"):
            HapticTrafficModel(t_p=1.0, t_b=2.0, t_ib=2e-3, t_nb=50e-3)

    def test_burst_spacing_above_burst_rejected(self):
        with pytest.raises(ConfigError, match="t_ib"):
            HapticTrafficModel(t_p=1.0, t_b=0.2, t_ib=0.3, t_nb=50e-3)

    @pytest.mark.parametrize("field", ["t_p", "t_b", "t_ib", "t_nb"])
    def test_time_rounding_to_zero_ns_rejected(self, field):
        with pytest.raises(ConfigError, match=f"haptic.{field}: must be at least 1 ns"):
            HapticTrafficModel(**dict(TABLE, **{field: 1e-10}))

    @pytest.mark.parametrize("value", [1e300, float("inf")])
    @pytest.mark.parametrize("field", ["t_p", "t_b", "t_ib", "t_nb"])
    def test_time_past_the_nanosecond_range_rejected(self, field, value):
        # the nanosecond times are set when the model is built, so a time
        # that overflows in nanoseconds is refused there
        with pytest.raises(ConfigError, match=f"haptic.{field}: must be finite in nanoseconds"):
            HapticTrafficModel(**dict(TABLE, **{field: value}))

    def test_leftover_requires_positive_rate(self):
        with pytest.raises(ConfigError):
            LeftoverTrafficModel(0.0, 12000.0)

    @pytest.mark.parametrize("kw, field", [
        (dict(lambda_rate=float("nan")), "lambda_rate"),
        (dict(lambda_rate=float("inf")), "lambda_rate"),
        (dict(sigma=float("nan")), "sigma"),
        (dict(sigma=float("inf")), "sigma"),
    ])
    def test_leftover_requires_finite_values(self, kw, field):
        with pytest.raises(ConfigError, match=f"leftover.{field}: must be > 0 and finite"):
            LeftoverTrafficModel(**dict(dict(lambda_rate=4.0, sigma=12000.0), **kw))
