import hashlib
import json
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hapticsched import (
    ConfigError,
    ExperimentSpec,
    HapticTrafficModel,
    InfeasibleError,
    LeftoverTrafficModel,
    RadioConfig,
    SchedulingScheme,
    SizeDistribution,
    linear_grid,
    load_config,
    run_experiment,
)
from hapticsched.cli import entry, main
from hapticsched.experiments import KEYS, LoadedConfig, parse_time
from hapticsched.simulate import SimConfig

S = SchedulingScheme
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# the haptic period of bench/configs/compare_offgrid.ini: 2001 slots, off the grant grid
OFFGRID_INI = "[haptic]\nt_p = 1000.5 ms\n"
# about 60k exponential-size background packets in 200 s against 2000
# profile slots: two blocks of the queue walk, on the lookup tables
HEAVY_INI = "[leftover]\nlambda_rate = 300\nsigma = 1200\nsize_distribution = exponential_mean\n"


class TestConfigLoading:
    def test_empty_file_yields_full_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        loaded = load_config(path)
        assert loaded.radio.tti == 0.5e-3
        assert loaded.radio.t_sr == 0.5e-3          # tracks the TTI
        assert loaded.radio.t_pg == 5e-3            # ten TTIs
        assert loaded.radio.n_channels == 10
        assert loaded.radio.total_rate == 1e6
        assert loaded.radio.haptic_demand_norm == 1e-4
        assert loaded.haptic.t_p == 1.0
        assert loaded.haptic.t_b == 0.2
        assert loaded.haptic.t_ib == 2e-3
        assert loaded.haptic.t_nb == 50e-3
        assert loaded.leftover.lambda_rate == 4.0
        assert loaded.leftover.sigma == 12000.0     # 1500 bytes
        assert loaded.epsilon == 1e-5
        assert loaded.schemes == (S.DYNAMIC, S.SEMI_PERSISTENT, S.SOFT_RESERVATION, S.FAST_UPLINK)

    def test_none_path_equals_defaults(self):
        assert load_config(None).config_hash() == load_config(None).config_hash()

    def test_unit_suffixes(self, tmp_path):
        path = tmp_path / "u.ini"
        path.write_text("[radio]\ntti = 0.25 ms\n[haptic]\nt_ib = 1.5ms\nt_nb = 0.05 s\n")
        loaded = load_config(path)
        assert loaded.radio.tti == 0.25e-3
        assert loaded.haptic.t_ib == 1.5e-3
        assert loaded.haptic.t_nb == 0.05

    def test_burst_longer_than_period_names_both_fields(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[haptic]\nt_b = 2 s\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "t_b" in str(err.value) and "t_p" in str(err.value)

    def test_grant_period_below_slot_rejected(self, tmp_path):
        path = tmp_path / "bad2.ini"
        path.write_text("[radio]\nt_pg = 0.1ms\n")
        with pytest.raises(ConfigError, match="t_pg"):
            load_config(path)

    def test_all_violations_reported_together(self, tmp_path):
        path = tmp_path / "bad3.ini"
        path.write_text("[radio]\nt_pg = 0.1ms\n[haptic]\nt_b = 2 s\n[snc]\nepsilon = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert len(err.value.problems) >= 3

    def test_unknown_keys_flagged(self, tmp_path):
        path = tmp_path / "bad4.ini"
        path.write_text("[radio]\nttl = 1ms\n")
        with pytest.raises(ConfigError, match="ttl"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.ini")

    def test_explicit_grant_period_stops_tracking_tti(self, tmp_path):
        path = tmp_path / "t.ini"
        path.write_text("[radio]\nt_pg = 5ms\n")
        loaded = load_config(path)
        assert loaded.t_pg_tracks_tti is False
        moved = loaded.at_point(tti=0.25e-3)
        assert moved.radio.t_pg == 5e-3
        tracking = load_config(None).at_point(tti=0.25e-3)
        assert tracking.radio.t_pg == 2.5e-3
        assert tracking.radio.t_sr == 0.25e-3

    def test_readme_ini_block_loads_as_the_defaults(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        path = tmp_path / "documented.ini"
        path.write_text(blocks[0])
        assert load_config(path).config_hash() == load_config(None).config_hash()

    def test_parse_time_errors(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_time("fast", "horizon")

    @pytest.mark.parametrize("value", ["garbage", "1%"])
    @pytest.mark.parametrize("field", [f"{section}.{key}" for section, keys in KEYS.items() for key in keys])
    def test_every_problem_names_its_key(self, tmp_path, capsys, field, value):
        section, key = field.split(".")
        cfg = tmp_path / "garbage.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.problems and all(p.startswith(f"{field}: ") for p in err.value.problems)
        assert main(["bound", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"configuration error: {err.value}\n"

    @pytest.mark.parametrize("field, value", [
        ("radio.total_rate", "nan"), ("radio.total_rate", "inf"),
        ("leftover.lambda_rate", "nan"), ("leftover.sigma", "inf"),
    ])
    @pytest.mark.parametrize("argv", [["bound"], ["simulate", "--horizon", "12s"]])
    def test_non_finite_rates_rejected(self, tmp_path, capsys, field, value, argv):
        section, key = field.split(".")
        cfg = tmp_path / "rate.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main([*argv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {field}: must be > 0 and finite, got {float(value)!r}\n"

    def test_workers_accepts_only_one(self, tmp_path, capsys):
        cfg = tmp_path / "w2.ini"
        cfg.write_text("[experiment]\nworkers = 2\n")
        assert main(["sweep", "--config", str(cfg), "--param", "t_ib", "--values", "1ms,2ms"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: experiment.workers: must be 1 (runs are serial), got '2'\n"

    @pytest.mark.parametrize("ini", sorted((ROOT / "bench" / "configs").glob("*.ini")), ids=lambda p: p.name)
    def test_benchmark_configs_load(self, ini):
        assert load_config(ini).schemes


class TestSpecValidation:
    def test_sweep_needs_two_points(self):
        loaded = load_config(None)
        with pytest.raises(ConfigError, match="steps"):
            linear_grid(1e-3, 3e-3, 1)
        with pytest.raises(ConfigError):
            ExperimentSpec("sweep", loaded, sweep_param="t_ib", sweep_values=(1e-3,))

    def test_empty_schemes_rejected(self):
        loaded = load_config(None)
        with pytest.raises(ConfigError, match="scheme"):
            ExperimentSpec("drop", replace(loaded, schemes=()))

    def test_grid_values_strictly_ascending(self, capsys):
        loaded = load_config(None)
        # a repeat, a descent, and three linear-grid points that snap to one ns
        for values in [(2e-3, 2e-3), (1e-3, 3e-3, 2e-3), linear_grid(2e-3, 2e-3 + 1e-10, 3)]:
            with pytest.raises(ConfigError, match="strictly ascending"):
                ExperimentSpec("sweep", loaded, sweep_param="t_ib", sweep_values=values)
        assert main(["sweep", "--scheme", "DS", "--param", "t_ib", "--values", "2ms,2ms"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: sweep: grid values must be strictly ascending, each value once\n"

    def test_grid_is_lattice_snapped(self):
        values = linear_grid(1e-3, 3e-3, 41)
        assert len(values) == 41
        assert values[0] == 1e-3 and values[-1] == 3e-3
        assert 1.25e-3 in values and 2.5e-3 in values


def reference_payload(loaded, scheme=None, seed=None):
    """The configuration hash's payload, built whole."""
    return {
        "radio": [loaded.radio.n_channels, loaded.radio.total_rate, loaded.radio.tti,
                  loaded.radio.t_sr, loaded.radio.t_pg, loaded.radio.haptic_demand_norm],
        "haptic": [loaded.haptic.t_p, loaded.haptic.t_b, loaded.haptic.t_ib, loaded.haptic.t_nb, True],
        "leftover": [loaded.leftover.lambda_rate, loaded.leftover.sigma, loaded.leftover.size_distribution.value],
        "snc": [loaded.epsilon, "violation"],
        "scheme": scheme.value if scheme else None,
        "seed": seed,
    }


def reference_hash(loaded, scheme, seed):
    """The configuration hash as the whole payload serialised per call."""
    payload = reference_payload(loaded, scheme, seed)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


@st.composite
def loaded_configs(draw):
    """Valid configurations with floats of any magnitude and digit count."""
    positive = st.floats(1e-300, 1e300)
    tti = draw(st.floats(1e-6, 1e-2))
    t_p = draw(st.floats(1e-3, 1e4))
    t_b = t_p * draw(st.floats(0.01, 0.99))
    try:
        return LoadedConfig(
            radio=RadioConfig(draw(st.integers(1, 64)), draw(positive), tti, tti * draw(st.integers(1, 20)),
                              draw(st.floats(tti, 1.0)), tti * draw(st.floats(0.0, 1.0))),
            haptic=HapticTrafficModel(t_p, t_b, t_b * draw(st.floats(1e-3, 1.0)),
                                      (t_p - t_b) * draw(st.floats(1e-3, 1.0))),
            leftover=LeftoverTrafficModel(draw(positive), draw(positive), draw(st.sampled_from(SizeDistribution))),
            epsilon=draw(st.floats(1e-300, 1.0, exclude_max=True)),
            horizon=1.0, seeds=(1,), schemes=tuple(S), t_sr_tracks_tti=True, t_pg_tracks_tti=True,
        )
    except ConfigError:
        reject()


class TestConfigHash:
    @settings(max_examples=200, deadline=None)
    @given(loaded=loaded_configs(), scheme=st.none() | st.sampled_from(S),
           seed=st.none() | st.integers(0, 2**63))
    def test_equals_the_hash_of_the_whole_payload(self, loaded, scheme, seed):
        assert loaded.config_hash(scheme, seed) == reference_hash(loaded, scheme, seed)
        assert loaded.config_hash() == reference_hash(loaded, None, None)


class TestModelHashEqualsFieldTuple:
    """Each frozen model computes its hash once; it must be the hash that
    dataclass's own __hash__ gave, that of the field tuple."""

    @settings(max_examples=200, deadline=None)
    @given(loaded=loaded_configs())
    def test_hash_is_the_field_tuple_hash(self, loaded):
        for model in (loaded.radio, loaded.haptic, loaded.leftover):
            values = tuple(getattr(model, f.name) for f in fields(model))
            assert hash(model) == hash(values)
            twin = type(model)(*values)
            assert twin is not model and twin == model and hash(twin) == hash(model)

    def test_signed_zero_demand_hashes_equal(self):
        radios = [RadioConfig(10, 1e6, 5e-4, 5e-4, 5e-3, zero) for zero in (0.0, -0.0)]
        assert radios[0] == radios[1] and hash(radios[0]) == hash(radios[1])


def replaced_point(loaded, tti=None, t_ib=None):
    """at_point as two dataclasses.replace calls per point."""
    radio, haptic = loaded.radio, loaded.haptic
    if tti is not None:
        radio = replace(radio, tti=tti, t_sr=tti if loaded.t_sr_tracks_tti else radio.t_sr,
                        t_pg=10 * tti if loaded.t_pg_tracks_tti else radio.t_pg)
    if t_ib is not None:
        haptic = replace(haptic, t_ib=t_ib)
    return replace(loaded, radio=radio, haptic=haptic)


def point_or_problems(build):
    try:
        return build()
    except ConfigError as exc:
        return exc.problems


class TestAtPointEqualsReplace:
    @settings(max_examples=200, deadline=None)
    @given(loaded=loaded_configs(), tracks=st.tuples(st.booleans(), st.booleans()),
           param=st.sampled_from(["tti", "t_ib"]), scale=st.floats(1e-3, 1e3))
    def test_equals_replace(self, loaded, tracks, param, scale):
        loaded = replace(loaded, t_sr_tracks_tti=tracks[0], t_pg_tracks_tti=tracks[1])
        value = scale * getattr(loaded.radio if param == "tti" else loaded.haptic, param)
        point = point_or_problems(lambda: loaded.at_point(**{param: value}))
        reference = point_or_problems(lambda: replaced_point(loaded, **{param: value}))
        assert point == reference
        if isinstance(point, LoadedConfig):
            assert hash(point.radio) == hash(reference.radio) and hash(point.haptic) == hash(reference.haptic)
            assert (point.t_sr_tracks_tti, point.t_pg_tracks_tti) == tracks


class TestHashTextEqualsSortedDumps:
    """The hash text is joined from each section's JSON, and a grid point
    serialises only the section it changed, reusing its base's text for the
    rest: the text must be the whole payload's sorted json.dumps, at the
    base and at the point."""

    @settings(max_examples=200, deadline=None)
    @given(loaded=loaded_configs(), tracks=st.tuples(st.booleans(), st.booleans()),
           param=st.sampled_from(["tti", "t_ib"]), scale=st.floats(1e-3, 1e3),
           scheme=st.none() | st.sampled_from(S), seed=st.none() | st.integers(0, 2**63))
    def test_text_is_the_sorted_dump(self, loaded, tracks, param, scale, scheme, seed):
        loaded = replace(loaded, t_sr_tracks_tti=tracks[0], t_pg_tracks_tti=tracks[1])
        value = scale * getattr(loaded.radio if param == "tti" else loaded.haptic, param)
        point = point_or_problems(lambda: loaded.at_point(**{param: value}))
        for config in [loaded] + [point] * isinstance(point, LoadedConfig):
            head, tail = config._hash_text
            assert f'{head}"scheme": null, "seed": null{tail}' == json.dumps(reference_payload(config), sort_keys=True)
            assert config.config_hash(scheme, seed) == reference_hash(config, scheme, seed)


def reference_cell(value) -> str:
    """The CSV cell as it was written before cells were str of the value."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


# where repr switches notation or precision, and the floats with no digits
EDGE_FLOATS = [1e16, 1e16 - 2, 1e-4, 1e-5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               0.0, -0.0, math.inf, -math.inf, math.nan, 0.1, 1 / 3]


class TestCellsEqualFmt:
    @settings(max_examples=1000, deadline=None)
    @given(value=st.one_of(st.floats(), st.floats().map(np.float64), st.sampled_from(EDGE_FLOATS),
                           st.sampled_from(EDGE_FLOATS).map(np.float64), st.integers(), st.text()))
    def test_str_is_the_old_cell(self, value):
        assert str(value) == reference_cell(value)


class TestRunExperiment:
    def test_sweep_row_count_and_order(self, tmp_path):
        loaded = load_config(None)
        out = tmp_path / "sweep.csv"
        spec = ExperimentSpec("sweep", loaded, out=str(out), sweep_param="t_ib",
                              sweep_values=linear_grid(1e-3, 3e-3, 41))
        assert run_experiment(spec) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 41 * 4
        assert rows[0].startswith("scheme,tti_s,t_ib_s,epsilon,drop_rate,remainder_bits,theta,x_bits,d0_s")
        assert rows[0].endswith("config_hash")

    def test_sweep_byte_identical(self, tmp_path):
        loaded = load_config(None)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            spec = ExperimentSpec("sweep", replace(loaded, schemes=(S.DYNAMIC, S.FAST_UPLINK)), out=str(out),
                                  sweep_param="t_ib", sweep_values=linear_grid(1e-3, 3e-3, 11))
            run_experiment(spec)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_tti_sweep_scales_tracked_periods(self, tmp_path):
        loaded = load_config(None)
        out = tmp_path / "tti.csv"
        spec = ExperimentSpec("sweep", replace(loaded, schemes=(S.SEMI_PERSISTENT,)), out=str(out),
                              sweep_param="tti", sweep_values=(0.125e-3, 0.25e-3, 0.5e-3, 1e-3))
        assert run_experiment(spec) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        assert [float(r.split(",")[1]) for r in rows] == [0.125e-3, 0.25e-3, 0.5e-3, 1e-3]

    def test_infeasible_point_emits_status_row(self, tmp_path):
        loaded = load_config(None)
        heavy = tmp_path / "heavy.ini"
        heavy.write_text("[leftover]\nsigma = 5e5\n")
        spec = ExperimentSpec("bound", replace(load_config(heavy), schemes=(S.DYNAMIC,)),
                              out=str(tmp_path / "b.csv"))
        assert run_experiment(spec) == 0
        row = (tmp_path / "b.csv").read_text().strip().splitlines()[1]
        assert ",infeasible," in row


class TestCsvContract:
    """The files in tests/golden hold CLI stdout byte for byte; a deliberate
    CSV change updates them and the README headers together."""

    def test_readme_headers_are_the_emitted_headers(self, capsys):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## CSV contracts", 1)[1].split("\n## ", 1)[0]
        documented = dict(re.findall(r"^- `(\w+)`: `([^`]+)`$", section, flags=re.M))
        assert sorted(documented) == sorted(["bound", "drop", "remainder", "simulate", "sweep", "compare"])
        grid = ["--param", "t_ib", "--values", "1ms,2ms"]
        argv = {"simulate": ["--horizon", "10s"], "sweep": grid, "compare": [*grid, "--horizon", "10s"]}
        for verb, header in documented.items():
            assert main([verb, *argv.get(verb, [])]) in (0, 2)
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == header
            assert len(lines) > 1
            assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])

    @pytest.mark.parametrize("name, argv, ini, status", [
        ("bound", ["bound"], None, 0),
        ("drop", ["drop"], None, 0),
        ("remainder", ["remainder"], None, 0),
        ("bound_offgrid", ["bound"], OFFGRID_INI, 0),
        ("drop_offgrid", ["drop"], OFFGRID_INI, 0),
        ("remainder_offgrid", ["remainder"], OFFGRID_INI, 0),
        ("simulate_30s_seed3", ["simulate", "--horizon", "30s", "--seed", "3"], None, 0),
        ("simulate_heavy_200s_seed1", ["simulate", "--horizon", "200s", "--seed", "1"], HEAVY_INI, 0),
        # t_ib crosses the 5 ms grant period; the TTI grid moves every grant period
        ("sweep_tib", ["sweep", "--param", "t_ib", "--from", "0.1ms", "--to", "6ms", "--steps", "60"], None, 0),
        ("sweep_tti", ["sweep", "--param", "tti", "--values", "0.125ms,0.25ms,0.5ms,1ms"], None, 0),
        # set SR and grant periods, which do not track the TTI
        ("sweep_tti_fixed_periods", ["sweep", "--param", "tti", "--values", "0.125ms,0.25ms,0.5ms,1ms"],
         "[radio]\nt_sr = 2ms\nt_pg = 4ms\n", 0),
        # every scheme on the event-by-event path, as bench/configs/compare_offgrid.ini
        # runs it; some rows fail their check, so the exit status is 2
        ("compare_offgrid_50s_seed1",
         ["compare", "--param", "t_ib", "--values", "1ms,2ms", "--horizon", "50s", "--seed", "1"], OFFGRID_INI, 2),
        # on the grant grid, two seeds per row
        ("compare_30s_seeds12", ["compare", "--param", "t_ib", "--values", "1.5ms,2ms", "--horizon", "30s",
                                 "--seed", "1,2"], None, 2),
    ])
    def test_stdout_is_pinned(self, tmp_path, capsys, name, argv, ini, status):
        if ini is not None:
            cfg = tmp_path / "config.ini"
            cfg.write_text(ini)
            argv = [*argv, "--config", str(cfg)]
        assert main(argv) == status
        assert capsys.readouterr().out == (GOLDEN / f"{name}.csv").read_text()


# each verb at its smallest valid grid; simulate and compare at the default horizon
VERB_ARGS = {"bound": [], "sweep": ["--param", "t_ib", "--values", "1ms,2ms"], "simulate": [],
             "compare": ["--param", "t_ib", "--values", "1ms,2ms"]}


class TestNanosecondOverflow:
    """A time whose count of nanoseconds is no finite float (its product
    with 1e9 is inf) is a configuration error under every verb, not a
    traceback."""

    @staticmethod
    def assert_one_config_error(capsys, argv, problem):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: {problem}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("verb", VERB_ARGS)
    @pytest.mark.parametrize("ini, problem", [
        ("[radio]\ntti = 1e300\n", "radio.tti: must be finite in nanoseconds, got 1e+300"),
        ("[radio]\nt_sr = 1e300\n", "radio.t_sr: must be finite in nanoseconds, got 1e+300"),
        ("[radio]\nt_pg = 1e300\n", "radio.t_pg: must be finite in nanoseconds, got 1e+300"),
        ("[radio]\nhaptic_demand_norm = 1e300\n",
         "radio.haptic_demand_norm: must be finite in nanoseconds, got 1e+300"),
        ("[experiment]\nhorizon = 1e300\n", "experiment.horizon: must be finite in nanoseconds, got 1e+300"),
    ], ids=["tti", "t_sr", "t_pg", "haptic_demand_norm", "horizon"])
    def test_config_key(self, tmp_path, capsys, verb, ini, problem):
        cfg = tmp_path / "overflow.ini"
        cfg.write_text(ini)
        # a TTI of 1e300 s leaves the SR and grant periods that track it overflowing too
        self.assert_one_config_error(capsys, [verb, *VERB_ARGS[verb], "--config", str(cfg)], problem)

    @pytest.mark.parametrize("argv, problem", [
        (["simulate", "--horizon", "1e300"], "experiment.horizon: must be finite in nanoseconds, got 1e+300"),
        (["compare", "--param", "t_ib", "--values", "1ms,2ms", "--horizon", "1e300"],
         "experiment.horizon: must be finite in nanoseconds, got 1e+300"),
        (["sweep", "--param", "tti", "--values", "1ms,1e300"], "radio.tti: must be finite in nanoseconds, got 1e+300"),
        (["compare", "--param", "tti", "--values", "1ms,1e300"],
         "radio.tti: must be finite in nanoseconds, got 1e+300"),
    ], ids=["simulate-horizon", "compare-horizon", "sweep-tti", "compare-tti"])
    def test_flag(self, capsys, argv, problem):
        self.assert_one_config_error(capsys, argv, problem)

    def test_simulation_horizon(self):
        loaded = load_config(None)
        with pytest.raises(ConfigError, match=r"^horizon: must be finite in nanoseconds, got 1e\+300$"):
            SimConfig(loaded.radio, loaded.haptic, loaded.leftover, S.DYNAMIC, 1e300, 1)


class TestCli:
    def test_drop_verb_stdout(self, capsys):
        assert main(["drop", "--scheme", "DS"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("scheme,tti_s,t_ib_s,arrivals")
        assert out.splitlines()[1].startswith("DS,")

    def test_remainder_verb(self, capsys):
        assert main(["remainder", "--scheme", "SPS,SRR"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        sps = float(lines[1].split(",")[3])
        srr = float(lines[2].split(",")[3])
        assert srr > sps

    def test_bound_verb_with_epsilon_flag(self, capsys):
        assert main(["bound", "--scheme", "FA", "--epsilon", "1e-2"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert line.split(",")[3] == "0.01"

    def test_epsilon_flag_enters_config_hash(self, capsys):
        hashes = []
        for extra in ([], ["--epsilon", "1e-3"]):
            assert main(["bound", "--scheme", "DS", *extra]) == 0
            hashes.append(capsys.readouterr().out.splitlines()[1].rsplit(",", 1)[1])
        assert hashes[0] != hashes[1]
        assert hashes[0] == load_config(None).config_hash(S.DYNAMIC)

    @pytest.mark.parametrize("epsilon", ["3", "0", "1", "nan"])
    def test_epsilon_flag_range_checked_as_the_ini_key(self, tmp_path, capsys, epsilon):
        assert main(["drop", "--scheme", "DS", "--epsilon", epsilon]) == 1
        flag = capsys.readouterr()
        ini = tmp_path / "eps.ini"
        ini.write_text(f"[snc]\nepsilon = {epsilon}\n")
        assert main(["drop", "--scheme", "DS", "--config", str(ini)]) == 1
        assert flag.out == ""
        assert flag.err == capsys.readouterr().err == (
            f"configuration error: snc.epsilon: must be in (0, 1), got {float(epsilon)!r}\n")

    @pytest.mark.parametrize("seeds, problem", [
        (",", "at least one seed is required"),
        ("-1", "seeds must be >= 0, got '-1'"),
        ("3,-2", "seeds must be >= 0, got '3,-2'"),
        ("1,1", "each seed at most once, got '1,1'"),
    ])
    def test_seed_list_checked_as_the_ini_key(self, tmp_path, capsys, seeds, problem):
        args = ["simulate", "--scheme", "DS", "--horizon", "12s"]
        assert main([*args, "--seed", seeds]) == 1
        flag = capsys.readouterr()
        ini = tmp_path / "seeds.ini"
        ini.write_text(f"[experiment]\nseeds = {seeds}\n")
        assert main([*args, "--config", str(ini)]) == 1
        assert flag.out == ""
        assert flag.err == f"configuration error: --seed: {problem}\n"
        assert capsys.readouterr().err == f"configuration error: experiment.seeds: {problem}\n"

    @pytest.mark.parametrize("schemes, problem", [
        ("DS,DS", "each scheme at most once, got 'DS,DS'"),
        ("FA,fa", "each scheme at most once, got 'FA,fa'"),
        ("XX", "unknown scheduling scheme 'XX' (expected one of DS, SPS, SRR, FA)"),
    ])
    def test_scheme_list_checked_as_the_ini_key(self, tmp_path, capsys, schemes, problem):
        assert main(["bound", "--scheme", schemes]) == 1
        flag = capsys.readouterr()
        ini = tmp_path / "schemes.ini"
        ini.write_text(f"[experiment]\nschemes = {schemes}\n")
        assert main(["bound", "--config", str(ini)]) == 1
        assert flag.out == ""
        assert flag.err == f"configuration error: --scheme: {problem}\n"
        assert capsys.readouterr().err == f"configuration error: experiment.schemes: {problem}\n"

    @pytest.mark.parametrize("flag", ["--scheme", "--seed", "--epsilon", "--horizon"])
    def test_every_flag_names_itself(self, capsys, flag):
        assert main(["simulate", flag, "garbage"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: {flag}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, code", [(["bound", "--scheme", "DS"], 0), (["bound", "--epsilon", "3"], 1)])
    def test_console_entry_exit_status(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["hapticsched", *argv])
        with pytest.raises(SystemExit) as exit_:
            entry()
        assert exit_.value.code == code
        assert (capsys.readouterr().out != "") == (code == 0)

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--bogus"], "unrecognized arguments: --bogus"),
        (["compare", "--param", "x", "--values", "1ms"], "argument --param: invalid choice: 'x'"),
        (["bound", "--steps", "x"], "unrecognized arguments: --steps x"),
        (["simulate", "--param", "tti", "--values", "0.5ms,1ms"], "unrecognized arguments: --param tti"),
        (["sweep", "--steps", "x"], "argument --steps: invalid int value: 'x'"),
        ([], "the following arguments are required: mode"),
    ])
    def test_usage_errors_exit_one(self, capsys, argv, message):
        # exit status 2 is compare's failed check; argparse's usage text stays on stderr
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: hapticsched") and message in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hapticsched")

    def test_main_builds_its_parser_once(self, capsys):
        import hapticsched.cli as cli

        cli._build_parser.cache_clear()
        assert main(["drop", "--scheme", "DS"]) == 0
        assert main(["remainder", "--scheme", "FA"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # a parse leaves no state behind: the second verb's rows are its own
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "scheme,tti_s,t_ib_s,remainder_bits,config_hash" and len(out) == 4

    def test_compare_bounds_and_walks_each_scheme_once_for_all_seeds(self, tmp_path, monkeypatch):
        import hapticsched.experiments as exp
        import hapticsched.simulate as simulate_mod

        simulate_mod.steady_cycle.cache_clear()
        calls = []
        bound_fields = exp._bound_fields
        monkeypatch.setattr(exp, "_bound_fields", lambda *a: calls.append(a[1:]) or bound_fields(*a))
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--scheme", "DS,FA", "--seed", "1,2,3", "--param", "t_ib", "--values", "2ms,3ms",
                   "--horizon", "12s", "--out", str(out)])
        assert rc in (0, 2) and len(out.read_text().splitlines()) == 1 + 2 * 2 * 3
        # per grid point and scheme: the configured epsilon, then 0.1 and 0.01
        assert calls == [(scheme, eps) for _ in range(2) for scheme in (S.DYNAMIC, S.FAST_UPLINK)
                         for eps in (1e-5, 1e-1, 1e-2)]
        # the seeds of one grid point and scheme run in a row: the one-entry
        # memo walks each of the 4 configurations once and serves 2 seeds each
        info = simulate_mod.steady_cycle.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (4, 8, 1)

    def test_compare_draws_the_background_once_for_every_run(self, tmp_path, monkeypatch):
        import hapticsched.simulate as simulate_mod

        simulate_mod._kept_blocks.cache_clear()
        seeded, timelines = [], []
        default_rng, leftover_arrivals = np.random.default_rng, simulate_mod.leftover_arrivals
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeded.append(seed) or default_rng(seed))
        monkeypatch.setattr(simulate_mod, "leftover_arrivals",
                            lambda *args: timelines.append(args) or leftover_arrivals(*args))
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--seed", "5", "--param", "t_ib", "--values", "2ms,3ms", "--horizon", "12s",
                   "--out", str(out)])
        assert rc in (0, 2) and len(out.read_text().splitlines()) == 1 + 2 * 4
        # deterministic sizes draw no stream of their own: one seeding, the
        # time draw's, serves the 8 runs of the 2 grid points and 4 schemes
        assert seeded == [5]
        assert len(timelines) == 8 and len(set(timelines)) == 1

    def test_empty_seed_list_stops_compare(self, capsys):
        assert main(["compare", "--scheme", "DS", "--seed", ",", "--param", "t_ib", "--values", "1ms,2ms"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: --seed: at least one seed is required\n"

    def test_simulate_verb_deterministic_files(self, tmp_path):
        args = ["simulate", "--scheme", "DS", "--seed", "4", "--horizon", "12s"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[haptic]\nt_b = 2 s\n")
        assert main(["drop", "--config", str(bad)]) == 1

    def test_empty_scheme_list_exit_code(self):
        assert main(["drop", "--scheme", ""]) == 1

    def test_sweep_requires_grid(self):
        assert main(["sweep", "--param", "t_ib"]) == 1

    def test_non_integer_seed_exit_code(self, capsys):
        assert main(["bound", "--seed", "x"]) == 1
        assert "configuration error: --seed" in capsys.readouterr().err

    def test_infeasible_simulation_exit_code(self, capsys, monkeypatch):
        import hapticsched.experiments as exp

        def blow_up(config):
            raise InfeasibleError("leftover queue grew superlinearly")

        monkeypatch.setattr(exp, "run_simulation", blow_up)
        assert main(["simulate", "--scheme", "DS"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "infeasible: leftover queue grew superlinearly\n"
        assert captured.out == ""

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon_exit_code(self, capsys, horizon):
        assert main(["simulate", "--horizon", horizon]) == 1
        assert "configuration error: --horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["bound", "drop", "remainder", "simulate", "sweep"])
    @pytest.mark.parametrize("field", ["radio.tti", "radio.t_sr", "haptic.t_ib", "haptic.t_nb"])
    def test_time_rounding_to_zero_ns_exit_code(self, tmp_path, capsys, verb, field):
        section, key = field.split(".")
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(f"[{section}]\n{key} = 0.0000001 ms\n")
        args = ["--param", "t_ib", "--values", "1ms,2ms"] if verb == "sweep" else []
        assert main([verb, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"{field}: must be at least 1 ns" in err

    def test_subnormal_epsilon_exit_code(self, tmp_path, capsys):
        # 1 / 1e-320 overflows, and the bound takes log(1 / epsilon)
        ini = tmp_path / "eps.ini"
        ini.write_text("[snc]\nepsilon = 1e-320\n")
        for argv in (["bound"], ["sweep", "--param", "t_ib", "--values", "1ms,2ms"]):
            assert main([*argv, "--config", str(ini)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "configuration error: snc.epsilon: 1/epsilon must be finite, got 1e-320\n"

    @pytest.mark.parametrize("ini", ["[leftover]\nlambda_rate = 1e-300\n", "[radio]\ntotal_rate = 1e308\n",
                                     "[haptic]\nt_p = 1e200\n"])
    def test_extreme_rates_give_finite_bound_rows(self, tmp_path, capsys, ini):
        """Either rate drives max_stable_theta's bracket past the range of
        e^(theta sigma); the effective bandwidth there is above any rate.
        A 1e200 s period, about 2e201 arrivals, is counted, not laid out."""
        cfg = tmp_path / "rate.ini"
        cfg.write_text(ini)
        for argv in (["bound"], ["sweep", "--param", "t_ib", "--values", "1ms,2ms"]):
            assert main([*argv, "--config", str(cfg)]) == 0
            lines = capsys.readouterr().out.splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            assert len(rows) == 4 * (2 if argv[0] == "sweep" else 1)
            numeric = [column for column in header if column not in ("scheme", "status", "config_hash")]
            assert all(row["status"] == "ok" for row in rows)
            assert all(math.isfinite(float(row[column])) for row in rows for column in numeric)

    @pytest.mark.parametrize("ini", ["[haptic]\nt_p = 1e200\n", "[haptic]\nt_p = 1e11\nt_nb = 1e10\n"])
    def test_period_past_an_array_refused_by_drop_and_compare(self, tmp_path, capsys, ini):
        """1e200 s holds about 2e201 arrivals per period, more entries than
        any array; 1e11 s holds 110, but a step of 1e19 ns is past int64.
        drop and compare lay out the arrivals; sweep only counts them (see
        test_extreme_rates_give_finite_bound_rows)."""
        cfg = tmp_path / "period.ini"
        cfg.write_text(ini)
        for argv in (["drop"], ["compare", "--param", "t_ib", "--values", "1ms,2ms", "--horizon", "10s"]):
            assert main([*argv, "--config", str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("configuration error: haptic.t_p: one period of ")
            assert captured.err.endswith("does not fit an array of int64 nanoseconds\n")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("ini, field", [("[radio]\ntotal_rate = 1e308\n", "radio.total_rate"),
                                            ("[leftover]\nsigma = 1e308\n", "leftover")])
    def test_extreme_rates_refused_by_the_simulator(self, tmp_path, capsys, ini, field):
        """Over 20 s either value overflows the simulator's float sums,
        which left nan in its rows: the configuration is refused."""
        cfg = tmp_path / "rate.ini"
        cfg.write_text(ini)
        assert main(["simulate", "--horizon", "20s", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: {field}: ") and "overflow" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("horizon, ini, field", [
        ("1e19s", None, "horizon"),
        ("20s", "[leftover]\nlambda_rate = 1e17\n", "leftover.lambda_rate"),
        ("20s", "[leftover]\nlambda_rate = 1e18\n", "leftover.lambda_rate"),
    ], ids=["horizon-1e19", "lambda_rate-1e17", "lambda_rate-1e18"])
    def test_sizes_past_any_array_refused_by_the_simulator(self, tmp_path, capsys, horizon, ini, field):
        """The per-period counts over 1e19 periods, or the background gaps
        of 2e18 and 2e19 arrivals over 20 s, take more than sys.maxsize
        bytes: numpy refused each by its size in a ValueError traceback.
        The configuration is refused before anything is walked or drawn."""
        argv = ["simulate", "--horizon", horizon]
        if ini is not None:
            cfg = tmp_path / "huge.ini"
            cfg.write_text(ini)
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ") and f"{field}: " in captured.err
        assert "than an array holds" in captured.err and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, ini", [
        (["drop", "--scheme", "DS"], "[haptic]\nt_p = 1e16 s\n"),
        (["simulate", "--scheme", "DS", "--horizon", "20s"], "[leftover]\nlambda_rate = 1e16\n"),
    ])
    def test_refused_allocation_exit_code(self, tmp_path, capsys, argv, ini):
        """Safe to run: each configuration asks numpy for one array of 2e17
        eight-byte entries (one period's arrival offsets; the background
        gaps over 20 s), 1.6e18 bytes.  That is more than a 57-bit virtual
        address space holds, so the request fails at once and nothing is
        allocated."""
        cfg = tmp_path / "huge.ini"
        cfg.write_text(ini)
        assert main([*argv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("out of memory: Unable to allocate")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_compare_passes_on_safe_config(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[radio]\ntotal_rate = 5e6\n[experiment]\nhorizon = 300 s\nseeds = 1\n")
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--config", str(cfg), "--scheme", "DS,FA", "--param", "t_ib",
                   "--values", "2ms,3ms", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2
        assert all(row.split(",")[-2] == "pass" for row in rows[1:])

    def test_compare_without_finished_background_packets_is_unchecked(self, tmp_path):
        # about 0.2 background packets in 20 s: none arrives after warm-up, so
        # no quantile check can run, and the row says so with exit 0
        cfg = tmp_path / "c.ini"
        cfg.write_text("[leftover]\nlambda_rate = 0.01\n")
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--config", str(cfg), "--scheme", "FA", "--param", "t_ib",
                   "--values", "2ms,3ms", "--horizon", "20s", "--out", str(out)])
        assert rc == 0
        header, *rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert len(rows) == 2
        for row in rows:
            fields = dict(zip(header, row))
            assert (fields["sim_p90_s"], fields["sim_p99_s"], fields["status"]) == ("nan", "nan", "ok")
            assert fields["verdict"] == "unchecked"

    def test_compare_flags_failures_with_exit_two(self, tmp_path, monkeypatch):
        import hapticsched.experiments as exp

        # force the analytic bound to an impossible zero so every check fails
        monkeypatch.setattr(exp, "_bound_fields", lambda *a: ([0.0, 0.0, 0.0, 0.0], "ok"))
        cfg = tmp_path / "c.ini"
        cfg.write_text("[experiment]\nhorizon = 60 s\nseeds = 1\n")
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--config", str(cfg), "--scheme", "FA", "--param", "t_ib",
                   "--values", "2ms,3ms", "--out", str(out)])
        assert rc == 2
        assert any(row.split(",")[-2] == "fail" for row in out.read_text().strip().splitlines()[1:])
