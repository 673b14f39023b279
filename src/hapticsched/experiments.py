"""Configuration loading and experiment orchestration.

Configs are flat INI-style files with sections radio, haptic, leftover,
snc and experiment; keys are the model field names and time values accept
ms/s suffixes.  Omitted keys fall back to the documented defaults, with
the SR and standing-grant periods tracking the TTI (1x and 10x) unless set
explicitly.  Every emitted CSV row carries a hash of the effective
configuration so result files are self-describing.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

from .curves import leftover_delay_bound_details
from .errors import ConfigError, InfeasibleError
from .radio import RadioConfig, SchedulingScheme
from .scheduling import drop_counts, drop_walk, remainder_of_service
from .simulate import SimConfig, empirical_quantile, run as run_simulation
from .traffic import HapticTrafficModel, LeftoverTrafficModel, SizeDistribution
from .units import NS_PER_S


def parse_time(text: str, field: str) -> float:
    """Parse a time value with an optional ms/s suffix into seconds."""
    raw = str(text).strip().lower()
    scale = 1.0
    if raw.endswith("ms"):
        raw, scale = raw[:-2], 1e-3
    elif raw.endswith("s"):
        raw = raw[:-1]
    try:
        value = float(raw) * scale
    except ValueError:
        raise ConfigError(f"{field}: cannot parse time value {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{field}: time value must be finite, got {text!r}")
    return value


def _parse_int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{field}: must be an integer, got {text!r}") from None


def _parse_float(text: str, field: str) -> float:
    """A number; its range is the model's to check, nan and inf included."""
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{field}: cannot parse {text!r}") from None


def _parse_size_law(text: str, field: str) -> SizeDistribution:
    try:
        return SizeDistribution(text.strip().lower())
    except ValueError:
        raise ConfigError(
            f"{field}: unknown size distribution {text!r} (expected deterministic or exponential_mean)"
        ) from None


def parse_seeds(text: str, field: str) -> tuple[int, ...]:
    """Parse simulation seeds: a comma-separated list of at least one
    non-negative integer, each once."""
    try:
        seeds = tuple(int(s) for s in str(text).split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"{field}: must be a comma-separated integer list, got {text!r}") from None
    if not seeds:
        raise ConfigError(f"{field}: at least one seed is required")
    if min(seeds) < 0:
        raise ConfigError(f"{field}: seeds must be >= 0, got {text!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{field}: each seed at most once, got {text!r}")
    return seeds


def _parse_schemes(text: str, field: str) -> tuple[SchedulingScheme, ...]:
    """A comma-separated list of DS, SPS, SRR and FA, each at most once."""
    schemes, problems = [], []
    for token in text.split(","):
        if token.strip():
            try:
                schemes.append(SchedulingScheme.parse(token))
            except ConfigError as exc:
                problems.append(f"{field}: {exc}")
    if not problems and len(set(schemes)) < len(schemes):
        problems.append(f"{field}: each scheme at most once, got {text!r}")
    if problems:
        raise ConfigError(problems)
    return tuple(schemes)


def _parse_workers(text: str, field: str) -> None:
    """The process pool is gone and every run is serial; the key stays so
    that files which set it to 1 still load."""
    if text.strip() != "1":
        raise ConfigError(f"{field}: must be 1 (runs are serial), got {text!r}")


# Every INI key: section -> key -> (parser, default text).  Each parser
# takes (text, field path) and names the path in its messages; a flag that
# overrides a key parses with the key's parser and the flag as the path.
# The radio, haptic and leftover keys are their models' field names.  t_sr
# and t_pg have no default text: unless set, they track the TTI (1x and 10x).
KEYS = {
    "radio": {
        "n_channels": (_parse_int, "10"),
        "total_rate": (_parse_float, "1000000.0"),    # documented default; a free model parameter
        "tti": (parse_time, "0.0005"),
        "t_sr": (parse_time, None),
        "t_pg": (parse_time, None),
        "haptic_demand_norm": (parse_time, "0.0001"),  # documented default; keeps every TTI feasible
    },
    "haptic": {
        "t_p": (parse_time, "1.0"),
        "t_b": (parse_time, "0.2"),
        "t_ib": (parse_time, "0.002"),
        "t_nb": (parse_time, "0.05"),
    },
    "leftover": {
        "lambda_rate": (_parse_float, "4.0"),
        "sigma": (_parse_float, "12000.0"),           # 1500 bytes
        "size_distribution": (_parse_size_law, "deterministic"),
    },
    "snc": {"epsilon": (_parse_float, "1e-05")},
    "experiment": {
        "horizon": (parse_time, "2000.0"),
        "seeds": (parse_seeds, "1"),
        "schemes": (_parse_schemes, "DS,SPS,SRR,FA"),
        "workers": (_parse_workers, "1"),
    },
}
_MODELS = {"radio": RadioConfig, "haptic": HapticTrafficModel, "leftover": LeftoverTrafficModel}
# each scheme's JSON text in the configuration hash's payload
_SCHEME_JSON = {scheme: json.dumps(scheme.value) for scheme in SchedulingScheme}
# the hash payload's sections but scheme and seed, each a list of values, in
# key order.  True and "violation" fill the slots of two removed settings,
# so existing result files keep matching their configurations
_HASH_SECTIONS = {
    "haptic": lambda c: [c.haptic.t_p, c.haptic.t_b, c.haptic.t_ib, c.haptic.t_nb, True],
    "leftover": lambda c: [c.leftover.lambda_rate, c.leftover.sigma, c.leftover.size_distribution.value],
    "radio": lambda c: [c.radio.n_channels, c.radio.total_rate, c.radio.tti, c.radio.t_sr, c.radio.t_pg,
                        c.radio.haptic_demand_norm],
    "snc": lambda c: [c.epsilon, "violation"],
}


@dataclass(frozen=True)
class LoadedConfig:
    radio: RadioConfig
    haptic: HapticTrafficModel
    leftover: LeftoverTrafficModel
    epsilon: float
    horizon: float
    seeds: tuple[int, ...]
    schemes: tuple[SchedulingScheme, ...]
    t_sr_tracks_tti: bool
    t_pg_tracks_tti: bool

    def __post_init__(self):
        # checked here, not by its parser, so that --epsilon, snc.epsilon and
        # library callers get the same checks and messages; the bound takes
        # log(1 / epsilon), which overflows for the smallest subnormals
        if not 0 < self.epsilon < 1:
            raise ConfigError(f"snc.epsilon: must be in (0, 1), got {self.epsilon!r}")
        if not math.isfinite(1.0 / self.epsilon):
            raise ConfigError(f"snc.epsilon: 1/epsilon must be finite, got {self.epsilon!r}")
        # checked here, not only by simulate's SimConfig, so that every verb
        # rejects a horizon to_ns cannot snap, as it does such a radio time
        if math.isinf(self.horizon * NS_PER_S):
            raise ConfigError(f"experiment.horizon: must be finite in nanoseconds, got {self.horizon!r}")

    def at_point(self, tti: float | None = None, t_ib: float | None = None) -> "LoadedConfig":
        """Re-derive the configuration at a sweep grid point.  When the SR
        or grant period was defaulted it keeps tracking the new TTI.  The
        constructors are called directly, which costs a sweep row less
        than dataclasses.replace; they run the same checks."""
        radio, haptic = self.radio, self.haptic
        if tti is not None:
            radio = RadioConfig(radio.n_channels, radio.total_rate, tti,
                                tti if self.t_sr_tracks_tti else radio.t_sr,
                                10 * tti if self.t_pg_tracks_tti else radio.t_pg,
                                radio.haptic_demand_norm)
        if t_ib is not None:
            haptic = HapticTrafficModel(haptic.t_p, haptic.t_b, t_ib, haptic.t_nb)
        point = LoadedConfig(radio, haptic, self.leftover, self.epsilon, self.horizon, self.seeds,
                             self.schemes, self.t_sr_tracks_tti, self.t_pg_tracks_tti)
        # the point serialises only the section it changed; the dict is where
        # cached_property keeps its value
        sections = point.__dict__["_section_json"] = dict(self._section_json)
        if tti is not None:
            sections["radio"] = json.dumps(_HASH_SECTIONS["radio"](point))
        if t_ib is not None:
            sections["haptic"] = json.dumps(_HASH_SECTIONS["haptic"](point))
        return point

    @cached_property
    def _section_json(self) -> dict[str, str]:
        """Each section's JSON text in the hash payload, by key."""
        return {key: json.dumps(values(self)) for key, values in _HASH_SECTIONS.items()}

    @cached_property
    def _hash_text(self) -> tuple[str, str]:
        """The hash payload's JSON, sorted by key, split around its scheme and
        seed entries: json.dumps(payload, sort_keys=True) puts each section's
        text between its key and the next, so the sections are joined here."""
        sections = self._section_json
        head = "".join(f'"{key}": {sections[key]}, ' for key in ("haptic", "leftover", "radio"))
        return "{" + head, f', "snc": {sections["snc"]}}}'

    def config_hash(self, scheme: SchedulingScheme | None = None, seed: int | None = None) -> str:
        """The first 12 hex digits of the SHA-256 of the configuration's JSON
        payload with this scheme and seed."""
        head, tail = self._hash_text
        scheme_text = _SCHEME_JSON[scheme] if scheme else "null"
        seed_text = "null" if seed is None else json.dumps(seed)
        text = f'{head}"scheme": {scheme_text}, "seed": {seed_text}{tail}'
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_config(path=None) -> LoadedConfig:
    """Load and validate a configuration file; None or an empty file yields
    the full defaults.  Every key is parsed, the model of every section
    whose keys all parsed is built, and their problems are reported
    together.  The range of snc.epsilon is checked once the rest is valid."""
    parser = configparser.ConfigParser(interpolation=None)  # a '%' is part of the value
    if path is not None:
        target = Path(path)
        if not target.exists():
            raise ConfigError(f"config file not found: {target}")
        try:
            parser.read_string(target.read_text(), source=str(target))
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from None

    problems = []
    for section in parser.sections():
        if section not in KEYS:
            problems.append(f"{section}: unknown section (expected one of {sorted(KEYS)})")
            continue
        problems.extend(f"{section}.{key}: unknown key" for key in parser[section] if key not in KEYS[section])

    values = {section: {} for section in KEYS}
    failed = set()
    for section, keys in KEYS.items():
        given = dict(parser.items(section)) if parser.has_section(section) else {}
        for key, (parse, default) in keys.items():
            text = given.get(key, default)
            if text is None:
                continue
            try:
                values[section][key] = parse(text, f"{section}.{key}")
            except ConfigError as exc:
                problems.extend(exc.problems)
                failed.add(section)
    radio = values["radio"]
    if "radio" not in failed:
        radio.setdefault("t_sr", radio["tti"])
        radio.setdefault("t_pg", 10 * radio["tti"])
    models = {}
    for section, model in _MODELS.items():
        if section not in failed:
            try:
                models[section] = model(**values[section])
            except ConfigError as exc:
                problems.extend(exc.problems)
    values["experiment"].pop("workers", None)  # parsed only to reject values other than 1

    if problems:
        raise ConfigError(problems)
    return LoadedConfig(
        **models,
        **values["snc"],
        **values["experiment"],
        t_sr_tracks_tti=not parser.has_option("radio", "t_sr"),
        t_pg_tracks_tti=not parser.has_option("radio", "t_pg"),
    )


# Each verb's columns between scheme,tti_s,t_ib_s and config_hash: the whole
# CSV contract.  simulate's remainder_bits is the simulated one.
_ANALYTIC = ("epsilon", "drop_rate", "remainder_bits", "theta", "x_bits", "d0_s", "long_run_rate_bps", "status")
COLUMNS = {
    "bound": ("epsilon", "theta", "x_bits", "d0_s", "long_run_rate_bps", "status"),
    "drop": ("arrivals", "transmitted", "dropped", "drop_rate", "max_access_delay_s"),
    "remainder": ("remainder_bits",),
    "simulate": ("seed", "haptic_drop_rate", "haptic_delay_max_s", "leftover_p99_s", "remainder_bits"),
    "sweep": _ANALYTIC,
    "compare": _ANALYTIC + ("seed", "sim_drop_rate", "walk_drop_rate_slotted", "sim_p90_s", "d0_eps0.1_s",
                            "sim_p99_s", "d0_eps0.01_s", "verdict"),
}
_BOUND = ("theta", "x_bits", "d0_s", "long_run_rate_bps")
# compare's statistically checkable outage targets and the columns they fill
_COMPARE_CHECKS = ((1e-1, "sim_p90_s", "d0_eps0.1_s"), (1e-2, "sim_p99_s", "d0_eps0.01_s"))


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    loaded: LoadedConfig
    out: str | None = None
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None

    def __post_init__(self):
        problems = []
        if self.mode not in COLUMNS:
            problems.append(f"mode: unknown mode {self.mode!r}")
        if not self.loaded.schemes:
            problems.append("schemes: at least one scheduling scheme is required")
        if self.mode in ("sweep", "compare"):
            if self.sweep_param not in ("t_ib", "tti"):
                problems.append(f"sweep.param: must be 't_ib' or 'tti', got {self.sweep_param!r}")
            values = self.sweep_values or ()
            if len(values) < 2:
                problems.append("sweep: at least two grid values are required (steps >= 2)")
            if any(v <= 0 for v in values):
                problems.append("sweep: grid values must be positive")
            if any(b <= a for a, b in zip(values, values[1:])):
                problems.append("sweep: grid values must be strictly ascending, each value once")
        if problems:
            raise ConfigError(problems)


def linear_grid(start: float, stop: float, steps: int) -> tuple[float, ...]:
    """Closed linear grid snapped to the ns lattice so boundary coincidence
    tests behave identically across runs."""
    if steps < 2:
        raise ConfigError("sweep: steps must be >= 2")
    if not (0 < start < stop):
        raise ConfigError(f"sweep: range must be positive and ordered, got [{start!r}, {stop!r}]")
    vals = [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    return tuple(round(v * 1e9) / 1e9 for v in vals)


def _largest(delays) -> float:
    return float(delays.max()) if len(delays) else 0.0


def _quantile(delays, p: float) -> float:
    return empirical_quantile(delays, p) if len(delays) else float("nan")


def _bound_fields(point: LoadedConfig, scheme: SchedulingScheme, epsilon: float) -> tuple[list, str]:
    try:
        details = leftover_delay_bound_details(scheme, point.radio, point.haptic, point.leftover, epsilon)
        return [details.theta, details.x_bits, details.d0_s, details.long_run_rate_bps], "ok"
    except InfeasibleError:
        return ["", "", "", ""], "infeasible"


def _point_rows(point: LoadedConfig, mode: str) -> list[dict]:
    """A verb's rows at one grid point, each a dict keyed by column.  Each
    verb computes only what its columns show."""
    rows = []
    for scheme in point.schemes:
        row = {"scheme": scheme.value, "tti_s": point.radio.tti, "t_ib_s": point.haptic.t_ib,
               "epsilon": point.epsilon}
        if mode == "drop":
            walk = drop_walk(scheme, point.radio, point.haptic)
            row.update(arrivals=walk.arrivals, transmitted=walk.transmitted, dropped=walk.dropped,
                       drop_rate=walk.drop_rate, max_access_delay_s=_largest(walk.per_packet_delays))
        elif mode in ("sweep", "compare"):
            # the walk's counts without its delays; a period has at least one arrival
            arrivals, transmitted = drop_counts(scheme, point.radio, point.haptic)
            row["drop_rate"] = (arrivals - transmitted) / arrivals
        if mode in ("remainder", "sweep", "compare"):
            row["remainder_bits"] = remainder_of_service(scheme, point.radio, point.haptic)
        if mode in ("bound", "sweep", "compare"):
            bound, row["status"] = _bound_fields(point, scheme, point.epsilon)
            row.update(zip(_BOUND, bound))
        if mode not in ("simulate", "compare"):
            row["config_hash"] = point.config_hash(scheme)
            rows.append(row)
            continue
        if mode == "compare":
            walk_slotted = drop_walk(scheme, point.radio, point.haptic, slotted=True)
            eps_bounds = [_bound_fields(point, scheme, eps) for eps, _, _ in _COMPARE_CHECKS]
        for seed in point.seeds:
            sim = run_simulation(SimConfig(point.radio, point.haptic, point.leftover, scheme, point.horizon, seed))
            delays = sim.leftover_delays
            sim_row = dict(row, seed=seed, config_hash=point.config_hash(scheme, seed))
            if mode == "simulate":
                sim_row.update(haptic_drop_rate=sim.haptic_drop_rate, haptic_delay_max_s=_largest(sim.haptic_delays),
                               leftover_p99_s=_quantile(delays, 0.99), remainder_bits=sim.remainder_bits_per_period)
            else:
                sim_row.update(sim_drop_rate=sim.haptic_drop_rate, walk_drop_rate_slotted=walk_slotted.drop_rate)
                checks, unchecked = [sim.haptic_drop_rate == walk_slotted.drop_rate], False
                for (eps, q_column, d0_column), (bound, status) in zip(_COMPARE_CHECKS, eps_bounds):
                    sim_row[q_column], sim_row[d0_column] = _quantile(delays, 1 - eps), bound[2]
                    if status == "ok" and len(delays):
                        checks.append(sim_row[q_column] <= bound[2])
                    # no background packet finished after warm-up: the check cannot run
                    unchecked |= status == "ok" and not len(delays)
                verdict = "fail" if not all(checks) else "unchecked" if unchecked else "pass"
                sim_row["verdict"] = "infeasible" if row["status"] == "infeasible" else verdict
            rows.append(sim_row)
    return rows


def run_experiment(spec: ExperimentSpec) -> int:
    """Execute one experiment and write its CSV.  Returns the exit status:
    0 on success, 2 when compare mode found a violated check.  A verb
    without a grid runs at one point, the loaded configuration itself."""
    loaded = spec.loaded
    points = [loaded]
    if spec.sweep_values:
        # a generator, so that each point, with the values cached on its
        # models, is freed once its rows are built
        points = (loaded.at_point(**{spec.sweep_param: value}) for value in spec.sweep_values)
    rows = [row for point in points for row in _point_rows(point, spec.mode)]
    columns = ("scheme", "tti_s", "t_ib_s", *COLUMNS[spec.mode], "config_hash")
    # str of a float is its repr, the shortest text that reads back the same
    cells = itemgetter(*columns)
    lines = [",".join(columns)] + [",".join(map(str, cells(row))) for row in rows]
    text = "\n".join(lines) + "\n"
    if spec.out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(spec.out).write_text(text)
    return 2 if any(row.get("verdict") == "fail" for row in rows) else 0
