"""Uplink grant-scheme analysis for latency-critical traffic.

The package models four uplink grant mechanisms (dynamic scheduling,
semi-persistent standing grants, soft resource reservation and grant-free
fast uplink), computes exact drop behaviour and the capacity left to
background traffic, bounds the background traffic's delay with stochastic
service envelopes, and validates everything against a slot-accurate
simulator.
"""

from .curves import (
    ArrivalCurve,
    DelayBoundResult,
    LeftoverServiceCurve,
    crossing_time,
    effective_bandwidth,
    horizontal_distance,
    leftover_delay_bound_details,
    max_stable_theta,
)
from .errors import ConfigError, InfeasibleError
from .experiments import ExperimentSpec, LoadedConfig, linear_grid, load_config, run_experiment
from .radio import (
    RadioConfig,
    SchedulingScheme,
    ds_grant_latency,
    fa_grant_latency,
    haptic_access_delay,
    haptic_blocks,
)
from .scheduling import DropReport, drop_walk, remainder_of_service
from .simulate import SimConfig, SimReport, empirical_quantile, run, validate_against_walk
from .traffic import (
    ArrivalTimeline,
    HapticTrafficModel,
    LeftoverTrafficModel,
    SizeDistribution,
    leftover_arrivals,
)

__version__ = "0.1.0"
