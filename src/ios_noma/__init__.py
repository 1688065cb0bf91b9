"""Simulator and analytical rate bounds for an energy-splitting
omni-surface serving users on both of its sides over correlated
Rayleigh channels with imperfect phase adjustment."""

from .analytic import RateBound, Scenario, large_snr_limit, rate_bound
from .channel import (ConfigError, Perfect, PhaseErrorModel, Quantized,
                      SystemParams, UniformFull, VonMises, pathloss,
                      phase_error_from_string)
from .experiments import (Point, ResultRow, ScenarioSpec, SweepSpec,
                          build_point, bundled_spec_names, load_spec,
                          run_sweep, write_csv)
from .geometry import ArrayGeometry, trace_rbar_sq
from .mc import McConfig, McEstimate, mc_estimates

__version__ = "0.1.0"
