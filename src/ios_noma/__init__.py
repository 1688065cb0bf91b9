"""Simulator and analytical rate bounds for an energy-splitting
omni-surface serving users on both of its sides over correlated
Rayleigh channels with imperfect phase adjustment."""

from .analytic import (RateBound, Scenario, Verdict, large_snr_limit,
                       quantization_gain, quantization_gain_limit, rate_bound,
                       sum_rate_verdict)
from .channel import (ConfigError, Perfect, PhaseErrorModel, Quantized,
                      SystemParams, UniformFull, VonMises, correlation_factor,
                      db_to_linear, dbm_to_watts, pathloss,
                      phase_error_from_string)
from .experiments import (Point, ResultRow, ScenarioSpec, SweepSpec,
                          build_point, bundled_spec_names, load_spec,
                          run_sweep, write_csv)
from .geometry import (ArrayGeometry, correlation_matrix, cross_moment,
                       trace_rbar_sq)
from .mc import McConfig, McEstimate, mc_estimates
from .specfun import bessel_ratio_i1_i0, elliptic_e, elliptic_k

__version__ = "0.1.0"
