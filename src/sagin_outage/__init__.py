"""Outage probability and throughput of an overlay satellite/aerial relay network.

Three mutually cross-validating evaluation paths: exact Monte Carlo
simulation, direct numerical integration of the probability integrals, and
closed-form series with Gauss-Legendre quadrature for the residual
one-dimensional integrals over the satellite distance.
"""

from .analytic import (op_a2a_closed, op_a2a_integral, op_s2g_closed,
                       op_s2g_integral)
from .config import (FIGURE_PRESETS, ScenarioConfig, apply_preset,
                     config_from_mapping, default_config, load_config)
from .errors import ConfigError, DomainError, NumericError
from .mc import OutageEstimate, common_random_numbers_compare, simulate_op
from .sweep import (SweepResult, avg_throughput, emit_csv, run_sweep,
                    simulate_throughput)
from .swipt import IM_IC, P_IC, gamma_from_rate

__version__ = "0.1.0"

__all__ = [
    "avg_throughput", "op_s2g_closed", "op_s2g_integral",
    "op_a2a_closed", "op_a2a_integral",
    "ScenarioConfig", "config_from_mapping", "default_config", "load_config",
    "FIGURE_PRESETS", "apply_preset",
    "ConfigError", "DomainError", "NumericError",
    "OutageEstimate", "simulate_op", "simulate_throughput",
    "common_random_numbers_compare",
    "SweepResult", "run_sweep", "emit_csv",
    "IM_IC", "P_IC", "gamma_from_rate",
    "__version__",
]
