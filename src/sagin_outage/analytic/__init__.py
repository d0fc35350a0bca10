"""Analytic outage evaluators: closed-form series and direct numerical integration.

It exports ``build_case`` and the four ``op_*`` evaluators and imports neither
``mc`` nor ``sweep``; throughput, which combines two outages, lives in ``sweep``."""

from .coefficients import build_case
from .closed_form import op_a2a_closed, op_s2g_closed
from .direct_integral import op_a2a_integral, op_s2g_integral

__all__ = [
    "build_case",
    "op_s2g_closed", "op_a2a_closed",
    "op_s2g_integral", "op_a2a_integral",
]
