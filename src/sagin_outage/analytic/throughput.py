"""Average system throughput from the two outage probabilities."""

from ..errors import ConfigError
from ..swipt import IM_IC
from .closed_form import op_a2a_closed, op_s2g_closed
from .direct_integral import op_a2a_integral, op_s2g_integral


def throughput_from_ops(cfg, op_s2g, op_a2a):
    """(1 - rho) T / 2 * [r_s (1 - OP_s2g) + r_a (1 - OP_a2a)]."""
    sp = cfg.sp
    pre = (1.0 - sp.rho) * sp.block_s / 2.0
    r_s = cfg.raw["rates.r_s"]
    r_a = cfg.raw["rates.r_a"]
    return float(pre * (r_s * (1.0 - op_s2g) + r_a * (1.0 - op_a2a)))


def avg_throughput(cfg, method="closed", ic_mode=IM_IC):
    """Average throughput with the outage terms from the chosen path."""
    if method == "closed":
        op_s = op_s2g_closed(cfg.gamma_s, cfg)
        op_a = op_a2a_closed(cfg.gamma_a, cfg, ic_mode=ic_mode)
    elif method == "integral":
        op_s = op_s2g_integral(cfg.gamma_s, cfg)
        op_a = op_a2a_integral(cfg.gamma_a, cfg, ic_mode=ic_mode)
    elif method == "mc":
        from ..mc import simulate_throughput
        return simulate_throughput(cfg, ic_mode=ic_mode)
    else:
        raise ConfigError(f"unknown method {method!r}")
    return throughput_from_ops(cfg, op_s, op_a)
