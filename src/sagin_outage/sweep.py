"""Sweep execution over one configuration variable, throughput, and CSV emission.

Throughput combines the two outage probabilities by ``throughput_from_ops``,
both in a sweep's ``throughput_{method}`` cells and in ``avg_throughput``.

The CSV schema is fixed (schema v1): one row per grid point, every column
always present, floats at 10 significant digits, '.' decimal separator,
newline-terminated rows, and a cell that holds a comma, a quote or a newline
(a diagnostic) in double quotes.  Methods that were not requested leave their
cells empty; per-point numeric failures are recorded in the diagnostics column
and the run continues.
"""

import csv
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .analytic import (op_a2a_closed, op_a2a_integral, op_s2g_closed,
                       op_s2g_integral)
from .config import METHODS
from .errors import ConfigError, NumericError
from .mc import simulate_op
from .swipt import IM_IC

SCHEMA_COLUMNS = (
    "sweep_variable", "sweep_value",
    "op_s2g_mc", "se_s2g_mc", "op_s2g_closed", "op_s2g_integral",
    "op_a2a_im_mc", "se_a2a_im_mc", "op_a2a_im_closed", "op_a2a_im_integral",
    "op_a2a_p_mc", "se_a2a_p_mc", "op_a2a_p_closed", "op_a2a_p_integral",
    "throughput_mc", "throughput_closed", "throughput_integral",
    "diagnostics",
)


@dataclass
class SweepResult:
    variable: str
    rows: list = field(default_factory=list)

    @property
    def any_point_all_failed(self):
        return any(r.get("_all_failed", False) for r in self.rows)


def _worker_count():
    env = os.environ.get("SAGIN_THREADS")
    if not env:
        # the CPUs this process may run on, which a pinned process has fewer of
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        return min(8, cpus or 1)
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"SAGIN_THREADS must be a positive integer, got {env!r}")
    return n


def _cases(cfg):
    """(column stem, network, ic_mode) of every requested outage output."""
    cases = [("s2g", "s2g", IM_IC)] if "s2g" in cfg.networks else []
    if "a2a" in cfg.networks:
        cases += [("a2a_im" if m == IM_IC else "a2a_p", "a2a", m) for m in cfg.ic_modes]
    return cases


# closed cells run one at a time.  A closed cell is a run of short numpy calls
# (the G2113 ladder steps a few hundred points per rung), each of which releases
# and retakes the interpreter lock, so two closed cells side by side take more
# CPU time than one after the other and finish no sooner; integral cells scale
# and keep the pool
_CLOSED_LOCK = threading.Lock()


def _analytic(cfg, method, network, mode):
    # evaluators are looked up by module attribute at call time, so a wrapper
    # set on this module (a tracer, a test double) sees every call
    if method == "closed":
        with _CLOSED_LOCK:
            if network == "s2g":
                return op_s2g_closed(cfg.gamma_s, cfg)
            return op_a2a_closed(cfg.gamma_a, cfg, ic_mode=mode)
    if network == "s2g":
        return op_s2g_integral(cfg.gamma_s, cfg)
    return op_a2a_integral(cfg.gamma_a, cfg, ic_mode=mode)


def throughput_from_ops(cfg, op_s2g, op_a2a):
    """(1 - rho) T / 2 * [r_s (1 - OP_s2g) + r_a (1 - OP_a2a)]."""
    sp = cfg.sp
    pre = (1.0 - sp.rho) * sp.block_s / 2.0
    r_s = cfg.raw["rates.r_s"]
    r_a = cfg.raw["rates.r_a"]
    return float(pre * (r_s * (1.0 - op_s2g) + r_a * (1.0 - op_a2a)))


def simulate_throughput(cfg, trials=None, seed=None, ic_mode=IM_IC):
    """Average throughput with both outage terms estimated on the same draws."""
    res = simulate_op(cfg, [("s2g", IM_IC), ("a2a", ic_mode)], trials=trials, seed=seed)
    return throughput_from_ops(cfg, res["s2g", IM_IC].value, res["a2a", ic_mode].value)


def avg_throughput(cfg, method="closed", ic_mode=IM_IC):
    """Average throughput with the outage terms from the chosen path."""
    if method == "mc":
        return simulate_throughput(cfg, ic_mode=ic_mode)
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    return throughput_from_ops(cfg, _analytic(cfg, method, "s2g", IM_IC),
                               _analytic(cfg, method, "a2a", ic_mode))


def _evaluate_point(cfg, variable, value, seed, pool):
    row = {c: "" for c in SCHEMA_COLUMNS}
    row["sweep_variable"] = variable
    row["sweep_value"] = value if value is not None else ""
    diags = []
    ops = {}
    cases = _cases(cfg)
    methods = [m for m in METHODS if m in cfg.methods]
    # one set of draws serves every MC output of the point; pool workers with
    # no point left to take help with its blocks
    shared = (simulate_op(cfg, [(net, mode) for _, net, mode in cases], seed=seed,
                          executor=pool)
              if "mc" in methods and cases else None)
    for stem, net, mode in cases:
        for meth in methods:
            key = f"op_{stem}_{meth}"
            if meth == "mc":
                est = shared[net, mode]
                row[f"se_{stem}_mc"] = est.std_error
                diags.extend(f"{stem}_mc:{f}" for f in est.flags)
                ops[key] = est.value
            else:
                try:
                    ops[key] = _analytic(cfg, meth, net, mode)
                except NumericError as exc:
                    diags.append(f"{key}:{exc}")
                    ops[key] = None
            row[key] = "" if ops[key] is None else ops[key]

    # throughput needs both networks; the im-IC outage feeds it when both modes run
    if "s2g" in cfg.networks and "a2a" in cfg.networks:
        a_stem = "a2a_im" if IM_IC in cfg.ic_modes else "a2a_p"
        for meth in methods:
            op_s, op_a = ops[f"op_s2g_{meth}"], ops[f"op_{a_stem}_{meth}"]
            if op_s is not None and op_a is not None:
                row[f"throughput_{meth}"] = throughput_from_ops(cfg, op_s, op_a)

    row["_all_failed"] = bool(ops) and all(v is None for v in ops.values())
    row["diagnostics"] = ";".join(diags)
    return row


def point_configs(cfg):
    """[(value, config)] of the grid points, each config carrying no sweep, or [(None, cfg)];
    a value the swept key rejects raises ConfigError naming both."""
    variable, points = cfg.raw["sweep.variable"], []
    for val in cfg.sweep_values if variable else [None]:
        try:
            points.append((val, cfg if val is None else
                           cfg.with_overrides({variable: val, "sweep.variable": None})))
        except ConfigError as exc:
            raise ConfigError(f"sweep point {variable} = {val!r}: {exc}") from exc
    return points


def run_sweep(cfg):
    """Evaluate every requested method on the configured grid."""
    points = point_configs(cfg)
    result = SweepResult(variable=cfg.raw["sweep.variable"] or "")
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        futs = [pool.submit(_evaluate_point, c, result.variable, v, cfg.seed + i, pool)
                for i, (v, c) in enumerate(points)]
        result.rows = [f.result() for f in futs]   # grid order regardless of finish
    return result


def _fmt(v):
    if v == "" or v is None:
        return ""
    if isinstance(v, str):
        return v
    return f"{float(v):.10g}"


def emit_csv(result, path):
    """Write the sweep result with the fixed schema-v1 column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCHEMA_COLUMNS)
        writer.writerows([_fmt(row.get(c, "")) for c in SCHEMA_COLUMNS]
                         for row in result.rows)
