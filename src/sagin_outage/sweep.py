"""Sweep execution over one configuration variable and CSV emission.

The CSV schema is fixed (schema v1): one row per grid point, every column
always present, floats at 10 significant digits, '.' decimal separator,
newline-terminated rows.  Methods that were not requested leave their cells
empty; per-point numeric failures are recorded in the diagnostics column and
the run continues.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .analytic import (op_a2a_closed, op_a2a_integral, op_s2g_closed,
                       op_s2g_integral)
from .analytic.throughput import throughput_from_ops
from .errors import NumericError
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
    columns: tuple = SCHEMA_COLUMNS
    rows: list = field(default_factory=list)

    @property
    def any_point_all_failed(self):
        return any(r.get("_all_failed", False) for r in self.rows)


def _worker_count():
    env = os.environ.get("SAGIN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


METHODS = ("mc", "closed", "integral")


def _cases(cfg):
    """(column stem, network, ic_mode) of every requested outage output."""
    cases = [("s2g", "s2g", IM_IC)] if "s2g" in cfg.networks else []
    if "a2a" in cfg.networks:
        cases += [("a2a_im" if m == IM_IC else "a2a_p", "a2a", m) for m in cfg.ic_modes]
    return cases


def _analytic(cfg, method, network, mode):
    # evaluators are looked up by module attribute at call time, so a wrapper
    # set on this module (a tracer, a test double) sees every call
    if network == "s2g":
        fn = op_s2g_closed if method == "closed" else op_s2g_integral
        return fn(cfg.gamma_s, cfg)
    fn = op_a2a_closed if method == "closed" else op_a2a_integral
    return fn(cfg.gamma_a, cfg, ic_mode=mode)


def _evaluate_point(cfg, variable, value, seed):
    row = {c: "" for c in SCHEMA_COLUMNS}
    row["sweep_variable"] = variable or ""
    row["sweep_value"] = value if value is not None else ""
    diags = []
    ops = {}
    cases = _cases(cfg)
    methods = [m for m in METHODS if m in cfg.methods]
    # one set of draws serves every MC output of the point
    shared = (simulate_op(cfg, [(net, mode) for _, net, mode in cases], seed=seed)
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
            row[key] = _blank(ops[key])

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


def run_sweep(cfg):
    """Evaluate every requested method on the configured grid."""
    variable = cfg.raw["sweep.variable"]
    values = cfg.sweep_values if variable else [None]
    seeds = [cfg.seed + i for i in range(len(values))]
    points = []
    for val in values:
        points.append(cfg if val is None else cfg.with_overrides({variable: val}))
    result = SweepResult(variable=variable or "")
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        futs = [pool.submit(_evaluate_point, c, variable, v, s)
                for c, v, s in zip(points, values, seeds)]
        result.rows = [f.result() for f in futs]   # grid order regardless of finish
    return result


def _blank(v):
    return "" if v is None else v


def _fmt(v):
    if v == "" or v is None:
        return ""
    if isinstance(v, str):
        return v
    return f"{float(v):.10g}"


def emit_csv(result, path):
    """Write the sweep result with the fixed schema-v1 column order."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(SCHEMA_COLUMNS) + "\n")
        for row in result.rows:
            fh.write(",".join(_fmt(row.get(c, "")) for c in SCHEMA_COLUMNS) + "\n")
