"""Scan random configs with the closed and integral paths, cell by cell.

    PYTHONPATH=src python3 tools/closed_scan.py [--knee] [N]

Config i (0 <= i < N, default N = 300) draws from ``random.Random(f"scan-{i}")``,
in this order: ``swipt.p_th_dbm`` (inf with probability 0.1, else U(-10, 40)),
``link.eta_s_db`` U(85, 150), ``swipt.mu`` U(0.55, 0.95), ``swipt.rho``
U(0.05, 0.8), ``swipt.epsilon`` U(0.1, 0.9), ``rates.r_s`` and ``rates.r_a``
U(0.01, 0.5), ``fading.m_rd`` from {1, 2, 3}, ``fading.K_rt`` U(0, 5) and
``swipt.chi`` U(0.3, 0.9); thresholds are ``from_rate`` and every other key keeps
its default.  ``--knee`` adds ``noise.sigma_r_dbm`` U(-10, 20), drawn from
``random.Random(f"knee-{i}")``, which puts the saturation point of many cells
below 0 (the knee scan).  Each config gives three cells, s2g, a2a im-IC and
a2a p-IC, each evaluated by the public ``op_*_closed`` and ``op_*_integral``
functions.

One JSON line is printed per cell: the index, the case, ``below_knee`` (a
feasible non-linear case with saturation point p_sat <= 0), for each method its
value (exact, as JSON writes a float) or its NumericError text, and
``closed_cpu_s``, the thread CPU time (``time.thread_time``) of the ``closed``
call.  A last line summarises: the blank ``closed`` cells by message and how
many of them are below the knee, how many ``closed`` values lie more than 2e-4
from ``integral``, the largest |closed - integral|, and ``closed_cpu_s``, the
total over every cell and route.
Comparing the output of two trees cell by cell shows every value that moved;
the time fields vary from run to run and are not part of that comparison.
"""

import json
import random
import sys
import time
from collections import Counter

from sagin_outage.analytic import (op_a2a_closed, op_a2a_integral, op_s2g_closed,
                                   op_s2g_integral)
from sagin_outage.analytic.coefficients import build_case
from sagin_outage.config import config_from_mapping
from sagin_outage.errors import NumericError
from sagin_outage.swipt import IM_IC, P_IC

OFF_TOL = 2e-4
CASES = (("s2g", op_s2g_closed, op_s2g_integral, {}),
         ("a2a-im-ic", op_a2a_closed, op_a2a_integral, {"ic_mode": IM_IC}),
         ("a2a-p-ic", op_a2a_closed, op_a2a_integral, {"ic_mode": P_IC}))


def scan_config(i, knee=False):
    """The {flat_key: value} mapping of config i, with the knee draw if knee."""
    rng = random.Random(f"scan-{i}")
    p_th = "inf" if rng.random() < 0.1 else rng.uniform(-10.0, 40.0)
    mapping = {"rates.threshold_mode": "from_rate", "swipt.p_th_dbm": p_th,
               "link.eta_s_db": rng.uniform(85.0, 150.0), "swipt.mu": rng.uniform(0.55, 0.95),
               "swipt.rho": rng.uniform(0.05, 0.8), "swipt.epsilon": rng.uniform(0.1, 0.9),
               "rates.r_s": rng.uniform(0.01, 0.5), "rates.r_a": rng.uniform(0.01, 0.5),
               "fading.m_rd": rng.choice([1, 2, 3]), "fading.K_rt": rng.uniform(0.0, 5.0),
               "swipt.chi": rng.uniform(0.3, 0.9)}
    if knee:
        mapping["noise.sigma_r_dbm"] = random.Random(f"knee-{i}").uniform(-10.0, 20.0)
    return mapping


def _evaluate(fn, gamma, cfg, kwargs):
    try:
        return fn(gamma, cfg, **kwargs), None
    except NumericError as exc:
        return None, str(exc)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    knee = "--knee" in argv
    if knee:
        argv.remove("--knee")
    n = int(argv[0]) if argv else 300
    blank, knee_blank, off, worst, cpu = Counter(), 0, 0, 0.0, 0.0
    for i in range(n):
        cfg = config_from_mapping(scan_config(i, knee))
        for case, closed_fn, integral_fn, kwargs in CASES:
            gamma = cfg.gamma_s if case == "s2g" else cfg.gamma_a
            oc = build_case(cfg, case[:3], kwargs.get("ic_mode", IM_IC), gamma)
            below_knee = oc.sat_scale > 0.0 and oc.p_sat <= 0.0
            start = time.thread_time()
            closed, closed_err = _evaluate(closed_fn, gamma, cfg, kwargs)
            closed_cpu = time.thread_time() - start
            cpu += closed_cpu
            integral, integral_err = _evaluate(integral_fn, gamma, cfg, kwargs)
            print(json.dumps({"index": i, "case": case, "below_knee": below_knee,
                              "closed": closed, "closed_error": closed_err,
                              "integral": integral, "integral_error": integral_err,
                              "closed_cpu_s": closed_cpu}),
                  flush=True)
            if closed is None:
                blank[closed_err] += 1
                knee_blank += below_knee
            elif integral is not None:
                off += abs(closed - integral) > OFF_TOL
                worst = max(worst, abs(closed - integral))
    print(json.dumps({"cells": 3 * n, "blank_closed": dict(blank),
                      "below_knee_blank_closed": knee_blank,
                      "closed_off_integral": off, "off_tol": OFF_TOL,
                      "max_abs_closed_minus_integral": worst, "closed_cpu_s": cpu}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
