"""Scan random configs with the closed and integral paths, cell by cell.

    PYTHONPATH=src python3 tools/closed_scan.py [--knee] [--compare OLD.jsonl] [N]

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
call.  A summary line follows: the blank ``closed`` cells by message and how
many of them are below the knee, how many ``closed`` values lie more than 2e-4
from ``integral``, the largest |closed - integral|, ``closed_cpu_s``, the
total over every cell and route, and ``slowest_blank_closed_cpu_s``, the most
any blank ``closed`` cell took.

``--compare OLD.jsonl`` reads the output of an earlier scan (of another tree,
with the same N and ``--knee``) and then prints one line per cell whose
``closed`` cell changed: its value moved, it went between blank and filled, or
its message changed.  A last line counts each kind over the cells both scans
have, and gives ``max_abs_moved``: the largest |new - old| over the
``value_moved`` cells, ``all`` of them and those ``not_below_knee``, each as
``{"value", "index", "case"}`` of the cell that reached it (null when no such
cell moved).  The time fields vary from run to run and are not compared.  The
scan exits 1 when a cell went from filled to blank, and 0 otherwise.
"""

import argparse
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


def read_scan(path):
    """The cell lines of a scan's output, {(index, case): line}."""
    with open(path) as fh:
        return {(line["index"], line["case"]): line
                for line in map(json.loads, fh) if "index" in line}


def compare(old, cells):
    """One line per cell of cells whose closed cell differs from old's, both as
    read_scan returns them, then the counts by kind of change; returns the counts."""
    kinds = dict.fromkeys(("compared", "value_moved", "blank_to_filled", "filled_to_blank",
                           "message_changed"), 0)
    moved = {"all": None, "not_below_knee": None}
    for key, new in cells.items():
        was = old.get(key)
        if was is None:
            continue
        kinds["compared"] += 1
        if (was["closed"] is None) != (new["closed"] is None):
            kind = "filled_to_blank" if new["closed"] is None else "blank_to_filled"
        elif was["closed"] != new["closed"]:
            kind = "value_moved"
            by = abs(new["closed"] - was["closed"])
            scopes = ("all",) if new["below_knee"] else ("all", "not_below_knee")
            for scope in scopes:
                if moved[scope] is None or by > moved[scope]["value"]:
                    moved[scope] = {"value": by, "index": key[0], "case": key[1]}
        elif was["closed_error"] != new["closed_error"]:
            kind = "message_changed"
        else:
            continue
        kinds[kind] += 1
        print(json.dumps({"index": key[0], "case": key[1], "change": kind,
                          "old_closed": was["closed"], "old_closed_error": was["closed_error"],
                          "closed": new["closed"], "closed_error": new["closed_error"]}))
    print(json.dumps({"cells": len(cells), **kinds, "max_abs_moved": moved}))
    return kinds


def main(argv=None):
    parser = argparse.ArgumentParser(description="Scan random configs with closed and integral.")
    parser.add_argument("n", nargs="?", type=int, default=300, help="configs to scan")
    parser.add_argument("--knee", action="store_true", help="add the knee draw")
    parser.add_argument("--compare", metavar="OLD.jsonl", help="an earlier scan's output")
    args = parser.parse_args(argv)
    old = read_scan(args.compare) if args.compare else None
    blank, knee_blank, off, worst, cpu, slowest_blank = Counter(), 0, 0, 0.0, 0.0, 0.0
    cells = {}
    for i in range(args.n):
        cfg = config_from_mapping(scan_config(i, args.knee))
        for case, closed_fn, integral_fn, kwargs in CASES:
            gamma = cfg.gamma_s if case == "s2g" else cfg.gamma_a
            oc = build_case(cfg, case[:3], kwargs.get("ic_mode", IM_IC), gamma)
            below_knee = oc.sat_scale > 0.0 and oc.p_sat <= 0.0
            start = time.thread_time()
            closed, closed_err = _evaluate(closed_fn, gamma, cfg, kwargs)
            closed_cpu = time.thread_time() - start
            cpu += closed_cpu
            integral, integral_err = _evaluate(integral_fn, gamma, cfg, kwargs)
            line = cells[i, case] = {"index": i, "case": case, "below_knee": below_knee,
                                     "closed": closed, "closed_error": closed_err,
                                     "integral": integral, "integral_error": integral_err,
                                     "closed_cpu_s": closed_cpu}
            print(json.dumps(line), flush=True)
            if closed is None:
                blank[closed_err] += 1
                knee_blank += below_knee
                slowest_blank = max(slowest_blank, closed_cpu)
            elif integral is not None:
                off += abs(closed - integral) > OFF_TOL
                worst = max(worst, abs(closed - integral))
    print(json.dumps({"cells": 3 * args.n, "blank_closed": dict(blank),
                      "below_knee_blank_closed": knee_blank,
                      "closed_off_integral": off, "off_tol": OFF_TOL,
                      "max_abs_closed_minus_integral": worst, "closed_cpu_s": cpu,
                      "slowest_blank_closed_cpu_s": slowest_blank}))
    if old is not None and compare(old, cells)["filled_to_blank"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
