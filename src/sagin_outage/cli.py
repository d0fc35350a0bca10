"""Command-line interface: run sweeps, validate configs, check the oracle table.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

import argparse
import os
import sys
from importlib import resources

from .config import (FIGURE_PRESETS, apply_preset, default_config, load_config)
from .errors import ConfigError, NumericError
from .specfun import run_oracle_suite
from .sweep import emit_csv, point_configs, run_sweep


def _load(args):
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "figure", None):
        cfg = apply_preset(cfg, args.figure)
    overrides = {}
    if getattr(args, "trials", None) is not None:
        overrides["run.trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        overrides["run.seed"] = args.seed
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg


def _check_out(path):
    """ConfigError unless a file can be written at path, checked before the sweep runs."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.basename(path):
        raise ConfigError(f"cannot write output file {path}: it names no file")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write output file {path}: {folder} is not a writable "
                          "directory")


def _cmd_run(args):
    cfg = _load(args)
    _check_out(args.out)
    result = run_sweep(cfg)
    emit_csv(result, args.out)
    n_fail = sum(1 for r in result.rows if r["diagnostics"])
    print(f"wrote {len(result.rows)} rows to {args.out}"
          + (f" ({n_fail} rows carry diagnostics)" if n_fail else ""))
    if result.any_point_all_failed:
        print("numeric failure: every method failed at some grid point", file=sys.stderr)
        return 3
    return 0


def _cmd_validate(args):
    cfg = _load(args)
    points = point_configs(cfg)     # as run builds them: a value its key rejects exits 2
    print("configuration valid")
    print(f"  eta_s            : {cfg.eta_s:.6g}")
    print(f"  gamma_s / gamma_a: {cfg.gamma_s:.6g} / {cfg.gamma_a:.6g}")
    print(f"  networks         : {', '.join(cfg.networks)}")
    print(f"  methods          : {', '.join(cfg.methods)}")
    if cfg.sweep_values:
        print(f"  sweep            : {cfg.raw['sweep.variable']} over {len(points)} points "
              f"[{points[0][0]:g} .. {points[-1][0]:g}]")
    return 0


def _cmd_oracle_check(args):
    if args.table:
        path = args.table
        n_pass, failures, max_rel = run_oracle_suite(path)
    else:
        ref = resources.files("sagin_outage").joinpath("data/specfun_oracle.txt")
        with resources.as_file(ref) as path:
            n_pass, failures, max_rel = run_oracle_suite(str(path))
    total = n_pass + len(failures)
    print(f"oracle fixtures: {n_pass}/{total} pass, worst relative error {max_rel:.3e}")
    for line in failures:
        print("  FAIL", line)
    return 0 if not failures else 3


def build_parser():
    p = argparse.ArgumentParser(prog="sagin-outage",
                                description="Outage and throughput of an overlay "
                                            "satellite/aerial relay network")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a sweep and write CSV")
    run.add_argument("--config", help="dotted-key configuration file")
    run.add_argument("--figure", choices=sorted(FIGURE_PRESETS),
                     help="apply a figure-style sweep preset")
    run.add_argument("--trials", type=int, help="override run.trials")
    run.add_argument("--seed", type=int, help="override run.seed")
    run.add_argument("--out", required=True, help="output CSV path")
    run.set_defaults(fn=_cmd_run)

    val = sub.add_parser("validate", help="load and validate a configuration")
    val.add_argument("--config", help="dotted-key configuration file")
    val.add_argument("--figure", choices=sorted(FIGURE_PRESETS))
    val.set_defaults(fn=_cmd_validate)

    orc = sub.add_parser("oracle-check",
                         help="compare special functions against the committed table")
    orc.add_argument("--table", help="alternative oracle table path")
    orc.set_defaults(fn=_cmd_oracle_check)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
