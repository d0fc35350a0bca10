"""Sweep benchmark: run one workload, check its numbers, print its metrics.

    python3 perfbench/run.py --workload mc-crn --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each measurement starts a fresh interpreter
(``child.py``) on ``src/``, as a ``sagin-outage run`` invocation would.

--trace 0   end-to-end metrics: set-up time (median over several fresh
            interpreters), cold sweeps in fresh interpreters and warm sweeps
            in the last one, each repeated until ``--seconds`` is spent
            (medians), CPU time and peak RSS.
--trace 1   per-layer metrics: a 1-worker interpreter wraps each layer from
            outside the package for a cold and a warm sweep, then runs
            untraced warm sweeps with 1 and with all workers; its spans go
            to ``.perfbench/``.

Both modes check every requested outage cell against an ``integral``
reference computed outside the timed region, and check that CSVs that must be
byte-identical are.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 8
MAX_COLD_RUNS = 3
DEADLINE_S = 175          # a whole run, children included
BLAS_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _workers():
    return len(os.sched_getaffinity(0))


def _child(job, args, out_dir, workers, deadline, extra=()):
    env = dict(os.environ)
    env.update({cap: "1" for cap in BLAS_CAPS})
    env["SAGIN_THREADS"] = str(workers)
    cmd = [sys.executable, str(HERE / "child.py"), job, "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out_dir), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"{job} child failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine(args, workers):
    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_model": model or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "sagin_threads": workers,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_repeats": SETUP_REPEATS,
    }


def _check(measured, report):
    columns = checks.op_columns(measured["networks"], measured["ic_modes"],
                                measured["methods"])
    checks.check_cells(measured["rows"], measured["ref_rows"], columns,
                       measured["trials"], report)
    checks.check_identical("cold vs warm CSV", measured["cold_csv"],
                           measured["warm_csv"], columns, report)
    return columns


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    workers = _workers()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    machine = _machine(args, workers)
    report = checks.Report()
    if args.trace:
        traced = _child("trace", args, out_dir, 1, deadline)
        columns = _check(traced, report)
        for name, text in traced["csv"].items():
            checks.check_identical(f"1-worker {name} vs {workers}-worker warm CSV",
                                   traced["warm_csv"], text, columns, report)
        single, parallel = traced["single"], traced["parallel"]
        machine["traced_workers"] = 1
        metrics = dict(traced["layers"])
        metrics.update({
            "sweep.parallel_speedup": single["wall_s"] / parallel["wall_s"],
            "sweep.emit_csv_ms": parallel["emit_ms"],
            "trace.overhead_share": traced["warm"]["wall_s"] / single["wall_s"] - 1.0,
        })
    else:
        def setup_probes(n):
            return [_child("setup", args, out_dir, workers, deadline)["setup_s"]
                    for _ in range(n)]

        # half the set-up probes before the sweeps and half after, so that
        # their median spans the run rather than a few seconds of it
        setups = setup_probes(SETUP_REPEATS // 2)
        measured = _child("measure", args, out_dir, workers, deadline,
                          ["--seconds", str(args.seconds)])
        columns = _check(measured, report)
        colds = [measured["cold"]["wall_s"]]
        while sum(colds) < args.seconds and len(colds) < MAX_COLD_RUNS:
            cold = _child("cold", args, out_dir, workers, deadline)
            colds.append(cold["cold"]["wall_s"])
            checks.check_identical("cold CSVs of two interpreters", measured["cold_csv"],
                                   cold["cold_csv"], columns, report)
        setups += setup_probes(SETUP_REPEATS - len(setups))
        warm = measured["warm"]
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_sweep_s": statistics.median(colds),
            "sweep_s": statistics.median(w["wall_s"] for w in warm),
            "sweep_cpu_s": statistics.median(w["cpu_s"] for w in warm),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        machine.update(cold_sweeps=len(colds), warm_sweeps=len(warm))
    metrics.update({
        "failed_share": report.failed_share,
        "closed_err_abs_max": report.closed_err_abs_max,
        "closed_err_rel_max": report.closed_err_rel_max,
        "mc_err_sigma_max": report.mc_err_sigma_max,
    })
    return machine, report, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sagin_outage" / "__init__.py").is_file():
        print(f"perfbench: no sagin_outage sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    try:
        machine, report, metrics = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(reported) - set(metrics))
    if unknown or missing:
        print(f"perfbench: metrics not in BENCHMARK.json {unknown}, "
              f"not measured {missing}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(machine))
    for message in report.messages:
        print("FAIL " + message)
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": report.failed == 0 and not report.messages,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())


