"""One benchmark interpreter.  ``run.py`` starts a fresh one for each job:

  setup    time ``import sagin_outage`` plus building the workload config;
  cold     one untraced cold sweep;
  measure  untraced cold sweep, warm sweeps for the requested seconds (at
           least one), then the integral reference;
  trace    1-worker cold and warm sweeps with every layer wrapped, untraced
           warm sweeps with 1 and with all workers, then the reference.

Each job prints one JSON object as its last line of standard output.  The
worker count comes from ``SAGIN_THREADS``, which ``run.py`` sets.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (standard library only)


def _timed_sweep(cfg, csv_path):
    """Wall, CPU and emit time of one ``run_sweep`` plus ``emit_csv``."""
    from sagin_outage.sweep import emit_csv, run_sweep
    t0 = time.perf_counter()
    c0 = time.process_time()
    result = run_sweep(cfg)
    t1 = time.perf_counter()
    emit_csv(result, csv_path)
    t2 = time.perf_counter()
    cpu = time.process_time() - c0
    return result, {"wall_s": t2 - t0, "cpu_s": cpu, "emit_ms": (t2 - t1) * 1e3}


def _rows(result):
    return [{k: v for k, v in row.items() if not k.startswith("_")} for row in result.rows]


def _with_reference(cfg, result):
    """Cells of ``result`` and the integral reference, computed now, untimed."""
    from sagin_outage.sweep import run_sweep
    ref = run_sweep(cfg.with_overrides({"run.methods": "integral"}))
    return {
        "rows": _rows(result), "ref_rows": _rows(ref),
        "networks": list(cfg.networks), "ic_modes": list(cfg.ic_modes),
        "methods": list(cfg.methods), "trials": cfg.trials,
    }


def job_setup(args):
    t0 = time.perf_counter()
    from sagin_outage.config import config_from_mapping
    cfg = config_from_mapping(workloads.mapping(args.workload, args.seed))
    cfg.sweep_values
    return {"setup_s": time.perf_counter() - t0}


def _cold(args):
    from sagin_outage.config import config_from_mapping
    cfg = config_from_mapping(workloads.mapping(args.workload, args.seed))
    cold_csv = Path(args.out) / "cold.csv"
    _, cold = _timed_sweep(cfg, cold_csv)
    return cfg, cold, cold_csv.read_text()


def job_cold(args):
    _, cold, cold_text = _cold(args)
    return {"cold": cold, "cold_csv": cold_text}


def job_measure(args):
    cfg, cold, cold_text = _cold(args)
    out = Path(args.out)
    warm_csv = out / "warm.csv"
    warm = []
    warm_mismatch = None
    while not warm or sum(w["wall_s"] for w in warm) < args.seconds:
        result, stats = _timed_sweep(cfg, warm_csv)
        warm.append(stats)
        text = warm_csv.read_text()
        if text != cold_text and warm_mismatch is None:
            warm_mismatch = text
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "cold": cold, "warm": warm, "peak_rss_mb": peak_rss_mb,
        "cold_csv": cold_text, "warm_csv": warm_mismatch or cold_text,
        **_with_reference(cfg, result),
    }


def job_trace(args):
    import tracing
    from sagin_outage.config import config_from_mapping
    cfg = config_from_mapping(workloads.mapping(args.workload, args.seed))
    out = Path(args.out)
    tracer = tracing.Tracer(args.workload, cfg.raw["sweep.variable"])
    tracer.install()
    try:
        tracer.phase = "cold"
        _, cold = _timed_sweep(cfg, out / "traced_cold.csv")
        tracer.phase = "warm"
        _, warm = _timed_sweep(cfg, out / "traced_warm.csv")
    finally:
        tracer.restore()
    tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    layers = tracing.layer_metrics(tracer.spans)
    tracer.spans.clear()
    # untraced baselines in the same interpreter: the tracing overhead and the
    # parallel speed-up compare warm sweeps run one after the other
    _, single = _timed_sweep(cfg, out / "untraced_warm.csv")
    os.environ["SAGIN_THREADS"] = str(len(os.sched_getaffinity(0)))
    result, parallel = _timed_sweep(cfg, out / "parallel_warm.csv")
    texts = {name: (out / f"{name}.csv").read_text()
             for name in ("traced_cold", "traced_warm", "untraced_warm", "parallel_warm")}
    return {
        "cold": cold, "warm": warm, "single": single, "parallel": parallel,
        "cold_csv": texts.pop("traced_cold"), "warm_csv": texts.pop("parallel_warm"),
        "csv": texts, "layers": layers,
        **_with_reference(cfg, result),
    }


JOBS = {"setup": job_setup, "cold": job_cold, "measure": job_measure, "trace": job_trace}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("job", choices=sorted(JOBS))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out", required=True, help="directory for CSV and span files")
    args = p.parse_args(argv)
    print(json.dumps(JOBS[args.job](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
