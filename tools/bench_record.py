"""Record one BENCH file: perfbench medians of a parent commit and of this tree.

    python3 tools/bench_record.py --out BENCH_<n>.json

Run from the repository root.  This tree (with any uncommitted changes) is the
change.  Its parent is ``HEAD`` when tracked files have uncommitted (staged or
unstaged) changes and ``HEAD~1`` when they have none.  The parent is exported
with ``git archive`` into a temporary directory.  For every workload in
``BENCHMARK.json`` and both ``--trace 0`` (end-to-end) and ``--trace 1``
(per-layer), ``perfbench/run.py`` runs REPEATS = 10 times on each side (the
fewest pairs a gain may be judged on) for the ``run_seconds`` of
``BENCHMARK.json``, in pairs that share a seed (1, 2, ...) and alternate which
side runs first.  The file keeps every run and the median of each metric per
side.  It records what was measured and judges nothing: the exit status is
nonzero only when a run could not be made.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 10
MACHINE_KEYS = ("cpu_model", "nproc", "affinity", "sagin_threads", "blas_threads",
                "python", "numpy", "scipy", "setup_repeats")


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev, dest):
    """Write the files of git revision rev under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _bench(tree, workload, seed, seconds, trace):
    """One perfbench/run.py run in tree: (machine dict, result dict)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(ln[len("machine "):]) for ln in lines
                   if ln.startswith("machine "))
    return machine, json.loads(lines[-1])


def _summary(runs):
    """Median of every metric over the runs of one side."""
    names = runs[0]["metrics"]
    return {n: statistics.median(r["metrics"][n] for r in runs) for n in names}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    parent = "HEAD" if dirty else "HEAD~1"
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace M",
        "seconds": seconds,
        "repeats": REPEATS,
        "seeds": list(range(1, REPEATS + 1)),
        "parent": {"rev": parent, "commit": _git("rev-parse", parent)},
        "change": {"head": _git("rev-parse", "HEAD"), "uncommitted_changes": dirty},
        "machine": None,
        "units": units,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        _export(parent, tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        for w in spec["workloads"]:
            name = w["name"]
            record["workloads"][name] = {}
            for trace in (0, 1):
                runs = {"parent": [], "change": []}
                for i, seed in enumerate(record["seeds"]):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        machine, result = _bench(trees[side], name, seed, seconds, trace)
                        if record["machine"] is None:
                            record["machine"] = {k: machine[k] for k in MACHINE_KEYS}
                        runs[side].append({
                            "seed": seed,
                            "first": side == order[0],
                            "cold_sweeps": machine.get("cold_sweeps"),
                            "warm_sweeps": machine.get("warm_sweeps"),
                            "correct": result["correct"],
                            "failed": result["failed"],
                            "attempted": result["attempted"],
                            "metrics": {n: m["value"] for n, m in result["metrics"].items()},
                        })
                        print(f"{name} trace {trace} seed {seed} {side}: "
                              f"correct={result['correct']}", file=sys.stderr)
                record["workloads"][name][f"trace{trace}"] = {
                    side: {"median": _summary(r), "runs": r} for side, r in runs.items()}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
