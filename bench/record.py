"""Run every workload over several seeds and keep the results as BENCH_<label>.json.

    python3 bench/record.py --label baseline --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 2

Runs ``bench/run.py`` once per (workload, seed) with tracing off, and once
per (workload, traced seed) with tracing on, one run at a time, each for
the ``run_seconds`` of ``BENCHMARK.json``.  Prints
every metric by name and unit with its median and quartile spread
(q3 - q1) / median over the seeds, and writes all of it, with the
machine's core count, Python and numpy versions and the git commit, to
``bench/history/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import GENERATORS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty-src" if dirty else "")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    """Median and (q3 - q1) / median of every metric over the runs."""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        spread = None
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        out[name] = {"median": median, "spread": spread, "unit": first["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--traced-seeds", type=int, nargs="*", default=[1])
    args = p.parse_args(argv)

    record = {
        "label": args.label,
        "git_commit": git_commit(),
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "seconds": RUN_SECONDS,
        "seeds": args.seeds,
        "traced_seeds": args.traced_seeds,
        "workloads": {},
    }
    for workload in sorted(GENERATORS):
        entry = {}
        for trace, seeds in ((0, args.seeds), (1, args.traced_seeds)):
            if not seeds:
                continue
            runs = []
            for seed in seeds:
                result = one_run(workload, seed, RUN_SECONDS, trace)
                runs.append({"seed": seed, **result})
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            key = "traced" if trace else "untraced"
            entry[key] = {"runs": runs, "summary": summarize(runs)}
            for name, s in entry[key]["summary"].items():
                spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {workload:18s} {name:36s} {s['median']:.6g} {s['unit']:6s} "
                      f"spread={spread}", flush=True)
        record["workloads"][workload] = entry

    out = BENCH_DIR / "history" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
