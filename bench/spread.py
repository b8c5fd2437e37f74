"""Run workloads over several seeds and summarise every metric: median,
quartiles and the spread (third minus first quartile, as a share of the
median), the figure each end-to-end bound in BENCHMARK.json must cover.

    python3 bench/spread.py --seeds 1-10 --out bench/baseline.json
    python3 bench/spread.py --seeds 1-5 --workloads formula-solve --trace-seed 0

Each run is `bench/run.py` in its own process, one at a time. With
--trace-seed N > 0 every workload also gets one traced run with seed N,
whose per-layer metrics are stored beside the summary.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version()}


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"commit": commit(), "machine": machine(), "run_seconds": bench["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seeds(args.seeds):
            result = run(workload, seed, bench["run_seconds"], 0)
            runs[seed] = result
            print(workload, seed, json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                  file=sys.stderr, flush=True)
        entry = {"failed": sum(r["failed"] for r in runs.values()),
                 "attempted": sum(r["attempted"] for r in runs.values()), "metrics": {}}
        for name in bounds:
            s = summary([r["metrics"][name]["value"] for r in runs.values()])
            s["within_third_of_bound"] = s["spread"] < bounds[name] / 3
            entry["metrics"][name] = s
        entry["runs"] = {seed: {k: v["value"] for k, v in r["metrics"].items()} for seed, r in runs.items()}
        if args.trace_seed > 0:
            traced = run(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        for name, s in entry["metrics"].items():
            print(f"{workload:18s} {name:14s} median {s['median']:.5g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[name]}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
