#!/usr/bin/env python3
"""Repeat statistics behind the bounds in BENCHMARK.json.

    python3 bench/steadiness.py --runs 10 --sets 2 --out bench/steadiness.json

Runs ``bench/run.py`` once per seed on every workload, one run at a time,
and reports for each end-to-end metric the median, the quartiles, and the
spread (third minus first quartile, over the median) next to the metric's
bound. Each further set uses the next ``--runs`` seeds and also reports how
much worse its median is than the first set's. The bounds hold when every
spread except that of setup_s stays within its bound and no median gets
worse by more than its bound; they are comfortable when the spreads stay
below a third of it. With ``--out`` the figures and the machine they came
from are written as JSON.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "commit": _commit(),
            "run_seconds": spec["run_seconds"],
        },
        "sets": [],
    }
    for index in range(args.sets):
        first_seed = args.first_seed + index * args.runs
        seeds = list(range(first_seed, first_seed + args.runs))
        result = {"seeds": seeds, "workloads": {}}
        for workload in workloads:
            rows = _measure(spec, workload, seeds, metrics)
            result["workloads"][workload] = rows
            for name, row in rows.items():
                bound = metrics[name]["bound"]
                line = (f"set {index + 1} {workload:8s} {name:12s} median {row['median']:12.4f}"
                        f"  IQR/median {row['spread']:.4f}  bound {bound:.3f}"
                        f"  spread/bound {row['spread'] / bound:.2f}")
                if index:
                    base = report["sets"][0]["workloads"][workload][name]["median"]
                    worse = (row["median"] - base) / base
                    if metrics[name]["better"] == "higher":
                        worse = -worse
                    row["worse_than_set_1"] = worse
                    line += f"  worse than set 1 by {worse:+.4f}"
                print(line, flush=True)
        report["sets"].append(result)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


def _measure(spec, workload, seeds, metrics):
    values: dict[str, list[float]] = {name: [] for name in metrics}
    for seed in seeds:
        proc = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
        if proc.returncode or not result.get("correct"):
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, {proc.stderr[-2000:]}")
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
    rows = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        rows[name] = {"median": median, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / median if median else 0.0, "values": vals}
    return rows


if __name__ == "__main__":
    main()
