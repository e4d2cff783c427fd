"""Record a baseline: ten seeds per workload, median and quartiles per metric.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 101] [--out perfbench/baseline.json]

From the checkout root.  Each workload runs untraced once per seed, then
once traced (first seed) for the per-layer metrics.  For every end-to-end
metric the output gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (interquartile
distance over the median), which must stay within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(contract: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *contract["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(contract["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-3000:]}")
    result["wall_s"] = time.perf_counter() - started
    if trace:
        result["trace_table"] = proc.stderr
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", default="perfbench/baseline.json")
    args = parser.parse_args()
    contract = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    names = [w["name"] for w in contract["workloads"]]
    out = {
        "machine": f"{platform.machine()}, {platform.processor() or 'cpu'}, "
                   f"{__import__('os').cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": contract["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
        "workloads": {},
    }
    worst = 0.0
    for workload in names:
        runs = [run_once(contract, workload, seed, 0) for seed in out["seeds"]]
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = stats
            flag = "" if name == "setup_s" or stats["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, stats["spread"] / bounds[name])
            print(f"{workload:20s} {name:22s} median {stats['median']:12.4f} spread {stats['spread']:.3f}"
                  f" (bound {bounds[name]}){flag}")
        traced = run_once(contract, workload, out["seeds"][0], 1)
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "run_wall_s": statistics.median(r["wall_s"] for r in runs),
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_table": traced["trace_table"].strip().splitlines(),
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"worst spread / bound: {worst:.2f}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
