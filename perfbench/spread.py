"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads docs-hibert docs-etc --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per (workload, seed), one after another, and
prints for each metric its median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound from ``BENCHMARK.json``. The
raw results go to ``.perfbench/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads:
        runs = results.setdefault(workload, [])
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            runs.append(result)
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        print(f"== {workload} ({len(runs)} runs)")
        names = sorted({k for r in runs for k in r.get("metrics", {})})
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / abs(med):.4f}"
            else:
                spread = "n/a"
            bound = bounds.get(name)
            target = f"{bound / 3:.4f}" if bound is not None else "-"
            print(f"  {name:36s} median {med:12.6g}  spread {spread:>8s}  bound/3 {target}")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
