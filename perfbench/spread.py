"""Run the benchmark over several seeds and report each metric's median and spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads headline_sweep large_diagrams --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --write perfbench/baseline.json

Runs are made one at a time, each in its own process.  The spread of a
metric is the distance between the first and third quartiles of its
values over the median, as ``statistics.quantiles(values, n=4)`` gives
them; a spread above a third of the metric's bound in ``BENCHMARK.json``
is flagged.  With ``--write`` the medians and quartiles, and the
per-layer metrics of one traced run (the first seed) per workload, go
into the given baseline file, replacing the entries of the workloads run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"error: {workload} seed {seed} failed {result['failed']} ops\n{proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 4)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", type=Path, help="baseline file to update")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    end_to_end, per_layer = {}, {}
    for workload in args.workloads:
        start = time.perf_counter()
        results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        wall = (time.perf_counter() - start) / len(results)
        print(f"{workload:18s} {wall:.1f} s of wall time per run", flush=True)
        row = {"attempted_per_run": statistics.median(r["attempted"] for r in results),
               "wall_s_per_run": round(wall, 1)}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            row[name] = summary(values)
            flag = "  above a third of its bound" if row[name]["spread"] > bounds[name] / 3 else ""
            print(f"{workload:18s} {name:18s} median {row[name]['median']:<12g} "
                  f"spread {row[name]['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
            print(f"{'':37s} by seed: {' '.join(f'{v:.4g}' for v in values)}", flush=True)
        end_to_end[workload] = row
        if args.write:
            traced = run(workload, args.seeds[0], args.seconds, 1)
            per_layer[workload] = {k: round(v["value"], 9) for k, v in traced["metrics"].items()}

    if args.write:
        baseline = json.loads(args.write.read_text(encoding="utf-8")) if args.write.exists() else {}
        baseline.setdefault("end_to_end", {}).update(end_to_end)
        baseline.setdefault("per_layer_seed_1", {}).update(per_layer)
        baseline["run_seconds"] = args.seconds
        args.write.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
