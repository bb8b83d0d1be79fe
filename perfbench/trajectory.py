"""Repeat the benchmark over several seeds and summarise it, as one point of
the bench trajectory.

    python3 perfbench/trajectory.py --out perfbench/trajectory/BENCH_<date>_<commit>.json

Runs perfbench/run.py once per workload of BENCHMARK.json and seed 1 to 10,
in that order, with the run length from BENCHMARK.json.  For each end-to-end
metric it reports the median, the quartiles (statistics.quantiles, n=4) and
the spread, which is the distance between the quartiles as a share of the
median.  One traced run per workload, with seed 1, gives the per-layer
breakdown.  Without --out it only prints the summary.  With --against, an
earlier point, it also flags each median that is worse than that point's by
more than the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[0].removeprefix("context "))
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    before = (json.loads(args.against.read_text(encoding="utf-8"))["workloads"]
              if args.against else {})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: "
                  + json.dumps({k: v["value"] for k, v in runs[-1]["metrics"].items()}),
                  file=sys.stderr, flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {name: summarise([r["metrics"][name]["value"]
                                            for r in runs])
                           for name in bounds},
            "runs": [{"seed": seed, "attempted": r["attempted"],
                      "failed": r["failed"], "context": r["context"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                     for seed, r in zip(SEEDS, runs)],
        }
        traced = run_once(workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED,
                              "attempted": traced["attempted"],
                              "failed": traced["failed"],
                              "metrics": {k: v["value"] for k, v
                                          in traced["metrics"].items()}}
        point["workloads"][workload] = entry
        for name, summary in entry["end_to_end"].items():
            flag = "" if summary["spread"] < bounds[name] / 3 \
                else "  (spread above a third of the bound)"
            if workload in before:
                change = (summary["median"]
                          / before[workload]["end_to_end"][name]["median"] - 1)
                flag += f"  median {change:+.4f} against the earlier point" + (
                    " (worse by more than the bound)"
                    if change > bounds[name] else "")
            print(f"{workload:<18} {name:<12} median {summary['median']:.4f} "
                  f"q1 {summary['q1']:.4f} q3 {summary['q3']:.4f} "
                  f"spread {summary['spread']:.4f} bound {bounds[name]}{flag}")
        print(f"{workload:<18} ops attempted {entry['attempted']} "
              f"failed {entry['failed']}", flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
