"""Run the benchmark over several seeds and summarise each metric.

    python3 pipebench/spread.py --workload replan --seeds 1-10 [--trace 1] [--json out.json]

For each metric it prints the median, the quartiles that
statistics.quantiles(values, n=4) gives, and the spread: the distance between
the quartiles as a share of the median. Runs are made one after another, in
seed order; every run's final line is kept in the JSON file when one is given.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(results: list[dict]) -> dict:
    summary = {}
    names = [n for n in results[0]["metrics"] if all(n in r["metrics"] for r in results)]
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=BENCH.parent, timeout=600)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
        print(f"seed {seed}: exit {proc.returncode}, correct {last['correct']}, "
              f"failed {last['failed']}/{last['attempted']}", flush=True)
        results.append({"seed": seed, "env": env, **last})
    if len(results) < 2:
        return 0
    summary = summarise(results)
    for name, s in summary.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{args.workload:<9} {name:<32} median {s['median']:<14.6g} {s['unit']:<6} "
              f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                         "summary": summary, "runs": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
