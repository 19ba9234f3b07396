"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
        [--seconds S]

Run from the repository root.  Each of the two sets runs every workload
``--runs`` times, one run at a time, each with another seed (seeds count
up from 1; the second set takes the next block).  For every end-to-end
metric and workload it prints each set's median and quartiles, the
spread (quartile distance over the median) and whether the sets agree
within the metric's bound from BENCHMARK.json: every spread within the
bound (except ``setup_s``'s: set-up is short and its spread is only
reported), the two medians within the bound of each other, and the same
share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def compare(sets: list[list[dict]], metrics: list[dict]) -> list[str]:
    """One line per metric; returns the lines that disagree."""
    bad = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        rows = []
        medians = []
        ok = True
        for runs in sets:
            values = [run["metrics"][name]["value"] for run in runs]
            median, q1, q3, width = spread(values)
            medians.append(median)
            rows.append(f"median {median:.6g} [{q1:.6g}, {q3:.6g}] "
                        f"spread {width:.3f}")
            if name != "setup_s" and width > bound:
                ok = False
        first, second = medians
        if abs(second - first) > bound * abs(first):
            ok = False
        line = (f"  {name:<24} bound {bound:<5} "
                + " | ".join(rows) + ("" if ok else "   DISAGREE"))
        print(line)
        if not ok:
            bad.append(line)
    return bad


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")
    results: dict[str, list[list[dict]]] = {}
    seed = 1
    for workload in args.workloads.split(","):
        results[workload] = []
        for _ in range(2):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(config["command"], workload, seed,
                                     args.seconds))
                seed += 1
            results[workload].append(runs)
    disagreements = []
    for workload, sets in results.items():
        shares = {tuple(run["failed"] / run["attempted"] for run in runs)
                  for runs in sets}
        correct = all(run["correct"] for runs in sets for run in runs)
        print(f"{workload}: correct {correct}, failed shares "
              f"{sorted({s for group in shares for s in group})}")
        disagreements += compare(sets, config["end_to_end"])
        if len({s for group in shares for s in group}) > 1 or not correct:
            disagreements.append(f"{workload}: failures or wrong outputs")
    print("agree" if not disagreements else
          f"{len(disagreements)} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
