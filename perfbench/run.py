"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Repeats whole rounds of the workload for ``--seconds`` seconds, checks
the first round's outputs (outside the timed section) and prints a
readable summary followed, on the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (BENCHMARK.json ``end_to_end``); with
``--trace 1`` the run also makes untraced reference rounds, then traced
rounds, and the metrics are the per-layer ledger (``per_layer``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("vc_torus_hotspot", "storm_torus_array", "llm_replay_tree",
             "tree_mesh_sweep")

#: Untraced rounds a traced run makes first, as the overhead base.
REFERENCE_ROUNDS = 2

#: Iterations of the calibration loop (about 50 ms of pure Python).
CALIBRATION_OPS = 200_000


def calibrate() -> float:
    """Rate of a fixed pure-Python loop (operations per second), so that
    a slower host can be told apart from slower code."""
    table: dict[int, int] = {}
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_OPS):
        total += (i * 7) % 13
        table[i & 1023] = total
    return CALIBRATION_OPS / (perf_counter() - start)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its reaped
    children (the sweep's workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Round:
    """Timings and outputs of one round.  Only a run's first round
    keeps its full record (for the checks); later rounds keep only their
    digest, so memory does not grow with the number of rounds."""

    def __init__(self, setups: list[float], timed: float, record,
                 points: list[dict] | None = None, keep_record=True):
        self.setups = setups
        self.timed = timed
        self.record = record if keep_record else None
        self.digest = record.digest()
        self.points = points or []


def make_workload(name: str, seed: int, points: list[dict]):
    import workloads
    if name == "vc_torus_hotspot":
        return workloads.VcTorusHotspot(seed)
    if name == "storm_torus_array":
        return workloads.StormTorusArray(seed)
    if name == "llm_replay_tree":
        return workloads.LlmReplayTree(seed, ROOT / ".perfbench")
    return workloads.TreeMeshSweep(seed, points)


def run_round(workload, tracer=None, ledgers=None, keep_record=True,
              **setup_kwargs) -> Round:
    """Set up (``setup_repeats`` identical times, keeping the last) and
    run once.  With a tracer, each phase records into its own ledger
    under a root span, so its self times add up to the phase's wall."""
    gc.collect()
    setups = []
    state = None
    for _ in range(workload.setup_repeats):
        state = None
        start = perf_counter()
        if tracer is None:
            state = workload.setup(**setup_kwargs)
        else:
            tracer.ledger = ledgers["setup"]
            state = tracer.span("bench.setup", workload.setup, tracer,
                                **setup_kwargs)
        setups.append(perf_counter() - start)
    start = perf_counter()
    if tracer is None:
        raw = workload.run(state)
    else:
        tracer.ledger = ledgers["timed"]
        raw = tracer.span("bench.timed", workload.run, state, tracer)
    timed = perf_counter() - start
    if "setups" in raw:
        # The sweep's first ticks happen in workers: the workload splits
        # its own set-up (up to each sweep's first tick) from its run.
        setups, timed = raw["setups"], raw["timed"]
    record = workload.record(raw)
    points = raw.get("points")
    del raw, state
    return Round(setups, timed, record, points, keep_record)


def run_rounds(workload, seconds: float, rounds: list[Round], **kwargs):
    """Whole rounds, appended to ``rounds``, until ``seconds`` of
    set-up plus timed work."""
    spent = 0.0
    while not rounds or spent < seconds:
        done = run_round(workload, keep_record=not rounds, **kwargs)
        rounds.append(done)
        spent += sum(done.setups) + done.timed
    return rounds


def compare_rounds(rounds: list[Round]) -> list[str]:
    return [f"round {index} produced different outputs from round 0"
            for index, done in enumerate(rounds[1:], 1)
            if done.digest != rounds[0].digest]


def end_to_end(rounds: list[Round], record, rss_mb: float) -> dict:
    timed = [done.timed for done in rounds]
    setups = [s for done in rounds for s in done.setups]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "flit_hops_per_s": (statistics.median(
            record.flit_hops / t for t in timed), "hops/s"),
        "cycles_per_s": (statistics.median(
            record.cycles / t for t in timed), "cycles/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    for name, value in record.sim.items():
        metrics[name] = (value, "cycles")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not here: {SRC / 'repro'} is "
              f"missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ledger
    import tracer as tracing

    calibration = [calibrate() for _ in range(3)]
    points: list[dict] = []
    workload = make_workload(args.workload, args.seed, points)
    remove_hook = tracing.install_point_hook(points, None)
    try:
        if args.trace:
            # Untraced reference rounds: the base of the tracing overhead
            # and, for the replay, of the telemetry overhead (bare rounds).
            reference = {"timed": [], "bare": []}
            rounds = []
            for _ in range(REFERENCE_ROUNDS):
                rounds.append(run_round(workload, keep_record=not rounds))
                reference["timed"].append(rounds[-1].timed)
                if getattr(workload, "telemetry", False):
                    rounds.append(run_round(workload, keep_record=False,
                                            telemetry=False))
                    reference["bare"].append(rounds[-1].timed)
            untraced = len(rounds)
            tracer = tracing.Tracer()
            remove_hook()
            remove_hook = tracing.install_point_hook(points, tracer)
            tracer.install_layers()
            tracing.ACTIVE = tracer
            ledgers = {"setup": tracing.Ledger(),
                       "timed": tracing.Ledger()}
            try:
                run_rounds(workload, args.seconds, rounds, tracer=tracer,
                           ledgers=ledgers)
            finally:
                tracing.ACTIVE = None
                tracer.uninstall()
            traced = rounds[untraced:]
        else:
            rounds = run_rounds(workload, args.seconds, [])
    finally:
        remove_hook()
    # Before the checks, which build fabrics of their own.
    rss_mb = peak_rss_mb()
    record = rounds[0].record
    failures = workload.check(record)
    problems = compare_rounds(rounds)
    calibration += [calibrate() for _ in range(3)]
    failed_per_round = min(record.ops, sum(f.ops for f in failures))
    if args.trace:
        metrics = ledger.per_layer(traced, ledgers, reference, record,
                                   statistics.median(calibration))
        problems += ledger.consistency(ledgers)
        for target in tracer.missing:
            print(f"warning: {target} not found; its layer reads 0",
                  file=sys.stderr)
    else:
        metrics = end_to_end(rounds, record, rss_mb)
    result = {
        "correct": not problems,
        "attempted": record.ops * len(rounds),
        "failed": failed_per_round * len(rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{record.ops} {workload.ops_unit}; host calibration "
          f"{statistics.median(calibration):.4g} ops/s")
    print("  round set-up s: "
          + " ".join(f"{statistics.median(done.setups):.4f}"
                     for done in rounds))
    print("  round timed s:  "
          + " ".join(f"{done.timed:.4f}" for done in rounds))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    for failure in failures:
        print(f"check failed ({failure.ops} ops): {failure.message}",
              file=sys.stderr)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
