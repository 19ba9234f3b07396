"""Turn the traced rounds' span ledgers into the per-layer metrics.

Every value is per round.  Set-up spans are divided by the number of
set-ups, timed spans by the number of rounds; sweep points add the
ledgers their workers shipped back.  A layer that does no work on a
workload reads 0.
"""

from __future__ import annotations

import statistics

from tracer import Ledger

#: name -> unit, in report order (the ``per_layer`` list of BENCHMARK.json)
UNITS = {
    "sim.steps": "count",
    "sim.ticks": "count",
    "sim.signal_commits": "count",
    "sim.self_s": "s",
    "fabric.build_s": "s",
    "fabric.router.edges": "count",
    "fabric.router.self_s": "s",
    "fabric.router.edges_per_s": "1/s",
    "fabric.allocator.calls": "count",
    "fabric.allocator.self_s": "s",
    "fabric.link.credit_calls": "count",
    "fabric.link.credit_calls_per_flit_hop": "ratio",
    "fabric.link.self_s": "s",
    "fabric.endpoint.self_s": "s",
    "fabric.array.lower_s": "s",
    "fabric.array.steps": "count",
    "fabric.array.batched_ticks": "count",
    "fabric.array.self_s": "s",
    "noc.switch.edges": "count",
    "noc.switch.self_s": "s",
    "noc.pipeline.self_s": "s",
    "noc.ni.self_s": "s",
    "accel.trace_s": "s",
    "accel.events": "count",
    "accel.endpoint.self_s": "s",
    "telemetry.attach_s": "s",
    "telemetry.summary_s": "s",
    "telemetry.overhead_s": "s",
    "traffic.generate_s": "s",
    "traffic.injections": "count",
    "physical.energy_s": "s",
    "analysis.points": "count",
    "analysis.points_per_s": "1/s",
    "analysis.point_s_max": "s",
    "analysis.worker_utilisation": "ratio",
    "analysis.spec_pickle_bytes": "bytes",
    "analysis.result_pickle_bytes": "bytes",
    "host.calibration_ops_per_s": "1/s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_ratio": "ratio",
}


def combine(parts: list[tuple[Ledger, float]]) -> Ledger:
    """Weighted sum of ledgers (weights turn totals into per-round
    values)."""
    out = Ledger()
    for ledger, weight in parts:
        for name, (calls, total, own) in ledger.spans.items():
            out.add_span(name, total * weight, own * weight, calls * weight)
        for name, value in ledger.counts.items():
            out.count(name, value * weight)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: list, ledgers: dict[str, Ledger], reference: dict,
              record, calibration: float) -> dict[str, tuple[float, str]]:
    rounds = len(traced)
    setups = sum(len(done.setups) for done in traced)
    points = [info for done in traced for info in done.points
              if "start" in info]
    shipped = [info for done in traced for info in done.points
               if "spec_bytes" in info]
    run_side = Ledger()
    run_side.merge(ledgers["timed"])
    for info in points:
        if "ledger" in info:
            run_side.merge(info["ledger"])
    led = combine([(ledgers["setup"], 1.0 / setups),
                   (run_side, 1.0 / rounds)])
    counts = led.counts
    timed = ledgers["timed"]
    map_wall = led.total_s("analysis.map")
    busy = sum(info["end"] - info["start"] for info in points) / rounds
    workers = max((info["workers"] for info in shipped), default=1)
    spec_bytes = [b for info in shipped for b in info["spec_bytes"]]
    result_bytes = [info["result_bytes"] for info in points]
    untraced = statistics.median(reference["timed"])
    traced_timed = statistics.median(done.timed for done in traced)
    values = {
        "sim.steps": counts.get("sim.steps", 0),
        "sim.ticks": counts.get("sim.ticks", 0),
        "sim.signal_commits": counts.get("sim.signal_commits", 0),
        "sim.self_s": led.self_s("sim"),
        "fabric.build_s": led.total_s("fabric.build"),
        "fabric.router.edges": led.calls("fabric.router"),
        "fabric.router.self_s": led.self_s("fabric.router"),
        "fabric.router.edges_per_s": _ratio(led.calls("fabric.router"),
                                            led.total_s("fabric.router")),
        "fabric.allocator.calls": led.calls("fabric.allocator"),
        "fabric.allocator.self_s": led.self_s("fabric.allocator"),
        "fabric.link.credit_calls": counts.get("fabric.link.credit_calls",
                                               0),
        "fabric.link.credit_calls_per_flit_hop": _ratio(
            counts.get("fabric.link.credit_calls", 0), record.flit_hops),
        "fabric.link.self_s": led.self_s("fabric.link"),
        "fabric.endpoint.self_s": led.self_s("fabric.endpoint"),
        "fabric.array.lower_s": led.total_s("fabric.array.lower"),
        "fabric.array.steps": counts.get("fabric.array.steps", 0),
        "fabric.array.batched_ticks": counts.get(
            "fabric.array.batched_ticks", 0),
        "fabric.array.self_s": led.self_s("fabric.array"),
        "noc.switch.edges": led.calls("noc.switch"),
        "noc.switch.self_s": led.self_s("noc.switch"),
        "noc.pipeline.self_s": led.self_s("noc.pipeline"),
        "noc.ni.self_s": led.self_s("noc.ni"),
        "accel.trace_s": led.total_s("accel.trace"),
        "accel.events": counts.get("accel.events", 0),
        "accel.endpoint.self_s": led.self_s("accel.endpoint"),
        "telemetry.attach_s": led.total_s("telemetry.attach"),
        "telemetry.summary_s": led.total_s("telemetry.summary"),
        "telemetry.overhead_s": (
            untraced - statistics.median(reference["bare"])
            if reference["bare"] else 0.0),
        "traffic.generate_s": led.total_s("traffic.generate"),
        "traffic.injections": counts.get("traffic.injections", 0),
        "physical.energy_s": led.total_s("physical.energy"),
        "analysis.points": len(points) / rounds,
        "analysis.points_per_s": _ratio(len(points) / rounds, map_wall),
        "analysis.point_s_max": max((info["end"] - info["start"]
                                     for info in points), default=0.0),
        "analysis.worker_utilisation": _ratio(busy, map_wall * workers),
        "analysis.spec_pickle_bytes": (statistics.mean(spec_bytes)
                                       if spec_bytes else 0),
        "analysis.result_pickle_bytes": (statistics.mean(result_bytes)
                                         if result_bytes else 0),
        "host.calibration_ops_per_s": calibration,
        "bench.self_s": timed.self_s("bench.timed") / rounds,
        "trace.wall_s": timed.total_s("bench.timed") / rounds,
        "trace.self_sum_s": timed.self_sum_s() / rounds,
        "trace.overhead_ratio": _ratio(traced_timed, untraced),
    }
    return {name: (float(values[name]), unit)
            for name, unit in UNITS.items()}


def consistency(ledgers: dict[str, Ledger]) -> list[str]:
    """The ledger's own invariants: in each phase the self times add up
    to the root span's wall time exactly (integer nanoseconds)."""
    problems = []
    for phase, ledger in ledgers.items():
        root = f"bench.{phase}"
        own = sum(record[2] for record in ledger.spans.values())
        wall = ledger.spans.get(root, (0, 0, 0))[1]
        if own != wall:
            problems.append(f"{phase}: span self times sum to {own} ns, "
                            f"the phase's wall time is {wall} ns")
    return problems
