"""The four benchmark workloads.

Each workload builds its inputs from the run's seed, then repeats whole
rounds.  A round is a set-up (everything before the first simulated
tick) followed by the timed section (the simulation).  Every round of a
run replays the same inputs, so every round must produce the same
outputs; the first round's outputs go through the output checks, which
are computed here from the inputs and the topology's coordinates, apart
from the program, and run after the timed rounds.

A workload object answers:

* ``setup(tracer)`` -> state, and ``run(state, tracer)`` -> raw outputs;
* ``record(raw)`` -> a :class:`Record`: the outputs the checks need, the
  simulated metrics and the work done (flit-hops, cycles, operations);
* ``check(record)`` -> a list of :class:`Failure` (message, operations
  affected).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.accel import ReplaySystem, generate_trace
from repro.accel.trace import save_accel_trace
from repro.analysis.parallel import (LoadPoint, expand_loads,
                                     measure_load_points)
from repro.analysis.sweeps import measure_offered_vs_accepted
from repro.fabric.registry import FabricConfig
from repro.noc.packet import Packet
from repro.telemetry import attach_metrics
from repro.traffic.patterns import HotspotTraffic

#: In-window accepted throughput must reach this share of the offered
#: load on every point below the knee (the repo's saturation floor).
ACCEPTED_FLOOR = 0.9


@dataclass
class Failure:
    message: str
    ops: int


@dataclass
class Record:
    """What one round produced, reduced to plain data."""

    #: outputs that must repeat exactly in every round of a run
    outputs: Any
    ops: int
    flit_hops: int = 0
    cycles: float = 0.0
    sim: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps([self.outputs, self.sim], sort_keys=True,
                          default=repr)
        return hashlib.sha1(blob.encode()).hexdigest()


def call(tracer, name: str, fn: Callable, *args, **kwargs):
    """Call into a layer from the harness, as a span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = (len(sorted_values) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return (sorted_values[low] * (1.0 - fraction)
            + sorted_values[high] * fraction)


def latency_metrics(latencies: list[float], makespan: float) -> dict:
    values = sorted(latencies)
    return {"sim_latency_p50_cycles": percentile(values, 50),
            "sim_latency_p99_cycles": percentile(values, 99),
            "sim_makespan_cycles": makespan}


# -- minimal distances, from coordinates ------------------------------------
# Routers on a minimal path, source and destination routers included, which
# is what a packet's head flit is granted by.

def torus_routers(side: int) -> Callable[[int, int], int]:
    def routers(src: int, dest: int) -> int:
        dx = abs(src % side - dest % side)
        dy = abs(src // side - dest // side)
        return min(dx, side - dx) + min(dy, side - dy) + 1
    return routers


def mesh_routers(side: int) -> Callable[[int, int], int]:
    def routers(src: int, dest: int) -> int:
        return (abs(src % side - dest % side)
                + abs(src // side - dest // side) + 1)
    return routers


def tree_routers(src: int, dest: int) -> int:
    """Binary tree: up to the lowest common ancestor and down again."""
    return 2 * (src ^ dest).bit_length() - 1


# -- shared packet-workload machinery ---------------------------------------

def record_sends(network) -> dict[int, int]:
    """Record the tick each packet is handed to ``network`` (its due
    time) by shadowing the instance's ``send``."""
    due: dict[int, int] = {}
    send = network.send
    kernel = network.kernel

    def recording_send(packet):
        due[packet.packet_id] = kernel.tick
        send(packet)

    network.send = recording_send
    return due


def delivered_tuples(network, due: dict[int, int]) -> list[tuple]:
    """(src, dest, flits, due tick, eject tick) per delivered packet, in
    send order; packet ids are process-global, so they are left out."""
    order = {pid: index for index, pid in enumerate(due)}
    packets = sorted(network.delivered, key=lambda p: order[p.packet_id])
    return [(p.src, p.dest, p.flit_count, due[p.packet_id], p.eject_tick)
            for p in packets]


def packet_record(tuples: list[tuple], routers: Callable[[int, int], int],
                  cycles: float, extra: dict | None = None) -> Record:
    latencies = [(eject - due) / 2.0 for _s, _d, _f, due, eject in tuples]
    makespan = max(eject for *_rest, eject in tuples) / 2.0
    hops = sum(flits * routers(src, dest)
               for src, dest, flits, _due, _eject in tuples)
    return Record(outputs=tuples, ops=len(tuples), flit_hops=hops,
                  cycles=cycles, sim=latency_metrics(latencies, makespan),
                  extra=extra or {})


def check_delivered(tuples: list[tuple],
                    expected: list[tuple[int, int, int]]) -> list[Failure]:
    """The delivered (src, dest, flits) multiset equals the schedule."""
    got = Counter((src, dest, flits) for src, dest, flits, *_ in tuples)
    want = Counter(expected)
    if got == want:
        return []
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    return [Failure(f"delivered multiset differs from the schedule: "
                    f"{missing} missing, {extra} unexpected",
                    max(missing, extra))]


def check_latency(tuples: list[tuple],
                  routers: Callable[[int, int], int]) -> list[Failure]:
    """Every latency is at least one cycle per router on the path."""
    short = sum(1 for src, dest, _f, due, eject in tuples
                if (eject - due) / 2.0 < routers(src, dest))
    if short:
        return [Failure(f"{short} packets arrived faster than one cycle "
                        f"per router", short)]
    return []


def count_head_grants(network) -> dict[int, int]:
    """Subscribe to router grants: head-flit grants per packet id."""
    grants: dict[int, int] = defaultdict(int)

    def on_grant(_tick, data):
        flit = data["flit"]
        if flit.is_head:
            grants[flit.packet_id] += 1

    network.kernel.subscribe("arbitration_grant", on_grant)
    return grants


def check_hops(network, grants: dict[int, int],
               routers: Callable[[int, int], int]) -> list[Failure]:
    """Each delivered packet's head was granted by as many routers as a
    minimal path has."""
    wrong = sum(1 for p in network.delivered
                if grants.get(p.packet_id, 0) != routers(p.src, p.dest))
    if wrong:
        return [Failure(f"{wrong} packets took a non-minimal number of "
                        f"router hops", wrong)]
    return []


def inject_just_in_time(network, by_cycle: dict[int, list], cycles: int,
                        make_packet: Callable) -> int:
    """Hand each packet to the network at its due cycle, two ticks per
    cycle; returns the flits delivered by the end of the window."""
    for cycle in range(cycles):
        for item in by_cycle.get(cycle, ()):
            network.send(make_packet(item))
        network.run_ticks(2)
    return network.stats.flits_delivered


# -- vc_torus_hotspot --------------------------------------------------------

class VcTorusHotspot:
    """Open loop on an 8x8 dateline-VC torus, dispatch backend."""

    name = "vc_torus_hotspot"
    ops_unit = "packets"
    setup_repeats = 5
    SIDE = 8
    LOAD = 0.12            # flits per cycle per port, below the knee
    FLITS = 4
    CYCLES = 800
    HOTSPOTS = (0,)
    HOTSPOT_FRACTION = 0.05

    def __init__(self, seed: int):
        self.seed = seed
        self.routers = torus_routers(self.SIDE)

    def config(self):
        return FabricConfig(topology="torus", ports=self.SIDE ** 2,
                            flow_control="vc", n_vcs=2)

    def setup(self, tracer=None) -> dict:
        network = self.config().build()
        generator = HotspotTraffic(self.SIDE ** 2, self.LOAD,
                                   size_flits=self.FLITS,
                                   hotspots=self.HOTSPOTS,
                                   fraction=self.HOTSPOT_FRACTION)
        schedule = generator.generate(self.CYCLES,
                                      np.random.default_rng(self.seed))
        by_cycle: dict[int, list] = defaultdict(list)
        for injection in schedule:
            by_cycle[injection.cycle].append(injection)
        return {"network": network, "schedule": schedule,
                "by_cycle": by_cycle, "due": record_sends(network)}

    def run(self, state: dict, tracer=None) -> dict:
        network = state["network"]
        in_window = inject_just_in_time(network, state["by_cycle"],
                                        self.CYCLES,
                                        lambda i: i.to_packet())
        state["accepted"] = in_window / self.CYCLES / self.SIDE ** 2
        state["drained"] = network.drain(max_ticks=200_000)
        return state

    def record(self, raw: dict) -> Record:
        tuples = delivered_tuples(raw["network"], raw["due"])
        schedule = raw["schedule"]
        offered = (sum(i.size_flits for i in schedule)
                   / self.CYCLES / self.SIDE ** 2)
        return packet_record(
            tuples, self.routers, raw["network"].kernel.tick / 2.0,
            extra={"expected": [(i.src, i.dest, i.size_flits)
                                for i in schedule],
                   "offered": offered, "accepted": raw["accepted"],
                   "drained": raw["drained"]})

    def check(self, record: Record) -> list[Failure]:
        extra = record.extra
        failures = []
        if not extra["drained"]:
            failures.append(Failure("fabric did not drain",
                                    len(extra["expected"])
                                    - len(record.outputs)))
        failures += check_delivered(record.outputs, extra["expected"])
        failures += check_latency(record.outputs, self.routers)
        if extra["accepted"] < ACCEPTED_FLOOR * extra["offered"]:
            failures.append(Failure(
                f"accepted {extra['accepted']:.4f} below "
                f"{ACCEPTED_FLOOR} x offered {extra['offered']:.4f}",
                len(extra["expected"])))
        # Hop counts need grant events, which the timed rounds do not
        # subscribe to: replay the round observed; it must also deliver
        # exactly what the unobserved rounds delivered.
        state = self.setup()
        grants = count_head_grants(state["network"])
        self.run(state)
        failures += check_hops(state["network"], grants,
                               self.routers)
        if delivered_tuples(state["network"], state["due"]) \
                != record.outputs:
            failures.append(Failure("an observed replay of the round "
                                    "delivered differently", record.ops))
        return failures


# -- storm_torus_array -------------------------------------------------------

class StormTorusArray:
    """DMA storms on a 32x32 wormhole torus, array backend.

    Every node hands ``BURST`` 3-flit packets to the fabric at once; the
    storm drains well inside ``PERIOD`` cycles and the rest of the period
    is a quiet window, which the array engine runs batched.
    """

    name = "storm_torus_array"
    ops_unit = "packets"
    setup_repeats = 1
    SIDE = 32
    FLITS = 3
    BURST = 4
    STORMS = 4
    PERIOD = 400
    #: the reduced storm replayed on both backends: every 8th node's
    #: packets of the first storm
    REDUCED_STRIDE = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.nodes = self.SIDE ** 2
        self.routers = torus_routers(self.SIDE)
        rng = np.random.default_rng(seed)
        self.storms = []
        for _ in range(self.STORMS):
            draws = rng.integers(0, self.nodes - 1,
                                 size=(self.nodes, self.BURST))
            self.storms.append([
                (src, int(d) + (d >= src))
                for src in range(self.nodes) for d in draws[src]])

    def config(self, backend: str = "array"):
        return FabricConfig(topology="torus", ports=self.nodes,
                            backend=backend)

    def setup(self, tracer=None, backend: str = "array") -> dict:
        network = self.config(backend).build()
        return {"network": network, "due": record_sends(network)}

    def drive(self, state: dict, storms: list[list[tuple[int, int]]]) -> dict:
        network = state["network"]
        payload = list(range(self.FLITS))
        drained = []
        for storm in storms:
            for src, dest in storm:
                network.send(Packet(src=src, dest=dest,
                                    payload=list(payload)))
            network.run_ticks(2 * self.PERIOD)
            stats = network.stats
            drained.append(stats.packets_delivered
                           == stats.packets_injected)
        state["storm_drained"] = drained
        state["drained"] = network.drain(max_ticks=100_000)
        return state

    def run(self, state: dict, tracer=None) -> dict:
        return self.drive(state, self.storms)

    def record(self, raw: dict) -> Record:
        tuples = delivered_tuples(raw["network"], raw["due"])
        return packet_record(
            tuples, self.routers, raw["network"].kernel.tick / 2.0,
            extra={"storm_drained": raw["storm_drained"],
                   "drained": raw["drained"]})

    def reduced_storm(self) -> list[tuple[int, int]]:
        return [(src, dest) for src, dest in self.storms[0]
                if src % self.REDUCED_STRIDE == 0]

    def check(self, record: Record) -> list[Failure]:
        extra = record.extra
        per_storm = self.nodes * self.BURST
        failures = [Failure(f"storm {index} had not drained when the "
                            f"next one was due", per_storm)
                    for index, ok in enumerate(extra["storm_drained"])
                    if not ok]
        expected = [(src, dest, self.FLITS)
                    for storm in self.storms for src, dest in storm]
        failures += check_delivered(record.outputs, expected)
        failures += check_latency(record.outputs, self.routers)
        # The array engine has no grant events to observe: run a reduced
        # storm on both backends, count hops on the dispatch run, and
        # require identical deliveries.
        reduced = [self.reduced_storm()]
        array = self.drive(self.setup(), reduced)
        dispatch = self.setup(backend="dispatch")
        grants = count_head_grants(dispatch["network"])
        self.drive(dispatch, reduced)
        failures += check_hops(dispatch["network"], grants,
                               self.routers)
        if delivered_tuples(array["network"], array["due"]) != \
                delivered_tuples(dispatch["network"], dispatch["due"]):
            failures.append(Failure(
                "array and dispatch backends delivered the reduced storm "
                "differently", len(reduced[0])))
        return failures


# -- llm_replay_tree ---------------------------------------------------------

class LlmReplayTree:
    """The llm-decode trace replayed on the paper's 64-leaf ICNoC tree,
    closed loop, with a metrics registry attached."""

    name = "llm_replay_tree"
    ops_unit = "trace events"
    setup_repeats = 5
    #: setup() takes ``telemetry``: a traced run also times bare rounds
    telemetry = True
    PORTS = 64
    PES = 16
    MEMS = 4
    LAYERS = 4
    #: PE multiply-accumulates per cycle (the trace format's default)
    MACS_PER_CYCLE = 256

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def config(self):
        return FabricConfig(topology="tree", ports=self.PORTS)

    def trace(self, tracer=None):
        trace = call(tracer, "accel.trace", generate_trace, "llm-decode",
                     pes=self.PES, mems=self.MEMS, seed=self.seed,
                     layers=self.LAYERS)
        if tracer is not None:
            tracer.ledger.count("accel.events", len(trace.events))
        return trace

    def setup(self, tracer=None, telemetry: bool = True) -> dict:
        trace = self.trace(tracer)
        system = ReplaySystem(trace, self.config())
        registry = (call(tracer, "telemetry.attach", attach_metrics,
                         system.network) if telemetry else None)
        return {"trace": trace, "system": system, "registry": registry,
                "due": record_sends(system.network)}

    def run(self, state: dict, tracer=None) -> dict:
        state["results"] = state["system"].run()
        registry = state["registry"]
        if registry is not None:
            state["summary"] = call(tracer, "telemetry.summary",
                                    registry.summary)
        return state

    def record(self, raw: dict) -> Record:
        network = raw["system"].network
        results = raw["results"]
        tuples = delivered_tuples(network, raw["due"])
        record = packet_record(tuples, tree_routers,
                               network.kernel.tick / 2.0)
        record.sim["sim_makespan_cycles"] = float(results.makespan_cycles)
        record.ops = len(raw["trace"].events)
        record.outputs = [results.to_dict(), tuples]
        summary = raw.get("summary")
        record.extra = {
            "trace": raw["trace"], "results": results,
            "registry_packets": (summary.packets_delivered
                                 if summary is not None else None),
            "sent": len(raw["due"]),
        }
        return record

    def check(self, record: Record) -> list[Failure]:
        extra = record.extra
        results = extra["results"]
        trace = extra["trace"]
        self.scratch.mkdir(parents=True, exist_ok=True)
        path = self.scratch / f"llm_decode_seed{self.seed}.jsonl"
        save_accel_trace(trace, path)
        with open(path) as handle:
            events = [json.loads(line) for line in handle][1:]
        path.unlink()
        per_pe_events = Counter(event["pe"] for event in events)
        failures = []
        if not results.completed:
            failures.append(Failure("replay did not complete", record.ops))
        compute = {pe: 0 for pe in range(self.PES)}
        order: dict[int, list[int]] = {pe: [] for pe in range(self.PES)}
        finish: dict[int, int] = {}
        for event in events:
            start = max((finish[dep] for dep in event.get("deps", ())),
                        default=0)
            cycles = 0
            if event["kind"] == "compute":
                m, n, k = event["gemm"]
                cycles = max(1, -(-m * n * k // self.MACS_PER_CYCLE))
                compute[event["pe"]] += cycles
                order[event["pe"]].append(event["id"])
            finish[event["id"]] = start + cycles
        for pe in results.per_pe:
            if pe.compute_cycles != compute[pe.pe]:
                failures.append(Failure(
                    f"pe{pe.pe}: {pe.compute_cycles} compute cycles, the "
                    f"trace's GEMMs need {compute[pe.pe]}",
                    per_pe_events[pe.pe]))
            if list(pe.events) != order[pe.pe]:
                failures.append(Failure(
                    f"pe{pe.pe}: compute order differs from trace order",
                    per_pe_events[pe.pe]))
        critical = max(finish.values())
        if results.makespan_cycles < critical:
            failures.append(Failure(
                f"makespan {results.makespan_cycles} below the trace's "
                f"critical-path compute {critical}", record.ops))
        tuples = record.outputs[1]
        if extra["registry_packets"] != results.packets_delivered or \
                results.packets_delivered != extra["sent"]:
            failures.append(Failure(
                f"registry counted {extra['registry_packets']} packets, "
                f"the network delivered {results.packets_delivered} of "
                f"{extra['sent']} sent", record.ops))
        failures += check_latency(tuples, tree_routers)
        return failures


# -- tree_mesh_sweep ---------------------------------------------------------

class TreeMeshSweep:
    """Offered-load grids on the 64-port tree and the 8x8 mesh, through
    ``measure_load_points`` with two worker processes."""

    name = "tree_mesh_sweep"
    ops_unit = "load points"
    setup_repeats = 1
    PORTS = 64
    WORKERS = 2
    CYCLES = 400
    #: each grid reaches up to its knee (uniform traffic, 1-flit packets)
    GRIDS = (("tree", (0.01, 0.02, 0.03, 0.04)),
             ("mesh", (0.08, 0.16, 0.24, 0.32)))

    def __init__(self, seed: int, points: list[dict]):
        self.seed = seed
        #: filled by the parallel_map hook: one info dict per point
        self.points = points

    def grid(self, topology: str, loads: tuple[float, ...]) -> list:
        template = LoadPoint(
            load=loads[0], cycles=self.CYCLES,
            network=FabricConfig(topology=topology, ports=self.PORTS))
        return expand_loads(template, loads, base_seed=self.seed)

    def setup(self, tracer=None) -> dict:
        return {}

    def run(self, state: dict, tracer=None) -> dict:
        """One sweep per grid, as ``repro sweep`` runs them.  Each sweep's
        set-up (spec construction, pickling, pool start) ends when its
        first point starts in a worker; from there on it is timed."""
        state.update(setups=[], timed=0.0, specs=[], results=[], points=[])
        for topology, loads in self.GRIDS:
            del self.points[:]
            start = perf_counter()
            specs = self.grid(topology, loads)
            results = measure_load_points(specs, workers=self.WORKERS)
            end = perf_counter()
            first = min(info["start"] for info in self.points
                        if "start" in info)
            state["setups"].append(first - start)
            state["timed"] += end - first
            state["specs"] += specs
            state["results"] += results
            state["points"] += self.points
        return state

    def record(self, raw: dict) -> Record:
        return Record(outputs=raw["results"], ops=len(raw["specs"]),
                      extra={"specs": raw["specs"]})

    def redrive(self, spec) -> dict:
        """One load point evaluated serially in this process by the
        program's own ``measure_offered_vs_accepted``, on a network kept
        here and observed for grants and due ticks."""
        kept = {}

        def factory(**kwargs):
            network = spec.build_network(**kwargs)
            kept["grants"] = count_head_grants(network)
            kept["due"] = record_sends(network)
            kept["network"] = network
            return network

        metrics = measure_offered_vs_accepted(
            factory, spec.build_generator, spec.load, cycles=spec.cycles,
            seed=spec.seed, backend=spec.backend)
        schedule = spec.build_generator().generate(
            spec.cycles, np.random.default_rng(spec.seed))
        network = kept["network"]
        routers = (tree_routers if spec.network.topology == "tree"
                   else mesh_routers(int(math.isqrt(self.PORTS))))
        return {
            "metrics": metrics,
            "tuples": delivered_tuples(network, kept["due"]),
            "expected": [(i.src, i.dest, i.size_flits) for i in schedule],
            "hop_failures": check_hops(network, kept["grants"], routers),
            "routers": routers,
            "cycles": network.kernel.tick / 2.0,
        }

    def check(self, record: Record) -> list[Failure]:
        """Replays every point serially; also fills in the record's
        simulated metrics and work, which only per-packet data gives.
        A load point is one operation, so each failing point is one
        failure whatever went wrong with it."""
        failures = []
        latencies: list[float] = []
        makespan = 0.0
        for spec, result in zip(record.extra["specs"], record.outputs):
            point = self.redrive(spec)
            tuples = point["tuples"]
            problems = []
            if not result["drained"]:
                problems.append("did not drain")
            if point["metrics"] != result:
                problems.append(f"two-worker result {result} differs from "
                                f"the serial evaluation {point['metrics']}")
            if result["accepted_in_window"] < \
                    ACCEPTED_FLOOR * result["offered"]:
                problems.append(f"accepted below {ACCEPTED_FLOOR} x "
                                f"offered")
            problems += [failure.message for failure in
                         point["hop_failures"]
                         + check_delivered(tuples, point["expected"])
                         + check_latency(tuples, point["routers"])]
            if problems:
                failures.append(Failure(
                    f"{spec.network.topology} load {spec.load}: "
                    + "; ".join(problems), 1))
                continue
            latencies += [(eject - due) / 2.0
                          for *_rest, due, eject in tuples]
            makespan += max(eject for *_rest, eject in tuples) / 2.0
            record.flit_hops += sum(flits * point["routers"](src, dest)
                                    for src, dest, flits, *_ in tuples)
            record.cycles += point["cycles"]
        if latencies:
            record.sim = latency_metrics(latencies, makespan)
        return failures
