"""Span ledger for the traced run: wraps each layer's public entry points.

The wrappers are installed on the classes and modules of ``repro`` from
this file only, for the length of the traced rounds, and removed again
before the output checks run.  Every wrapped call is one span.  Spans are
aggregated in memory per name as call count, total time and self time
(total minus the time of the spans it contains), so the self times of all
spans under one root add up to the root's duration exactly.

Sweep points run in worker processes.  :class:`PointTimer` wraps the
function handed to ``parallel_map``: in a worker it gives the point a
fresh ledger and ships it back beside the result, and in every mode it
records when the point started and ended, which the sweep workload needs
for its set-up time.
"""

from __future__ import annotations

import importlib
import os
import pickle
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Callable


@dataclass
class Ledger:
    """Per-span aggregates of one process (or one worker point)."""

    #: span name -> [calls, total_ns, self_ns]
    spans: dict[str, list[int]] = field(default_factory=dict)
    #: named event counts recorded at span boundaries
    counts: dict[str, int] = field(default_factory=dict)
    #: child-time accumulators of the open spans; the base slot collects
    #: the time of top-level spans
    stack: list[int] = field(default_factory=lambda: [0])

    def add_span(self, name: str, total_ns: int, self_ns: int,
                 calls: int = 1) -> None:
        record = self.spans.get(name)
        if record is None:
            self.spans[name] = [calls, total_ns, self_ns]
        else:
            record[0] += calls
            record[1] += total_ns
            record[2] += self_ns

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def merge(self, other: "Ledger") -> None:
        for name, (calls, total, own) in other.spans.items():
            self.add_span(name, total, own, calls)
        for name, value in other.counts.items():
            self.count(name, value)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] / 1e9

    def self_sum_s(self) -> float:
        return sum(record[2] for record in self.spans.values()) / 1e9


class Tracer:
    """Owns the current ledger and the installed wrappers."""

    def __init__(self) -> None:
        self.ledger = Ledger()
        self.pid = os.getpid()
        self._saved: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one span (used by the harness around its own
        calls into a layer, and as each phase's root span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn: Callable,
             after: Callable | None = None,
             before: Callable | None = None) -> Callable:
        """``fn`` recording a span per call.  ``after(ledger, args,
        result, state)`` adds counts, where ``state`` is what
        ``before(args)`` returned ahead of the call (None without it)."""
        tracer = self

        def traced(*args, **kwargs):
            ledger = tracer.ledger
            stack = ledger.stack
            stack.append(0)
            state = before(args) if before is not None else None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                ledger.add_span(name, elapsed, elapsed - children)
                stack[-1] += elapsed
            if after is not None:
                after(ledger, args, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, module: str, cls_name: str, method: str,
                     name: str, after: Callable | None = None,
                     before: Callable | None = None,
                     subclasses: bool = False) -> None:
        """Wrap ``module.cls_name.method`` (and, with ``subclasses``,
        every override of it defined in the same module)."""
        mod = importlib.import_module(module)
        base = getattr(mod, cls_name, None)
        if base is None or not hasattr(base, method):
            self.missing.append(f"{module}.{cls_name}.{method}")
            return
        owners = [base]
        if subclasses:
            owners += [obj for obj in vars(mod).values()
                       if isinstance(obj, type) and obj is not base
                       and issubclass(obj, base) and method in vars(obj)]
        for owner in owners:
            if method not in vars(owner):
                continue
            raw = vars(owner)[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, after,
                                                before))
            else:
                wrapped = self.wrap(name, raw, after, before)
            self._patch(owner, method, wrapped)

    def patch_function(self, module: str, func: str, name: str,
                       after: Callable | None = None) -> None:
        mod = importlib.import_module(module)
        if func not in vars(mod):
            self.missing.append(f"{module}.{func}")
            return
        self._patch(mod, func, self.wrap(name, vars(mod)[func], after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install_layers(self) -> None:
        """Wrap the public entry points of every layer."""
        m = self.patch_method
        m("repro.sim.kernel", "SimKernel", "run_ticks", "sim",
          after=_count_ticks, before=_kernel_tick)
        m("repro.sim.kernel", "SimKernel", "run_until", "sim",
          after=_count_ticks, before=_kernel_tick)
        m("repro.sim.kernel", "SimKernel", "step", "sim",
          after=_count_step)
        self._count_commits()
        m("repro.fabric.registry", "FabricConfig", "build", "fabric.build")
        self.patch_function("repro.fabric.array_backend", "make_engine",
                            "fabric.array.lower")
        m("repro.fabric.array_backend", "ArrayEngine", "on_edge",
          "fabric.array", after=_count_array_edge)
        m("repro.fabric.array_backend", "ArrayEngine", "batch_ticks",
          "fabric.array", after=_count_array_batch, before=_engine_steps)
        m("repro.fabric.router", "FabricRouter", "on_edge", "fabric.router")
        for method in ("vc_winner", "switch_winner"):
            m("repro.fabric.allocator", "Allocator", method,
              "fabric.allocator", subclasses=True)
        for method in ("take_flit", "send_flit"):
            m("repro.fabric.link", "CreditLink", method, "fabric.link")
        for method in ("take_credits", "settle_credit", "send_credits"):
            m("repro.fabric.link", "CreditLink", method, "fabric.link",
              after=_count_credit_call)
        for cls_name in ("FabricSource", "FabricSink"):
            m("repro.fabric.endpoint", cls_name, "on_edge",
              "fabric.endpoint")
        m("repro.noc.router", "SwitchCore", "on_edge", "noc.switch")
        m("repro.noc.pipeline", "PipelineStage", "on_edge", "noc.pipeline")
        for cls_name in ("NISource", "NISink"):
            m("repro.noc.ni", cls_name, "on_edge", "noc.ni")
        for cls_name in ("ControlProcessor", "ProcessingElement",
                         "MemoryChannel"):
            m("repro.accel.endpoints", cls_name, "on_edge",
              "accel.endpoint")
        m("repro.accel.endpoints", "_AccelEndpoint", "deliver",
          "accel.endpoint")
        m("repro.traffic.base", "TrafficGenerator", "generate",
          "traffic.generate", after=_count_injections)
        self.patch_function("repro.physical.descriptor", "physical_model",
                            "physical.energy")
        m("repro.physical.report", "RunEnergyReport", "from_run",
          "physical.energy")

    def _count_commits(self) -> None:
        # Commits are counted, not timed: they run inside every step and a
        # span each would dominate the traced run's own overhead.
        from repro.sim.signal import Signal
        commit = vars(Signal).get("commit")
        if commit is None:
            self.missing.append("repro.sim.signal.Signal.commit")
            return
        tracer = self

        def counted(signal):
            counts = tracer.ledger.counts
            counts["sim.signal_commits"] = \
                counts.get("sim.signal_commits", 0) + 1
            return commit(signal)

        self._patch(Signal, "commit", counted)


def _kernel_tick(args) -> int:
    return args[0].tick


def _engine_steps(args) -> tuple[int, int]:
    kernel = args[0].kernel
    return kernel.steps_executed, kernel.tick


def _count_ticks(ledger: Ledger, args, result, before) -> None:
    ledger.count("sim.ticks", args[0].tick - before)


def _count_step(ledger: Ledger, args, result, before) -> None:
    ledger.count("sim.steps")


def _count_array_edge(ledger: Ledger, args, result, before) -> None:
    ledger.count("fabric.array.steps")


def _count_array_batch(ledger: Ledger, args, result, before) -> None:
    # batch_ticks advances the kernel's tick and step counters itself,
    # outside SimKernel.step; its ticks are part of an enclosing
    # run_ticks span, so only the engine's own counters move here.
    steps, tick = before
    kernel = args[0].kernel
    ledger.count("fabric.array.batched_ticks", kernel.tick - tick)
    ledger.count("fabric.array.steps", kernel.steps_executed - steps)


def _count_credit_call(ledger: Ledger, args, result, before) -> None:
    ledger.count("fabric.link.credit_calls")


def _count_injections(ledger: Ledger, args, result, before) -> None:
    ledger.count("traffic.injections", len(result))


#: The tracer of this process while traced rounds run (None otherwise).
#: Worker processes inherit it through fork; :class:`PointTimer` reads it
#: there, because a pickled callable cannot carry the worker's copy.
ACTIVE: Tracer | None = None


class PointTimer:
    """Picklable wrapper of a sweep's per-point function.

    Returns ``(result, info)``: the point's start and end on the shared
    monotonic clock and, while tracing, the point's own ledger and the
    pickled size of its result.
    """

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(self, item: Any) -> tuple[Any, dict]:
        tracer = ACTIVE
        remote = tracer is not None and os.getpid() != tracer.pid
        if remote:
            tracer.ledger = Ledger()
        start = perf_counter()
        if tracer is not None:
            result = tracer.span("analysis.point", self.fn, item)
        else:
            result = self.fn(item)
        end = perf_counter()
        info: dict[str, Any] = {"start": start, "end": end}
        if tracer is not None:
            info["result_bytes"] = len(pickle.dumps(result))
        if remote:
            info["ledger"] = tracer.ledger
        return result, info


def install_point_hook(points: list[dict], tracer: Tracer | None) -> Callable:
    """Route ``repro.analysis.parallel.parallel_map`` through
    :class:`PointTimer`; each point's info dict is appended to
    ``points``.  Returns the function that removes the hook."""
    from repro.analysis import parallel

    original = parallel.parallel_map

    def timed_map(fn, items, workers=None, chunksize=None):
        if tracer is not None:
            points.append({"spec_bytes": [len(pickle.dumps(item))
                                          for item in items],
                           "workers": workers or 1})
        pairs = original(PointTimer(fn), items, workers, chunksize)
        points.extend(info for _result, info in pairs)
        return [result for result, _info in pairs]

    if tracer is not None:
        timed_map = tracer.wrap("analysis.map", timed_map)
    parallel.parallel_map = timed_map

    def remove() -> None:
        parallel.parallel_map = original

    return remove
