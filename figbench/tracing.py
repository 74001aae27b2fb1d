"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public calls of each layer (see
``README.md`` for the map) while it is installed:

* calls that a figure makes a handful of times get a *span* (name,
  start, end, parent index), kept in memory and written once at the
  end of the run;
* hot methods (``derivatives``, ``schedule``, ``Port.send``,
  ``should_mark``, protocol handlers) only bump a count;
* a *profile-only* tracer wraps just ``Simulator.run``: it times the
  call, counts its events and runs the program's own
  :class:`~repro.obs.profile.SamplingProfiler` beside it, whose
  category samples become the ``sim.share.*`` metrics.  It adds no
  per-event cost, so the busy shares and ``sim.run_s`` describe the
  program as it runs untraced.

Nothing under ``src/`` changes: the wrappers are installed on the
classes and module attributes at run time and removed by
:meth:`Tracer.uninstall`.  Sweep cells are wrapped in
:class:`TracedCell`, which sends each worker's counts and spans back
with the cell's result.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.core.fluid import dde
from repro.core.fluid.base import FluidModel
from repro.core.fluid.history import UniformHistory
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.obs import metrics as _metrics
from repro.obs.forensics import FlowLedger
from repro.obs.health import HealthMonitor
from repro.obs.profile import SamplingProfiler
from repro.obs.telemetry import Telemetry
from repro.perf.sweep import SweepRunner
from repro.sim import protocols as _protocols
from repro.sim.engine import Simulator
from repro.sim.link import Port
from repro.sim.piaqm import PIMarker
from repro.sim.red import REDMarker
from repro.workloads.generator import DynamicWorkload

#: Modules whose public functions form the analytic layer.
ANALYTIC_MODULES = (
    "repro.core.fixedpoint.dcqcn", "repro.core.fixedpoint.timely",
    "repro.core.stability.analytic", "repro.core.stability.bode",
    "repro.core.stability.dcqcn_margin",
    "repro.core.stability.linearize",
    "repro.core.stability.timely_margin")

#: ``SamplingProfiler`` categories reported as ``sim.share.*``.
SHARE_CATEGORIES = ("scheduler", "port", "protocol", "engine", "other")

_process_tracer: Optional["Tracer"] = None


def process_tracer(profile_only: bool = False) -> "Tracer":
    """This process's installed tracer, created on first use.

    Forked sweep workers inherit the parent's installed tracer;
    spawned ones install their own here.
    """
    global _process_tracer
    if _process_tracer is None:
        _process_tracer = Tracer(profile_only)
        _process_tracer.install()
    return _process_tracer


class TracedCell:
    """A sweep cell function that also returns its process's trace.

    Calls ``fn(**cell)`` and returns ``(value, delta, pid)``, where
    ``delta`` holds the counts and spans the cell recorded.  Picklable
    whenever ``fn`` is, so it crosses to pool workers like ``fn``.
    """

    def __init__(self, fn: Callable, profile_only: bool):
        self.fn = fn
        self.profile_only = profile_only

    def __call__(self, **cell):
        tracer = process_tracer(self.profile_only)
        mark = tracer.mark()
        value = self.fn(**cell)
        return value, tracer.since(mark), os.getpid()


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Spans and counts around the program's layer boundaries.

    With ``profile_only`` only ``Simulator.run`` (span, events and
    sampled busy shares) and the sweep's cell hand-off are wrapped.
    """

    def __init__(self, profile_only: bool = False):
        self.profile_only = profile_only
        self.counts: Counter = Counter()
        #: ``[name, start, end, parent]``; parent is an index or -1.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self._captured: Dict[str, list] = {
            "ports": [], "workloads": [], "telemetry": []}
        self.registry = _metrics.MetricsRegistry()
        self._previous_registry = None

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _capturing(self, kind: str, fn: Callable) -> Callable:
        captured = self._captured[kind]

        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            captured.append(obj)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name: str, make: Callable) -> None:
        had_own = name in vars(owner)
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original if had_own else None))

    def _patch_function(self, module_name: str, name: str,
                        make: Callable) -> None:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(sys.modules[module_name], name)
        wrapper = make(original)
        for module in list(sys.modules.values()):
            module_id = getattr(module, "__name__", "") or ""
            if not module_id.startswith(("repro", "figbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> "Tracer":
        self._patch(Simulator, "run", self._traced_run)
        self._patch(SweepRunner, "map", self._traced_map)
        self._previous_registry = _metrics.set_registry(self.registry)
        if not self.profile_only:
            self._install_layers()
        return self

    def _install_layers(self) -> None:
        # fluid layer
        self._patch_function(dde.__name__, "integrate",
                             lambda fn: self._spanned("fluid.integrate",
                                                      fn))
        for model in [FluidModel] + _subclasses(FluidModel):
            if "derivatives" in vars(model):
                self._patch(model, "derivatives", lambda fn: self._counted(
                    "fluid.rhs_evals", fn))
        for name in ("interpolate", "component"):
            self._patch(UniformHistory, name, lambda fn: self._counted(
                "fluid.history_lookups", fn))
        # analytic fixed points and margins
        for module_name in ANALYTIC_MODULES:
            __import__(module_name)
            module = sys.modules[module_name]
            for name, value in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(value) \
                        or value.__module__ != module_name:
                    continue
                self._patch_function(
                    module_name, name,
                    lambda fn, name=name: self._spanned(
                        f"analytic.{name}", fn))
        # packet engine, ports, AQM, protocols
        for name in ("schedule", "schedule_at"):
            self._patch(Simulator, name, lambda fn: self._counted(
                "sim.scheduled", fn))
        self._patch(Port, "__init__",
                    lambda fn: self._capturing("ports", fn))
        self._patch(Port, "send", lambda fn: self._counted(
            "sim.link.send_calls", fn))
        for marker in (REDMarker, PIMarker):
            self._patch(marker, "should_mark", self._traced_mark)
        handlers = {"on_ack": "sim.proto.acks", "on_cnp": "sim.proto.cnps",
                    "on_data": "sim.proto.data"}
        agents = [cls for module in _protocol_modules()
                  for cls in vars(module).values()
                  if inspect.isclass(cls) and cls.__module__
                  == module.__name__]
        # Wrap each class's resolved handler once, originals first, so
        # an inherited handler is not wrapped twice.
        plan = [(cls, name, getattr(cls, name)) for cls in agents
                for name in handlers if hasattr(cls, name)]
        for cls, name, original in plan:
            self._undo.append((cls, name, original if name in vars(cls)
                               else None))
            setattr(cls, name, self._counted(handlers[name], original))
        # workloads, sweep, obs, analysis
        self._patch(DynamicWorkload, "__init__",
                    lambda fn: self._capturing("workloads", fn))
        self._patch(Telemetry, "activate", self._traced_activate)
        self._patch(FlowLedger, "finalize", lambda fn: self._spanned(
            "obs.forensics.finalize", fn))
        self._patch(HealthMonitor, "sample", lambda fn: self._counted(
            "obs.health.samples", fn))
        for experiment in EXPERIMENTS.values():
            original = experiment.report
            object.__setattr__(experiment, "report",
                               self._spanned("analysis.report", original))
            self._undo.append((experiment, "report", original))

    def uninstall(self) -> None:
        _metrics.set_registry(self._previous_registry)
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            elif isinstance(owner, Experiment):
                object.__setattr__(owner, name, original)  # frozen
            else:
                setattr(owner, name, original)
        self._undo.clear()

    # -- wrappers with more than a count -----------------------------------

    def _traced_run(self, fn: Callable) -> Callable:
        counts = self.counts

        profile = self.profile_only

        def run(sim, *args, **kwargs):
            before = sim.events_processed
            profiler = SamplingProfiler().start() if profile else None
            index = self.open("sim.run")
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self.close(index)
                counts["sim.events"] += sim.events_processed - before
                if profiler is not None:
                    profiler.stop()
                    for category, samples in profiler.samples.items():
                        counts[f"sim.samples.{category}"] += samples
        return run

    def _traced_mark(self, fn: Callable) -> Callable:
        counts = self.counts

        def should_mark(marker, queue_bytes):
            counts["sim.aqm.mark_trials"] += 1
            marked = fn(marker, queue_bytes)
            if marked:
                counts["sim.aqm.marks"] += 1
            return marked
        return should_mark

    def _traced_map(self, fn: Callable) -> Callable:
        counts = self.counts

        def map_cells(runner, cell_fn, cells):
            cells = list(cells)
            before = os.times()
            index = self.open("sweep.map")
            try:
                outcomes = fn(runner, TracedCell(cell_fn,
                                                 self.profile_only), cells)
            finally:
                self.close(index)
                after = os.times()
                name, start, end, _ = self.spans[index]
                counts["sweep.cells"] += len(cells)
                counts["sweep.child_cpu_s"] += (
                    after.children_user - before.children_user
                    + after.children_system - before.children_system)
                counts["sweep.capacity_s"] += (end - start) \
                    * runner.workers
            # Cells run in this process (the sweep's probe cell, or a
            # serial fallback) are already counted here.
            for _, delta, pid in outcomes:
                if pid != os.getpid():
                    self.merge(delta, index)
            return [value for value, _, _ in outcomes]
        return map_cells

    def _traced_activate(self, fn: Callable) -> Callable:
        tracer = self

        class Activation:
            """Times the exit of ``Telemetry.activate`` (flush, export)."""

            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                return self._inner.__enter__()

            def __exit__(self, *exc_info):
                index = tracer.open("obs.activate_exit")
                try:
                    return self._inner.__exit__(*exc_info)
                finally:
                    tracer.close(index)

        def activate(telemetry, *args, **kwargs):
            tracer._captured["telemetry"].append(telemetry)
            return Activation(fn(telemetry, *args, **kwargs))
        return activate

    # -- collection --------------------------------------------------------

    def collect(self) -> None:
        """Fold captured objects into counts and let them go."""
        counts = self.counts
        ports = self._captured["ports"]
        counts["sim.link.packets"] += sum(
            port.packets_transmitted for port in ports)
        counts["sim.link.drops"] += sum(
            port.queue.dropped_packets for port in ports)
        counts["sim.link.ecn_marks"] += sum(
            port.ecn_marks for port in ports)
        for workload in self._captured["workloads"]:
            counts["workloads.flows_installed"] += len(workload.flows)
            counts["workloads.flows_completed"] += len(
                workload.completed_flows)
        for telemetry in self._captured["telemetry"]:
            if telemetry.forensics is not None:
                counts["obs.forensics.flows"] += len(
                    telemetry.forensics.records())
            path = telemetry.runlog_path
            if path.is_file():
                data = path.read_bytes()
                counts["obs.runlog.bytes"] += len(data)
                counts["obs.runlog.events"] += data.count(b"\n")
        for captured in self._captured.values():
            captured.clear()
        retries = self.registry.get("fluid.dde.step_retries")
        counts["fluid.step_retries"] = retries.value \
            if retries is not None else 0

    def mark(self) -> tuple:
        self.collect()
        return len(self.spans), Counter(self.counts)

    def since(self, mark: tuple) -> dict:
        """Counts and spans recorded after ``mark``, self-contained."""
        self.collect()
        first, counts = mark
        spans = [[name, start, end, parent - first if parent >= first
                  else -1]
                 for name, start, end, parent in self.spans[first:]]
        delta = Counter(self.counts)
        delta.subtract(counts)
        return {"counts": dict(delta), "spans": spans}

    def merge(self, delta: dict, parent: int) -> None:
        """Add a :meth:`since` delta from another process under ``parent``."""
        self.counts.update(delta["counts"])
        base = len(self.spans)
        for name, start, end, span_parent in delta["spans"]:
            self.spans.append([name, start, end,
                               span_parent + base if span_parent >= 0
                               else parent])

    def span_records(self) -> List[dict]:
        """Spans with self time: duration minus what children cover.

        Children from parallel sweep workers overlap, so the covered
        part is the union of their intervals, not the sum.
        """
        children: Dict[int, List[tuple]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        records = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            covered, reach = 0.0, start
            for child_start, child_end in sorted(children.get(index, [])):
                child_start = max(child_start, reach)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            records.append({"name": name, "start": start, "end": end,
                            "parent": parent,
                            "self_s": end - start - covered})
        return records


def _protocol_modules():
    import importlib
    import pkgutil

    return [importlib.import_module(f"{_protocols.__name__}.{info.name}")
            for info in pkgutil.iter_modules(_protocols.__path__)]


def _layer_time(spans: List[list], prefix: str) -> "tuple[int, float]":
    """Calls and seconds of the outermost spans named ``prefix*``."""
    calls, total = 0, 0.0
    for name, start, end, parent in spans:
        if not name.startswith(prefix):
            continue
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if parent < 0:
            calls += 1
            total += end - start
    return calls, total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(counts: Dict[str, float],
                  spans: List[list]) -> Dict[str, float]:
    """The per-layer metrics of one iteration's counts and spans.

    From a full tracer, every metric but ``run.PROFILED_METRICS`` (the
    busy shares read 0 there); from a profile-only tracer, only those.
    """
    c = Counter(counts)
    integrations, integrate_s = _layer_time(spans, "fluid.integrate")
    analytic_calls, analytic_s = _layer_time(spans, "analytic.")
    _, run_s = _layer_time(spans, "sim.run")
    _, map_s = _layer_time(spans, "sweep.map")
    _, activate_s = _layer_time(spans, "obs.activate_exit")
    _, finalize_s = _layer_time(spans, "obs.forensics.finalize")
    _, report_s = _layer_time(spans, "analysis.report")
    samples = sum(value for key, value in c.items()
                  if key.startswith("sim.samples."))
    metrics = {
        "fluid.integrations": integrations,
        "fluid.integrate_s": integrate_s,
        "fluid.rhs_evals": c["fluid.rhs_evals"],
        "fluid.us_per_rhs": _ratio(integrate_s * 1e6,
                                   c["fluid.rhs_evals"]),
        "fluid.history_lookups": c["fluid.history_lookups"],
        "fluid.step_retries": c["fluid.step_retries"],
        "analytic.calls": analytic_calls,
        "analytic.s": analytic_s,
        "sim.events": c["sim.events"],
        "sim.scheduled": c["sim.scheduled"],
        "sim.useful_event_ratio": _ratio(c["sim.events"],
                                         c["sim.scheduled"]),
        "sim.run_s": run_s,
        "sim.events_per_s": _ratio(c["sim.events"], run_s),
        "sim.link.packets": c["sim.link.packets"],
        "sim.link.send_calls": c["sim.link.send_calls"],
        "sim.link.events_per_packet": _ratio(c["sim.events"],
                                             c["sim.link.packets"]),
        "sim.link.drops": c["sim.link.drops"],
        "sim.link.ecn_marks": c["sim.link.ecn_marks"],
        "sim.aqm.mark_trials": c["sim.aqm.mark_trials"],
        "sim.aqm.mark_ratio": _ratio(c["sim.aqm.marks"],
                                     c["sim.aqm.mark_trials"]),
        "sim.proto.acks": c["sim.proto.acks"],
        "sim.proto.cnps": c["sim.proto.cnps"],
        "sim.proto.data": c["sim.proto.data"],
        "workloads.flows_installed": c["workloads.flows_installed"],
        "workloads.flows_completed": c["workloads.flows_completed"],
        "workloads.completion_ratio": _ratio(
            c["workloads.flows_completed"],
            c["workloads.flows_installed"]),
        "sweep.cells": c["sweep.cells"],
        "sweep.map_s": map_s,
        "sweep.child_cpu_s": c["sweep.child_cpu_s"],
        "sweep.worker_busy_frac": _ratio(c["sweep.child_cpu_s"],
                                         c["sweep.capacity_s"]),
        "obs.activate_s": activate_s,
        "obs.forensics.flows": c["obs.forensics.flows"],
        "obs.forensics.finalize_s": finalize_s,
        "obs.health.samples": c["obs.health.samples"],
        "obs.runlog.events": c["obs.runlog.events"],
        "obs.runlog.bytes": c["obs.runlog.bytes"],
        "analysis.report_s": report_s,
    }
    for category in SHARE_CATEGORIES:
        metrics[f"sim.share.{category}"] = _ratio(
            c[f"sim.samples.{category}"], samples)
    return {name: float(value) for name, value in metrics.items()}
