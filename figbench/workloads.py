"""The four figure workloads: inputs from a seed, the timed work, checks.

Each workload regenerates the rows of one paper figure through the
program's public entry points and turns them into plain JSON rows, so
a repetition can be compared against ``reference.json`` (recorded at
the default seed) and against the figure's own invariants (any seed).

``build(seed, scratch)`` makes the inputs (part of set-up),
``execute(inputs, tracer)`` is the timed work and returns the rows,
``check(rows, inputs, artifacts)`` returns one failure message per
failing cell index, and ``audit(rows, inputs)`` runs the checks that
need more than the rows, once per run and outside the timed span.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments import fct_study
from repro.experiments.registry import EXPERIMENTS
from repro.perf.sweep import derive_seed
from repro.sim.faults import collect_ports
from repro.sim.topology import dumbbell
from repro.workloads.generator import DynamicWorkload, WorkloadConfig

#: The benchmark's default ``--seed``: it maps to the paper's own
#: seeds, and only there are rows compared with ``reference.json``.
DEFAULT_SEED = 0

#: fig04 horizon.  The figure uses 0.08 s (about 124 s of host time);
#: 0.002 s keeps one iteration near 2 s.  At this horizon the grid is
#: still in its start-up transient, so the check compares reference
#: values and never the figure's "N=10 oscillates at 85 us" claim.
FLUID_HORIZON_S = 0.002

#: fig05 at half its registered 0.04 s per delay point (the CoV
#: ordering the check asserts holds there on every seed tried); its
#: RED marking seed is the paper seed plus the benchmark seed.
FIG05_SEED = 3
FIG05_DURATION_S = 0.02
FIG05_DELAYS_US = (0.0, 85.0)

#: fig14 grid with a 0.3 s drain (the figure uses 0.15 s) so every flow
#: completes, TIMELY ones at load 0.8 included;
#: arrivals shortened from 0.25 s to 0.08 s.  Below about 0.06 s the
#: sweep's in-process probe cell (dcqcn at load 0.2) gets cheaper
#: than ``POOL_SPAWN_COST_S`` allows and the sweep falls back to
#: serial; at 0.08 s the probe takes about 0.22 s, 3x over that line.
FCT_SEED = 42
FCT_LOADS = (0.2, 0.4, 0.6, 0.8)
FCT_DURATION_S = 0.08
FCT_DRAIN_S = 0.3
FCT_WORKERS = 2
FCT_CAPACITY_GBPS = 10.0
FCT_PAIRS = 10
#: Away from the default seed, the workload seed is the first one
#: drawn from ``--seed`` whose offered bytes, summed over the loads,
#: are within this share of the paper seed's, so every seed runs an
#: input of the same size.
FCT_SIZE_TOLERANCE = 0.05

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _plain(value):
    """JSON-ready copy of a row value (numpy scalars to Python)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    return float(value)


def _row(obj, **extra) -> dict:
    row = {key: _plain(value)
           for key, value in dataclasses.asdict(obj).items()}
    row.update({key: _plain(value) for key, value in extra.items()})
    return row


def load_reference() -> Dict[str, List[dict]]:
    with REFERENCE_PATH.open() as handle:
        return json.load(handle)


def _differs(got: dict, want: dict, rel_tol: float) -> Optional[str]:
    """First field where two rows disagree, or None."""
    if set(got) != set(want):
        return f"fields {sorted(got)} != {sorted(want)}"
    for key, expected in want.items():
        value = got[key]
        if rel_tol and isinstance(expected, float):
            if not math.isclose(value, expected, rel_tol=rel_tol,
                                abs_tol=0.0):
                return f"{key}={value!r}, reference {expected!r}"
        elif value != expected:
            return f"{key}={value!r}, reference {expected!r}"
    return None


def compare_reference(rows: List[dict], reference: List[dict],
                      rel_tol: float = 0.0) -> Dict[int, str]:
    """Cell index -> mismatch, against the recorded reference rows."""
    if len(rows) != len(reference):
        return {i: f"{len(rows)} rows, reference has {len(reference)}"
                for i in range(max(len(rows), len(reference)))}
    failures = {}
    for index, (got, want) in enumerate(zip(rows, reference)):
        problem = _differs(got, want, rel_tol)
        if problem is not None:
            failures[index] = problem
    return failures


class Workload:
    """What every workload shares: by default, nothing to audit."""

    name = ""
    cells = 0
    #: Whether the timed work runs in more than one process.  A serial
    #: workload is pinned to one CPU with its host-speed probe.
    parallel = False

    def audit(self, rows, inputs) -> Dict[int, str]:
        return {}


# -- fluid_grid: fig04 ------------------------------------------------------

class FluidGrid(Workload):
    """fig04's delay x N grid of DCQCN fluid integrations, serially."""

    name = "fluid_grid"
    cells = 6

    def build(self, seed: int, scratch: Path) -> dict:
        # The fluid model has no randomness: every seed runs the same
        # integrations.
        return {"seed": seed}

    def sim_seconds(self, inputs: dict) -> float:
        return self.cells * FLUID_HORIZON_S

    def execute(self, inputs: dict, tracer=None):
        result = EXPERIMENTS["fig04"].run(duration=FLUID_HORIZON_S)
        EXPERIMENTS["fig04"].report(result)
        rows = [_row(r, oscillating=r.oscillating) for r in result]
        return rows, None

    def check(self, rows, inputs, artifacts) -> Dict[int, str]:
        return compare_reference(rows, load_reference()[self.name],
                                 rel_tol=1e-9)


# -- dcqcn_longflow / dcqcn_forensics: fig05 --------------------------------

def _fig05_rows(result) -> List[dict]:
    return [_row(r, cov=r.coefficient_of_variation) for r in result]


def _fig05_checks(rows: List[dict], seed: int) -> Dict[int, str]:
    failures = {}
    if seed == DEFAULT_SEED:
        failures.update(compare_reference(
            rows, load_reference()["dcqcn_longflow"]))
    if len(rows) == 2 and not rows[1]["cov"] > rows[0]["cov"]:
        failures[1] = (f"CoV at 85 us ({rows[1]['cov']!r}) is not above "
                       f"CoV at 0 us ({rows[0]['cov']!r})")
    return failures


class LongFlow(Workload):
    """fig05: ten long-lived DCQCN flows through RED, obs off."""

    name = "dcqcn_longflow"
    cells = len(FIG05_DELAYS_US)

    def build(self, seed: int, scratch: Path) -> dict:
        return {"seed": seed, "sim_seed": FIG05_SEED + seed}

    def sim_seconds(self, inputs: dict) -> float:
        return self.cells * FIG05_DURATION_S

    def execute(self, inputs: dict, tracer=None):
        result = EXPERIMENTS["fig05"].run(
            extra_delays_us=FIG05_DELAYS_US, duration=FIG05_DURATION_S,
            seed=inputs["sim_seed"])
        EXPERIMENTS["fig05"].report(result)
        return _fig05_rows(result), None

    def check(self, rows, inputs, artifacts) -> Dict[int, str]:
        return _fig05_checks(rows, inputs["seed"])


class Forensics(LongFlow):
    """fig05 under ``repro run --telemetry DIR --forensics``."""

    name = "dcqcn_forensics"

    def build(self, seed: int, scratch: Path) -> dict:
        from repro.obs import Telemetry
        from repro.obs.forensics import FlowLedger

        inputs = super().build(seed, scratch)
        telemetry = Telemetry(tempfile.mkdtemp(prefix="telemetry-",
                                               dir=scratch),
                              experiment="fig05")
        telemetry.forensics = FlowLedger()
        inputs["telemetry"] = telemetry
        return inputs

    def execute(self, inputs: dict, tracer=None):
        telemetry = inputs["telemetry"]
        result = EXPERIMENTS["fig05"].run(
            extra_delays_us=FIG05_DELAYS_US, duration=FIG05_DURATION_S,
            seed=inputs["sim_seed"], telemetry=telemetry)
        EXPERIMENTS["fig05"].report(result)
        return _fig05_rows(result), telemetry

    def check(self, rows, inputs, artifacts) -> Dict[int, str]:
        failures = super().check(rows, inputs, artifacts)
        telemetry = artifacts
        flows = len(telemetry.forensics.records()) if telemetry else 0
        if flows != 10 * self.cells:
            failures.setdefault(
                0, f"forensics attributed {flows} flows, expected "
                   f"{10 * self.cells}")
        if telemetry is None or not telemetry.runlog_path.is_file():
            failures.setdefault(0, "no run log written")
        return failures


# -- fct_sweep: fig14 -------------------------------------------------------

def audit_ports(net) -> List[str]:
    """Packet conservation at every port of a finished network.

    Each FIFO's lifetime enqueued bytes equal dequeued bytes plus
    occupancy, and the serializer has sent everything its queues
    released except at most the packet on the wire.
    """
    problems = []
    for name, port in collect_ports(net).items():
        released = 0
        for fifo in (port.queue, port.control_queue):
            if fifo is None:
                continue
            problem = fifo.audit()
            if problem is not None:
                problems.append(f"{name}: {problem}")
            released += fifo.dequeued_bytes
        gap = released - port.bytes_transmitted
        if gap < 0 or (gap > 0) != port.busy:
            problems.append(f"{name}: released {released} bytes, "
                            f"transmitted {port.bytes_transmitted}, "
                            f"busy={port.busy}")
    return problems


def offered_bytes(seed: int) -> float:
    """Bytes fig14's workload generator offers over the loads at ``seed``."""
    params = fct_study.protocol_setup("dcqcn", FCT_CAPACITY_GBPS)[0]
    total = 0.0
    for load in FCT_LOADS:
        net = dumbbell(FCT_PAIRS, link_gbps=FCT_CAPACITY_GBPS)
        config = WorkloadConfig(protocol="dcqcn", load=load,
                                duration=FCT_DURATION_S, seed=seed)
        total += DynamicWorkload(net, config, params).offered_bytes
    return total


def fct_seed(seed: int) -> int:
    """fig14's workload seed: the paper's, or a same-size draw."""
    if seed == DEFAULT_SEED:
        return FCT_SEED
    target = offered_bytes(FCT_SEED)
    for draw in itertools.count():
        candidate = derive_seed(seed, draw)
        if abs(offered_bytes(candidate) / target - 1.0) \
                <= FCT_SIZE_TOLERANCE:
            return candidate


def _fct_row(run) -> dict:
    return {"protocol": run.protocol, "load": _plain(run.load),
            "installed": run.installed, "completed": run.completed,
            "completion_fraction": _plain(run.completion_fraction),
            "utilization": _plain(run.utilization),
            **{key: _plain(value) for key, value
               in dataclasses.asdict(run.summary).items()},
            "queue_mean_b": _plain(run.queue_bytes.mean()),
            "queue_max_b": _plain(run.queue_bytes.max())}


class FctSweep(Workload):
    """fig14's (protocol, load) grid via ``EXPERIMENTS["fig14"].run``."""

    name = "fct_sweep"
    cells = len(fct_study.STUDY_PROTOCOLS) * len(FCT_LOADS)
    parallel = True

    def build(self, seed: int, scratch: Path) -> dict:
        return {"seed": seed, "fct_seed": fct_seed(seed)}

    def sim_seconds(self, inputs: dict) -> float:
        return self.cells * (FCT_DURATION_S + FCT_DRAIN_S)

    def _kwargs(self, inputs: dict) -> dict:
        return {"duration": FCT_DURATION_S, "drain": FCT_DRAIN_S,
                "capacity_gbps": FCT_CAPACITY_GBPS, "n_pairs": FCT_PAIRS,
                "seed": inputs["fct_seed"]}

    def execute(self, inputs: dict, tracer=None):
        grouped = EXPERIMENTS["fig14"].run(
            loads=FCT_LOADS, workers=FCT_WORKERS, **self._kwargs(inputs))
        EXPERIMENTS["fig14"].report(grouped)
        rows = [_fct_row(run) for protocol in fct_study.STUDY_PROTOCOLS
                for run in grouped[protocol]]
        return rows, None

    def check(self, rows, inputs, artifacts) -> Dict[int, str]:
        reference = load_reference()[self.name]
        failures = {}
        if inputs["seed"] == DEFAULT_SEED:
            failures.update(compare_reference(rows, reference))
        for index, row in enumerate(rows):
            floor = reference[index]["completion_fraction"] \
                if index < len(reference) else 1.0
            if row["completion_fraction"] < floor:
                failures[index] = (
                    f"completion_fraction {row['completion_fraction']!r}"
                    f" below {floor!r}")
        return failures

    def audit(self, rows, inputs) -> Dict[int, str]:
        """Packet conservation on one cell per protocol, re-run here.

        The timed sweep keeps its networks in the pool workers, so the
        audit re-runs one cell per protocol in this process, untimed,
        with the network kept: the load rotates with the seed so that
        seeds 0 to 3 audit every cell.  The re-run row must equal the
        timed one exactly.
        """
        failures = {}
        for p_index, protocol in enumerate(fct_study.STUDY_PROTOCOLS):
            l_index = (inputs["seed"] + p_index) % len(FCT_LOADS)
            index = p_index * len(FCT_LOADS) + l_index
            nets = []

            def capture(*args, **kwargs):
                net = dumbbell(*args, **kwargs)
                nets.append(net)
                return net

            fct_study.dumbbell = capture
            try:
                run = fct_study.run_protocol(
                    protocol, FCT_LOADS[l_index], **self._kwargs(inputs))
            finally:
                fct_study.dumbbell = dumbbell
            problems = audit_ports(nets[0])
            if index < len(rows) and _fct_row(run) != rows[index]:
                problems.append("re-run row differs from the timed row")
            if problems:
                failures[index] = "; ".join(problems)
        return failures


WORKLOADS = {workload.name: workload for workload in
             (FluidGrid(), LongFlow(), FctSweep(), Forensics())}
