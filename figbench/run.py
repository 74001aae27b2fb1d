"""Figure-regeneration benchmark: one workload, repeated, as one JSON line.

Usage (from the repository root)::

    python3 figbench/run.py --workload dcqcn_longflow --seed 0 \\
        --seconds 30 --trace 0

Each repetition is a fresh interpreter (``rep.py``) that sets up once,
so set-up is paid and measured every time, then times a few
iterations of the figure.  Repetitions continue while the next one is
expected to end within ``--seconds`` (at least ``MIN_REPS``); timings
are medians over all iterations, set-up and memory medians over
repetitions.  ``--trace 1`` alternates traced and profile-only
repetitions instead and reports the per-layer metrics.  The last line
of standard output is the JSON result; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Where repetitions keep scratch files (removed on exit) and traces.
WORK_DIR = ROOT / ".figbench"

WORKLOADS = ("fluid_grid", "dcqcn_longflow", "fct_sweep",
             "dcqcn_forensics")

#: (name, unit, better) of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("sim_s_per_s", "sim-s/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better) of the per-layer metrics (``--trace 1``).
PER_LAYER = (
    ("fluid.integrations", "count", "lower"),
    ("fluid.integrate_s", "s", "lower"),
    ("fluid.rhs_evals", "count", "lower"),
    ("fluid.us_per_rhs", "us", "lower"),
    ("fluid.history_lookups", "count", "lower"),
    ("fluid.step_retries", "count", "lower"),
    ("analytic.calls", "count", "lower"),
    ("analytic.s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.scheduled", "count", "lower"),
    ("sim.useful_event_ratio", "ratio", "higher"),
    ("sim.run_s", "s", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.link.packets", "count", "lower"),
    ("sim.link.send_calls", "count", "lower"),
    ("sim.link.events_per_packet", "ratio", "lower"),
    ("sim.link.drops", "count", "lower"),
    ("sim.link.ecn_marks", "count", "lower"),
    ("sim.aqm.mark_trials", "count", "lower"),
    ("sim.aqm.mark_ratio", "ratio", "lower"),
    ("sim.proto.acks", "count", "lower"),
    ("sim.proto.cnps", "count", "lower"),
    ("sim.proto.data", "count", "lower"),
    ("sim.share.scheduler", "ratio", "lower"),
    ("sim.share.port", "ratio", "lower"),
    ("sim.share.protocol", "ratio", "lower"),
    ("sim.share.engine", "ratio", "lower"),
    ("sim.share.other", "ratio", "lower"),
    ("workloads.flows_installed", "count", "higher"),
    ("workloads.flows_completed", "count", "higher"),
    ("workloads.completion_ratio", "ratio", "higher"),
    ("sweep.cells", "count", "higher"),
    ("sweep.map_s", "s", "lower"),
    ("sweep.child_cpu_s", "s", "lower"),
    ("sweep.worker_busy_frac", "ratio", "higher"),
    ("obs.activate_s", "s", "lower"),
    ("obs.forensics.flows", "count", "higher"),
    ("obs.forensics.finalize_s", "s", "lower"),
    ("obs.health.samples", "count", "higher"),
    ("obs.runlog.events", "count", "lower"),
    ("obs.runlog.bytes", "B", "lower"),
    ("obs.on_cost_frac", "ratio", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Per-layer metrics taken from the profile-only repetitions of a
#: traced run, which carry no counting wrappers (``tracing.py``).
PROFILED_METRICS = ("sim.run_s", "sim.events_per_s",
                    "sim.share.scheduler", "sim.share.port",
                    "sim.share.protocol", "sim.share.engine",
                    "sim.share.other")

#: Figure cells per repetition (the unit of ``attempted``/``failed``).
CELLS = {"fluid_grid": 6, "dcqcn_longflow": 2, "fct_sweep": 12,
         "dcqcn_forensics": 2}

#: Processes per run at least, and timed iterations per process
#: (about 3 s each, 5.5 s for the sweep).
MIN_REPS = 3
ITERATIONS = {"fluid_grid": 2, "dcqcn_longflow": 2, "fct_sweep": 1,
              "dcqcn_forensics": 2}
#: No repetition starts after this many seconds, and none may run
#: longer than ``REP_TIMEOUT_S``: the whole run stays under 180 s.
LAST_START_S = 100.0
REP_TIMEOUT_S = 60.0
RSS_POLL_S = 0.05


class Rep:
    """Outcome of one process: set-up once, then timed iterations."""

    def __init__(self, workload: str, mode: str,
                 result: Optional[dict], descendants_kb: int):
        self.workload = workload
        #: ``plain``, ``profile`` or ``trace``: see ``rep.py``.
        self.mode = mode
        self.result = result
        self.descendants_kb = descendants_kb

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def iterations(self) -> List[dict]:
        return self.result["iterations"] if self.ok else []

    @property
    def attempted_cells(self) -> int:
        return CELLS[self.workload] * (len(self.iterations) if self.ok
                                       else ITERATIONS[self.workload])

    @property
    def failed_cells(self) -> int:
        if not self.ok:
            return self.attempted_cells
        return sum(len(it["failures"]) for it in self.iterations)


def _proc_stat(pid: str) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    return text[text.rindex(")") + 2:].split()


def _descendants(root_pid: int) -> List[str]:
    """Pids of every live descendant of ``root_pid``."""
    children: Dict[str, List[str]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(entry)
            if fields is not None:
                children.setdefault(fields[1], []).append(entry)
    found, frontier = [], [str(root_pid)]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            found.append(child)
            frontier.append(child)
    return found


def _peak_rss_kb(pid: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _alive_in_group(pid: str, pgid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z" \
        and fields[2] == str(pgid)


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a repetition's process group; wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        alive = [pid for pid in os.listdir("/proc") if pid.isdigit()
                 and _alive_in_group(pid, pgid)]
        if not alive:
            return
        time.sleep(0.05)


def run_rep(workload: str, seed: int, mode: str, scratch: Path,
            audit: bool = False) -> Rep:
    """Start ``rep.py`` and sample its descendants' peak RSS until exit."""
    out = scratch / f"rep-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode,
               "--iterations", str(ITERATIONS[workload]),
               "--scratch", str(scratch),
               "--out", str(out)] + (["--audit"] if audit else [])
    spawned_at = time.monotonic()
    proc = subprocess.Popen(command + ["--spawned-at", repr(spawned_at)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    peaks: Dict[str, int] = {}
    deadline = spawned_at + REP_TIMEOUT_S
    try:
        while True:
            try:
                proc.wait(timeout=RSS_POLL_S)
                break
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() > deadline:
                print(f"figbench: {workload} repetition timed out",
                      file=sys.stderr)
                break
            for pid in _descendants(proc.pid):
                peak = _peak_rss_kb(pid)
                if peak is not None:
                    peaks[pid] = peak
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        _stop_group(proc.pid)
    result = None
    if proc.returncode == 0 and out.is_file():
        result = json.loads(out.read_text())
        out.unlink()
    else:
        print(f"figbench: {workload} repetition exited with "
              f"{proc.returncode}", file=sys.stderr)
    return Rep(workload, mode, result, sum(peaks.values()))


def _median(values: List[float]) -> float:
    return statistics.median(values)


def end_to_end(reps: List[Rep]) -> Dict[str, float]:
    """Medians over every iteration (timings) or process (set-up, RSS)."""
    iterations = [(rep.result["sim_s"], it) for rep in reps
                  for it in rep.iterations]
    return {
        "wall_s": _median([it["wall_s"] for _, it in iterations]),
        "setup_s": _median([rep.result["setup_s"] for rep in reps]),
        "cpu_s": _median([it["cpu_s"] for _, it in iterations]),
        "sim_s_per_s": _median([sim_s / it["wall_s"]
                                for sim_s, it in iterations]),
        "peak_rss_mb": _median([(rep.result["maxrss_kb"]
                                 + rep.descendants_kb) / 1024.0
                                for rep in reps]),
    }


def _walls(reps: List[Rep]) -> List[float]:
    return [it["wall_s"] for rep in reps for it in rep.iterations]


def _layer_medians(reps: List[Rep]) -> Dict[str, float]:
    layers = [it["layers"] for rep in reps for it in rep.iterations]
    return {name: _median([layer[name] for layer in layers])
            for name in layers[0]}


def per_layer(traced: List[Rep], profiled: List[Rep],
              baseline: List[Rep]) -> Dict[str, float]:
    """Median layer metrics, plus two ratios of ``wall_s`` medians.

    Counts and spans come from the traced iterations; the busy shares,
    ``sim.run_s`` and ``sim.events_per_s`` from the profile-only ones,
    which carry no counting wrappers.
    """
    metrics = _layer_medians(traced)
    profile = _layer_medians(profiled)
    metrics.update({name: profile[name] for name in PROFILED_METRICS})
    profiled_wall = _median(_walls(profiled))
    metrics["trace.overhead_frac"] = \
        _median(_walls(traced)) / profiled_wall - 1.0
    metrics["obs.on_cost_frac"] = 0.0
    if baseline:
        metrics["obs.on_cost_frac"] = \
            profiled_wall / _median(_walls(baseline)) - 1.0
    return metrics


def rows_mismatch(reps: List[Rep]) -> int:
    """Cells whose rows differ between iterations of one workload."""
    reference = None
    mismatched = 0
    for rep in reps:
        for iteration in rep.iterations:
            rows = iteration["rows"]
            if reference is None:
                reference = rows
            elif rows != reference:
                mismatched += sum(1 for a, b in zip(rows, reference)
                                  if a != b) or CELLS[rep.workload]
    return mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"figbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"figbench: no program at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2

    # The forensics workload's traced run also times fig05 with obs
    # off, for obs.on_cost_frac.
    cycle = [(args.workload, "plain")]
    if args.trace:
        cycle = [(args.workload, "trace"), (args.workload, "profile")]
        if args.workload == "dcqcn_forensics":
            cycle.append(("dcqcn_longflow", "profile"))

    scratch = WORK_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    reps: List[Rep] = []
    spent: Dict[tuple, List[float]] = {}
    started = time.monotonic()
    try:
        while True:
            kind = cycle[len(reps) % len(cycle)]
            elapsed = time.monotonic() - started
            # Stop once the next repetition would end past --seconds.
            expected = _median(spent[kind]) if kind in spent else 0.0
            enough = len(reps) >= max(MIN_REPS, len(cycle))
            if (enough and elapsed + expected > args.seconds) \
                    or elapsed > LAST_START_S:
                break
            rep_started = time.monotonic()
            # The workload's own audit runs once, off the timed span,
            # in its first untraced repetition.
            audit = kind[0] == args.workload and kind[1] != "trace" \
                and kind not in spent
            rep = run_rep(kind[0], args.seed, kind[1], scratch, audit)
            spent.setdefault(kind, []).append(
                time.monotonic() - rep_started)
            reps.append(rep)
            if rep.ok:
                walls = " ".join(f"{it['wall_s']:.3f}/{it['raw_wall_s']:.3f}"
                                 for it in rep.iterations)
                print(f"figbench: {rep.workload} mode={rep.mode} "
                      f"setup_s={rep.result['setup_s']:.3f} "
                      f"wall_s/raw={walls}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(rep.attempted_cells for rep in reps)
    failed = sum(rep.failed_cells for rep in reps)
    main_plain = [rep for rep in reps if rep.ok and rep.mode != "trace"
                  and rep.workload == args.workload]
    main_traced = [rep for rep in reps if rep.ok and rep.mode == "trace"]
    baseline = [rep for rep in reps if rep.ok
                and rep.workload != args.workload]
    failed += rows_mismatch(main_plain + main_traced)
    failed += rows_mismatch(baseline)
    for rep in reps:
        for iteration in rep.iterations:
            for index, message in iteration["failures"].items():
                print(f"figbench: {rep.workload} cell {index}: "
                      f"{message.strip().splitlines()[-1]}",
                      file=sys.stderr)
    if not main_plain or (args.trace and not main_traced):
        print("figbench: no successful repetition", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(main_traced, main_plain, baseline)
        table = PER_LAYER
        spans = main_traced[-1].result["spans"]
        traces = WORK_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans))
    else:
        values = end_to_end(main_plain)
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in table}

    print(f"figbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(reps)} repetitions")
    for name, unit, better in table:
        print(f"  {name:<30} {values[name]:>16.6g} {unit:<8} "
              f"({better} is better)")
    print(f"  {'failed_frac':<30} {failed / attempted:>16.6g} ratio    "
          f"({failed} of {attempted} cells)")
    # Unscaled medians, and the factor that scales wall and CPU times.
    raw = {"raw_setup_s": [rep.result["raw_setup_s"] for rep in main_plain]}
    for name in ("raw_wall_s", "raw_cpu_s", "speed_factor"):
        raw[name] = [it[name] for rep in main_plain for it in rep.iterations]
    for name, values in raw.items():
        print(f"  {name:<30} {_median(values):>16.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
