"""One process of one workload: set up once, regenerate the figure rows
``--iterations`` times.

Started by ``run.py`` in a fresh interpreter; writes one JSON result
to ``--out``:

* ``setup_s``: from ``--spawned-at`` (the parent's ``time.monotonic``
  just before it started this process) until the inputs are built,
  i.e. interpreter start, imports and input construction, scaled to
  reference host speed by ``hostspeed.SpeedProbe`` (unscaled:
  ``raw_setup_s``);
* per iteration, ``wall_s`` and ``cpu_s`` (this process plus its
  reaped children, the sweep pool) scaled to reference host speed by
  ``hostspeed.SpeedProbe``, the same unscaled as ``raw_wall_s`` and
  ``raw_cpu_s``, the figure ``rows`` and the output check's
  ``failures``; with ``--mode trace`` or ``--mode
  profile`` also the iteration's per-layer metrics (see
  ``tracing.py``);
* ``maxrss_kb`` of this process, and with ``--mode trace`` every span.

``--audit`` adds the workload's audit of the first iteration's rows,
after the timed iterations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "profile", "trace"),
                        default="plain")
    parser.add_argument("--audit", action="store_true")
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from figbench.hostspeed import SpeedProbe

    # Set-up and serial work run on one CPU, beside the speed probe
    # that samples it.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    probe = SpeedProbe({max(cpus)}).start()
    probe_started = time.perf_counter()
    from figbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = [workload.build(args.seed, args.scratch)]
    raw_setup_s = time.monotonic() - args.spawned_at
    setup_factor = probe.factor(probe_started, time.perf_counter())
    # Later iterations' inputs are built outside the timed span too.
    inputs += [workload.build(args.seed, args.scratch)
               for _ in range(args.iterations - 1)]
    if workload.parallel:
        # Forked pool workers inherit this affinity: give them every
        # CPU, and probe each.
        probe.stop()
        os.sched_setaffinity(0, cpus)
        probe = SpeedProbe(cpus).start()

    tracer = None
    if args.mode != "plain":
        from figbench import tracing
        tracer = tracing.process_tracer(
            profile_only=args.mode == "profile")
    iterations = []
    for iteration_inputs in inputs:
        mark = tracer.mark() if tracer is not None else None
        rows, artifacts, error = [], None, None
        cpu_before = os.times()
        started = time.perf_counter()
        try:
            rows, artifacts = workload.execute(iteration_inputs, tracer)
        except Exception:
            error = traceback.format_exc()
        ended = time.perf_counter()
        cpu_after = os.times()
        if error is None:
            failures = workload.check(rows, iteration_inputs, artifacts)
        else:
            failures = {index: error for index in range(workload.cells)}
        raw_cpu_s = sum(after - before for after, before in
                        zip(cpu_after[:4], cpu_before[:4]))
        factor = probe.factor(started, ended)
        iteration = {
            "wall_s": (ended - started) * factor,
            "cpu_s": raw_cpu_s * factor,
            "raw_wall_s": ended - started,
            "raw_cpu_s": raw_cpu_s,
            "speed_factor": factor,
            "rows": rows,
            "failures": {str(index): message
                         for index, message in sorted(failures.items())},
        }
        if tracer is not None:
            delta = tracer.since(mark)
            iteration["layers"] = tracing.layer_metrics(
                delta["counts"], delta["spans"])
        iterations.append(iteration)
    probe.stop()
    if args.audit and iterations[0]["rows"]:
        try:
            failures = workload.audit(iterations[0]["rows"], inputs[0])
        except Exception:
            failures = {index: traceback.format_exc()
                        for index in range(workload.cells)}
        for index, message in failures.items():
            iterations[0]["failures"].setdefault(str(index), message)

    result = {
        "workload": workload.name, "seed": args.seed,
        "mode": args.mode, "setup_s": raw_setup_s * setup_factor,
        "raw_setup_s": raw_setup_s,
        "sim_s": workload.sim_seconds(inputs[0]),
        "iterations": iterations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.mode == "trace":
        result["spans"] = tracer.span_records()
    if tracer is not None:
        tracer.uninstall()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
