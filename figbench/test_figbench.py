"""Self-tests of the figure benchmark.

Run from the repository root (about two minutes; it starts real
repetitions)::

    python3 -m pytest figbench -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from figbench import run as bench  # noqa: E402
from figbench import workloads  # noqa: E402
from figbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_units_and_directions():
    spec = _spec()
    for section, table in (("end_to_end", bench.END_TO_END),
                           ("per_layer", bench.PER_LAYER)):
        names = [name for name, _, _ in table]
        assert len(names) == len(set(names))
        for name, unit, better in table:
            assert NAME.fullmatch(name) and len(name) <= 64
            assert UNIT.fullmatch(unit) and len(unit) <= 16
            assert better in ("lower", "higher")
        declared = {entry["name"]: (entry["unit"], entry["better"])
                    for entry in spec[section]}
        assert declared == {name: (unit, better)
                            for name, unit, better in table}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert set(bench.WORKLOADS) == set(WORKLOADS)
    assert bench.CELLS == {name: w.cells for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("name,field", [
    ("fluid_grid", "rate_std_gbps"),
    ("dcqcn_longflow", "queue_mean_kb"),
    ("fct_sweep", "p99_s"),
])
def test_perturbed_row_fails_the_check(name, field):
    reference = workloads.load_reference()[name]
    workload = WORKLOADS[name]
    inputs = {"seed": DEFAULT_SEED}  # the checks read only the seed
    assert workload.check(copy.deepcopy(reference), inputs, None) == {}
    perturbed = copy.deepcopy(reference)
    perturbed[-1][field] *= 1.0 + 1e-6
    failures = workload.check(perturbed, inputs, None)
    assert list(failures) == [len(reference) - 1]


def test_invariants_hold_away_from_the_default_seed():
    longflow = WORKLOADS["dcqcn_longflow"]
    rows = copy.deepcopy(workloads.load_reference()["dcqcn_longflow"])
    assert longflow.check(rows, {"seed": 7}, None) == {}
    rows[1]["cov"] = rows[0]["cov"]
    assert 1 in longflow.check(rows, {"seed": 7}, None)

    fct = WORKLOADS["fct_sweep"]
    rows = copy.deepcopy(workloads.load_reference()["fct_sweep"])
    rows[5]["completion_fraction"] = 0.5
    assert sorted(fct.check(rows, {"seed": 7}, None)) == [5]


def test_fct_audit_reruns_one_cell_per_protocol():
    fct = WORKLOADS["fct_sweep"]
    inputs = fct.build(DEFAULT_SEED, None)
    rows = copy.deepcopy(workloads.load_reference()["fct_sweep"])
    # Seed 0 audits loads 0, 1 and 2 of the three protocols: cells
    # 0, 5 and 10; a change to any other row goes unseen here.
    rows[5]["p99_s"] *= 1.0 + 1e-6
    rows[6]["p99_s"] *= 1.0 + 1e-6
    assert fct.audit(rows, inputs) == {
        5: "re-run row differs from the timed row"}


def test_row_mismatch_between_reps_counts_as_failure():
    rows = workloads.load_reference()["dcqcn_longflow"]
    changed = copy.deepcopy(rows)
    changed[0]["queue_peak_kb"] += 1.0
    reps = [bench.Rep("dcqcn_longflow", "plain",
                      {"iterations": [{"rows": rows}]}, 0),
            bench.Rep("dcqcn_longflow", "trace",
                      {"iterations": [{"rows": rows}, {"rows": changed}]},
                      0)]
    assert bench.rows_mismatch(reps) == 1


def test_traced_and_untraced_rows_are_identical(tmp_path):
    reps = [bench.run_rep("dcqcn_longflow", DEFAULT_SEED, mode, tmp_path)
            for mode in ("plain", "trace", "profile")]
    assert all(rep.ok and rep.failed_cells == 0 for rep in reps)
    assert bench.rows_mismatch(reps) == 0
    plain, traced, profiled = reps
    assert "layers" not in plain.iterations[0]
    layers = traced.iterations[0]["layers"]
    assert layers["sim.events"] > 0 and layers["sim.aqm.mark_trials"] > 0
    assert {name for name, _, _ in bench.PER_LAYER} - set(layers) == {
        "trace.overhead_frac", "obs.on_cost_frac"}
    # Busy shares come from the profile-only process: no wrappers there
    # to count, the same events, and shares that sum to one.
    profile = profiled.iterations[0]["layers"]
    assert profile["sim.proto.data"] == 0
    assert profile["sim.events"] == layers["sim.events"]
    shares = [profile[name] for name in bench.PROFILED_METRICS
              if name.startswith("sim.share.")]
    assert abs(sum(shares) - 1.0) < 1e-9 and profile["sim.run_s"] > 0


def test_speed_factor_scales_by_the_loop_time_inside_the_span():
    from figbench.hostspeed import REFERENCE_LOOP_S, SpeedProbe

    probe = SpeedProbe([])
    probe.samples = [(1.0, 9.0), (2.0, 2 * REFERENCE_LOOP_S),
                     (3.0, 4 * REFERENCE_LOOP_S), (5.0, 9.0)]
    # A host at a third of reference speed stretches times threefold.
    assert probe.factor(1.5, 3.5) == pytest.approx(1.0 / 3.0)
    with pytest.raises(RuntimeError):
        probe.factor(3.5, 4.5)
    probe = SpeedProbe(sorted(os.sched_getaffinity(0))[:1]).start()
    started = time.perf_counter()
    time.sleep(0.2)
    probe.stop()
    assert 0 < probe.factor(started, time.perf_counter()) < 10


def test_self_time_subtracts_the_union_of_children():
    from figbench.tracing import Tracer

    tracer = Tracer()
    # Two overlapping children, as from parallel sweep workers, and a
    # grandchild that only its own parent subtracts.
    tracer.spans = [["sweep.map", 0.0, 10.0, -1], ["sim.run", 1.0, 5.0, 0],
                    ["sim.run", 2.0, 7.0, 0], ["sim.run", 8.0, 9.0, 0],
                    ["analytic.x", 3.0, 4.0, 1]]
    assert [r["self_s"] for r in tracer.span_records()] == [
        3.0, 3.0, 5.0, 1.0, 1.0]


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_one_command_prints_every_end_to_end_metric(name, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(bench, "MIN_REPS", 1)
    assert bench.main(["--workload", name, "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == \
        WORKLOADS[name].cells * bench.ITERATIONS[name]
    for metric, unit, _ in bench.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
    assert any(line.split()[:2] == ["failed_frac", "0"] for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "figbench", tmp_path / "figbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "figbench/run.py", "--workload", "fluid_grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
