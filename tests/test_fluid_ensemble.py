"""Ensemble fluid integration: many DCQCN cells in one DDE solve.

An ensemble stacks independent fluid systems (the cells of a delay x N
grid) into one state vector, so one integration advances them all.
The contract checked here: every cell's trace is the one its own
integration gives, a diverging cell is retried alone without touching
its neighbours, and the ring history that keeps the ensemble's memory
flat refuses lookups it can no longer answer.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fluid import dde
from repro.core.fluid.base import FluidModel
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.pi import DCQCNPIFluidModel
from repro.core.params import DCQCNParams, PIParams
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.runlog import read_events, validate_events, validate_file


def params(n, delay_us, capacity_gbps=40.0):
    return DCQCNParams.paper_default(capacity_gbps=capacity_gbps,
                                     num_flows=n, tau_star_us=delay_us)


def solve(model, t_end, **kwargs):
    kwargs.setdefault("dt", 1e-6)
    kwargs.setdefault("record_stride", 10)
    return dde.integrate(model, t_end, **kwargs)


def digest(trace):
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(trace.times).tobytes())
    sha.update(np.ascontiguousarray(trace.states).tobytes())
    return sha.hexdigest()


class StiffCells(FluidModel):
    """Independent ``dx_c/dt = -k_c x_c``, one cell per rate constant.

    Under explicit euler with ``dt = 1e-3`` a cell with ``k = 3000``
    multiplies its state by -2 per step and diverges; at ``dt / 2``
    the factor is -0.5 and it decays.  DCQCN cannot serve here: its
    clamps bound every state but the queue, and the queue's growth
    does not depend on the step, so no DCQCN cell is rescued by a
    halved step.
    """

    def __init__(self, rates):
        self.rates = np.asarray(rates, dtype=float)
        self.cells = len(self.rates)

    def initial_state(self):
        return np.ones(self.cells)

    def derivatives(self, t, state, history):
        return -self.rates * state

    def state_labels(self):
        return [f"x@{cell}" for cell in range(self.cells)]

    def cell_columns(self, cell):
        return np.array([cell])

    def cell_model(self, cell):
        return StiffCells([self.rates[cell]])


class TestEnsembleEqualsSolo:
    GRID = [(delay, n) for delay in (4.0, 85.0) for n in (2, 10, 64)]

    def test_fig04_grid_bit_for_bit(self):
        cells = [DCQCNFluidModel(params(n, delay), extend_red=True)
                 for delay, n in self.GRID]
        model = DCQCNFluidModel.ensemble(cells)
        assert model.cells == 6
        parts = model.split_trace(solve(model, 3e-4))
        for cell, part in zip(cells, parts):
            alone = solve(cell, 3e-4)
            assert part.labels == alone.labels
            assert np.array_equal(part.times, alone.times)
            assert np.array_equal(part.states, alone.states)

    def test_fig04_c1_digest_matches_recorded(self):
        """fig04's 85 us, N=10 cell as a single-cell model, traced to
        5 ms: the digest was recorded before ensembles existed, so the
        single-cell path is unchanged bit for bit -- alone and as a
        cell of the full grid."""
        recorded = ("8a6fb0d4289a6b5cfee82b09e71f8b55"
                    "7476fa998de039f1a34f5f218509cb09")
        cell = DCQCNFluidModel(params(10, 85.0), extend_red=True)
        assert digest(solve(cell, 0.005)) == recorded
        grid = [DCQCNFluidModel(params(n, delay), extend_red=True)
                for delay, n in self.GRID]
        model = DCQCNFluidModel.ensemble(grid)
        parts = model.split_trace(solve(model, 0.005))
        assert digest(parts[self.GRID.index((85.0, 10))]) == recorded

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([4.0, 20.0, 85.0]),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0.0, 40e-6]),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=2 ** 16)),
        min_size=1, max_size=4))
    def test_mixed_grids_match_solo(self, specs):
        horizon = 4e-4
        cells = []
        for delay, n, marking_delay, extend_red, staggered, seed in specs:
            starts = None
            if staggered:
                rng = np.random.default_rng(seed)
                starts = rng.uniform(0.0, horizon, n)
                starts[0] = 0.0
            cells.append(DCQCNFluidModel(
                params(n, delay), marking_delay=marking_delay,
                extend_red=extend_red, start_times=starts))
        model = DCQCNFluidModel.ensemble(cells)
        parts = model.split_trace(solve(model, horizon, record_stride=7))
        for cell, part in zip(cells, parts):
            alone = solve(cell, horizon, record_stride=7)
            assert part.labels == alone.labels
            np.testing.assert_allclose(part.states, alone.states,
                                       rtol=1e-12, atol=0.0)

    def test_block_layout_and_labels(self):
        cells = [DCQCNFluidModel(params(2, 4.0)),
                 DCQCNFluidModel(params(3, 85.0))]
        model = DCQCNFluidModel.ensemble(cells)
        labels = model.state_labels()
        assert labels[:2] == ["q@0", "q@1"]
        assert labels[model.rc_slice()] == [
            "rc[0]@0", "rc[1]@0", "rc[0]@1", "rc[1]@1", "rc[2]@1"]
        assert [labels[i] for i in model.cell_columns(1)] == [
            f"{label}@1" for label in cells[1].state_labels()]
        state = model.initial_state()
        for index, cell in enumerate(cells):
            assert np.array_equal(state[model.cell_columns(index)],
                                  cell.initial_state())
        assert model.max_lag() == pytest.approx(85e-6)

    def test_single_cell_ensemble_is_the_cell(self):
        cell = DCQCNFluidModel(params(2, 4.0))
        assert DCQCNFluidModel.ensemble([cell]) is cell
        assert cell.split_trace(solve(cell, 1e-4))[0].labels \
            == cell.state_labels()

    def test_rejects_cells_with_different_flow_laws(self):
        other = params(2, 4.0).replace(rate_ai=2 * params(2, 4.0).rate_ai)
        with pytest.raises(ValueError, match="shared parameter"):
            DCQCNFluidModel.ensemble([DCQCNFluidModel(params(2, 4.0)),
                                      DCQCNFluidModel(other)])

    def test_rejects_subclass_cells(self):
        pi = DCQCNPIFluidModel(params(2, 4.0), PIParams.for_dcqcn(100.0))
        with pytest.raises(TypeError):
            DCQCNFluidModel.ensemble([DCQCNFluidModel(params(2, 4.0)),
                                      pi])


class TestDivergingCell:
    def run_stiff(self, **kwargs):
        model = StiffCells([10.0, 3000.0, 100.0])
        trace = dde.integrate(model, 0.05, dt=1e-3, method="euler",
                              **kwargs)
        return model, trace

    def test_neighbours_unchanged_and_cell_equals_solo_retry(self):
        model, trace = self.run_stiff(max_retries=1)
        assert sorted(trace.cell_retries) == [1]
        parts = model.split_trace(trace)
        for cell in (0, 2):
            alone = dde.integrate(model.cell_model(cell), 0.05, dt=1e-3,
                                  method="euler")
            assert np.array_equal(parts[cell].states, alone.states)
        retried = dde.integrate(model.cell_model(1), 0.05, dt=5e-4,
                                method="euler")
        assert np.array_equal(parts[1].times, retried.times)
        assert np.array_equal(parts[1].states, retried.states)
        # ... which is also what the cell's own integration returns.
        solo = dde.integrate(model.cell_model(1), 0.05, dt=1e-3,
                             method="euler", max_retries=1)
        assert np.array_equal(parts[1].states, solo.states)

    def test_exhausted_retries_name_the_cell(self):
        with pytest.raises(dde.IntegrationError) as excinfo:
            self.run_stiff(max_retries=0)
        failure = excinfo.value.failure
        assert failure.cell == 1
        assert failure.state.shape == (1,)
        assert "cell 1" in str(excinfo.value)

    def test_counters_and_retry_event(self, tmp_path):
        telemetry = Telemetry(tmp_path, experiment="stiff-grid")
        with telemetry.activate(params={}):
            self.run_stiff(max_retries=1)
            registry = telemetry.registry
            assert registry.counter("fluid.dde.cells_total").value == 3
            assert registry.counter(
                "fluid.dde.cells_retried_total").value == 1
            assert registry.counter("fluid.dde.step_retries").value == 1
        retries = [event for event in read_events(telemetry.runlog_path)
                   if event["type"] == "retry"]
        assert [event["cell"] for event in retries] == [1]
        assert retries[0]["next_dt"] == pytest.approx(5e-4)
        assert validate_file(telemetry.runlog_path) == []

    def test_validator_checks_the_cell_field(self):
        def log(cell):
            return [{"run_id": "r", "seq": 0, "ts": 0.0,
                     "type": "run_start", "experiment": "x",
                     "params_hash": "h", "version": 7},
                    {"run_id": "r", "seq": 1, "ts": 0.0, "type": "retry",
                     "component": "fluid.dde", "cell": cell},
                    {"run_id": "r", "seq": 2, "ts": 0.0,
                     "type": "run_end", "status": "ok", "wall_s": 0.0}]
        assert validate_events(log(3)) == []
        assert validate_events(log(-1))
        assert validate_events(log("3"))

    def test_healthy_ensemble_counts_cells_only(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            dde.integrate(StiffCells([1.0, 2.0]), 0.01, dt=1e-3)
        assert registry.counter("fluid.dde.cells_total").value == 2
        assert registry.counter("fluid.dde.cells_retried_total").value \
            == 0


class TestRingHistory:
    def make(self, window):
        history = UniformHistory(0.0, 1.0, np.array([0.0, 0.0]),
                                 window=window)
        for k in range(1, 10):
            history.append(np.array([float(k), 10.0 * k]))
        return history

    def test_lookups_inside_the_window(self):
        history = self.make(window=4)  # keeps t = 6..9
        assert history(8.5)[0] == pytest.approx(8.5)
        assert history.component(6.0, 1) == 60.0
        assert history(50.0)[1] == 90.0  # end clamp
        values = history.interpolate(np.array([6.5, 9.0]),
                                     np.array([0, 1]))
        assert values == pytest.approx([6.5, 90.0])

    def test_raises_on_lookup_older_than_window(self):
        history = self.make(window=4)
        with pytest.raises(LookupError):
            history(5.5)
        with pytest.raises(LookupError):
            history.component(-1.0, 0)  # the pre-history is gone too
        with pytest.raises(LookupError):
            history.interpolate(np.array([7.0, 5.0]), np.array([0, 1]))
        with pytest.raises(LookupError):
            history.as_arrays()

    def test_ring_matches_full_history_bit_for_bit(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(200, 3))
        full = UniformHistory(0.0, 0.5, rows[0])
        ring = UniformHistory(0.0, 0.5, rows[0], window=17)
        for row in rows[1:]:
            full.append(row)
            ring.append(row)
        times = rng.uniform(92.0, 101.0, 3)
        columns = np.array([0, 2, 1])
        assert np.array_equal(ring.interpolate(times, columns),
                              full.interpolate(times, columns))
        for t, column in zip(times, columns):
            assert ring.component(t, column) == full.component(t, column)
            assert np.array_equal(ring(t), full(t))

    def test_vector_lookup_matches_scalar_lookups(self):
        history = self.make(window=None)
        times = np.array([-3.0, 0.0, 0.25, 4.5, 7.0, 9.0, 12.0])
        columns = np.array([0, 1, 0, 1, 0, 1, 0])
        expected = [history.component(t, c)
                    for t, c in zip(times, columns)]
        assert list(history.interpolate(times, columns)) == expected


class LongMemory(FluidModel):
    """dx/dt = -x(t - tau): a lag of most of the horizon."""

    def __init__(self, tau, stated_lag=None):
        self.tau = tau
        self.stated_lag = stated_lag

    def initial_state(self):
        return np.array([1.0])

    def derivatives(self, t, state, history):
        return -history(t - self.tau)

    def state_labels(self):
        return ["x"]

    def max_lag(self):
        return self.stated_lag


class TestMaxLag:
    def test_none_keeps_the_full_horizon(self):
        trace = dde.integrate(LongMemory(0.8), 1.0, dt=1e-3)
        # x(t) = 1 - t on [0, tau]; then the delayed term is live.
        assert trace.column("x")[500] == pytest.approx(0.5, abs=1e-9)

    def test_stated_lag_gives_the_same_trace(self):
        full = dde.integrate(LongMemory(0.3), 1.0, dt=1e-3)
        ring = dde.integrate(LongMemory(0.3, stated_lag=0.3), 1.0,
                             dt=1e-3)
        assert np.array_equal(full.states, ring.states)

    def test_understated_lag_raises(self):
        with pytest.raises(LookupError):
            dde.integrate(LongMemory(0.3, stated_lag=0.05), 1.0, dt=1e-3)

    def test_dcqcn_lag_covers_marking_delay_and_jitter(self):
        from repro.core.fluid.jitter import JitterProcess

        model = DCQCNFluidModel(params(2, 10.0), marking_delay=30e-6,
                                feedback_jitter=JitterProcess(50e-6))
        assert model.max_lag() == pytest.approx(90e-6)
        unbounded = DCQCNFluidModel(params(2, 10.0),
                                    feedback_jitter=lambda t: 1e-6)
        assert unbounded.max_lag() is None
