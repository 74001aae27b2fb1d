"""Figure 4: impact of feedback delay and flow count on DCQCN stability.

Fluid-model trajectories for delay x flow-count combinations.  At 4 us
every configuration settles; at 85 us the 10-flow system limit-cycles
while 2 and 64 flows remain stable -- the non-monotonic behaviour the
phase-margin analysis (Fig. 3) predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import units
from repro.analysis.reporting import format_table
from repro.core.fixedpoint.dcqcn import solve_fixed_point
from repro.core.fluid import dde
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.params import DCQCNParams
from repro.obs import health as _health


@dataclass(frozen=True)
class StabilityRow:
    """Tail statistics of one fluid run."""

    delay_us: float
    num_flows: int
    queue_mean_kb: float
    queue_std_kb: float
    rate_std_gbps: float

    @property
    def oscillating(self) -> bool:
        """Limit-cycle detector: tail queue swings above 10% of mean."""
        if self.queue_mean_kb <= 0:
            return self.queue_std_kb > 1.0
        return self.queue_std_kb / self.queue_mean_kb > 0.10


def run(delays_us: Sequence[float] = (4.0, 85.0),
        flow_counts: Sequence[int] = (2, 10, 64),
        capacity_gbps: float = 40.0,
        duration: float = 0.08,
        dt: float = 1e-6) -> List[StabilityRow]:
    """Integrate the fluid model across the delay/flow grid.

    Uses the smooth-RED idealization (see
    :class:`~repro.core.fluid.dcqcn.DCQCNFluidModel`): at N=64 the
    fixed-point marking probability exceeds ``pmax``, and the physical
    profile's jump-to-1 would add cliff chatter unrelated to the
    delay-driven instability this figure isolates.

    The grid is one ensemble integration
    (:meth:`~repro.core.fluid.dcqcn.DCQCNFluidModel.ensemble`): every
    cell's trace is the one its own integration gives, for about the
    cost of the largest cell.
    """
    window = duration / 3.0
    grid = [(delay, n, DCQCNParams.paper_default(
                capacity_gbps=capacity_gbps, num_flows=n,
                tau_star_us=delay))
            for delay in delays_us for n in flow_counts]
    model = DCQCNFluidModel.ensemble(
        [DCQCNFluidModel(params, extend_red=True)
         for _, _, params in grid])
    monitors = []
    observer = None
    if _health.current_session() is not None:
        # Stream each cell's queue (column ``cell`` of the ensemble
        # state, packets) into its own oscillation detector against
        # the Thm. 1 fixed point; zero-cost otherwise (no monitors,
        # observer stays None and the integrator skips the hook).
        monitors = [_health.HealthMonitor(
            [_health.QueueOscillationDetector(
                window=window,
                q_star=solve_fixed_point(params, extend_red=True).queue,
                check_interval=window / 2.0)],
            context=f"delay={delay}us,N={n}")
            for delay, n, params in grid]
        feeds = [monitor.observe_state(queue_index=cell)
                 for cell, monitor in enumerate(monitors)]

        def observer(t, state):
            for feed in feeds:
                feed(t, state)
    trace = dde.integrate(model, duration, dt=dt, record_stride=10,
                          observer=observer)
    for monitor in monitors:
        monitor.finalize()
    rows = []
    for (delay, n, params), cell_trace in zip(grid,
                                              model.split_trace(trace)):
        rate_std = cell_trace.tail_std("rc[0]", window)
        rows.append(StabilityRow(
            delay_us=delay,
            num_flows=n,
            queue_mean_kb=units.packets_to_kb(
                cell_trace.tail_mean("q", window), params.mtu_bytes),
            queue_std_kb=units.packets_to_kb(
                cell_trace.tail_std("q", window), params.mtu_bytes),
            rate_std_gbps=units.pps_to_gbps(rate_std, params.mtu_bytes)))
    return rows


def report(rows: List[StabilityRow]) -> str:
    """Render the delay/flow stability grid."""
    return format_table(
        ["delay (us)", "N", "queue mean (KB)", "queue std (KB)",
         "rate std (Gbps)", "oscillating"],
        [[r.delay_us, r.num_flows, r.queue_mean_kb, r.queue_std_kb,
          r.rate_std_gbps, r.oscillating] for r in rows],
        title="Fig. 4 -- DCQCN fluid stability vs delay and N")
