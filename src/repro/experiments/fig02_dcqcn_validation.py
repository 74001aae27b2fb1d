"""Figure 2: DCQCN fluid model vs packet-level simulation.

N senders share one switch toward one receiver at 40 Gbps with the
default DCQCN parameters; flows start at line rate.  The paper shows
the fluid model and NS3 agree on per-flow rate and queue trajectories;
we reproduce the comparison between our fluid integrator and our
packet simulator, reporting steady-state agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import units
from repro.core.fluid import dde
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fixedpoint.dcqcn import solve_fixed_point
from repro.core.params import DCQCNParams
from repro.analysis.reporting import format_table
from repro.obs.scrape import scrape_network
from repro.sim.monitors import QueueMonitor, RateMonitor
from repro.sim.red import REDMarker
from repro.sim.topology import install_flow, single_switch


@dataclass(frozen=True)
class ValidationRow:
    """Fluid-vs-simulation agreement for one flow count."""

    num_flows: int
    fluid_rate_gbps: float
    sim_rate_gbps: float
    fluid_queue_kb: float
    sim_queue_kb: float
    fixed_point_queue_kb: float

    @property
    def rate_error(self) -> float:
        """Relative steady-state rate disagreement."""
        return abs(self.sim_rate_gbps - self.fluid_rate_gbps) \
            / self.fluid_rate_gbps

    @property
    def queue_error(self) -> float:
        """Relative steady-state queue disagreement."""
        return abs(self.sim_queue_kb - self.fluid_queue_kb) \
            / max(self.fluid_queue_kb, 1e-9)


def run(flow_counts=(2, 10), capacity_gbps: float = 40.0,
        duration: float = 0.03, dt: float = 1e-6,
        seed: int = 1) -> List[ValidationRow]:
    """Run the fluid/simulation pair for each flow count.

    The fluid half of every flow count is one ensemble integration.
    """
    rows = []
    window = duration / 3.0
    grid = [DCQCNParams.paper_default(capacity_gbps=capacity_gbps,
                                      num_flows=n, tau_star_us=4.0)
            for n in flow_counts]
    model = DCQCNFluidModel.ensemble(
        [DCQCNFluidModel(params) for params in grid])
    fluids = model.split_trace(dde.integrate(model, duration, dt=dt,
                                             record_stride=10))
    for n, params, fluid in zip(flow_counts, grid, fluids):
        fluid_rate = np.mean([fluid.tail_mean(f"rc[{i}]", window)
                              for i in range(n)])
        fluid_queue = fluid.tail_mean("q", window)

        marker = REDMarker(params.red, params.mtu_bytes, seed=seed)
        net = single_switch(n, link_gbps=capacity_gbps, marker=marker)
        for i in range(n):
            install_flow(net, "dcqcn", f"s{i}", "recv", None, 0.0, params)
        queue_mon = QueueMonitor(net.sim, net.bottleneck_port,
                                 interval=50e-6)
        rate_mon = RateMonitor(
            net.sim, {f"s{i}": net.senders[i] for i in range(n)},
            interval=100e-6)
        net.sim.run(until=duration)
        scrape_network(network=net)

        sim_rates = rate_mon.final_rates()
        sim_rate_bytes = np.mean([sim_rates[f"s{i}"] for i in range(n)])
        fixed = solve_fixed_point(params)
        rows.append(ValidationRow(
            num_flows=n,
            fluid_rate_gbps=units.pps_to_gbps(fluid_rate,
                                              params.mtu_bytes),
            sim_rate_gbps=sim_rate_bytes * 8 / 1e9,
            fluid_queue_kb=units.packets_to_kb(fluid_queue,
                                               params.mtu_bytes),
            sim_queue_kb=queue_mon.tail_mean_bytes(window) / 1024,
            fixed_point_queue_kb=units.packets_to_kb(fixed.queue,
                                                     params.mtu_bytes),
        ))
    return rows


def report(rows: List[ValidationRow]) -> str:
    """Render the Fig. 2 agreement table."""
    return format_table(
        ["N", "fluid rate (Gbps)", "sim rate (Gbps)", "fluid q (KB)",
         "sim q (KB)", "q* (KB)", "rate err", "queue err"],
        [[r.num_flows, r.fluid_rate_gbps, r.sim_rate_gbps,
          r.fluid_queue_kb, r.sim_queue_kb, r.fixed_point_queue_kb,
          r.rate_error, r.queue_error] for r in rows],
        title="Fig. 2 -- DCQCN fluid model vs packet simulation")
