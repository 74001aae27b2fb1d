"""PI-controller fluid models -- Section 5.2, Eq. 32, Figures 18-19.

Two systems demonstrate the paper's fairness/delay-tradeoff argument
(Theorem 6):

* :class:`DCQCNPIFluidModel` -- the switch marks with a PI controller
  instead of RED.  The marking probability is a *shared* integrator
  state ``dp/dt = K1 de/dt + K2 e`` with ``e = q - q_ref``; integral
  action pins the queue to ``q_ref`` regardless of the number of flows,
  while the shared ``p`` still forces all flows to the same rate
  (Fig. 18): fairness *and* bounded delay.

* :class:`PatchedTimelyPIFluidModel` -- each *host* runs its own PI
  controller on its measured delay, and the resulting per-flow internal
  variable ``p_i`` replaces the ``(q - q')/q'`` term of Eq. 29.  The
  queue is again pinned to the reference, but the per-host integrators
  retain whatever asymmetry their histories accumulated: the rate split
  is an accident of initial conditions (Fig. 19): bounded delay
  *without* fairness.  This is exactly the underdetermined system in
  Theorem 6's proof (``N+1`` equations, ``2N`` unknowns).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import no_jitter
from repro.core.fluid.patched_timely import PatchedTimelyFluidModel
from repro.core.params import DCQCNParams, PatchedTimelyParams, PIParams


class DCQCNPIFluidModel(DCQCNFluidModel):
    """DCQCN whose congestion point marks via Eq. 32 instead of RED.

    The marking variable joins the state vector (label ``p_mark``);
    senders observe it delayed by ``tau*`` exactly as they observe RED
    marks in the base model.
    """

    def __init__(self, params: DCQCNParams, pi: PIParams,
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 feedback_jitter: Callable[[float], float] = no_jitter):
        super().__init__(params, initial_rates=initial_rates,
                         initial_queue=initial_queue, line_rate=line_rate,
                         feedback_jitter=feedback_jitter)
        self.pi = pi

    @property
    def p_mark_index(self) -> int:
        """Column index of the PI marking variable."""
        return 1 + 3 * self.n

    def initial_state(self) -> np.ndarray:
        base = super().initial_state()
        return np.append(base, 0.0)

    def state_labels(self) -> List[str]:
        return super().state_labels() + ["p_mark"]

    def cell_marking(self, t: float, delayed_queue: np.ndarray,
                     history: UniformHistory) -> float:
        """The PI marking state, delayed by ``tau*`` (the queue unused)."""
        lag = self.params.tau_star + self.feedback_jitter(t)
        delayed_p = history.component(t - lag, self.p_mark_index)
        return float(np.clip(delayed_p, self.pi.p_min, self.pi.p_max))

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        base = super().derivatives(t, state[:self.p_mark_index], history)
        queue = state[self.queue_index]
        dq = base[self.queue_index]
        # Error and its slope are normalized by q_ref so PI gains carry
        # the same meaning (fraction of p per second) across models.
        error = (queue - self.pi.q_ref) / self.pi.q_ref
        dp = self.pi.k1 * dq / self.pi.q_ref + self.pi.k2 * error
        # Anti-windup: freeze the integrator when pushing past a clamp.
        p_mark = state[self.p_mark_index]
        if (p_mark <= self.pi.p_min and dp < 0) or \
                (p_mark >= self.pi.p_max and dp > 0):
            dp = 0.0
        return np.append(base, dp)

    def clamp(self, state: np.ndarray) -> np.ndarray:
        super().clamp(state[:self.p_mark_index])
        state[self.p_mark_index] = float(
            np.clip(state[self.p_mark_index], self.pi.p_min, self.pi.p_max))
        return state


class PatchedTimelyPIFluidModel(PatchedTimelyFluidModel):
    """Patched TIMELY with a *per-host* PI controller on measured delay.

    Each flow carries an internal variable ``p_i`` (labels ``p[i]``)
    integrating its own delay error; ``p_i`` replaces the normalized
    queue excess in the Eq. 29 rate law.  The delay error is measured
    through the same state-dependent feedback path the host's RTT
    samples traverse (Eq. 24).
    """

    def __init__(self, patched: PatchedTimelyParams, pi: PIParams,
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 feedback_jitter: Callable[[float], float] = no_jitter,
                 initial_p: Optional[Sequence[float]] = None,
                 start_times: Optional[Sequence[float]] = None):
        super().__init__(patched, initial_rates=initial_rates,
                         initial_queue=initial_queue, line_rate=line_rate,
                         feedback_jitter=feedback_jitter,
                         start_times=start_times)
        self.pi = pi
        if initial_p is None:
            self._initial_p = np.zeros(self.n)
        else:
            p0 = np.asarray(initial_p, dtype=float)
            if p0.shape != (self.n,):
                raise ValueError(
                    f"initial_p must have shape ({self.n},), got {p0.shape}")
            self._initial_p = p0

    def p_slice(self) -> slice:
        """Columns holding the per-host PI variables ``p_i``."""
        return slice(1 + 2 * self.n, 1 + 3 * self.n)

    def initial_state(self) -> np.ndarray:
        base = super().initial_state()
        return np.concatenate([base, self._initial_p])

    def state_labels(self) -> List[str]:
        return super().state_labels() + [f"p[{i}]" for i in range(self.n)]

    def rate_derivative_pi(self, gradients: np.ndarray, rates: np.ndarray,
                           p_values: np.ndarray,
                           tau_star: np.ndarray) -> np.ndarray:
        """Eq. 29's middle branch with ``p_i`` as the feedback term."""
        p = self.params
        w = self.weights(gradients)
        return ((1.0 - w) * p.delta
                - w * self.patched.beta_band * rates * p_values) / tau_star

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        p = self.params
        queue = state[self.queue_index]
        gradients = state[self.gradient_slice()]
        rates = state[self.rate_slice()]
        p_values = state[self.p_slice()]
        active = self.active_flows(t)

        tau_star = self.update_intervals(rates)
        tau_fb = self.feedback_delay(queue, t)
        delayed_queue = history.component(t - tau_fb, self.queue_index)

        dq = float(np.sum(rates[active])) - p.capacity
        if queue <= 0.0 and dq < 0.0:
            dq = 0.0

        older = np.array([
            history.component(t - tau_fb - tau_star[i], self.queue_index)
            for i in range(self.n)
        ])
        normalized_diff = (delayed_queue - older) / (p.capacity * p.min_rtt)
        dg = (p.ewma_alpha / tau_star) * (normalized_diff - gradients)

        # The host's delay-error signal and its finite-difference slope,
        # both normalized by the reference (delay and queue are
        # interchangeable through the factor C).
        # Unlike the switch marker, the host-side "p" is an *internal*
        # variable (Section 5.2), not a probability: it is free to go
        # negative (which simply means "increase"), so no clamp -- and
        # therefore no mechanism to forget inter-host asymmetry.
        error = (delayed_queue - self.pi.q_ref) / self.pi.q_ref
        error_slope = (delayed_queue - older) / tau_star / self.pi.q_ref
        dp = self.pi.k1 * error_slope + self.pi.k2 * error

        dr = self.rate_derivative_pi(gradients, rates, p_values, tau_star)
        # Outer threshold branches retain Algorithm 2 semantics, but the
        # T_high brake uses the gentle band gain: an 0.8-strength cut
        # fighting the integral controller produces a crash/ramp limit
        # cycle that buries the fairness question Fig. 19 isolates.
        if delayed_queue < p.q_low:
            dr = p.delta / tau_star
        elif delayed_queue > p.q_high:
            scale = 1.0 - p.q_high / delayed_queue
            dr = -(self.patched.beta_band / tau_star) * scale * rates

        out = np.empty_like(state)
        out[self.queue_index] = dq
        out[self.gradient_slice()] = np.where(active, dg, 0.0)
        out[self.rate_slice()] = np.where(active, dr, 0.0)
        out[self.p_slice()] = np.where(active, dp, 0.0)
        return out

    def clamp(self, state: np.ndarray) -> np.ndarray:
        state[self.queue_index] = max(state[self.queue_index], 0.0)
        np.clip(state[self.rate_slice()], 1.0, self.line_rate,
                out=state[self.rate_slice()])
        return state
