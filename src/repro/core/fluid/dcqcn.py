"""DCQCN fluid model -- Figure 1 / Equations 3-7 of the paper.

The model tracks, for each of ``N`` flows, the DCTCP-style reduction
factor ``alpha``, the target rate ``R_T`` and the current rate ``R_C``,
plus the shared bottleneck queue ``q``.  All rate-update terms are
driven by state delayed by the control-loop latency ``tau*``: the
marking probability ``p(t - tau*)`` (computed from the delayed queue via
the RED profile, Eq. 3) and the delayed rate ``R_C(t - tau*)``.

The QCN-style event-rate algebra (the paper's ``a, b, c, d, e`` factors
from Eq. 12) is implemented in :func:`qcn_event_rates` with numerically
safe limits:

* byte-counter events fire at rate ``R*b -> R/B`` as ``p -> 0``;
* timer events fire at rate ``R*d -> 1/T`` as ``p -> 0``;
* events past the ``F`` fast-recovery stages carry the extra
  ``(1-p)^{F B}`` / ``(1-p)^{F T R}`` survival factors (``c``, ``e``).

Every rate-increase event performs the QCN averaging step
``R_C <- (R_C + R_T)/2`` (hence the ``(R_T - R_C)/2`` terms in Eq. 7),
and only post-fast-recovery events add ``R_AI`` to the target rate
(Eq. 6).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.fluid.base import FluidModel
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import no_jitter
from repro.core.params import DCQCNParams

#: Floor on flow rates (packets/s) to keep the event-rate algebra finite.
MIN_RATE = 1.0

#: Marking probabilities are clamped below 1 so ``log1p(-p)`` stays finite.
_P_CEIL = 1.0 - 1e-12


class QCNEventRates(NamedTuple):
    """Per-flow event rates derived from the paper's a-e factors.

    Attributes
    ----------
    mark_fraction:
        ``a = 1 - (1-p)^{tau R}``: probability that at least one packet
        is marked in a CNP window, i.e. the fraction of windows that
        deliver a CNP.
    byte_rate:
        Rate of byte-counter expirations, ``R * b`` (events/s).
    byte_ai_rate:
        Byte-counter expirations past fast recovery, ``R * c``.
    timer_rate:
        Rate of timer expirations, ``R * d`` (events/s).
    timer_ai_rate:
        Timer expirations past fast recovery, ``R * e``.
    """

    mark_fraction: np.ndarray
    byte_rate: np.ndarray
    byte_ai_rate: np.ndarray
    timer_rate: np.ndarray
    timer_ai_rate: np.ndarray


def survival_exponent(p: "np.ndarray | float",
                      count: "np.ndarray | float") -> np.ndarray:
    """``(1-p)^count`` computed stably for large counts.

    ``count`` is a number of packets (possibly huge, e.g. ``F*B`` with a
    10 MB byte counter); the direct power underflows gracefully via the
    exp/log form.  ``p`` and ``count`` broadcast against each other.
    """
    return np.exp(np.asarray(count, dtype=float)
                  * np.log1p(-np.clip(p, 0.0, _P_CEIL)))


def _event_rate(p: "np.ndarray | float", log_keep: np.ndarray,
                rate: np.ndarray, window_packets: np.ndarray,
                zero_p_rate: np.ndarray) -> np.ndarray:
    """``rate * p / ((1-p)^{-window} - 1)`` with its ``p -> 0`` limit.

    ``p`` is already clipped to ``[0, _P_CEIL]`` and ``log_keep`` is
    ``log1p(-p)``.  ``window_packets`` is the inter-event packet count
    (``B`` for the byte counter, ``T*R`` for the timer);
    ``zero_p_rate`` is the exact limit of the expression as ``p -> 0``
    (``R/B`` resp. ``1/T``), used wherever the exponent is below
    ``1e-12`` -- every ``p = 0`` included.  Callers silence the
    overflow and division warnings of the entries replaced by it.
    """
    exponent = -window_packets * log_keep
    # Overflow to +inf is the intended limit: a huge inter-event
    # exponent means the event (an unmarked window of that many
    # packets) essentially never happens, so the rate is ~0.
    general = p * rate / np.expm1(exponent)
    return np.where(exponent < 1e-12, zero_p_rate, general)


def qcn_event_rates(p: "np.ndarray | float", delayed_rate: np.ndarray,
                    params: DCQCNParams) -> QCNEventRates:
    """Evaluate the Eq. 12 factors as event rates for each flow.

    Parameters
    ----------
    p:
        Marking probability observed ``tau*`` ago: a scalar shared by
        every flow, or one value per flow (broadcast against
        ``delayed_rate``).
    delayed_rate:
        Per-flow ``R_C(t - tau*)`` in packets/s.
    params:
        DCQCN parameter set supplying ``B``, ``T``, ``F``, ``tau``.
    """
    p = np.minimum(np.maximum(p, 0.0), _P_CEIL)
    rate = np.maximum(np.asarray(delayed_rate, dtype=float), MIN_RATE)
    return _event_rates(p, np.log1p(-p), rate, params)


def _event_rates(p: "np.ndarray | float", log_keep: np.ndarray,
                 rate: np.ndarray, params: DCQCNParams) -> QCNEventRates:
    """:func:`qcn_event_rates` for ``p`` in ``[0, _P_CEIL]``,
    ``log_keep = log1p(-p)`` and ``rate >= MIN_RATE``."""
    f_steps = float(params.fast_recovery_steps)
    mark_fraction = np.where(
        p > 0.0, -np.expm1(params.tau * rate * log_keep), 0.0)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        byte_rate = _event_rate(p, log_keep, rate, params.byte_counter,
                                rate / params.byte_counter)
        timer_window = params.timer * rate
        timer_rate = _event_rate(p, log_keep, rate, timer_window,
                                 1.0 / params.timer)
    byte_ai_rate = byte_rate * np.exp(
        f_steps * params.byte_counter * log_keep)
    timer_ai_rate = timer_rate * np.exp(
        f_steps * params.timer * rate * log_keep)

    return QCNEventRates(mark_fraction, byte_rate, byte_ai_rate,
                         timer_rate, timer_ai_rate)


#: DCQCNParams fields every cell of an ensemble must share: they enter
#: the per-flow rate laws (:func:`qcn_event_rates`, Eqs. 5-7) as
#: scalars.  ``capacity``, ``num_flows``, ``tau_star`` and the RED
#: profile may differ from cell to cell.
FLOW_LAW_FIELDS = ("g", "tau", "tau_prime", "fast_recovery_steps",
                   "byte_counter", "timer", "rate_ai")


class DCQCNFluidModel(FluidModel):
    """The Fig. 1 delay-ODE system for ``N`` individually-tracked flows.

    State layout: ``[q, alpha_1..alpha_N, rt_1..rt_N, rc_1..rc_N]``.

    :meth:`ensemble` stacks several such systems -- *cells*, e.g. the
    points of a delay x N grid -- into one model that a single
    integration advances.  Its state uses the block layout
    ``[q(C), alpha(F), rt(F), rc(F)]`` for C cells and F flows in
    total, each cell's flows contiguous and in cell order.  A model
    built directly is the C=1 case of that layout.

    Parameters
    ----------
    params:
        DCQCN configuration (capacity, RED profile, timers...).
    initial_rates:
        Optional per-flow starting rates, packets/s.  Defaults to line
        rate for every flow -- "DCQCN flows always start at line rate"
        (Section 3.1).
    initial_queue:
        Starting queue depth, packets (default empty).
    line_rate:
        Sender NIC speed, packets/s; rates are clamped to it.  Defaults
        to the bottleneck capacity, matching the paper's single-switch
        validation topology.
    marking_delay:
        Extra delay (seconds) between the queue and the marking
        decision.  Zero reproduces egress marking, where the mark
        reflects the queue at packet departure; setting it to a mean
        queuing delay emulates ingress marking (Fig. 17).
    feedback_jitter:
        Callable ``t -> extra delay (s)`` added to the control-loop
        delay ``tau*`` -- the Fig. 20 experiment.  For ECN the jitter
        only makes the (still correct) mark arrive later.  A callable
        with an ``amplitude`` attribute (a
        :class:`~repro.core.fluid.jitter.JitterProcess`) bounds the lag
        for :meth:`max_lag`; any other keeps the full history.
    start_times:
        Per-flow activation times, seconds.  Before its start a flow
        contributes nothing to the queue and its state is frozen; at
        activation it enters at its configured initial rate (line
        rate by default -- how DCQCN flows arrive).
    extend_red:
        Use the smooth-RED idealization: the marking ramp continues
        past ``pmax`` (clipped at 1) instead of jumping to 1 at
        ``kmax``.  Configurations whose Eq. 11 fixed point has
        ``p* > pmax`` (large N) sit exactly on the physical profile's
        cliff and chatter against it regardless of delay; the paper's
        fluid stability results (Fig. 4) presume the smooth profile
        the linearized analysis uses.
    """

    def __init__(self, params: DCQCNParams,
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 marking_delay: float = 0.0,
                 feedback_jitter: Callable[[float], float] = no_jitter,
                 extend_red: bool = False,
                 start_times: Optional[Sequence[float]] = None):
        self.params = params
        self.n = params.num_flows
        self.line_rate = params.capacity if line_rate is None else line_rate
        if initial_rates is None:
            self._initial_rates = np.full(self.n, self.line_rate)
        else:
            rates = np.asarray(initial_rates, dtype=float)
            if rates.shape != (self.n,):
                raise ValueError(
                    f"initial_rates must have shape ({self.n},), "
                    f"got {rates.shape}")
            if np.any(rates <= 0):
                raise ValueError("initial rates must be positive")
            self._initial_rates = rates
        if initial_queue < 0:
            raise ValueError(
                f"initial_queue must be >= 0, got {initial_queue}")
        self._initial_queue = float(initial_queue)
        if marking_delay < 0:
            raise ValueError(
                f"marking_delay must be >= 0, got {marking_delay}")
        self.marking_delay = float(marking_delay)
        self.feedback_jitter = feedback_jitter
        self.extend_red = extend_red
        if start_times is None:
            self.start_times = np.zeros(self.n)
        else:
            starts = np.asarray(start_times, dtype=float)
            if starts.shape != (self.n,):
                raise ValueError(
                    f"start_times must have shape ({self.n},), "
                    f"got {starts.shape}")
            if np.any(starts < 0):
                raise ValueError("start times must be >= 0")
            self.start_times = starts
        self._stack((self,))

    @classmethod
    def ensemble(cls, cells: Sequence["DCQCNFluidModel"]
                 ) -> "DCQCNFluidModel":
        """One model that integrates every cell side by side.

        Each cell is a single-cell model with its own parameters
        (``tau*``, N, capacity, RED profile), marking delay, jitter,
        start times, initial state and ``extend_red``; all must share
        :data:`FLOW_LAW_FIELDS`.  Integrating the ensemble gives every
        cell the trace its own integration would, bit for bit
        (:meth:`split_trace` recovers them), for the numpy dispatch
        cost of one model: the right-hand side costs about the same
        at 2 flows as at 64.  Subclasses (the PI marker) stay
        single-cell.
        """
        cells = tuple(cells)
        if not cells:
            raise ValueError("an ensemble needs at least one cell")
        law = [getattr(cells[0].params, name) for name in FLOW_LAW_FIELDS]
        for index, cell in enumerate(cells):
            if type(cell) is not DCQCNFluidModel or cell.cells != 1:
                raise TypeError(
                    f"cell {index} is not a single-cell "
                    f"DCQCNFluidModel ({type(cell).__name__})")
            if [getattr(cell.params, name)
                    for name in FLOW_LAW_FIELDS] != law:
                raise ValueError(
                    f"cell {index} differs from cell 0 in a shared "
                    f"parameter ({', '.join(FLOW_LAW_FIELDS)})")
        if len(cells) == 1:
            return cells[0]
        model = cls.__new__(cls)
        model.params = cells[0].params
        model.n = sum(cell.n for cell in cells)
        # Per flow in an ensemble (the clamp broadcasts either form).
        model.line_rate = np.repeat([cell.line_rate for cell in cells],
                                    [cell.n for cell in cells])
        model.start_times = np.concatenate(
            [cell.start_times for cell in cells])
        model._stack(cells)
        return model

    def _stack(self, cells: "tuple[DCQCNFluidModel, ...]") -> None:
        """Per-cell and per-flow arrays the right-hand side reads.

        Built once here: the derivative runs two to four times per
        step, every step.
        """
        self._cells = cells
        self.cells = n_cells = len(cells)
        counts = [cell.n for cell in cells]
        flows = sum(counts)
        first = np.cumsum([0] + counts)
        self._q_sl = slice(0, n_cells)
        self._alpha_sl = slice(n_cells, n_cells + flows)
        self._rt_sl = slice(n_cells + flows, n_cells + 2 * flows)
        self._rc_sl = slice(n_cells + 2 * flows, n_cells + 3 * flows)
        self._cell_flows = [
            (int(first[c]), int(first[c + 1]), cell.params.capacity)
            for c, cell in enumerate(cells)]
        self._columns = [
            np.concatenate(([c], n_cells + np.arange(lo, hi),
                            n_cells + flows + np.arange(lo, hi),
                            n_cells + 2 * flows + np.arange(lo, hi)))
            for c, (lo, hi, _) in enumerate(self._cell_flows)]
        self._flow_cell = np.repeat(np.arange(n_cells), counts)

        red = [cell.params.red for cell in cells]
        self._kmin = np.array([r.kmin for r in red])
        self._kmax = np.array([r.kmax for r in red])
        self._span = self._kmax - self._kmin
        self._pmax = np.array([r.pmax for r in red])
        self._slope = np.array([r.slope for r in red])
        self._extend = np.array([cell.extend_red for cell in cells])
        self._all_extend = bool(self._extend.all())

        tau_star = np.array([cell.params.tau_star for cell in cells])
        self._mark_lag = tau_star + np.array(
            [cell.marking_delay for cell in cells])
        self._rc_lag = tau_star[self._flow_cell]
        self._lags = np.concatenate((self._mark_lag, self._rc_lag))
        self._lag_columns = np.concatenate(
            (np.arange(n_cells), np.arange(self._rc_sl.start,
                                           self._rc_sl.stop)))
        jitters = [cell.feedback_jitter for cell in cells]
        self._jitters = None if all(j is no_jitter for j in jitters) \
            else jitters

        self._always_active = not any(
            np.any(cell.start_times > 0.0) for cell in cells)

    # -- state vector layout -------------------------------------------------

    @property
    def queue_index(self) -> int:
        """Column index of the queue (of cell 0 in an ensemble)."""
        return 0

    def alpha_slice(self) -> slice:
        """Columns holding the per-flow ``alpha`` values."""
        return self._alpha_sl

    def rt_slice(self) -> slice:
        """Columns holding the per-flow target rates ``R_T``."""
        return self._rt_sl

    def rc_slice(self) -> slice:
        """Columns holding the per-flow current rates ``R_C``."""
        return self._rc_sl

    def cell_columns(self, cell: int) -> np.ndarray:
        """Columns of cell ``cell``, in its own ``[q, alpha, rt, rc]`` order."""
        return self._columns[cell]

    def cell_model(self, cell: int) -> "DCQCNFluidModel":
        """The single-cell model cell ``cell`` was built from."""
        return self._cells[cell]

    def initial_state(self) -> np.ndarray:
        if self.cells > 1:
            state = np.empty(self.cells + 3 * self.n)
            for cell, columns in zip(self._cells, self._columns):
                state[columns] = cell.initial_state()
            return state
        state = np.empty(1 + 3 * self.n)
        state[self.queue_index] = self._initial_queue
        state[self.alpha_slice()] = 1.0  # DCQCN initializes alpha to 1
        state[self.rt_slice()] = self._initial_rates
        state[self.rc_slice()] = self._initial_rates
        return state

    def state_labels(self) -> List[str]:
        if self.cells > 1:
            labels = [""] * (self.cells + 3 * self.n)
            for index, (cell, columns) in enumerate(
                    zip(self._cells, self._columns)):
                for column, label in zip(columns, cell.state_labels()):
                    labels[column] = f"{label}@{index}"
            return labels
        labels = ["q"]
        labels += [f"alpha[{i}]" for i in range(self.n)]
        labels += [f"rt[{i}]" for i in range(self.n)]
        labels += [f"rc[{i}]" for i in range(self.n)]
        return labels

    def max_lag(self) -> Optional[float]:
        """``tau* + marking_delay`` plus the jitter amplitude, over cells.

        None when a cell's jitter callable does not state its
        amplitude.
        """
        lags = []
        for cell in self._cells:
            jitter = cell.feedback_jitter
            amplitude = 0.0 if jitter is no_jitter \
                else getattr(jitter, "amplitude", None)
            if amplitude is None:
                return None
            lags.append(cell.params.tau_star + cell.marking_delay
                        + amplitude)
        return max(lags)

    # -- dynamics ------------------------------------------------------------

    def _lookup_times(self, t: float) -> np.ndarray:
        """Query time of every delayed column the derivative reads.

        The queue behind the marks is ``tau* + marking_delay`` old;
        the rates a CNP describes were sent one control-loop delay
        ago.  Jitter lengthens both (the same draw, as the mark and the
        rate share the feedback path).
        """
        if self._jitters is None:
            return t - self._lags
        jitter = np.array([draw(t) for draw in self._jitters])
        return np.concatenate((t - (self._mark_lag + jitter),
                               (t - self._rc_lag)
                               - jitter[self._flow_cell]))

    def cell_marking(self, t: float, delayed_queue: np.ndarray,
                     history: UniformHistory) -> np.ndarray:
        """Per-cell ``p`` from each cell's delayed queue: RED, Eq. 3.

        With egress marking the mark reflects the queue ``tau*`` ago
        (propagation only); ingress-style marking adds
        ``marking_delay`` of queue staleness on top (Section 5.2).
        Subclasses with another marker override this.
        """
        excess = delayed_queue - self._kmin
        smooth = np.minimum(np.maximum(excess * self._slope, 0.0), 1.0)
        if self._all_extend:
            return smooth
        marks = np.where(
            excess <= 0.0, 0.0,
            np.where(delayed_queue > self._kmax, 1.0,
                     excess / self._span * self._pmax))
        return np.where(self._extend, smooth, marks)

    def marking_probability(self, t: float, history: UniformHistory
                            ) -> "float | np.ndarray":
        """``p`` as seen by senders at time ``t``, per cell.

        A float for a single cell.
        """
        delayed_queue = history.interpolate(
            self._lookup_times(t)[:self.cells],
            self._lag_columns[:self.cells])
        marks = self.cell_marking(t, delayed_queue, history)
        return float(np.asarray(marks).reshape(-1)[0]) \
            if self.cells == 1 else marks

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        p = self.params
        cells = self.cells
        queue = state[self._q_sl]
        alpha = state[self._alpha_sl]
        rt = state[self._rt_sl]
        rc = state[self._rc_sl]

        # One gather reads every cell's delayed queue and delayed R_C.
        delayed = history.interpolate(self._lookup_times(t),
                                      self._lag_columns)
        # Marks are never negative; the ceiling keeps log1p finite.
        mark_p = np.minimum(
            self.cell_marking(t, delayed[:cells], history), _P_CEIL)
        if cells > 1:
            mark_p = mark_p[self._flow_cell]
        log_keep = np.log1p(-mark_p)
        delayed_rc = np.maximum(delayed[cells:], MIN_RATE)

        events = _event_rates(mark_p, log_keep, delayed_rc, p)

        out = np.empty_like(state)
        # Eq. 4: each queue integrates its active flows' excess
        # arrival rate; it cannot drain below empty.  Summing cell by
        # cell keeps numpy's summation order, so a cell's derivative
        # is bit for bit the one its own model computes.
        active = None if self._always_active else t >= self.start_times
        total = np.add.reduce
        for cell, (lo, hi, capacity) in enumerate(self._cell_flows):
            arriving = rc[lo:hi] if active is None \
                else rc[lo:hi][active[lo:hi]]
            dq = float(total(arriving)) - capacity
            if queue[cell] <= 0.0 and dq < 0.0:
                dq = 0.0
            out[cell] = dq

        # Eq. 5: alpha chases the delayed marked-window fraction for the
        # tau'-long CNP observation window (exactly +0.0 where p = 0,
        # log_keep being -0.0 there).
        alpha_target = -np.expm1(p.tau_prime * delayed_rc * log_keep)
        dalpha = (p.g / p.tau_prime) * (alpha_target - alpha)

        # Eq. 6: target rate forgets toward R_C on CNPs, gains R_AI on
        # post-fast-recovery byte/timer events.
        drt = (-(rt - rc) / p.tau * events.mark_fraction
               + p.rate_ai * (events.byte_ai_rate + events.timer_ai_rate))

        # Eq. 7: multiplicative decrease on CNPs plus the QCN averaging
        # (R_C + R_T)/2 on every byte/timer event.
        drc = (-(rc * alpha) / (2.0 * p.tau) * events.mark_fraction
               + (rt - rc) / 2.0 * (events.byte_rate + events.timer_rate))

        if active is None:
            out[self._alpha_sl] = dalpha
            out[self._rt_sl] = drt
            out[self._rc_sl] = drc
        else:
            out[self._alpha_sl] = np.where(active, dalpha, 0.0)
            out[self._rt_sl] = np.where(active, drt, 0.0)
            out[self._rc_sl] = np.where(active, drc, 0.0)
        return out

    def clamp(self, state: np.ndarray) -> np.ndarray:
        maximum, minimum = np.maximum, np.minimum
        queue = state[self._q_sl]
        maximum(queue, 0.0, out=queue)
        alpha = state[self._alpha_sl]
        maximum(alpha, 0.0, out=alpha)
        minimum(alpha, 1.0, out=alpha)
        for block in (state[self._rt_sl], state[self._rc_sl]):
            maximum(block, MIN_RATE, out=block)
            minimum(block, self.line_rate, out=block)
        return state
