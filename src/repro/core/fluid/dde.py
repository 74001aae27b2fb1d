"""Fixed-step integrator for the delay-differential fluid models.

scipy offers no delay-ODE solver, so we integrate the models with a
fixed-step method that records every accepted step into a
:class:`~repro.core.fluid.history.UniformHistory`; delayed terms are
linearly interpolated from that record.  This is the standard "method
of steps" construction for DDEs with delays larger than the step size.
The history keeps only what the delayed lookups need (a ring of
``max_lag / dt`` rows when the model bounds its lag); the returned
trace is written into its own array every ``record_stride`` steps.

A model with several cells (an ensemble of independent systems in one
state vector) is checked for divergence cell by cell: a diverging
cell is frozen at its last accepted state while the others run on,
then re-integrated alone with the step halved.  Its neighbours'
results never depend on it.

Three stepping schemes are provided:

``euler``
    First order.  Robust for the non-smooth TIMELY right-hand side,
    whose rate law switches between four regimes (Eq. 21).
``heun``
    Second-order predictor/corrector; the default.  A good accuracy /
    cost balance given that the models' switching surfaces limit the
    attainable order anyway.
``rk4``
    Classic fourth order, for smooth regions and convergence testing.

The step size must be well below the smallest delay and time constant:
the paper's fastest dynamics are the 20-55 us update intervals, so the
default ``dt`` of 1 us resolves them comfortably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.core.fluid.base import FluidModel, FluidTrace
from repro.core.fluid.history import UniformHistory
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans

#: Default integration step, seconds.
DEFAULT_DT = 1e-6

#: State magnitude beyond which the integration counts as diverged
#: even while still finite.  The models' states are packets and
#: packets/second -- physically bounded around 1e7 -- so 1e12 only
#: trips on genuine blow-ups, well before float overflow turns them
#: into a late, uninformative ``inf``.
DEFAULT_DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class IntegrationFailure:
    """Where and why an integration attempt diverged.

    Carried by :class:`IntegrationError` so callers (experiments,
    sweeps over unstable configurations) can triage programmatically
    instead of parsing an exception string.
    """

    step: int
    time: float
    state: np.ndarray
    cause: str
    method: str
    dt: float
    retries: int
    #: Ensemble cell that diverged (``state`` is then that cell's, in
    #: its own layout); None for a single-cell model.
    cell: Optional[int] = None

    def __str__(self) -> str:
        where = "" if self.cell is None else f"cell {self.cell} "
        return (f"integration {where}diverged at t={self.time:.6g}s "
                f"(step {self.step}, method={self.method}, "
                f"dt={self.dt:g}, after {self.retries} halved-step "
                f"retries): {self.cause}; state={self.state}")


class IntegrationError(FloatingPointError):
    """Integration diverged even after halved-step retries.

    Subclasses ``FloatingPointError`` for compatibility with callers
    that guarded the old bare-exception behaviour; :attr:`failure`
    holds the structured :class:`IntegrationFailure`.
    """

    def __init__(self, failure: IntegrationFailure):
        self.failure = failure
        super().__init__(str(failure))

_STEPPERS = {}


def _register(name: str) -> Callable:
    def decorator(fn: Callable) -> Callable:
        _STEPPERS[name] = fn
        return fn
    return decorator


@_register("euler")
def _euler_step(model: FluidModel, t: float, y: np.ndarray, dt: float,
                history: UniformHistory) -> np.ndarray:
    return y + dt * model.derivatives(t, y, history)


@_register("heun")
def _heun_step(model: FluidModel, t: float, y: np.ndarray, dt: float,
               history: UniformHistory) -> np.ndarray:
    k1 = model.derivatives(t, y, history)
    predictor = model.clamp(y + dt * k1)
    k2 = model.derivatives(t + dt, predictor, history)
    return y + 0.5 * dt * (k1 + k2)


@_register("rk4")
def _rk4_step(model: FluidModel, t: float, y: np.ndarray, dt: float,
              history: UniformHistory) -> np.ndarray:
    half = 0.5 * dt
    k1 = model.derivatives(t, y, history)
    k2 = model.derivatives(t + half, model.clamp(y + half * k1), history)
    k3 = model.derivatives(t + half, model.clamp(y + half * k2), history)
    k4 = model.derivatives(t + dt, model.clamp(y + dt * k3), history)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def available_methods() -> "list[str]":
    """Names accepted by :func:`integrate`'s ``method`` argument."""
    return sorted(_STEPPERS)


def integrate(model: FluidModel,
              t_end: float,
              dt: float = DEFAULT_DT,
              method: str = "heun",
              record_stride: int = 1,
              t_start: float = 0.0,
              initial_state: Optional[np.ndarray] = None,
              max_retries: int = 1,
              divergence_limit: Optional[float] =
              DEFAULT_DIVERGENCE_LIMIT,
              observer: Optional[Callable[[float, np.ndarray],
                                          None]] = None,
              observer_stride: Optional[int] = None,
              ) -> FluidTrace:
    """Integrate ``model`` from ``t_start`` to ``t_end``.

    Parameters
    ----------
    model:
        The fluid model to integrate.
    t_end:
        Final time, seconds.
    dt:
        Fixed step size, seconds.  Must be positive and smaller than
        the horizon.
    method:
        One of :func:`available_methods`.
    record_stride:
        Keep every n-th sample in the returned trace.  The internal
        history records every step, as far back as the delayed
        lookups need; this only thins the caller-facing output.
    t_start:
        Start time; the pre-history for ``t < t_start`` is the constant
        initial state.
    initial_state:
        Override for ``model.initial_state()`` -- used by experiments
        that restart a model from a perturbed fixed point.
    max_retries:
        On divergence (NaN/inf or ``divergence_limit`` exceeded), retry
        the whole integration with the step halved, this many times;
        for an ensemble, only the diverged cells, each alone (their
        traces land in :attr:`FluidTrace.cell_retries`).
        Rescues fixed-step runs whose dt was marginally too coarse for
        a stiff transient; a genuinely unstable model still fails, as
        :class:`IntegrationError` carrying the structured
        :class:`IntegrationFailure` of the final attempt.  0 disables
        retrying.
    divergence_limit:
        Any state component exceeding this magnitude counts as
        divergence even while finite (catches blow-ups hundreds of
        steps before float overflow).  None checks finiteness only.
    observer:
        In-run snapshot hook: ``observer(t, state)`` is called with
        the accepted (clamped) state every ``observer_stride`` steps
        -- the fluid-model twin of the packet simulator's
        ``Simulator.sample_every``.  Health detectors stream from it
        while the integration runs, so a live ``watch`` sees
        pathologies as they develop instead of after the trace
        returns.  ``state`` is the integrator's working array; treat
        it as read-only and copy if retained.  None (the default)
        skips the hook entirely.  On a halved-step retry the observer
        is re-fed from ``t_start`` -- resettable consumers should
        clear their buffers in that case (``t`` going backwards is
        the signal).  An ensemble cell's solo retry does not feed the
        observer.
    observer_stride:
        Steps between observer calls; defaults to ``record_stride``.

    Returns
    -------
    FluidTrace
        Sampled state trajectory, including the initial state.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end <= t_start:
        raise ValueError(
            f"t_end ({t_end}) must exceed t_start ({t_start})")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if observer_stride is None:
        observer_stride = record_stride
    if observer_stride < 1:
        raise ValueError(
            f"observer_stride must be >= 1, got {observer_stride}")
    try:
        stepper = _STEPPERS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; choose from {available_methods()}")

    if initial_state is None:
        initial = np.array(model.initial_state(), dtype=float)
    else:
        initial = np.array(initial_state, dtype=float)
    labels = model.state_labels()
    if initial.shape != (len(labels),):
        raise ValueError(
            f"initial state has shape {initial.shape}, expected "
            f"({len(labels)},) to match state_labels()")

    # Telemetry publishes once per integrate() call / retry / abort
    # -- aggregation points, never inside the stepping loop.  With
    # telemetry off these hit the inert null registry.
    registry = _metrics.get_registry()
    registry.counter("fluid.dde.integrations_total").inc()
    registry.counter("fluid.dde.cells_total").inc(model.cells)
    with _spans.span("fluid.integrate"):
        return _solve(model, stepper, t_start, t_end, dt, record_stride,
                      initial, labels, method, divergence_limit,
                      max_retries, 0, observer, observer_stride)


def _solve(model: FluidModel, stepper: Callable, t_start: float,
           t_end: float, dt: float, record_stride: int,
           initial: np.ndarray, labels, method: str,
           divergence_limit: Optional[float], max_retries: int,
           first_attempt: int,
           observer: Optional[Callable[[float, np.ndarray], None]],
           observer_stride: int, cell: Optional[int] = None
           ) -> FluidTrace:
    """Attempts ``first_attempt..max_retries``, halving dt after each failure.

    A single-cell model restarts whole.  An ensemble finishes its
    healthy cells at ``dt`` and re-solves each diverged cell alone,
    from ``first_attempt + 1`` on; the observer is not re-fed for
    those solo runs.  ``cell`` tags the failures of such a solo run
    with the ensemble cell it stands for.
    """
    registry = _metrics.get_registry()
    attempt_dt = dt
    for attempt in range(first_attempt, max_retries + 1):
        try:
            trace, diverged = _integrate_once(
                model, stepper, t_start, t_end, attempt_dt,
                record_stride, initial, labels, method,
                divergence_limit, retries=attempt, observer=observer,
                observer_stride=observer_stride)
        except IntegrationError as error:
            failure = error.failure if cell is None \
                else replace(error.failure, cell=cell)
            if attempt == max_retries:
                registry.counter("fluid.dde.divergence_aborts_total").inc()
                raise IntegrationError(failure) from None
            registry.counter("fluid.dde.step_retries").inc()
            # The run log (when telemetry is active) records *where*
            # the attempt diverged, not just that one did -- crash
            # capsules embed these events so a replayed cell shows
            # which t the fluid integration struggled at.
            _emit_retry_event(failure, attempt_dt)
            attempt_dt *= 0.5
            continue
        for index, failure in diverged.items():
            if attempt == max_retries:
                registry.counter("fluid.dde.divergence_aborts_total").inc()
                raise IntegrationError(failure)
            registry.counter("fluid.dde.step_retries").inc()
            registry.counter("fluid.dde.cells_retried_total").inc()
            _emit_retry_event(failure, attempt_dt)
            solo = model.cell_model(index)
            trace.cell_retries[index] = _solve(
                solo, stepper, t_start, t_end, attempt_dt * 0.5,
                record_stride, initial[model.cell_columns(index)],
                solo.state_labels(), method, divergence_limit,
                max_retries, attempt + 1, None, observer_stride,
                cell=index)
        return trace
    raise AssertionError("unreachable")  # pragma: no cover


def _emit_retry_event(failure: IntegrationFailure,
                      attempt_dt: float) -> None:
    """Append a ``retry`` event for a halved-step re-attempt."""
    from repro.obs import telemetry as _telemetry

    bundle = _telemetry.current()
    if bundle is None:
        return
    fields = {} if failure.cell is None else {"cell": failure.cell}
    try:
        bundle.run_log.retry(
            component="fluid.dde",
            t=failure.time, step=failure.step, dt=attempt_dt,
            next_dt=attempt_dt * 0.5, method=failure.method,
            cause=failure.cause, attempt=failure.retries + 1, **fields)
    except ValueError:
        pass  # run log already finished/closed


def _divergence_cause(magnitude: float, limit: float) -> Optional[str]:
    """Why a state of this abs-max counts as diverged, or None if it doesn't."""
    # NaN fails every comparison (so `> limit` won't catch it) and
    # inf must trip even when the limit itself is inf.
    if magnitude != magnitude or magnitude == np.inf:
        return "non-finite state (NaN or inf)"
    if magnitude > limit:
        return (f"state magnitude {magnitude:.3g} exceeded "
                f"divergence limit {limit:.3g}")
    return None


def _history_window(model: FluidModel, dt: float,
                    n_steps: int) -> Optional[int]:
    """Ring rows covering the model's lag, or None for the full horizon."""
    lag = model.max_lag()
    if lag is None:
        return None
    # A lookup at t - lag interpolates between the two rows around
    # it, and Heun/RK4 stages query up to one step past the newest
    # row; two rows of slack absorb the rounding of t / dt.
    window = int(math.ceil(lag / dt)) + 3
    return window if window < n_steps + 1 else None


def _integrate_once(model: FluidModel, stepper: Callable, t_start: float,
                    t_end: float, dt: float, record_stride: int,
                    initial: np.ndarray, labels, method: str,
                    divergence_limit: Optional[float],
                    retries: int,
                    observer: Optional[Callable[[float, np.ndarray],
                                                None]] = None,
                    observer_stride: int = 1):
    """One fixed-step pass: ``(trace, {cell: failure})``.

    A single-cell model raises :class:`IntegrationError` on blow-up;
    an ensemble freezes each diverged cell at its last accepted state
    and reports it in the returned dict instead.

    The history is a ring when the model bounds its lag, and the
    whole horizon otherwise; in the latter case the trace is a strided
    copy of the history rather than a second record.
    """
    state = initial.copy()
    n_steps = int(round((t_end - t_start) / dt))
    window = _history_window(model, dt, n_steps)
    history = UniformHistory(t_start, dt, state, capacity=n_steps + 1,
                             window=window)
    trace_rows = None
    if window is not None:
        trace_rows = np.empty((n_steps // record_stride + 1, state.size))
        trace_rows[0] = state
    # A single abs-max distinguishes all divergence modes: NaN
    # propagates through max (numpy's max returns NaN if any entry
    # is), inf exceeds any finite limit, and a finite blow-up exceeds
    # the configured limit.  One reduction per step instead of two.
    limit = np.inf if divergence_limit is None else divergence_limit
    clamp = model.clamp
    append = history.append
    diverged = {}
    frozen_columns = frozen_values = None
    t = t_start
    for step in range(1, n_steps + 1):
        accepted = state
        state = clamp(stepper(model, t, state, dt, history))
        if frozen_columns is not None:
            state[frozen_columns] = frozen_values
        cause = _divergence_cause(float(np.max(np.abs(state))), limit)
        if cause is not None:
            if model.cells == 1:
                _metrics.get_registry().counter(
                    "fluid.dde.steps_total").inc(step)
                raise IntegrationError(IntegrationFailure(
                    step=step, time=t + dt, state=state, cause=cause,
                    method=method, dt=dt, retries=retries))
            for cell in range(model.cells):
                columns = model.cell_columns(cell)
                cause = _divergence_cause(
                    float(np.max(np.abs(state[columns]))), limit)
                if cause is None:
                    continue
                diverged[cell] = IntegrationFailure(
                    step=step, time=t + dt, state=state[columns],
                    cause=cause, method=method, dt=dt, retries=retries,
                    cell=cell)
                state[columns] = accepted[columns]
            frozen_columns = np.concatenate(
                [model.cell_columns(cell) for cell in diverged])
            frozen_values = state[frozen_columns]
        append(state)
        t = t_start + step * dt
        if trace_rows is not None and step % record_stride == 0:
            trace_rows[step // record_stride] = state
        if observer is not None and step % observer_stride == 0:
            observer(t, state)

    _metrics.get_registry().counter(
        "fluid.dde.steps_total").inc(n_steps)
    if trace_rows is None:
        times, states = history.strided_view(record_stride)
    else:
        times = t_start + dt * np.arange(0, n_steps + 1, record_stride)
        states = trace_rows
    return FluidTrace(times, states, labels), diverged
