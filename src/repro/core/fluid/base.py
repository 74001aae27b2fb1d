"""Common interface for the fluid models and their integration traces.

Every fluid model in this package (DCQCN, TIMELY, patched TIMELY, and
the PI variants) implements :class:`FluidModel`: it owns a parameter
set, defines an initial state vector, and evaluates the delayed
right-hand side given a :class:`~repro.core.fluid.history.UniformHistory`
of past states.  The integrator in :mod:`repro.core.fluid.dde` drives
any such model and returns a :class:`FluidTrace`.

A model may stack several independent systems -- *cells* -- in one
state vector, so that one integration advances a whole parameter grid
(see :meth:`repro.core.fluid.dcqcn.DCQCNFluidModel.ensemble`).  The
integrator only needs :attr:`FluidModel.cells`,
:meth:`FluidModel.cell_columns` and :meth:`FluidModel.cell_model` to
check and retry each cell on its own; :meth:`FluidModel.split_trace`
hands each cell its own :class:`FluidTrace` back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.fluid.history import UniformHistory


class FluidModel:
    """Delay-ODE system ``dy/dt = f(t, y, history)``.

    Subclasses must implement :meth:`initial_state`,
    :meth:`derivatives`, and :meth:`state_labels`.  ``clamp`` may be
    overridden to enforce physical constraints (non-negative queues and
    rates) after each step; the default is the identity.
    """

    #: Independent systems stacked in the state vector; 1 for a plain
    #: model.  Ensembles also override :meth:`cell_columns` and
    #: :meth:`cell_model`.
    cells = 1

    def initial_state(self) -> np.ndarray:
        """State vector at t=0 (also the constant pre-history)."""
        raise NotImplementedError

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        """Evaluate the right-hand side at time ``t``.

        ``history`` resolves delayed terms such as ``p(t - tau*)``;
        implementations must not mutate ``state``.
        """
        raise NotImplementedError

    def state_labels(self) -> List[str]:
        """Human-readable name for each state component, in order."""
        raise NotImplementedError

    def clamp(self, state: np.ndarray) -> np.ndarray:
        """Project the state back into its physical domain (in place ok)."""
        return state

    def max_lag(self) -> Optional[float]:
        """Longest delay (s) :meth:`derivatives` ever looks back.

        A bound lets the integrator keep its history as a ring of
        ``max_lag / dt`` rows instead of the whole horizon.  None (the
        default) means unknown or state-dependent: keep everything.
        """
        return None

    def cell_columns(self, cell: int) -> np.ndarray:
        """State-vector columns holding cell ``cell``."""
        if cell != 0:
            raise IndexError(f"cell {cell} out of range for 1 cell")
        return np.arange(len(self.state_labels()))

    def cell_model(self, cell: int) -> "FluidModel":
        """Cell ``cell`` as a model of its own, state in its own layout."""
        if cell != 0:
            raise IndexError(f"cell {cell} out of range for 1 cell")
        return self

    def split_trace(self, trace: "FluidTrace") -> "List[FluidTrace]":
        """One trace per cell, under the cell model's own labels.

        A cell the integrator re-ran alone (see
        :attr:`FluidTrace.cell_retries`) gets that run's trace.
        """
        if self.cells == 1:
            return [trace]
        traces = []
        for cell in range(self.cells):
            retried = trace.cell_retries.get(cell)
            traces.append(retried if retried is not None else FluidTrace(
                trace.times, trace.states[:, self.cell_columns(cell)],
                self.cell_model(cell).state_labels()))
        return traces


class FluidTrace:
    """Time series produced by integrating a :class:`FluidModel`.

    Attributes
    ----------
    times:
        1-D array of sample times (seconds).
    states:
        2-D array, one row per sample, one column per state component.
    labels:
        Column names matching :meth:`FluidModel.state_labels`.
    cell_retries:
        For an ensemble: cell index -> the trace of that cell's solo
        halved-step re-integration, for each cell that diverged.  Its
        columns in ``states`` hold the values frozen at divergence.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray,
                 labels: Sequence[str]):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        if states.shape[0] != times.shape[0]:
            raise ValueError(
                f"times ({times.shape[0]}) and states ({states.shape[0]}) "
                "row counts differ")
        if states.shape[1] != len(labels):
            raise ValueError(
                f"states has {states.shape[1]} columns but "
                f"{len(labels)} labels were given")
        self.times = times
        self.states = states
        self.labels = list(labels)
        self._index = {label: i for i, label in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("state labels must be unique")
        self.cell_retries: Dict[int, FluidTrace] = {}

    def __len__(self) -> int:
        return self.times.shape[0]

    def column(self, label: str) -> np.ndarray:
        """The full time series of one state component."""
        try:
            idx = self._index[label]
        except KeyError:
            raise KeyError(
                f"unknown state label {label!r}; have {self.labels}")
        return self.states[:, idx]

    def final(self, label: str) -> float:
        """The last recorded value of one component."""
        return float(self.column(label)[-1])

    def tail(self, label: str, window: float) -> np.ndarray:
        """Samples of ``label`` within the final ``window`` seconds."""
        cutoff = self.times[-1] - window
        mask = self.times >= cutoff
        return self.column(label)[mask]

    def tail_mean(self, label: str, window: float) -> float:
        """Mean of a component over the final ``window`` seconds."""
        values = self.tail(label, window)
        return float(np.mean(values))

    def tail_std(self, label: str, window: float) -> float:
        """Standard deviation over the final ``window`` seconds.

        Used by the stability experiments: an unstable (limit-cycling)
        system keeps a large tail standard deviation, a stable one
        decays toward zero.
        """
        values = self.tail(label, window)
        return float(np.std(values))

    def subsample(self, stride: int) -> "FluidTrace":
        """A decimated copy keeping every ``stride``-th sample."""
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        return FluidTrace(self.times[::stride], self.states[::stride],
                          self.labels)

    def save(self, path) -> None:
        """Persist the trace as a compressed ``.npz`` archive.

        Long integrations (the 0.5 s PI runs take minutes) are worth
        keeping; reload with :meth:`load`.
        """
        np.savez_compressed(path, times=self.times, states=self.states,
                            labels=np.array(self.labels, dtype=object))

    @classmethod
    def load(cls, path) -> "FluidTrace":
        """Reload a trace written by :meth:`save`."""
        with np.load(path, allow_pickle=True) as archive:
            return cls(archive["times"], archive["states"],
                       [str(label) for label in archive["labels"]])
