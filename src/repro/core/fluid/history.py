"""State history for delay-differential equations.

The fluid models of the paper are *delay* differential equations: the
DCQCN right-hand side reads marking probability ``p(t - tau*)`` and rate
``R_C(t - tau*)`` (Fig. 1), and TIMELY reads queue lengths at
``t - tau'`` and ``t - tau' - tau*`` where ``tau'`` itself depends on
the current queue (Eq. 24).  The integrator therefore records every
accepted step, and models look up past state through a
:class:`UniformHistory`.

The history exploits the integrator's uniform step size: lookup is an
O(1) index computation plus linear interpolation, instead of a binary
search.  Queries earlier than the start time return the initial state
(constant pre-history), which matches the paper's simulations where
flows start with fixed initial rates and an empty queue.

Storage is a single preallocated 2-D array of rows, in one of two
shapes:

* *full horizon* -- every row ever appended.  The integrator knows its
  step count and passes ``capacity`` so the buffer is sized once; an
  unsized history still grows geometrically.  Models whose delays
  depend on the state (TIMELY) need this.
* *ring* -- only the newest ``window`` rows, overwritten in turn.  A
  model with a bounded lag (:meth:`FluidModel.max_lag
  <repro.core.fluid.base.FluidModel.max_lag>`) never looks further
  back, so its memory no longer grows with the horizon.  A lookup
  older than the window raises :class:`LookupError` instead of
  reading an overwritten row.

The history is only what the delayed lookups need; the integrator
writes the caller-facing trace into its own array.  The lookup paths
index the buffer directly -- they run up to four times per RK4 step,
every step, and are the hottest lines of the fluid experiments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Default initial buffer size (rows) when no capacity hint is given.
_DEFAULT_CAPACITY = 1024


class UniformHistory:
    """Record of state vectors on a uniform time grid, linearly interpolated.

    Parameters
    ----------
    t0:
        Time of the first sample.
    dt:
        Grid spacing; every appended sample is assumed to be ``dt``
        after the previous one.
    initial_state:
        State vector at ``t0``; also used as the constant pre-history
        for queries at ``t < t0``.
    capacity:
        Optional total row count to preallocate (including the initial
        sample).  Fixed-step integrators know this exactly
        (``n_steps + 1``); sizing the buffer once removes every
        grow-and-copy from the stepping loop.
    window:
        Keep only the newest ``window`` rows, as a ring; ``capacity``
        is then ignored.  None (the default) keeps every row.
    """

    __slots__ = ("_t0", "_dt", "_dim", "_capacity", "_data",
                 "_count", "_ring")

    def __init__(self, t0: float, dt: float, initial_state: np.ndarray,
                 capacity: Optional[int] = None,
                 window: Optional[int] = None):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self._t0 = float(t0)
        self._dt = float(dt)
        state = np.asarray(initial_state, dtype=float)
        if state.ndim != 1:
            raise ValueError("initial_state must be a 1-D vector")
        self._dim = state.shape[0]
        self._ring = window is not None
        if window is not None:
            if window < 2:
                raise ValueError(f"window must be >= 2, got {window}")
            capacity = window
        elif capacity is None:
            capacity = _DEFAULT_CAPACITY
        elif capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        # A ring carries one spare row mirroring row 0, so the row
        # after any ring row is always the next array row.
        self._data = np.empty((self._capacity + self._ring, self._dim),
                              dtype=float)
        self._data[0] = state
        if self._ring:
            self._data[self._capacity] = state
        self._count = 1

    @property
    def t0(self) -> float:
        """Time of the first recorded sample."""
        return self._t0

    @property
    def dt(self) -> float:
        """Uniform spacing between recorded samples."""
        return self._dt

    @property
    def dim(self) -> int:
        """Dimension of the state vector."""
        return self._dim

    @property
    def latest_time(self) -> float:
        """Time of the most recently appended sample."""
        return self._t0 + (self._count - 1) * self._dt

    def __len__(self) -> int:
        return self._count

    def append(self, state: np.ndarray) -> None:
        """Record the state at the next grid point."""
        count = self._count
        if count == self._capacity and not self._ring:
            # Grow geometrically; only reached when the caller gave no
            # (or too small a) capacity hint.
            self._capacity *= 2
            grown = np.empty((self._capacity, self._dim), dtype=float)
            grown[:count] = self._data[:count]
            self._data = grown
        row = count % self._capacity
        self._data[row] = state
        if row == 0 and self._ring:
            self._data[self._capacity] = state
        self._count = count + 1

    def _locate(self, t: float) -> "tuple[int, float]":
        """Buffer row at or below ``t`` and the weight of the next row.

        Applies the pre-history and end clamps (weight 0.0 there).
        Clamping at the newest sample lets Runge-Kutta stages evaluate
        delayed terms that land (by at most one step) past the
        recorded history; with delays >= dt this clamp is exact to
        first order.
        """
        offset = (t - self._t0) / self._dt
        last = self._count - 1
        if offset <= 0.0:
            lo, frac = 0, 0.0
        elif offset >= last:
            lo, frac = last, 0.0
        else:
            lo = int(offset)
            frac = offset - lo
        if lo <= last - self._capacity:
            self._stale(t)
        return lo % self._capacity, frac

    def _stale(self, t) -> None:
        oldest = self._t0 + (self._count - self._capacity) * self._dt
        raise LookupError(
            f"history lookup at t={t} is older than the ring keeps "
            f"(oldest row t={oldest:.9g}, window {self._capacity} "
            "rows): the model's max_lag() is too small")

    def __call__(self, t: float) -> np.ndarray:
        """State at time ``t``; constant before ``t0``, clamped after the end.

        Values between grid points are linearly interpolated.
        """
        row, frac = self._locate(t)
        data = self._data
        if frac == 0.0:
            return data[row].copy()
        return (1.0 - frac) * data[row] + frac * data[row + 1]

    def interpolate(self, t, columns) -> np.ndarray:
        """Interpolated lookup restricted to some columns.

        The multi-flow models only need a few components of the
        delayed state (e.g. the ``R_C`` block); interpolating just
        those columns skips work proportional to the untouched part of
        the state vector.

        With a scalar ``t`` (and ``columns`` any index), semantics
        match ``self(t)[columns]`` exactly.  With ``t`` an array, it
        holds one query time per entry of the integer array
        ``columns``, and entry ``i`` of the result is
        ``self(t[i])[columns[i]]``, bit for bit: one gather serves
        lookups at different delays, such as every cell of an
        ensemble.
        """
        if not isinstance(t, np.ndarray):
            row, frac = self._locate(t)
            data = self._data
            if frac == 0.0:
                return data[row, columns].copy()
            return ((1.0 - frac) * data[row, columns]
                    + frac * data[row + 1, columns])
        last = self._count - 1
        if last == 0:
            return self._data[0, columns]
        offset = (t - self._t0) / self._dt
        # Clamping the offset to [0, last] and the lower row to
        # last - 1 reproduces the scalar clamps: weight 0 on row 0
        # before t0, weight 1 on the newest row past the end.
        np.maximum(offset, 0.0, out=offset)
        np.minimum(offset, last, out=offset)
        lo = offset.astype(np.intp)
        np.minimum(lo, last - 1, out=lo)
        frac = offset - lo
        if self._count > self._capacity:
            if lo.min() <= last - self._capacity:
                self._stale(t[np.argmin(lo)])
            np.remainder(lo, self._capacity, out=lo)
        # Flat indices into the row-major buffer: one take per row.
        lo *= self._dim
        lo += columns
        flat = self._data.reshape(-1)
        return (1.0 - frac) * flat[lo] + frac * flat[lo + self._dim]

    def component(self, t: float, index: int) -> float:
        """Scalar lookup of one state component at time ``t``.

        Cheaper than ``self(t)[index]`` because it avoids building the
        full interpolated vector; the patched-TIMELY models call this
        in their inner loops for delayed queue values.
        """
        row, frac = self._locate(t)
        data = self._data
        if frac == 0.0:
            return float(data[row, index])
        return float((1.0 - frac) * data[row, index]
                     + frac * data[row + 1, index])

    def _full(self) -> np.ndarray:
        if self._count > self._capacity:
            raise LookupError(
                f"a ring history keeps only its last {self._capacity} "
                "rows; the full record is gone")
        return self._data[:self._count]

    def as_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """Return ``(times, states)`` copies of the full recorded history."""
        states = self._full().copy()
        times = self._t0 + self._dt * np.arange(self._count)
        return times, states

    def strided_view(self, stride: int) -> "tuple[np.ndarray, np.ndarray]":
        """``(times, states)`` of every ``stride``-th sample, as copies.

        Lets the integrator hand a thinned trace to the caller from a
        full-horizon history without having recorded anything twice
        during stepping.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        indices = np.arange(0, self._count, stride)
        times = self._t0 + self._dt * indices
        return times, self._full()[indices]
