"""Explicit Runge-Kutta integration of the singular Hamiltonian fields.

Two schemes are provided: classic fixed-step RK4 and an adaptive
Dormand-Prince 5(4) embedded pair.  Both are explicit: the fields are smooth
on all of phase space (the bivector degenerates instead of blowing up), and
correctness is checked against closed-form oracles rather than long-time
structure preservation.

Runs terminate on the first of five events:

* ``reached_Z_neighborhood`` -- the defining function of the critical set,
  with its initial sign, is at most ``z_epsilon`` (armed only off that
  neighborhood); time and sample are located by bisection on the step's
  own interpolant: cubic Hermite for RK4, the DP5 continuous extension.
* ``fixed_point``            -- the field magnitude falls below ``fp_epsilon``.
* ``blowup``                 -- a state component exceeds ``blowup_bound`` or a
  field evaluation stops being finite.
* ``returned_to_start``      -- armed only on fixed-step RK4 by
  ``integrate_batch(..., stop_at_return=True)``: the first-return search
  of :func:`~bhamsys.orbits.classify_orbit` finds a period in the samples
  so far; the event time is that period.
* ``t_max_reached``          -- the time horizon is exhausted.

Batches
-------
:func:`integrate_batch` integrates many initial conditions in one call, all
through the one flat-array kernel of :func:`~bhamsys.geometry.compile_field`.
Every row carries its own direction, and a ``-1`` row is the run of the
negated field, so the forward and backward runs of N initial conditions go
in together as 2N rows.  The kernel itself is never negated: a backward RK4
row steps it with ``-step``, which gives the negated field's stage states to
the bit, and takes its sign in the weighted sum of the stages and where its
velocities are read as derivatives (:func:`_rk4_steps`); a backward DP5 row
negates each velocity.  Fixed-step RK4 advances all rows in lockstep on the
shared time grid ``t = k * step``, in blocks of ``RETURN_BLOCK`` steps; each
row keeps its own events and leaves the batch when one fires.  Each RK4
stage is one call of the batch kernel, which isolates a row that raises
(``F(Y, errors)``), so that it cannot stop the others.  No step is tested
on its own: at 14 to 32 rows a numpy call costs the same whatever the row
count, so one pass over a block's samples finds each row's first event,
and the rows that end inside the block are carried to its end, their extra
samples discarded.  Adaptive DP5 rows choose their
own steps and are advanced one at a time, on Python floats: the state and
the stages are lists, each stage is a scalar weighted sum per component,
added in stage order from 0, and the field is the kernel's one-row form
``F.row``, which a forward row calls without negating it.  At 2 to 6 floats
a row, this costs less than numpy's per-call overhead on arrays that small.
A row's trajectory is the same, to the bit, in any batch; :func:`integrate`
is the one-row case.

CSV
---
:func:`write_table` is the one CSV writer of the package: it formats a whole
file with one ``%`` over a row template, ``%.17g`` per value.
:meth:`Trajectory.write_csv` writes a trajectory through it, and the CLI
writes its extended, real-time and oracle-comparison files with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

# hamiltonian_vector_field is not called here; it stays importable as
# bhamsys.integrate.hamiltonian_vector_field, where perfbench/tracer.py wraps it.
from .geometry import (PhaseState, PhaseStructure, _check_state,  # noqa: F401
                       _defining_index, compile_field, hamiltonian_vector_field)

__all__ = [
    "Method",
    "EventKind",
    "Event",
    "IntegratorConfig",
    "Trajectory",
    "write_table",
    "hermite",
    "BlowupError",
    "step",
    "integrate",
    "integrate_batch",
    "merge_backward_forward",
    "sign_preservation_check",
]

#: Hard limits of the adaptive step controller.
MIN_STEP = 1e-12
STEP_SAFETY = 0.9
STEP_SHRINK = 0.2
STEP_GROW = 5.0

#: Float64 elements the sample store of a fixed-step batch starts with at
#: most; it doubles whenever a longer run needs more.
STORE_ELEMENTS = 1 << 22

#: Steps of a fixed-step batch between two passes over its new samples:
#: one for the events of every row, and the scan for first returns
#: (``stop_at_return``).
RETURN_BLOCK = 32


class BlowupError(RuntimeError):
    """A field or state evaluation left the finite range."""


class Method(str, Enum):
    RK4_FIXED = "rk4_fixed"
    RK_ADAPTIVE = "rk_adaptive"


class EventKind(str, Enum):
    REACHED_Z = "reached_Z_neighborhood"
    FIXED_POINT = "fixed_point"
    BLOWUP = "blowup"
    RETURNED = "returned_to_start"
    T_MAX = "t_max_reached"


@dataclass(frozen=True)
class Event:
    time: float
    kind: EventKind


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of a run.  ``step`` is the RK4 step, which must be smaller
    than ``t_max``, and only the first trial step of adaptive DP5, which
    clamps it to ``t_max / 10``; every other field is a positive number."""

    method: Method = Method.RK4_FIXED
    step: float = 1e-3
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    t_max: float = 20.0
    z_epsilon: float = 1e-6
    fp_epsilon: float = 1e-12
    blowup_bound: float = 1e9

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        for f in fields(self)[1:]:  # every field after method
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"{f.name} must be > 0")
        if self.method is Method.RK4_FIXED and not self.step < self.t_max:
            raise ValueError("step must be smaller than t_max")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped phase samples with event annotations.

    ``ys`` has one flat phase vector per row in the coordinate order of
    :mod:`bhamsys.geometry`.  ``events`` holds at least one entry and its
    last element is the terminal event of the run.  ``direction`` is ``-1``
    for a run of the negated field (a backward run), else ``1``.
    """

    times: np.ndarray
    ys: np.ndarray
    events: tuple
    structure: PhaseStructure
    hamiltonian: object
    direction: int = 1

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if times.ndim != 1 or ys.ndim != 2 or ys.shape[0] != times.size:
            raise ValueError("times and ys must have matching leading length")
        if times.size == 0:
            raise ValueError("trajectory must contain at least one sample")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not self.events:
            raise ValueError("trajectory must carry a terminal event")
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        times.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return self.times.size

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def extended(self) -> bool:
        return self.structure.is_extended

    @property
    def terminal_event(self) -> Event:
        return self.events[-1]

    @property
    def q(self) -> np.ndarray:
        return self.ys[:, :self.n]

    @property
    def p(self) -> np.ndarray:
        return self.ys[:, self.n:2 * self.n]

    @property
    def extra(self) -> Optional[np.ndarray]:
        return self.ys[:, 2 * self.n:] if self.extended else None

    def state(self, i: int) -> PhaseState:
        return PhaseState.from_array(self.ys[i], self.n, self.extended)

    @property
    def initial_state(self) -> PhaseState:
        return self.state(0)

    @property
    def final_state(self) -> PhaseState:
        return self.state(-1)

    def csv_table(self) -> tuple:
        """The CSV form as ``(columns, values, footer)`` for :func:`write_table`:
        header ``t,q1..qn,p1..pn[,t_ext,E]``, one row per sample, and the
        terminal event as a trailing comment."""
        n = self.n
        cols = ["t"] + [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
        if self.extended:
            cols += ["t_ext", "E"]
        ev = self.terminal_event
        return (cols, np.column_stack([self.times, self.ys]),
                f"# event: {ev.kind.value} at t={ev.time:.17g}")

    def write_csv(self, path) -> None:
        """Serialize as CSV (see :meth:`csv_table`), floats with 17
        significant digits."""
        write_table(path, *self.csv_table())


def write_table(path, columns, values, footer=None, suffix="") -> None:
    """Write a CSV file: the header ``columns``, one line per row of
    ``values`` and, when given, the line ``footer``.

    Every value is printed with 17 significant digits (``%.17g``, the same
    digits as ``f"{v:.17g}"``), so a float64 reads back to the same bits.
    ``suffix`` is appended verbatim to every row, for a constant trailing
    column.  The rows are formatted in one ``%`` over a file-wide template.
    """
    values = np.asarray(values, dtype=float)
    lines = [",".join(columns)]
    if len(values):
        row = ",".join(["%.17g"] * values.shape[1]) + suffix.replace("%", "%%")
        lines.append("\n".join([row] * len(values)) % tuple(values.ravel().tolist()))
    if footer is not None:
        lines.append(footer)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# steppers

#: Exceptions that end a run with a ``blowup`` event instead of an error.
_BLOWUP_ERRORS = (BlowupError, OverflowError, FloatingPointError)


def _rk4_steps(dt, sign=None):
    """The factors :func:`_rk4_step` takes for a step of ``dt`` along
    ``sign``: ``None`` when every row runs forward, else an array of
    ``+-1.0`` of the states' shape, one row per state.

    A backward row steps the field itself with ``-dt``: ``k * (-h)`` is
    ``(-k) * h`` to the bit, so its stage states are those of the negated
    field, and its stage velocities are theirs negated.  The weighted sum of
    the four stages takes the row's sign on each term, which is the sum of
    the negated stages to the bit; negating the sum instead would turn a sum
    that cancels to +0.0 into -0.0.  The factors are arrays, 0-d or of the
    states' shape, which numpy multiplies faster than a Python float or a
    column it has to broadcast.
    """
    if sign is None:
        return tuple(map(np.asarray, (0.5 * dt, dt, dt / 6.0))) + (None, None)
    return tuple(map(np.asarray, (sign * (0.5 * dt), sign * dt, dt / 6.0, sign, sign + sign)))


def _rk4_step(f, y, k1, steps, errors=None):
    """One classic RK4 step of ``f`` from ``y``, where ``k1 = f(y)``, with
    the factors of :func:`_rk4_steps`, each stage ``f(Y, errors)``; ``k + k``
    is ``2.0 * k``."""
    half, full, sixth, s1, s2 = steps
    k2 = f(y + k1 * half, errors)
    k3 = f(y + k2 * half, errors)
    k4 = f(y + k3 * full, errors)
    if s1 is None:
        return y + (k1 + (k2 + k2) + (k3 + k3) + k4) * sixth
    return y + (k1 * s1 + k2 * s2 + k3 * s2 + k4 * s1) * sixth


# Dormand-Prince 5(4) tableau.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Shampine's continuous extension (Math. Comp. 46, 1986), scipy's RK45.P:
# u = tau / dt into a step, stage i has the weight P[i] . (u, u^2, u^3, u^4).
_DP_P = (
    (1.0, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
    (0.0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
    (0.0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632),
    (0.0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)


def _dp_step(f, y, dt, k1):
    """One Dormand-Prince trial step on lists of floats; returns (y5,
    error_estimate, (k1, ..., k7)), where k7 is f(y5).

    Every stage is ``y_j + dt * (0 + a1*k1_j + a2*k2_j + ...)``: a weighted
    sum in stage order that starts from 0, as numpy's sum over stage rows
    did.  The zero weights stay in their sums, so a NaN or inf of ``k2``
    still reaches ``y5`` and the error, and a sum of -0.0 terms is +0.0.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, b2, b3, b4, b5, b6 = _DP_B5
    e1, e2, e3, e4, e5, e6, e7 = _DP_ERR
    k2 = f([x + dt * (0.0 + a21 * p) for x, p in zip(y, k1)])
    k3 = f([x + dt * (0.0 + a31 * p + a32 * q) for x, p, q in zip(y, k1, k2)])
    k4 = f([x + dt * (0.0 + a41 * p + a42 * q + a43 * r) for x, p, q, r in zip(y, k1, k2, k3)])
    k5 = f([x + dt * (0.0 + a51 * p + a52 * q + a53 * r + a54 * u)
            for x, p, q, r, u in zip(y, k1, k2, k3, k4)])
    k6 = f([x + dt * (0.0 + a61 * p + a62 * q + a63 * r + a64 * u + a65 * v)
            for x, p, q, r, u, v in zip(y, k1, k2, k3, k4, k5)])
    y5 = [x + dt * (0.0 + b1 * p + b2 * q + b3 * r + b4 * u + b5 * v + b6 * w)
          for x, p, q, r, u, v, w in zip(y, k1, k2, k3, k4, k5, k6)]
    k7 = f(y5)
    err = [dt * (0.0 + e1 * p + e2 * q + e3 * r + e4 * u + e5 * v + e6 * w + e7 * z)
           for p, q, r, u, v, w, z in zip(k1, k2, k3, k4, k5, k6, k7)]
    return y5, err, (k1, k2, k3, k4, k5, k6, k7)


def _dp_dense(y, stages, dt, tau):
    """The continuous extension ``tau`` into a Dormand-Prince step of length
    ``dt`` from ``y``, summed as in :func:`_dp_step`."""
    u = tau / dt
    b1, b2, b3, b4, b5, b6, b7 = [0.0 + c1 * u + c2 * u * u + c3 * u * u * u + c4 * u * u * u * u
                                  for c1, c2, c3, c4 in _DP_P]
    return [x + dt * (0.0 + b1 * p + b2 * q + b3 * r + b4 * s + b5 * v + b6 * w + b7 * z)
            for x, p, q, r, s, v, w, z in zip(y, *stages)]


def step(structure: PhaseStructure, h, state: PhaseState, dt: float) -> PhaseState:
    """One explicit RK4 step of the Hamiltonian field (4th-order accurate)."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    _check_state(structure, state)
    F = compile_field(structure, h)
    y = state.to_array()
    y_new = _rk4_step(F, y, F(y), _rk4_steps(dt))
    if not np.all(np.isfinite(y_new)):
        raise BlowupError("state became non-finite during the step")
    return PhaseState.from_array(y_new, structure.n, structure.is_extended)


# ---------------------------------------------------------------------------
# event helpers

def _bisect(g, dt) -> tuple:
    """Bracket ``(lo, hi)`` of a root of ``g`` on ``[0, dt]``, where ``g < 0``
    at 0 and ``g >= 0`` at ``dt``, after at most 80 halvings or once it is
    narrower than ``1e-14 * max(1, dt)``."""
    lo, hi = 0.0, dt
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, dt):
            break
    return lo, hi


def hermite(y0, y1, f0, f1, dt, tau):
    """Cubic Hermite interpolant, ``tau`` into a step of length ``dt`` from
    ``y0`` to ``y1`` with derivatives ``f0`` and ``f1``; elementwise, so
    ``dt`` and ``tau`` may be columns against rows of samples."""
    u = tau / dt
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    return h00 * y0 + h10 * dt * f0 + h01 * y1 + h11 * dt * f1


# ---------------------------------------------------------------------------
# drivers

def integrate(structure: PhaseStructure, h, initial: PhaseState,
              config: Optional[IntegratorConfig] = None,
              direction: int = 1) -> Trajectory:
    """Advance the Hamiltonian field from ``initial`` until an event fires.

    ``direction=-1`` integrates the negated field, which realizes
    backward-time orbits as forward runs.  The returned trajectory records
    every accepted step; for singular structures started off the critical
    set, the sign of the defining function is preserved along the whole run
    (the Z event fires before any crossing).  This is the one-row case of
    :func:`integrate_batch`; a failing run raises its error.  For the named
    potential families, extended variants included, every field evaluation
    goes through the flat-array kernel of
    :func:`~bhamsys.geometry.compile_field`, never through ``h.gradient``.
    """
    _check_state(structure, initial)
    (result,) = integrate_batch(structure, h, [initial.to_array()], config, [direction])
    if isinstance(result, Exception):
        raise result
    return result


def integrate_batch(structure: PhaseStructure, h, Y0, config: Optional[IntegratorConfig] = None,
                    directions=None, stop_at_return: bool = False) -> list:
    """Integrate every initial state of ``Y0`` until its own event fires.

    ``Y0`` holds flat initial states, one per row, each of length
    ``structure.total_dim``; ``directions`` holds ``+1`` or ``-1`` per row
    (default all ``+1``), where ``-1`` integrates the negated field.  Returns
    one entry per row, in order: the row's :class:`Trajectory`, or the
    exception that stopped it (a malformed or non-finite initial state, or
    an error raised by the Hamiltonian), so a failing row never stops the
    others.  Each trajectory is the one :func:`integrate` returns for its row
    alone.  The trajectories of one fixed-step batch are views of one
    shared sample store.

    ``stop_at_return=True`` arms the ``returned_to_start`` event on a
    fixed-step batch: every ``RETURN_BLOCK`` steps, a row ends once the
    first-return search of :func:`~bhamsys.orbits.classify_orbit` finds a
    period in its samples so far.  The event time is that period, and the
    trajectory keeps its samples up to the one where the return was found.
    The search runs only where a row's progress along its initial velocity
    turns from negative to nonnegative near its start.  Adaptive rows run to
    their own end: only the lockstep loop of a fixed-step batch runs the
    search between its blocks.
    """
    if config is None:
        config = IntegratorConfig()
    rows = [np.asarray(y, dtype=float) for y in Y0]
    directions = [1] * len(rows) if directions is None else list(directions)
    if len(directions) != len(rows):
        raise ValueError("need one direction per initial state")
    if any(s not in (1, -1) for s in directions):
        raise ValueError("direction must be +1 or -1")
    F = compile_field(structure, h)
    d = structure.total_dim

    results = [None] * len(rows)
    valid = []
    for i, y in enumerate(rows):
        if y.shape != (d,):
            results[i] = ValueError(f"expected a flat state of length {d}, got shape {y.shape}")
        elif not np.all(np.isfinite(y)):
            results[i] = ValueError("initial state must be finite")
        else:
            valid.append(i)
    if not valid:
        return results

    if config.method is Method.RK_ADAPTIVE:
        for i in valid:
            try:
                results[i] = _integrate_adaptive(structure, h, F, float(directions[i]),
                                                 rows[i], config)
            except Exception as exc:  # per-row isolation
                results[i] = exc
    else:
        sign = np.array([[float(directions[i])] for i in valid])
        runs = _integrate_lockstep(structure, h, F, sign, np.array([rows[i] for i in valid]),
                                   config, stop_at_return)
        for i, run in zip(valid, runs):
            results[i] = run
    return results


def _integrate_lockstep(structure, h, F, sign, Y0, config, stop_at_return=False) -> list:
    """Fixed-step RK4 of all rows of ``Y0`` on one shared time grid.

    The rows still running are the active set.  It advances in blocks of
    ``RETURN_BLOCK`` steps (the last block ends at ``t_max``), with one
    kernel call per RK4 stage and no test between steps; each step's
    states and velocities are kept, and the first error of each row that
    raises in a step (``F(Y, errors)``, which gives it NaN velocities), one
    dict for the stages and one for the new sample.  After the block, one
    pass over its ``(steps, rows)`` arrays finds each row's first event: a
    non-finite state or an error raised by the field, Z, ``blowup_bound``
    or ``fp_epsilon``.  An error raised on a new sample that is already
    non-finite is ignored: that row has ended there.  A row ends at its
    first event, recorded as (last sample index, time of that sample,
    terminal event), and a Z event's sample, located on the step's Hermite
    interpolant, overwrites the slot of the step that fired it.  The
    block's samples go into the sample store in one slice.  A row that
    ends inside a block, one that raised too, is carried to the block's
    end with the others and its extra samples are never read; rows never
    mix, so the rows that go on keep their bits.  The initial velocities
    and each block run under ``np.errstate(all="ignore")``: an overflowing
    row ends in ``blowup``, and neither it nor a carried row stops the
    batch or warns, whatever numpy's error settings.

    ``sign`` is the column of row directions.  The kernel is never
    negated: a backward row steps ``F`` with ``-step`` (:func:`_rk4_steps`),
    so the velocities kept are those of ``F`` itself, and they take the
    row's sign only where they are read as derivatives: in the Hermite
    interpolant of a Z event and as the initial velocities of the
    first-return search.

    With ``stop_at_return``, after every block the new samples of the rows
    still active are searched for first returns by
    ``orbits.first_return_scan``.  A row that another event ends inside the
    block keeps that event, as it does without ``stop_at_return``.
    """
    M, d = Y0.shape
    results = [None] * M
    ends = {}
    cap = min(math.ceil(config.t_max / config.step) + 1, max(2, STORE_ELEMENTS // (M * d)))
    store = np.empty((M, cap, d))
    store[:, 0] = Y0
    times = [0.0]
    z_col = _defining_index(structure) if structure.is_singular else None
    z_eps = config.z_epsilon
    bound, fp_eps = config.blowup_bound, config.fp_epsilon
    t_tiny = config.t_max * 1e-14
    t_snap = config.t_max - config.step * 1e-9

    active = np.arange(M)
    Y = Y0
    errors = {}
    row_sign = sign[:, 0]
    with np.errstate(all="ignore"):
        K = F(Y, errors)
    for j, exc in errors.items():
        results[j] = exc
    scan = None
    if stop_at_return:
        # orbits imports this module, so its name is looked up here
        from .orbits import first_return_scan

        scan = first_return_scan(structure, h, Y0, K * sign, row_sign)
    fixed = np.max(np.abs(K), axis=1) < fp_eps  # False on NaN rows
    for j in np.flatnonzero(fixed):
        ends[j] = (0, 0.0, Event(0.0, EventKind.FIXED_POINT))
    keep = ~fixed
    keep[list(errors)] = False
    z_side = z_lim = None
    if z_col is not None:
        # The Z event is armed on a row that starts outside the neighborhood.
        # Until it fires, the defining function d keeps the sign it started
        # with, so a step fires it exactly when side * d <= z_eps afterwards.
        # An unarmed row gets the limit -inf, which no finite d reaches.
        d = Y[:, z_col]
        z_side = np.where(d > 0.0, 1.0, -1.0)
        z_lim = np.where(np.abs(d) >= z_eps, z_eps, -np.inf)
    active, Y, K, sign, z_side, z_lim = (
        a if a is None else a[keep] for a in (active, Y, K, sign, z_side, z_lim))

    t = 0.0
    k = 0
    sized = None
    while active.size:
        if active.size != sized:
            # the factors of each step length (the grid has a dozen), for
            # the directions of the rows still active
            sized, factors = active.size, {}
            direction = None if (sign > 0.0).all() else np.repeat(sign, Y0.shape[1], axis=1)
        k0 = k
        Ys, Ks, raised = [Y], [K], []
        with np.errstate(all="ignore"):
            while k - k0 < RETURN_BLOCK and config.t_max - t > t_tiny:
                k += 1
                t_new = k * config.step
                if t_new >= t_snap:
                    t_new = config.t_max
                dt = t_new - t
                steps = factors.get(dt)
                if steps is None:
                    steps = factors[dt] = _rk4_steps(dt, direction)
                failed, late = {}, {}
                Y = _rk4_step(F, Y, K, steps, failed)
                K = F(Y, late)
                raised.append((failed, late))
                Ys.append(Y)
                Ks.append(K)
                times.append(t_new)
                t = t_new

            # the event pass: (steps, rows) arrays of the block
            y_block = np.array(Ys[1:])
            y_max = np.abs(y_block).max(axis=2)  # NaN or inf where a state is not finite
            ok = y_max < np.inf
            for s, (failed, late) in enumerate(raised):
                for j, exc in late.items():
                    if ok[s, j]:
                        ok[s, j] = False
                        failed[j] = exc
            event = ~ok | (y_max > bound) | (np.abs(Ks[1:]).max(axis=2) < fp_eps)
            if z_col is not None:
                fired = ok & (z_side * y_block[:, :, z_col] <= z_lim)
                event |= fired
            ended = event.any(axis=0)

            while k >= store.shape[1]:
                store = np.concatenate([store, np.empty_like(store)], axis=1)
            block = y_block.swapaxes(0, 1)
            if active.size == M:
                store[:, k0 + 1:k + 1] = block
            else:
                store[active, k0 + 1:k + 1] = block
            for j in np.flatnonzero(ended):
                s = int(event[:, j].argmax())
                i, r = k0 + 1 + s, active[j]
                exc = raised[s][0].get(j)
                if exc is not None and not isinstance(exc, _BLOWUP_ERRORS):
                    results[r] = exc
                elif not ok[s, j]:
                    ends[r] = (i - 1, times[i - 1], Event(times[i], EventKind.BLOWUP))
                elif z_col is not None and fired[s, j]:
                    t0, dt = times[i - 1], times[i] - times[i - 1]
                    y0, y1 = Ys[s][j], Ys[s + 1][j]
                    f0, f1 = Ks[s][j] * row_sign[r], Ks[s + 1][j] * row_sign[r]
                    # side * d as Python floats, which bisect faster than numpy scalars
                    z0, z1, g0, g1 = (float(z_side[j] * a[z_col]) for a in (y0, y1, f0, f1))
                    _, tau = _bisect(lambda u: z_eps - hermite(z0, z1, g0, g1, dt, u), dt)
                    store[r, i] = hermite(y0, y1, f0, f1, dt, tau)
                    ends[r] = (i, t0 + tau, Event(t0 + tau, EventKind.REACHED_Z))
                elif y_max[s, j] > bound:
                    ends[r] = (i, times[i], Event(times[i], EventKind.BLOWUP))
                else:
                    ends[r] = (i, times[i], Event(times[i], EventKind.FIXED_POINT))
        if ended.any():
            keep = ~ended
            active, Y, K, sign, z_side, z_lim = (
                a if a is None else a[keep] for a in (active, Y, K, sign, z_side, z_lim))

        if scan is not None and active.size:
            returned = scan(store, times, active, k0, k)
            if returned:
                for j, (i, period) in returned.items():
                    ends[active[j]] = (i, times[i], Event(period, EventKind.RETURNED))
                keep = np.ones(active.size, bool)
                keep[list(returned)] = False
                active, Y, K, sign, z_side, z_lim = (
                    a if a is None else a[keep] for a in (active, Y, K, sign, z_side, z_lim))
        if config.t_max - t <= t_tiny:
            for r in active:
                ends[r] = (k, times[k], Event(config.t_max, EventKind.T_MAX))
            break

    grid = np.array(times)
    for r, (last, t_last, event) in ends.items():
        row_times = grid[:last + 1].copy()
        row_times[last] = t_last
        results[r] = Trajectory(times=row_times, ys=store[r, :last + 1], events=(event,),
                                structure=structure, hamiltonian=h, direction=int(row_sign[r]))
    return results


def _amax(values):
    """``np.max`` of floats that are >= 0 or NaN: NaN when any of them is,
    where Python's ``max`` returns a NaN only when it comes first."""
    total = sum(values)  # NaN exactly when a value is: inf + inf is inf
    return max(values) if total == total else total


def _integrate_adaptive(structure, h, F, sign, y, config) -> Trajectory:
    """Adaptive DP5 run of one row.

    The row is a list of floats and every field evaluation goes through the
    one-row form ``F.row``; the samples become the trajectory's arrays once,
    at the end.  A trial that raises is retried with a quarter of its step,
    as a non-finite one is; at the ``2 * MIN_STEP`` floor, a blowup error
    ends the run in ``blowup`` and any other error is raised.
    """
    row = F.row
    f = row if sign == 1.0 else (lambda x: [-v for v in row(x)])  # -v has the bits of -1.0 * v
    y = y.tolist()
    f_cur = f(y)

    times = [0.0]
    samples = [y]

    def finish(event):
        return Trajectory(times=np.array(times), ys=np.array(samples), events=(event,),
                          structure=structure, hamiltonian=h, direction=int(sign))

    if _amax([abs(v) for v in f_cur]) < config.fp_epsilon:
        return finish(Event(0.0, EventKind.FIXED_POINT))

    z_armed = False
    z_eps = config.z_epsilon
    if structure.is_singular:
        z_idx = _defining_index(structure)
        z_armed = abs(y[z_idx]) >= z_eps
        z_side = 1.0 if y[z_idx] > 0.0 else -1.0

    abs_tol, rel_tol = config.abs_tol, config.rel_tol
    t = 0.0
    dt_next = config.step
    while True:
        remaining = config.t_max - t
        if remaining <= config.t_max * 1e-14:
            return finish(Event(config.t_max, EventKind.T_MAX))

        accepted = None
        dt = min(dt_next, config.t_max / 10.0, remaining)
        while accepted is None:
            dt = max(dt, MIN_STEP)
            try:
                y_trial, err, stages = _dp_step(f, y, dt, f_cur)
            except Exception as exc:  # a stage left the field's domain
                if dt <= 2 * MIN_STEP and not isinstance(exc, _BLOWUP_ERRORS):
                    raise
                y_trial = [math.nan]
            if not all(map(math.isfinite, y_trial)):
                if dt <= 2 * MIN_STEP:
                    return finish(Event(t + dt, EventKind.BLOWUP))
                dt = max(0.25 * dt, MIN_STEP)
                continue
            err_norm = _amax([abs(e) / (abs_tol + rel_tol * max(abs(a), abs(b)))
                              for e, a, b in zip(err, y, y_trial)])
            if err_norm <= 1.0 or dt <= 2 * MIN_STEP:
                accepted = (y_trial, stages)
                factor = STEP_GROW if err_norm == 0.0 else min(
                    STEP_GROW, max(STEP_SHRINK, STEP_SAFETY * err_norm ** -0.2))
                dt_next = dt * factor
            else:
                dt = dt * max(STEP_SHRINK, STEP_SAFETY * err_norm ** -0.2)
        y_new, stages = accepted
        t_new = t + dt
        if remaining - dt <= config.t_max * 1e-14:
            t_new = config.t_max

        if z_armed and z_side * y_new[z_idx] <= z_eps:
            _, tau = _bisect(lambda u: z_eps - z_side * _dp_dense(y, stages, dt, u)[z_idx], dt)
            times.append(t + tau)
            samples.append(_dp_dense(y, stages, dt, tau))
            return finish(Event(t + tau, EventKind.REACHED_Z))

        times.append(t_new)
        samples.append(y_new)

        if _amax([abs(v) for v in y_new]) > config.blowup_bound:
            return finish(Event(t_new, EventKind.BLOWUP))
        f_cur = stages[6]
        if _amax([abs(v) for v in f_cur]) < config.fp_epsilon:
            return finish(Event(t_new, EventKind.FIXED_POINT))

        y = y_new
        t = t_new


def merge_backward_forward(backward: Trajectory, forward: Trajectory) -> Trajectory:
    """Join a backward run (negated field) and a forward run from the same
    initial state into one trajectory parametrized from -t_back to +t_fwd."""
    if backward.structure is not forward.structure and backward.structure != forward.structure:
        raise ValueError("trajectories belong to different structures")
    if not np.allclose(backward.ys[0], forward.ys[0], rtol=0.0, atol=0.0):
        raise ValueError("trajectories must share the initial state")
    times = np.concatenate([-backward.times[::-1][:-1], forward.times])
    ys = np.vstack([backward.ys[::-1][:-1], forward.ys])
    back_events = tuple(Event(-e.time, e.kind) for e in reversed(backward.events))
    return Trajectory(times=times, ys=ys, events=back_events + tuple(forward.events),
                      structure=forward.structure, hamiltonian=forward.hamiltonian)


def sign_preservation_check(traj: Trajectory, structure: Optional[PhaseStructure] = None,
                            z_epsilon: float = 1e-6) -> bool:
    """True when the critical-set coordinate never changes sign along ``traj``.

    The terminal sample is exempt when it sits inside the ``z_epsilon``
    neighborhood (an orbit that just reached Z still preserves sign).  For a
    canonical structure, which has no critical set of its own, the momentum
    at ``singular_index`` is monitored instead so classical runs can be
    compared against their twisted counterparts.
    """
    if structure is None:
        structure = traj.structure
    if structure.is_singular:
        idx = _defining_index(structure)
    else:
        idx = structure.n + structure.singular_index
    d = traj.ys[:, idx]
    if d.size > 1 and abs(d[-1]) < z_epsilon:
        d = d[:-1]
    signs = np.sign(d[np.abs(d) > 0.0])
    return bool(signs.size == 0 or np.all(signs == signs[0]))
