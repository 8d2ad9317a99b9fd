"""Explicit Runge-Kutta integration of the singular Hamiltonian fields.

Two schemes are provided: classic fixed-step RK4 and adaptive DOP853,
Hairer's 8th-order method with embedded 5th- and 3rd-order error estimates
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.10; scipy's ``DOP853``).
Both are explicit: the fields are smooth
on all of phase space (the bivector degenerates instead of blowing up), and
correctness is checked against closed-form oracles rather than long-time
structure preservation.

Runs terminate on the first of five events:

* ``reached_Z_neighborhood`` -- ``side * d <= limit`` after a step: ``d`` is
  the defining function of the critical set, ``side`` its initial sign and
  ``limit`` ``z_epsilon`` on a run that starts off that neighborhood, else
  -inf (as without a critical set); time and sample are located by
  bisection on the step's own interpolant (see Interpolation).
* ``fixed_point``            -- the field magnitude falls below ``fp_epsilon``.
* ``blowup``                 -- a state component exceeds ``blowup_bound`` or a
  field evaluation stops being finite, or an adaptive trial at the least
  step fails (no adaptive step is accepted without its error test).
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
velocities are read as derivatives (:func:`_rk4_steps`); a backward DOP853
row negates each velocity.  Fixed-step RK4 advances all rows in lockstep on the
shared time grid ``t = k * step``, in blocks of ``RETURN_BLOCK`` steps; each
row keeps its own events and leaves the batch when one fires.  Each RK4
stage is one call of the batch kernel, which isolates a row that raises
(``F(Y, errors)``), so that it cannot stop the others.  No step is tested
on its own: at 14 to 32 rows a numpy call costs the same whatever the row
count, so one pass over a block's samples finds each row's first event,
and the rows that end inside the block are carried to its end, their extra
samples discarded.  Adaptive DOP853 rows choose their own steps and are
advanced one at a time, on Python floats: the state and the stages are
lists, each stage is a scalar weighted sum per component, added in stage
order from 0 with the zero weights kept, and the field is the kernel's
one-row form ``F.row``, which a forward row calls without negating it.  At
2 to 6 floats a row, this costs less than numpy's per-call overhead on
arrays that small.  A row's trajectory is the same, to the bit, in any
batch; :func:`integrate` is the one-row case.  A batch sets numpy's error
state once, for both drivers: an overflow ends its row, and never warns.

Interpolation
-------------
:meth:`Trajectory.interpolate` is the one interpolant of a run: the state a
time ``tau`` into the step that ends at a sample.  On a fixed-step run it
is the cubic Hermite on the step's two samples and their velocities; on an
adaptive run it is DOP853's 7th-order dense output.  An adaptive trajectory
keeps only the length of each accepted step, and the interpolant runs the
step again from its first sample, which gives the accepted stages to the
bit; keeping the 13 stages of every step would hold 13 times the floats of
the samples.  The Z event is located on the same interpolant while the
run has the step's stages at hand, the first-return search of
:func:`~bhamsys.orbits.classify_orbit` refines its crossings on it, and
``timescale`` samples a run in physical time on it.

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
from functools import cached_property
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
    "integrate",
    "integrate_batch",
    "merge_backward_forward",
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
    than ``t_max``, and only the first trial step of adaptive DOP853, which
    clamps it to ``t_max / 10``; every other field is a positive number, and
    ``t_max`` a finite one."""

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
        if not math.isfinite(self.t_max):
            raise ValueError("t_max must be finite")
        if self.method is Method.RK4_FIXED and not self.step < self.t_max:
            raise ValueError(f"step must be smaller than t_max {self.t_max!r}, "
                             f"got {self.step!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped phase samples with event annotations.

    ``ys`` has one flat phase vector per row in the coordinate order of
    :mod:`bhamsys.geometry`.  ``events`` holds at least one entry and its
    last element is the terminal event of the run.  ``direction`` is ``-1``
    for a run of the negated field (a backward run), else ``1``.
    ``step_lengths`` holds, on an adaptive run, the length of the accepted
    step that ends at each sample after the first; a sample that ends the
    run at an event lies inside its step.  It is None on a fixed-step run
    and on a joined one (:func:`merge_backward_forward`).  Its arrays are
    read-only: one given read-only is kept as it is, any other is copied,
    so the caller's own arrays stay writable.
    """

    times: np.ndarray
    ys: np.ndarray
    events: tuple
    structure: PhaseStructure
    hamiltonian: object
    direction: int = 1
    step_lengths: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("times", "ys", "step_lengths"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a, dtype=float)
                if a.flags.writeable:  # possibly the caller's: keep a copy
                    a = a.copy()
                    a.setflags(write=False)
                object.__setattr__(self, name, a)
        times, ys, lengths = self.times, self.ys, self.step_lengths
        if times.ndim != 1 or ys.ndim != 2 or ys.shape[0] != times.size:
            raise ValueError("times and ys must have matching leading length")
        if times.size == 0:
            raise ValueError("trajectory must contain at least one sample")
        if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
            raise ValueError("times must be finite and strictly increasing")
        if not self.events:
            raise ValueError("trajectory must carry a terminal event")
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        if lengths is not None and lengths.shape != (times.size - 1,):
            raise ValueError("step_lengths needs one length per sample after the first")
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "_last_step", (None, None))

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

    def interpolate(self, i: int, tau: float) -> np.ndarray:
        """The state ``tau`` into the step that ends at sample ``i``.

        On an adaptive run this is DOP853's dense output: the step is run
        again from ``ys[i - 1]`` with its recorded length, which gives the
        accepted stages to the bit, and three more stages give the
        interpolant.  On any other run it is the cubic Hermite interpolant
        (:func:`hermite`) on the two samples and the field there, along the
        run's direction.  The last step asked for is kept, so a bisection
        on one step runs it once.
        """
        last, at = self._last_step
        if last != i:
            at = self._step_interpolant(i)
            object.__setattr__(self, "_last_step", (i, at))
        return at(tau)

    @cached_property
    def _field(self):
        return compile_field(self.structure, self.hamiltonian)

    def _step_interpolant(self, i: int):
        if not 0 < i < len(self):
            raise IndexError(f"no step ends at sample {i} of {len(self)}")
        F = self._field
        if self.step_lengths is None:
            return _hermite_step(F, self.ys[i - 1], self.ys[i], self.direction,
                                 self.times[i] - self.times[i - 1])
        f = _directed(F, float(self.direction))
        y, dt = self.ys[i - 1].tolist(), float(self.step_lengths[i - 1])
        y8, _, _, stages = _dop_step(f, y, dt, f(y))
        dense = _dop_dense(f, y, y8, stages, dt)
        return lambda tau: np.array(_dop_eval(y, dense, dt, tau))

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
_BLOWUP_ERRORS = (OverflowError, FloatingPointError)


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


# DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*, II.10), with the
# coefficients of scipy's ``DOP853``.  Row i of _DOP_A weighs the stages
# k0 .. k(i-1) into stage i; row 12 gives the 8th-order solution y8, whose
# field is k12; rows 13 to 15 are the three extra stages of the dense output.
# _DOP_E5 and _DOP_E3 weigh k0 .. k12 into the 5th- and 3rd-order error
# estimates, and _DOP_D weighs k0 .. k15 into four of the seven coefficients
# of the dense output.
_DOP_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_DOP_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
           1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
           -0.022355307863886294, 0.0)
_DOP_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
           -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
           0.02265179219836082, 0.0)
_DOP_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


def _weighted(weights, terms):
    """Source of ``0.0 + w0 * t0 + w1 * t1 + ...``: a weighted sum in stage
    order that starts from 0, with every weight a float literal."""
    return "0.0 + " + " + ".join(f"{w!r} * {t}" for w, t in zip(weights, terms))


def _unrolled_step():
    """:func:`_dop_step`, compiled from source that writes every stage sum
    out, one list comprehension per stage; a loop over the tableau's rows
    costs twice as much per step on Python floats."""
    k = [f"k{j}" for j in range(13)]
    v = [f"v{j}" for j in range(13)]
    lines = ["def _dop_step(f, y, dt, k0):"]
    for i, row in enumerate(_DOP_A[:12], 1):
        state = (f"[x + dt * ({_weighted(row, v)}) "
                 f"for x, {', '.join(v[:i])} in zip(y, {', '.join(k[:i])})]")
        lines += [f"    k{i} = f({state})"] if i < 12 else [f"    y8 = {state}", "    k12 = f(y8)"]
    for name, row in (("e5", _DOP_E5), ("e3", _DOP_E3)):
        lines.append(f"    {name} = [{_weighted(row, v)} for {', '.join(v)} in zip({', '.join(k)})]")
    lines.append(f"    return y8, e5, e3, ({', '.join(k)})")
    namespace = {}
    exec(compile("\n".join(lines), "<bhamsys.integrate._dop_step>", "exec"), namespace)
    return namespace["_dop_step"]


_dop_step = _unrolled_step()
_dop_step.__doc__ = """One DOP853 trial step on lists of floats from ``y``, where
``k0 = f(y)``; returns ``(y8, e5, e3, (k0, ..., k12))``, where ``k12`` is
``f(y8)`` and ``e5``, ``e3`` are the 5th- and 3rd-order error sums,
without the factor ``dt``.

Every stage is ``y_j + dt * (0.0 + a0*k0_j + a1*k1_j + ...)``: a weighted
sum in stage order that starts from 0, as numpy's sum over stage rows
does.  The zero weights stay in their sums, so a NaN or inf of any stage
still reaches ``y8``, and one of ``k12`` reaches the error sums, and a sum
of -0.0 terms is +0.0."""


def _dot(weights, column):
    """``0.0 + w0 * c0 + w1 * c1 + ...``, in order: the sum of :func:`_weighted`."""
    total = 0.0
    for w, c in zip(weights, column):
        total += w * c
    return total


def _dop_dense(f, y, y8, stages, dt):
    """The coefficients of DOP853's 7th-order dense output on the step of
    length ``dt`` from ``y`` to ``y8`` with ``stages`` k0 .. k12, one
    7-tuple per component: the three extra stages are evaluated and the
    coefficients formed as scipy's ``DOP853._dense_output_impl`` does, each
    sum as in :func:`_dop_step`."""
    ks = list(stages)
    for row in _DOP_A[12:]:
        ks.append(f([x + dt * _dot(row, col) for x, col in zip(y, zip(*ks))]))
    out = []
    for x, x8, col in zip(y, y8, zip(*ks)):
        dy = x8 - x
        out.append((dy, dt * col[0] - dy, 2.0 * dy - dt * (col[12] + col[0]),
                    *[dt * _dot(row, col) for row in _DOP_D]))
    return out


def _dop_eval(y, dense, dt, tau):
    """The dense output ``tau`` into the step from ``y`` whose coefficients
    are ``dense`` (:func:`_dop_dense`), evaluated as scipy's
    ``Dop853DenseOutput``: from the last coefficient down, multiplied by
    ``u = tau / dt`` and ``1 - u`` in turn."""
    u = tau / dt
    factors = (u, 1.0 - u) * 4
    out = []
    for x, coefficients in zip(y, dense):
        total = 0.0
        for c, factor in zip(reversed(coefficients), factors):
            total = (total + c) * factor
        out.append(x + total)
    return out


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


def _hermite_step(F, y0, y1, sign, dt):
    """The cubic Hermite of a step of length ``dt`` from ``y0`` to ``y1``
    along ``sign``, as a function of the time into the step; its
    derivatives are the field ``F`` at the two ends, times ``sign``."""
    f0, f1 = F(y0) * sign, F(y1) * sign
    return lambda tau: hermite(y0, y1, f0, f1, dt, tau)


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
    alone.  The trajectories of one fixed-step batch are read-only views of
    one shared sample store.

    ``stop_at_return=True`` arms the ``returned_to_start`` event on a
    fixed-step batch: every ``RETURN_BLOCK`` steps, a row ends once the
    first-return search of :func:`~bhamsys.orbits.classify_orbit` finds a
    period in its samples so far.  The event time is that period, and the
    trajectory keeps its samples up to the one where the return was found.
    The search runs only where a row's progress along its initial velocity
    turns from negative to nonnegative near its start.  Adaptive rows run to
    their own end: only the lockstep loop of a fixed-step batch runs the
    search between its blocks.

    Both drivers run under one ``np.errstate(all="ignore")``: an overflowing
    row ends in ``blowup`` and warns of nothing, whatever the filters.
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

    with np.errstate(all="ignore"):
        if config.method is Method.RK_ADAPTIVE:
            for i in valid:
                try:
                    results[i] = _integrate_adaptive(structure, h, F, float(directions[i]),
                                                     rows[i], config)
                except Exception as exc:  # per-row isolation
                    results[i] = exc
        else:
            sign = np.array([[float(directions[i])] for i in valid])
            runs = _integrate_lockstep(structure, h, F, sign,
                                       np.array([rows[i] for i in valid]), config, stop_at_return)
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
    block's samples go into the sample store in one indexed write.  A row
    that ends inside a block, one that raised too, is carried to the
    block's end with the others and its extra samples are never read; rows
    never mix, so the rows that go on keep their bits.  Under the error
    state of :func:`integrate_batch`, no row stops the batch or warns.

    ``sign`` is the column of row directions.  The kernel is never
    negated: a backward row steps ``F`` with ``-step`` (:func:`_rk4_steps`),
    so the velocities kept are those of ``F`` itself, and they take the
    row's sign only where they are read as derivatives: in the Hermite
    interpolant of a Z event and as the initial velocities of the
    first-return search.

    A block has one exit.  With ``stop_at_return``, the new samples of the
    rows it did not end are searched for first returns by
    ``orbits.first_return_scan``, on the cubic Hermite of each step in the
    sample store, and the rows that return join the ended ones.  The active
    set is then compacted once.
    """
    M, d = Y0.shape
    results = [None] * M
    ends = {}
    cap = min(math.ceil(config.t_max / config.step) + 1, max(2, STORE_ELEMENTS // (M * d)))
    store = np.empty((M, cap, d))
    store[:, 0] = Y0
    times = [0.0]
    z_col = _defining_index(structure) if structure.is_singular else 0
    z_eps = config.z_epsilon
    bound, fp_eps = config.blowup_bound, config.fp_epsilon
    t_tiny = config.t_max * 1e-14
    t_snap = config.t_max - config.step * 1e-9

    active = np.arange(M)
    Y = Y0
    errors = {}
    row_sign = sign[:, 0]
    K = F(Y, errors)
    for j, exc in errors.items():
        results[j] = exc
    scan = None
    if stop_at_return:
        # orbits imports this module, so its name is looked up here
        from .orbits import first_return_scan

        scan = first_return_scan(structure, h, Y0, K * sign)

        def hermite_step(r, i):
            return _hermite_step(F, store[r, i - 1], store[r, i], row_sign[r],
                                 times[i] - times[i - 1])
    fixed = np.max(np.abs(K), axis=1) < fp_eps  # False on NaN rows
    for j in np.flatnonzero(fixed):
        ends[j] = (0, 0.0, Event(0.0, EventKind.FIXED_POINT))
    keep = ~fixed
    keep[list(errors)] = False
    # The Z event is armed on a row that starts outside the neighborhood.
    # Until it fires, the defining function d keeps the sign it started
    # with, so a step fires it exactly when side * d <= z_eps afterwards.  An
    # unarmed row, and any row without Z (column 0), gets the limit -inf.
    d = Y[:, z_col]
    z_side = np.where(d > 0.0, 1.0, -1.0)
    z_lim = np.where(structure.is_singular & (np.abs(d) >= z_eps), z_eps, -np.inf)
    active, Y, K, sign, z_side, z_lim = (a[keep] for a in (active, Y, K, sign, z_side, z_lim))

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
        fired = ok & (z_side * y_block[:, :, z_col] <= z_lim)
        event = ~ok | fired | (y_max > bound) | (np.abs(Ks[1:]).max(axis=2) < fp_eps)
        ended = event.any(axis=0)

        while k >= store.shape[1]:
            store = np.concatenate([store, np.empty_like(store)], axis=1)
        store[active, k0 + 1:k + 1] = y_block.swapaxes(0, 1)
        for j in np.flatnonzero(ended):
            s = int(event[:, j].argmax())
            i, r = k0 + 1 + s, active[j]
            exc = raised[s][0].get(j)
            if exc is not None and not isinstance(exc, _BLOWUP_ERRORS):
                results[r] = exc
            elif not ok[s, j]:
                ends[r] = (i - 1, times[i - 1], Event(times[i], EventKind.BLOWUP))
            elif fired[s, j]:
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
        if scan is not None:
            going = np.flatnonzero(~ended)
            for j, (i, period) in scan(store, times, active[going], k0, k, hermite_step).items():
                ends[active[going[j]]] = (i, times[i], Event(period, EventKind.RETURNED))
                ended[going[j]] = True
        if ended.any():
            keep = ~ended
            active, Y, K, sign, z_side, z_lim = (
                a[keep] for a in (active, Y, K, sign, z_side, z_lim))
        if config.t_max - t <= t_tiny:
            for r in active:
                ends[r] = (k, times[k], Event(config.t_max, EventKind.T_MAX))
            break

    grid = np.array(times)
    store.setflags(write=False)
    for r, (last, t_last, event) in ends.items():
        results[r] = Trajectory(times=np.append(grid[:last], t_last), ys=store[r, :last + 1],
                                events=(event,), structure=structure, hamiltonian=h,
                                direction=int(row_sign[r]))
    return results


def _amax(values):
    """``np.max`` of floats that are >= 0 or NaN: NaN when any of them is,
    where Python's ``max`` returns a NaN only when it comes first."""
    total = sum(values)  # NaN exactly when a value is: inf + inf is inf
    return max(values) if total == total else total


def _directed(F, sign):
    """The one-row field of a run along ``sign``: ``F.row``, or its
    negation, entry by entry (``-v`` has the bits of ``-1.0 * v``)."""
    row = F.row
    return row if sign == 1.0 else (lambda x: [-v for v in row(x)])


def _integrate_adaptive(structure, h, F, sign, y, config) -> Trajectory:
    """Adaptive DOP853 run of one row.

    The row is a list of floats and every field evaluation goes through the
    one-row form ``F.row``; the samples become the trajectory's arrays once,
    at the end, with the length of each accepted step.  The error of a trial
    is Hairer's: with the scale ``abs_tol + rel_tol * max(|y|, |y8|)`` per
    component and ``n5``, ``n3`` the max-norms of the two error sums over
    it, ``dt * n5**2 / sqrt(n5**2 + 0.01 * n3**2)``; the next step is
    ``0.9 * err**(-1/8)`` times this one, within ``[STEP_SHRINK,
    STEP_GROW]``.  A trial is accepted only when its error norm is at most
    1; one that fails is retried with a quarter of its step when its state
    is not finite or it raises, else with the factor of its norm
    (``STEP_SHRINK`` for a NaN).  No trial is shorter than the floor
    ``max(MIN_STEP, 10 * ulp(t))``, scipy's rule, so every accepted step
    moves t; at twice the floor a failing trial ends the run in ``blowup``
    at ``t + dt``, and an error that is not a blowup error is raised.
    """
    f = _directed(F, sign)
    y = y.tolist()
    f_cur = f(y)

    times = [0.0]
    samples = [y]
    lengths = []

    def finish(event):
        return Trajectory(times=times, ys=samples, events=(event,), structure=structure,
                          hamiltonian=h, direction=int(sign), step_lengths=lengths)

    if _amax([abs(v) for v in f_cur]) < config.fp_epsilon:
        return finish(Event(0.0, EventKind.FIXED_POINT))

    # the Z rule of _integrate_lockstep, on one row
    z_eps = config.z_epsilon
    z_idx = _defining_index(structure) if structure.is_singular else 0
    z_side = 1.0 if y[z_idx] > 0.0 else -1.0
    z_lim = z_eps if structure.is_singular and abs(y[z_idx]) >= z_eps else -math.inf
    abs_tol, rel_tol = config.abs_tol, config.rel_tol
    t = 0.0
    dt_next = config.step
    while True:
        remaining = config.t_max - t
        if remaining <= config.t_max * 1e-14:
            return finish(Event(config.t_max, EventKind.T_MAX))

        dt = min(dt_next, config.t_max / 10.0, remaining)
        # scipy's floor (_ivp/rk.py): a step of at least 10 ulps of t moves t
        floor = max(MIN_STEP, 10.0 * (math.nextafter(t, math.inf) - t))
        while True:
            dt = max(dt, floor)
            try:
                y_new, e5, e3, stages = _dop_step(f, y, dt, f_cur)
            except Exception as exc:  # a stage left the field's domain
                if dt <= 2 * floor and not isinstance(exc, _BLOWUP_ERRORS):
                    raise
                y_new = [math.nan]
            err_norm, factor = math.nan, 0.25
            if all(map(math.isfinite, y_new)):
                scale = [abs_tol + rel_tol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
                n5 = _amax([abs(e) / s for e, s in zip(e5, scale)])
                n3 = _amax([abs(e) / s for e, s in zip(e3, scale)])
                err_norm = 0.0 if n5 == 0.0 and n3 == 0.0 else \
                    dt * (n5 * n5) / math.sqrt(n5 * n5 + 0.01 * (n3 * n3))
                factor = STEP_GROW if err_norm == 0.0 else min(
                    STEP_GROW, max(STEP_SHRINK, STEP_SAFETY * err_norm ** -0.125))
            if err_norm <= 1.0:
                break
            if dt <= 2 * floor:
                return finish(Event(t + dt, EventKind.BLOWUP))
            dt *= factor
        dt_next = dt * factor
        t_new = t + dt
        if remaining - dt <= config.t_max * 1e-14:
            t_new = config.t_max
        lengths.append(dt)

        if z_side * y_new[z_idx] <= z_lim:
            dense = _dop_dense(f, y, y_new, stages, dt)
            _, tau = _bisect(lambda u: z_eps - z_side * _dop_eval(y, dense, dt, u)[z_idx], dt)
            times.append(t + tau)
            samples.append(_dop_eval(y, dense, dt, tau))
            return finish(Event(t + tau, EventKind.REACHED_Z))

        times.append(t_new)
        samples.append(y_new)

        if _amax([abs(v) for v in y_new]) > config.blowup_bound:
            return finish(Event(t_new, EventKind.BLOWUP))
        f_cur = stages[12]
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
