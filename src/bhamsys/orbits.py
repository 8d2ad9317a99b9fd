"""Qualitative classification of trajectories and phase-portrait sampling.

Under the twisted structure, orbits that would cross the momentum axis in
the classical picture break into escape orbits asymptotic to the critical
set, punctual orbits on the set itself, and (for the pure quadratic
potential) closed curves assembled from two heteroclinic halves joined by
two fixed points.  This module detects those types:

* ``fixed_point``            -- the field vanished at the initial state.
* ``escape_orbit``           -- the run terminated in the Z neighborhood.
* ``periodic``               -- the state returns to its initial value (angles
  compared on the circle) with nonvanishing speed.  Detected by one search,
  :func:`first_return_scan`: the crossings of the hyperplane normal to the
  initial velocity of the field the run followed (negated on a backward
  run), near the initial state (within a gate widened by the step's
  chord), are each refined once, in order, by the shared bisection
  ``integrate._bisect`` on the interpolant of the step
  (``Trajectory.interpolate``: the cubic Hermite of a fixed-step run,
  DOP853's dense output of an adaptive one), until one returns.  The
  period is the time of that return; its crossing must end sample
  ``MIN_PERIOD_STEPS`` or a later one, a floor counted in samples, not in
  time, so that it holds for any prefix of a run and does not pass over
  the first return of an adaptive run's long steps.  A fixed-step run made with
  ``integrate_batch(..., stop_at_return=True)`` (as CLI ``classify`` makes
  them) runs this search on each block of its samples and ends at the
  crossing where it finds the return (event ``returned_to_start``), so the
  first return settles the run: an event that the run continued to
  ``t_max`` would meet later (the Z neighborhood, a blowup, a field error)
  no longer changes the result, and a row that has returned is
  ``periodic``, with the period of its event.  Any other run is searched
  as one block, and a continued run gives the same period, to the bit.
* ``heteroclinic_segment``   -- a two-sided trajectory whose both ends reached
  the Z neighborhood.
* ``unbounded``              -- the run blew up.
* ``undetermined``           -- none of the above within the horizon.  Orbits
  on (or extremely close to) a separatrix land here by construction: they
  neither return nor reach Z in finite time, and no guess is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Optional

import numpy as np

from .geometry import PhaseState, PhaseStructure, StructureKind, compile_field
from .hamiltonians import HamiltonianSpec, PotentialFamily
from .integrate import (EventKind, IntegratorConfig, Trajectory, _bisect, integrate,
                        integrate_batch, merge_backward_forward)

__all__ = [
    "OrbitKind",
    "OrbitClassification",
    "SingularPeriodicOrbit",
    "PortraitRecord",
    "classify_orbit",
    "phase_portrait",
    "level_set_residual",
    "assemble_singular_periodic",
]

#: Max-norm ball (angles on the circle) for the first-return test.
RETURN_BALL = 1e-6

#: A return is sought only at a crossing that ends this sample or a later one.
MIN_PERIOD_STEPS = 3


class OrbitKind(str, Enum):
    FIXED_POINT = "fixed_point"
    ESCAPE_ORBIT = "escape_orbit"
    PERIODIC = "periodic"
    UNBOUNDED = "unbounded"
    HETEROCLINIC_SEGMENT = "heteroclinic_segment"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class OrbitClassification:
    kind: OrbitKind
    period: Optional[float] = None
    limit_state: Optional[PhaseState] = None

    def __post_init__(self):
        if (self.kind is OrbitKind.PERIODIC) != (self.period is not None):
            raise ValueError("period must be present exactly for periodic orbits")


@dataclass(frozen=True)
class SingularPeriodicOrbit:
    """Closed invariant set made of two heteroclinic halves plus the two
    fixed points on the critical set joining them."""

    upper_segment: Trajectory
    lower_segment: Trajectory
    endpoints: tuple


@dataclass
class PortraitRecord:
    initial: PhaseState
    trajectory: Optional[Trajectory]
    backward: Optional[Trajectory]
    classification: OrbitClassification
    error: Optional[Exception] = None


def _angular_delta(ys: np.ndarray, x0: np.ndarray, angular_idx: np.ndarray) -> np.ndarray:
    """Row-wise difference to x0 with angular coordinates wrapped to (-pi, pi]."""
    d = ys - x0
    if angular_idx.size:
        d[..., angular_idx] = np.mod(d[..., angular_idx] + np.pi, 2 * np.pi) - np.pi
    return d


def _angular_columns(structure: PhaseStructure) -> np.ndarray:
    return np.array([i for i, a in enumerate(structure.angular_mask) if a], dtype=int)


def _return_frame(x0: np.ndarray, v0: np.ndarray) -> Optional[tuple]:
    """``(v0n, gate)`` of a run from ``x0`` with initial velocity ``v0``: the
    unit normal of the return hyperplane, and the distance to ``x0`` within
    which a crossing of it is tested; None when the speed is below 1e-12."""
    speed = float(np.linalg.norm(v0))
    if speed < 1e-12:
        return None
    return v0 / speed, max(0.05 * (1.0 + float(np.max(np.abs(x0)))), 100.0 * RETURN_BALL)


def _crossings(progress: np.ndarray, dist: np.ndarray, gate) -> np.ndarray:
    """Along the last axis, whether the progress turns from negative to
    nonnegative between samples ``i - 1`` and ``i`` with one of the two
    within ``gate`` of the initial state: the crossings a return is sought
    at."""
    return ((progress[..., :-1] < 0.0) & (progress[..., 1:] >= 0.0)
            & (np.minimum(dist[..., :-1], dist[..., 1:]) <= gate))


def first_return_scan(structure: PhaseStructure, h, Y0: np.ndarray, K0: np.ndarray):
    """The first-return search of runs started at the rows of ``Y0``, with
    directed initial velocities ``K0``.

    Returns ``scan(store, times, rows, lo, hi, interpolant)``:
    ``{j: (i, period)}`` for each row ``rows[j]`` of the sample ``store``
    (on the time grid ``times``) whose first return is found at a sample
    ``i`` in ``lo + 1 .. hi``.  ``interpolant(r, i)`` is the interpolant of
    row ``r``'s step into sample ``i``, as a function of the time into that
    step.  Each crossing of :func:`_crossings` among those samples is
    refined once, in order, until one returns: the shared bisection
    ``integrate._bisect`` finds where the progress turns nonnegative on the
    step's interpolant, and that time is the ``period`` when the state there
    lies within ``RETURN_BALL`` of the start, the field there does not
    vanish, and ``i`` is at least ``MIN_PERIOD_STEPS``.  The gate of a
    crossing is widened by its step's chord, the largest change of a
    coordinate over the step, so that a return between two long steps is
    still refined.  A row without a return frame gets the
    gate -1, which no distance passes.
    """
    F = compile_field(structure, h)
    frames = [_return_frame(x0, v0) for x0, v0 in zip(Y0, K0)]
    v0n = np.array([np.zeros_like(x0) if fr is None else fr[0] for x0, fr in zip(Y0, frames)])
    gate = np.array([[-1.0 if fr is None else fr[1]] for fr in frames])
    angular_idx = _angular_columns(structure)

    def refine(r, at, times, i) -> Optional[float]:
        if i < MIN_PERIOD_STEPS:
            return None
        x0, v = Y0[r], v0n[r]

        def prog(tau):
            return float(_angular_delta(at(tau), x0, angular_idx) @ v)

        tau = 0.5 * sum(_bisect(prog, times[i] - times[i - 1]))
        y_ret = at(tau)
        d_ret = float(np.max(np.abs(_angular_delta(y_ret, x0, angular_idx))))
        if d_ret < RETURN_BALL and np.max(np.abs(F(y_ret))) > 1e-12:
            return float(times[i - 1] + tau)
        return None

    def scan(store, times, rows, lo, hi, interpolant) -> dict:
        ys = store[rows, lo:hi + 1]
        deltas = _angular_delta(ys, Y0[rows, None], angular_idx)
        progress = (deltas @ v0n[rows, :, None])[..., 0]
        chord = np.abs(np.diff(ys, axis=1)).max(axis=2)
        candidates = _crossings(progress, np.abs(deltas).max(axis=2),
                                np.where(gate[rows] < 0.0, -1.0, gate[rows] + chord))
        found = {}
        for j, c in zip(*np.nonzero(candidates)):
            if j not in found:
                r, i = rows[j], lo + 1 + int(c)
                period = refine(r, interpolant(r, i), times, i)
                if period is not None:
                    found[j] = (i, period)
        return found

    return scan


def classify_orbit(traj: Trajectory) -> OrbitClassification:
    """Assign one of the qualitative orbit types to a trajectory."""
    terminal = traj.terminal_event

    if terminal.kind is EventKind.FIXED_POINT and len(traj) == 1:
        return OrbitClassification(OrbitKind.FIXED_POINT)
    if terminal.kind is EventKind.REACHED_Z:
        first = traj.events[0]
        if first is not terminal and first.kind is EventKind.REACHED_Z and first.time < 0:
            return OrbitClassification(OrbitKind.HETEROCLINIC_SEGMENT,
                                       limit_state=traj.final_state)
        return OrbitClassification(OrbitKind.ESCAPE_ORBIT, limit_state=traj.final_state)
    if terminal.kind is EventKind.RETURNED:
        # the batch's scan found this period on these samples
        return OrbitClassification(OrbitKind.PERIODIC, period=terminal.time)
    # the same scan, over the whole run as one block, on the run's interpolant;
    # an extreme state overflows there as it did in the run, silently
    ys = traj.ys
    with np.errstate(all="ignore"):
        K0 = compile_field(traj.structure, traj.hamiltonian)(ys[:1]) * traj.direction
        scan = first_return_scan(traj.structure, traj.hamiltonian, ys[:1], K0)
        returned = scan(ys[None], traj.times, np.zeros(1, int), 0, len(ys) - 1,
                        lambda r, i: partial(traj.interpolate, i))
    if returned:
        return OrbitClassification(OrbitKind.PERIODIC, period=returned[0][1])
    if terminal.kind is EventKind.BLOWUP:
        return OrbitClassification(OrbitKind.UNBOUNDED)
    return OrbitClassification(OrbitKind.UNDETERMINED)


def phase_portrait(structure: PhaseStructure, h, grid, config: IntegratorConfig,
                   include_backward: bool = True) -> list:
    """Integrate and classify every initial condition in ``grid``.

    The forward runs and the backward runs (the negated field) of all
    initial conditions go through one :func:`integrate_batch` call.
    Per-record failures are recorded on the record and never abort the
    batch; the output order matches the input order.
    """
    if not grid:
        raise ValueError("grid must contain at least one initial condition")
    starts = [initial.to_array() for initial in grid]
    directions = [1] * len(grid)
    if include_backward:
        starts += starts
        directions += [-1] * len(grid)
    runs = integrate_batch(structure, h, starts, config, directions)
    records = []
    for i, initial in enumerate(grid):
        forward = runs[i]
        backward = runs[len(grid) + i] if include_backward else None
        try:
            for run in (forward, backward):
                if isinstance(run, Exception):
                    raise run
            cls = classify_orbit(forward)
            records.append(PortraitRecord(initial, forward, backward, cls))
        except Exception as exc:  # per-record isolation
            records.append(PortraitRecord(
                initial, None, None, OrbitClassification(OrbitKind.UNDETERMINED), error=exc))
    return records


def level_set_residual(traj: Trajectory) -> float:
    """Max deviation of H from its initial value along the trajectory."""
    h = traj.hamiltonian
    values = np.array([h.value(traj.state(i)) for i in range(len(traj))])
    return float(np.max(np.abs(values - values[0])))


def assemble_singular_periodic(structure: PhaseStructure, h: HamiltonianSpec,
                               energy: float,
                               config: Optional[IntegratorConfig] = None) -> SingularPeriodicOrbit:
    """Assemble the closed orbit of the twisted pure-quadratic system at the
    given energy: two heteroclinic halves launched from the momentum axis,
    each integrated in both time directions until the Z neighborhood, with
    the two limit endpoints on the critical set.

    The endpoints sit at ``q = +/- 2 sqrt(energy/lam)`` and are returned with
    the singular momentum projected to zero.
    """
    if structure.kind is not StructureKind.TWISTED_B:
        raise ValueError("singular periodic orbits live on the twisted structure")
    if h.potential.family is not PotentialFamily.PURE_QUADRATIC:
        raise ValueError("expected the pure_quadratic potential family")
    if not energy > 0.0:
        raise ValueError("energy must be > 0 (the zero-energy orbit degenerates to a point)")

    lam = h.potential.lam
    p0 = math.sqrt(2.0 * energy)
    if config is None:
        z_eps = 1e-6
        rate = math.sqrt(lam * energy)
        t_need = math.log(p0 / z_eps) / rate
        config = IntegratorConfig(step=1e-3, t_max=2.0 * t_need + 5.0, z_epsilon=z_eps)

    k = structure.singular_index

    def half_orbit(sign):
        q_init = np.zeros(structure.n)
        p_init = np.zeros(structure.n)
        p_init[k] = sign * p0
        start = PhaseState(q=q_init, p=p_init)
        fwd = integrate(structure, h, start, config)
        bwd = integrate(structure, h, start, config, direction=-1)
        for run, label in ((fwd, "forward"), (bwd, "backward")):
            if run.terminal_event.kind is not EventKind.REACHED_Z:
                raise RuntimeError(
                    f"{label} segment ended with {run.terminal_event.kind.value}, "
                    "not in the Z neighborhood; increase t_max")
        return merge_backward_forward(bwd, fwd)

    upper = half_orbit(+1)
    lower = half_orbit(-1)

    def on_z(state: PhaseState) -> PhaseState:
        p = state.p.copy()
        p[k] = 0.0
        return PhaseState(q=state.q, p=p)

    endpoints = (on_z(upper.state(0)), on_z(upper.final_state))
    return SingularPeriodicOrbit(upper_segment=upper, lower_segment=lower,
                                 endpoints=endpoints)
