"""Friction from a time rescaling on an extended phase space.

The configuration space is extended by the physical time t, with conjugate
energy E, and the flow of the paper runs in a curvilinear parameter sigma.
Two charts:

1. ``build_rescaled_extended``: H = |p|^2/2 + exp(2*lam*t)/lam^2 * V
   - exp(lam*t)/lam * E with the pairing ``sum_i dp_i ^ dq_i - dE ^ dt``.
   Here dt/dsigma = exp(lam*t)/lam, so physical time accelerates relative
   to the curvilinear parameter, sigma = 1 - exp(-lam*t), and, after
   projecting out (t, E), the base motion obeys the damped Newton equation
   d2q/dt2 = -lam dq/dt - dV/dq.
2. ``to_s_coordinates``: the substitution s = exp(-lam*t), E_s = E/lam turns
   the pairing into the non-twisted singular form on the (s, E_s) pair and
   the Hamiltonian into |p|^2/2 + V/(lam*s)^2 - E_s/s, whose singularity at
   s = 0 is of second order (s^2 * H stays finite there for bounded V, one
   degree worse than the form itself).  Along the flow of H, s decays at
   unit curvilinear speed (ds/dsigma = -1).

Runs are integrated in physical time.  ``poincare_transform`` replaces H by
Poincare's K = g*H with g = dsigma/dt (g = lam*exp(-lam*t) on clock t,
g = lam*s on clock s; Hairer, Lubich & Wanner, *Geometric Numerical
Integration*, VIII.2), on the same structure.  The runs start on H = 0, and
there the field of K is g times that of H, so dt/dtau = 1 along the run:
the integrator's clock tau is physical time, a run ends at t_max = T
exactly, and the curvilinear parameter follows from t as
sigma = 1 - exp(-lam*t).

Conventions: s = exp(-lam*t) is kept in (0, 1] for t >= 0.  Momenta relate
to physical velocity by dq/dt = lam*exp(-lam*t)*p = lam*s*p, so an initial
velocity v0 at t = 0 enters as p0 = v0/lam, and E starts on the zero level
of H.  K is linear in E with a constant coefficient, so no partial that
moves q, p, t or s reads E.

``run_rescaled`` and ``run_s_coordinates`` integrate K in the t chart and
in the s chart from physical time 0 to a horizon T.  Both run
``DEFAULT_CONFIG`` unless given a configuration, with ``t_max`` replaced by
T and, on clock s, ``z_epsilon`` set by T (:func:`horizon_config`), and
return the integrator's plain ``Trajectory``, whose Hamiltonian carries lam
and the chart and whose times are physical times.
``reconstruct_real_time`` projects such a run back to (q(t), dq/dt), which
``RealTimeTrajectory.sample`` reads between samples off the run's own
interpolant (``Trajectory.interpolate``), and is validated against the
independent damped-Newton oracle in :mod:`bhamsys.oracles`.  It takes runs
of K alone: a run of H itself, whose clock is the curvilinear parameter,
is refused.

One limit remains, measured with the default ``blowup_bound`` 1e30 of
``DEFAULT_CONFIG``: the momentum p = exp(lam*t) v / lam and the energy
E = exp(lam*t) (|v|^2/2 + V) / lam grow with t unless the motion decays as
fast as exp(-lam*t), and a run ends in ``blowup``, which the runners raise
as ``RuntimeError``, once one of them passes the bound.  That starts at
friction * horizon of about 64 to 71 where v^2/2 + V tends to a nonzero
value or grows (``linear``, and ``general_quadratic`` or ``periodic``, whose
minimum of V is not 0), at about 138 for an underdamped ``pure_quadratic``
(|p| grows as exp(lam*t/2)) and earlier for an overdamped one (83 at
friction 2, potential lambda 1).  It never starts for ``zero``, where p
stays v0/lam; there clock t ends in ``blowup`` where exp(lam*t) overflows,
at lam*t = 700, and clock s refuses a horizon past lam*T of about 744,
where its ``z_epsilon`` exp(-lam*T)/2 underflows to 0
(:func:`s_chart_z_epsilon`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import PhaseState, PhaseStructure, StructureKind
from .hamiltonians import (ExtendedKind, HamiltonianSpec, PotentialSpec,
                           potential_gradient, potential_value)
from .integrate import EventKind, IntegratorConfig, Method, Trajectory, integrate

__all__ = [
    "RealTimeTrajectory",
    "to_s_state",
    "build_rescaled_extended",
    "to_s_coordinates",
    "rescaled_initial_state",
    "poincare_transform",
    "run_rescaled",
    "run_s_coordinates",
    "s_chart_z_epsilon",
    "horizon_config",
    "reconstruct_real_time",
    "friction_ode_residual",
]

#: The configuration of a run given none, and the base that an ``integrator``
#: section of the ``timescale`` command overrides key by key: adaptive DOP853
#: at 1e-10, with a blowup bound above the momentum p = exp(lam t) v / lam,
#: which grows exponentially in the t chart.
DEFAULT_CONFIG = IntegratorConfig(method=Method.RK_ADAPTIVE, rel_tol=1e-10, abs_tol=1e-10,
                                  blowup_bound=1e30)


def to_s_state(state: PhaseState, lam: float) -> PhaseState:
    """Map a (q, p, t, E) state to (q, p, s, E_s)."""
    if state.extra is None:
        raise ValueError("state carries no extended pair")
    t, e = state.extra
    return PhaseState(q=state.q, p=state.p, extra=(math.exp(-lam * t), e / lam))


@dataclass(frozen=True, eq=False)
class RealTimeTrajectory:
    """Base motion (q(t), dq/dt) recovered from ``run``, a run of Poincare's
    K whose times are physical times; lam, the potential and the axis are
    those of ``run.hamiltonian``."""

    run: Trajectory
    q: np.ndarray
    velocity: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.run.times

    def sample(self, t_new):
        """(q, dq/dt) at the times ``t_new``, clipped to the run's span: the
        states of the run's own interpolant (``Trajectory.interpolate``)
        projected to the base motion."""
        times = self.run.times
        t_new = np.clip(np.atleast_1d(np.asarray(t_new, dtype=float)), times[0], times[-1])
        steps = np.clip(np.searchsorted(times, t_new, side="right"), 1, times.size - 1)
        ys = np.array([self.run.interpolate(int(i), float(t - times[i - 1]))
                       for i, t in zip(steps, t_new)])
        return _base_motion(self.run.hamiltonian, self.run.n, ys)


def build_rescaled_extended(potential: PotentialSpec, lam: float, n: int = 1, axis: int = 0):
    """Structure and Hamiltonian of the exponentially rescaled system."""
    if not lam > 0:
        raise ValueError("lam must be > 0")
    structure = PhaseStructure(kind=StructureKind.EXTENDED_CANONICAL, dim=2 * n)
    h = HamiltonianSpec(potential=potential, n=n, axis=axis,
                        extended=ExtendedKind.RESCALED_EXTENDED, friction=lam)
    return structure, h


def to_s_coordinates(structure: PhaseStructure, h: HamiltonianSpec):
    """Change variables s = exp(-lam t), E_s = E/lam on a rescaled system,
    with lam the Hamiltonian's friction coefficient.

    Returns the non-twisted singular structure on the (s, E_s) pair together
    with the transformed Hamiltonian, which is singular of second order at
    s = 0.
    """
    if structure.kind is not StructureKind.EXTENDED_CANONICAL:
        raise ValueError("expected an extended_canonical structure")
    if h.extended is not ExtendedKind.RESCALED_EXTENDED:
        raise ValueError("expected a rescaled_extended Hamiltonian")
    structure_s = PhaseStructure(kind=StructureKind.EXTENDED_B_S, dim=structure.dim,
                                 modular_weight=1.0, angular_mask=structure.angular_mask)
    h_s = HamiltonianSpec(potential=h.potential, n=h.n, axis=h.axis,
                          extended=ExtendedKind.S_COORDINATES, friction=h.friction)
    return structure_s, h_s


def poincare_transform(h: HamiltonianSpec) -> HamiltonianSpec:
    """Poincare's K = g*H of a rescaled or s-coordinate ``h``, on the same
    structure: g = lam*exp(-lam*t) for the rescaled H, g = lam*s for the
    s-coordinate one.  On the level set H = 0 the flow of K is that of H
    with physical time t as its clock."""
    kinds = {ExtendedKind.RESCALED_EXTENDED: ExtendedKind.POINCARE_T,
             ExtendedKind.S_COORDINATES: ExtendedKind.POINCARE_S}
    if h.extended not in kinds:
        raise ValueError("expected a rescaled_extended or s_coordinates Hamiltonian")
    return replace(h, extended=kinds[h.extended])


def rescaled_initial_state(potential: PotentialSpec, lam: float, q0, v0,
                           t0: float = 0.0, axis: int = 0) -> PhaseState:
    """Initial state of the rescaled system for physical data (q0, v0) at t0.

    Uses p = exp(lam t) v / lam and the energy value that puts the rescaled
    Hamiltonian on its zero level.  Raises a ``ValueError`` that names
    ``v0`` where p or the energy is not finite.
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    with np.errstate(over="ignore"):  # an overflow is reported below
        p0 = v0 * math.exp(lam * t0) / lam
        v_pot = potential_value(potential, q0, t0, axis)
        e0 = (lam * math.exp(-lam * t0) * 0.5 * float(np.dot(p0, p0))
              + math.exp(lam * t0) * v_pot / lam)
    if not (np.all(np.isfinite(p0)) and math.isfinite(e0)):
        raise ValueError(f"initial momentum or energy not finite for v0 = {v0.tolist()} "
                         f"at friction {lam!r}: p0 = {p0.tolist()}, e0 = {e0!r}")
    return PhaseState(q=q0, p=p0, extra=(t0, e0))


def s_chart_z_epsilon(lam: float, t_target: float) -> float:
    """The ``z_epsilon`` of a clock-s run to physical time ``t_target``:
    half of s = exp(-lam T) at the horizon, so the critical-set event cannot
    fire before it.  Raises ``ValueError`` where that underflows to 0, from
    lam * T of about 744.03."""
    z_epsilon = math.exp(-lam * t_target) / 2
    if not z_epsilon > 0.0:
        raise ValueError("clock s needs friction * horizon of at most about 744, where "
                         f"exp(-friction * horizon) / 2 underflows to 0; got {lam * t_target!r}")
    return z_epsilon


def horizon_config(lam: float, t_target: float, s_chart: bool,
                   config: Optional[IntegratorConfig] = None) -> IntegratorConfig:
    """The configuration of a run of K to physical time ``t_target``:
    ``config`` (default :data:`DEFAULT_CONFIG`) with ``t_max`` = ``t_target``
    and, in the s chart, ``z_epsilon`` = :func:`s_chart_z_epsilon`.  Raises
    ``ValueError`` where that underflows or a fixed step does not fit
    ``t_target``."""
    config = replace(config or DEFAULT_CONFIG, t_max=t_target)
    if s_chart:
        config = replace(config, z_epsilon=s_chart_z_epsilon(lam, t_target))
    return config


def _run(potential, lam, q0, v0, t_target, config, axis, s_chart) -> Trajectory:
    """The run of K to physical time ``t_target``, in the s chart when
    ``s_chart``, with :func:`horizon_config` of ``config``."""
    if not t_target > 0:
        raise ValueError("t_target must be > 0")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    structure, h = build_rescaled_extended(potential, lam, n=q0.size, axis=axis)
    initial = rescaled_initial_state(potential, lam, q0, v0, axis=axis)
    config = horizon_config(lam, t_target, s_chart, config)
    if s_chart:
        structure, h = to_s_coordinates(structure, h)
        initial = to_s_state(initial, lam)
    traj = integrate(structure, poincare_transform(h), initial, config)
    if traj.terminal_event.kind is not EventKind.T_MAX:
        raise RuntimeError(f"{'s-coordinate' if s_chart else 'rescaled'} run ended early "
                           f"with {traj.terminal_event.kind.value}")
    return traj


def run_rescaled(potential: PotentialSpec, lam: float, q0, v0, t_target: float,
                 config: Optional[IntegratorConfig] = None, axis: int = 0) -> Trajectory:
    """Integrate the rescaled system in the t chart, in physical time, from
    (q0, v0) at t = 0, with E on the zero level of H, to ``t_target``.

    The flow is that of :func:`poincare_transform` of the rescaled H, and
    ``t_target`` replaces the ``t_max`` of ``config`` (default
    :data:`DEFAULT_CONFIG`).  With the default ``blowup_bound``, a run ends
    in ``blowup`` and raises once |p| or |E| passes 1e30: from
    friction * horizon of about 64 to 71 for ``linear``,
    ``general_quadratic`` and ``periodic`` potentials and about 138 for an
    underdamped ``pure_quadratic``; a ``zero`` potential runs until
    exp(lam t) overflows at lam*t = 700 (see the module docstring).
    """
    return _run(potential, lam, q0, v0, t_target, config, axis, s_chart=False)


def run_s_coordinates(potential: PotentialSpec, lam: float, q0, v0, t_target: float,
                      config: Optional[IntegratorConfig] = None,
                      axis: int = 0) -> Trajectory:
    """Integrate the s-coordinate system, in physical time, from t = 0 to
    ``t_target``, as :func:`run_rescaled` does in the t chart.

    ``z_epsilon`` is always half of s = exp(-lam * t_target), so the
    critical-set event cannot fire before the horizon
    (:func:`s_chart_z_epsilon`, which raises ``ValueError`` past lam * T of
    about 744).  The momentum and the energy grow as in the t chart, so the
    same friction * horizon limits hold.
    """
    return _run(potential, lam, q0, v0, t_target, config, axis, s_chart=True)


def _base_motion(h, n, ys) -> tuple:
    """(q, dq/dt) of the extended states ``ys`` of a run of ``h``, with
    dq/dt = lam * s * p, where s is the state's own s or exp(-lam t)."""
    coord = ys[:, 2 * n]
    s = coord if h.extended is ExtendedKind.POINCARE_S else np.exp(-h.friction * coord)
    return ys[:, :n].copy(), h.friction * s[:, None] * ys[:, n:2 * n]


def reconstruct_real_time(traj: Trajectory) -> RealTimeTrajectory:
    """Project a run of Poincare's K, as :func:`run_rescaled` and
    :func:`run_s_coordinates` return it, back to the base motion in physical
    time.

    The friction lam and the chart come from ``traj.hamiltonian``, and the
    run's times are physical times.  Velocities follow from
    dq/dt = lam * exp(-lam t) * p = lam * s * p, with t or s the state's own
    coordinate.  Any other run, a run of H itself included, is refused with
    a ``ValueError``.  The result satisfies the damped Newton equation up
    to finite-difference residuals (see :func:`friction_ode_residual`).
    """
    h = traj.hamiltonian
    if getattr(h, "extended", None) not in (ExtendedKind.POINCARE_T, ExtendedKind.POINCARE_S):
        raise ValueError("reconstruction applies to the runs of K that run_rescaled "
                         "and run_s_coordinates return")
    q, velocity = _base_motion(h, traj.n, traj.ys)
    return RealTimeTrajectory(run=traj, q=q, velocity=velocity)


def friction_ode_residual(rt: RealTimeTrajectory, dt: float = 0.01) -> float:
    """Max central-difference residual of d2q/dt2 + lam dq/dt + dV/dq.

    Evaluated on a uniform resampling of the reconstructed trajectory; the
    value is limited by the difference step, not by the trajectory itself.
    """
    t0, t1 = float(rt.times[0]), float(rt.times[-1])
    m = max(int(round((t1 - t0) / dt)), 4)
    ts = np.linspace(t0, t1, m + 1)
    dt = ts[1] - ts[0]
    q, _ = rt.sample(ts)
    h = rt.run.hamiltonian
    qdd = (q[2:] - 2 * q[1:-1] + q[:-2]) / dt**2
    qd = (q[2:] - q[:-2]) / (2 * dt)
    grad = np.empty_like(q[1:-1])
    for i in range(1, ts.size - 1):
        grad[i - 1] = potential_gradient(h.potential, q[i], ts[i], h.axis)
    return float(np.max(np.abs(qdd + h.friction * qd + grad)))
