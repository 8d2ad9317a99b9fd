"""Friction from a time rescaling on an extended phase space.

The configuration space is extended by the physical time t, with conjugate
energy E, and the flow runs in a curvilinear parameter.  Three stages:

1. ``build_plain_extended``: H = |p|^2/2 + V(q, t) - E with the pairing
   ``sum_i dp_i ^ dq_i - dE ^ dt``.  The curvilinear parameter coincides
   with t (dt/ds = 1) and H = 0 is preserved, so this is ordinary
   time-dependent dynamics.
2. ``build_rescaled_extended``: H = |p|^2/2 + exp(2*lam*t)/lam^2 * V
   - exp(lam*t)/lam * E on the same pairing.  Now dt/ds = exp(lam*t)/lam,
   so physical time accelerates relative to the curvilinear parameter and,
   after projecting out (t, E), the base motion obeys the damped Newton
   equation  d2q/dt2 = -lam dq/dt - dV/dq.
3. ``to_s_coordinates``: the substitution s = exp(-lam*t), E_s = E/lam turns
   the pairing into the non-twisted singular form on the (s, E_s) pair and
   the Hamiltonian into |p|^2/2 + V/(lam*s)^2 - E_s/s, whose singularity at
   s = 0 is of second order (s^2 * H stays finite there for bounded V, one
   degree worse than the form itself).

Conventions: s = exp(-lam*t) is kept in (0, 1] for t >= 0, so along the
physical flow s decays at unit curvilinear speed (ds/dsigma = -1); the
orientation of the curvilinear parameter is absorbed into the integration
direction.  Momenta relate to physical velocity by dq/dt = lam*exp(-lam*t)*p
= lam*s*p, so an initial velocity v0 at t = 0 enters as p0 = v0/lam.  E is
initialized so that H = 0 unless overridden.

``reconstruct_real_time`` projects a curvilinear run back to (q(t), dq/dt)
and is validated against the independent damped-Newton oracle in
:mod:`bhamsys.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import PhaseState, PhaseStructure, StructureKind
from .hamiltonians import (ExtendedKind, HamiltonianSpec, PotentialSpec,
                           potential_gradient, potential_value)
from .integrate import EventKind, IntegratorConfig, Method, Trajectory, hermite, integrate

__all__ = [
    "Clock",
    "ExtendedTrajectory",
    "RealTimeTrajectory",
    "time_to_s",
    "s_to_time",
    "to_s_state",
    "from_s_state",
    "build_plain_extended",
    "build_rescaled_extended",
    "to_s_coordinates",
    "plain_initial_state",
    "rescaled_initial_state",
    "curvilinear_horizon",
    "run_rescaled",
    "run_s_coordinates",
    "reconstruct_real_time",
    "friction_ode_residual",
]

#: Real-time horizons are padded by this much so the target time is interior.
HORIZON_PAD = 1e-6


class Clock(str, Enum):
    REAL_T = "t"
    CURVILINEAR_S = "s"


def time_to_s(t, lam: float):
    return np.exp(-lam * np.asarray(t, dtype=float))


def s_to_time(s, lam: float):
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("s must be positive")
    return -np.log(s) / lam + 0.0  # +0.0 normalizes -0.0 at s = 1


def to_s_state(state: PhaseState, lam: float) -> PhaseState:
    """Map a (q, p, t, E) state to (q, p, s, E_s)."""
    if state.extra is None:
        raise ValueError("state carries no extended pair")
    t, e = state.extra
    return PhaseState(q=state.q, p=state.p, extra=(math.exp(-lam * t), e / lam))


def from_s_state(state: PhaseState, lam: float) -> PhaseState:
    """Inverse of :func:`to_s_state`; identity round trip up to rounding."""
    if state.extra is None:
        raise ValueError("state carries no extended pair")
    s, e_s = state.extra
    if s <= 0:
        raise ValueError("s must be positive")
    return PhaseState(q=state.q, p=state.p, extra=(-math.log(s) / lam, lam * e_s))


@dataclass(frozen=True)
class ExtendedTrajectory:
    """A run on the extended phase space, tagged with its clock.

    ``clock`` records whether the integration parameter was physical time
    (plain extended runs) or the curvilinear parameter of the rescaled and
    s-coordinate systems.  Physical time must increase along the run.
    """

    trajectory: Trajectory
    clock: Clock
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "clock", Clock(self.clock))
        extra = self.trajectory.extra
        if extra is None:
            raise ValueError("trajectory does not carry an extended pair")
        if len(self.trajectory) > 1:
            kind = self.trajectory.structure.kind
            col = extra[:, 0]
            if kind is StructureKind.EXTENDED_B_S:
                if np.any(np.diff(col) >= 0):
                    raise ValueError("s must decrease strictly along the run (t must increase)")
            else:
                if np.any(np.diff(col) <= 0):
                    raise ValueError("t must increase strictly along the run")


def _hermite_resample(ts: np.ndarray, ys: np.ndarray, ders: np.ndarray,
                      t_new: np.ndarray) -> np.ndarray:
    """Piecewise cubic Hermite evaluation of (ys, ders) sampled at ts."""
    t_new = np.clip(np.asarray(t_new, dtype=float), ts[0], ts[-1])
    idx = np.clip(np.searchsorted(ts, t_new, side="right") - 1, 0, ts.size - 2)
    return hermite(ys[idx], ys[idx + 1], ders[idx], ders[idx + 1],
                   (ts[idx + 1] - ts[idx])[:, None], (t_new - ts[idx])[:, None])


@dataclass(frozen=True, eq=False)
class RealTimeTrajectory:
    """Base motion (q(t), dq/dt) recovered from a curvilinear run."""

    times: np.ndarray
    q: np.ndarray
    velocity: np.ndarray
    lam: float
    potential: PotentialSpec
    axis: int = 0

    def acceleration(self) -> np.ndarray:
        """Damped Newton acceleration -lam*v - dV/dq at every node."""
        acc = np.empty_like(self.velocity)
        for i, t in enumerate(self.times):
            acc[i] = (-self.lam * self.velocity[i]
                      - potential_gradient(self.potential, self.q[i], t, self.axis))
        return acc

    def sample(self, t_new):
        """Cubic Hermite resampling of positions and velocities."""
        t_new = np.atleast_1d(np.asarray(t_new, dtype=float))
        acc = self.acceleration()
        q = _hermite_resample(self.times, self.q, self.velocity, t_new)
        v = _hermite_resample(self.times, self.velocity, acc, t_new)
        return q, v


def build_plain_extended(potential: PotentialSpec, n: int = 1, axis: int = 0):
    """Structure and Hamiltonian of the plain time-extended system."""
    structure = PhaseStructure(kind=StructureKind.EXTENDED_CANONICAL, dim=2 * n)
    h = HamiltonianSpec(potential=potential, n=n, axis=axis,
                        extended=ExtendedKind.PLAIN_EXTENDED)
    return structure, h


def build_rescaled_extended(potential: PotentialSpec, lam: float, n: int = 1, axis: int = 0):
    """Structure and Hamiltonian of the exponentially rescaled system."""
    if not lam > 0:
        raise ValueError("lam must be > 0")
    structure = PhaseStructure(kind=StructureKind.EXTENDED_CANONICAL, dim=2 * n)
    h = HamiltonianSpec(potential=potential, n=n, axis=axis,
                        extended=ExtendedKind.RESCALED_EXTENDED, friction=lam)
    return structure, h


def to_s_coordinates(structure: PhaseStructure, h: HamiltonianSpec,
                     lam: Optional[float] = None):
    """Change variables s = exp(-lam t), E_s = E/lam on a rescaled system.

    Returns the non-twisted singular structure on the (s, E_s) pair together
    with the transformed Hamiltonian, which is singular of second order at
    s = 0.
    """
    if structure.kind is not StructureKind.EXTENDED_CANONICAL:
        raise ValueError("expected an extended_canonical structure")
    if h.extended is not ExtendedKind.RESCALED_EXTENDED:
        raise ValueError("expected a rescaled_extended Hamiltonian")
    if lam is None:
        lam = h.friction
    if lam != h.friction:
        raise ValueError("lam disagrees with the Hamiltonian's friction coefficient")
    structure_s = PhaseStructure(kind=StructureKind.EXTENDED_B_S, dim=structure.dim,
                                 modular_weight=1.0, angular_mask=structure.angular_mask)
    h_s = HamiltonianSpec(potential=h.potential, n=h.n, axis=h.axis,
                          extended=ExtendedKind.S_COORDINATES, friction=lam)
    return structure_s, h_s


def plain_initial_state(potential: PotentialSpec, q0, v0, t0: float = 0.0,
                        e0: Optional[float] = None, axis: int = 0) -> PhaseState:
    """Initial extended state with p = dq/dt and E fixed by H = 0 by default."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if e0 is None:
        e0 = 0.5 * float(np.dot(v0, v0)) + potential_value(potential, q0, t0, axis)
    return PhaseState(q=q0, p=v0, extra=(t0, e0))


def rescaled_initial_state(potential: PotentialSpec, lam: float, q0, v0,
                           t0: float = 0.0, e0: Optional[float] = None,
                           axis: int = 0) -> PhaseState:
    """Initial state of the rescaled system for physical data (q0, v0) at t0.

    Uses p = exp(lam t) v / lam and, unless ``e0`` overrides it, the energy
    value that puts the rescaled Hamiltonian on its zero level.
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    p0 = v0 * math.exp(lam * t0) / lam
    if e0 is None:
        v_pot = potential_value(potential, q0, t0, axis)
        e0 = (lam * math.exp(-lam * t0) * 0.5 * float(np.dot(p0, p0))
              + math.exp(lam * t0) * v_pot / lam)
    return PhaseState(q=q0, p=p0, extra=(t0, e0))


def curvilinear_horizon(lam: float, t_target: float) -> tuple:
    """``(sigma_end, s_end)`` where physical time reaches ``t_target`` +
    ``HORIZON_PAD``: the curvilinear parameter, from dt/dsigma = exp(lam t)/lam
    in closed form, and s = exp(-lam t) = 1 - sigma_end."""
    if not t_target > 0:
        raise ValueError("t_target must be > 0")
    s_end = math.exp(-lam * (t_target + HORIZON_PAD))
    return 1.0 - s_end, s_end


def _default_adaptive(sigma_end: float) -> IntegratorConfig:
    return IntegratorConfig(method=Method.RK_ADAPTIVE, step=min(1e-3, sigma_end / 10),
                            rel_tol=1e-10, abs_tol=1e-10, t_max=sigma_end,
                            blowup_bound=1e30)


def run_rescaled(potential: PotentialSpec, lam: float, q0, v0, t_target: float,
                 config: Optional[IntegratorConfig] = None, axis: int = 0,
                 e0: Optional[float] = None) -> ExtendedTrajectory:
    """Integrate the rescaled system until physical time reaches ``t_target``.

    The curvilinear horizon is sigma_end of :func:`curvilinear_horizon`;
    any ``config`` supplied has its ``t_max`` replaced by that value.  Beware
    that exp(lam t) overflows past lam*t = 700; longer horizons should use
    :func:`run_s_coordinates`.
    """
    sigma_end, _ = curvilinear_horizon(lam, t_target)
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    structure, h = build_rescaled_extended(potential, lam, n=q0.size, axis=axis)
    initial = rescaled_initial_state(potential, lam, q0, v0, e0=e0, axis=axis)
    if config is None:
        config = _default_adaptive(sigma_end)
    else:
        config = replace(config, t_max=sigma_end)
    traj = integrate(structure, h, initial, config)
    if traj.terminal_event.kind is not EventKind.T_MAX:
        raise RuntimeError(
            f"rescaled run ended early with {traj.terminal_event.kind.value}")
    return ExtendedTrajectory(trajectory=traj, clock=Clock.CURVILINEAR_S, lam=lam)


def run_s_coordinates(potential: PotentialSpec, lam: float, q0, v0, t_target: float,
                      config: Optional[IntegratorConfig] = None, axis: int = 0,
                      e0: Optional[float] = None) -> ExtendedTrajectory:
    """Integrate the s-coordinate system until physical time reaches ``t_target``.

    s decays from 1 at exactly unit curvilinear speed, so the horizon is
    sigma_end of :func:`curvilinear_horizon`.  The default configuration
    keeps ``z_epsilon`` below the target s so the critical-set event cannot
    fire before the horizon.
    """
    sigma_end, s_end = curvilinear_horizon(lam, t_target)
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    structure, h = build_rescaled_extended(potential, lam, n=q0.size, axis=axis)
    structure_s, h_s = to_s_coordinates(structure, h)
    initial_t = rescaled_initial_state(potential, lam, q0, v0, e0=e0, axis=axis)
    initial = to_s_state(initial_t, lam)
    if config is None:
        config = replace(_default_adaptive(sigma_end), z_epsilon=s_end / 2)
    else:
        config = replace(config, t_max=sigma_end)
    traj = integrate(structure_s, h_s, initial, config)
    if traj.terminal_event.kind is not EventKind.T_MAX:
        raise RuntimeError(
            f"s-coordinate run ended early with {traj.terminal_event.kind.value}")
    return ExtendedTrajectory(trajectory=traj, clock=Clock.CURVILINEAR_S, lam=lam)


def reconstruct_real_time(ext: ExtendedTrajectory) -> RealTimeTrajectory:
    """Project a curvilinear run back to the base motion in physical time.

    Velocities follow from dq/dt = lam * exp(-lam t) * p = lam * s * p.  The
    result satisfies the damped Newton equation up to finite-difference
    residuals (see :func:`friction_ode_residual`).
    """
    if ext.clock is not Clock.CURVILINEAR_S:
        raise ValueError("reconstruction applies to rescaled or s-coordinate runs")
    traj = ext.trajectory
    h = traj.hamiltonian
    extra = traj.extra
    if traj.structure.kind is StructureKind.EXTENDED_B_S:
        s = extra[:, 0]
        times = s_to_time(s, ext.lam)
    else:
        times = extra[:, 0].copy()
        s = np.exp(-ext.lam * times)
    if np.any(np.diff(times) <= 0):
        raise ValueError("non-monotone t")
    velocity = ext.lam * s[:, None] * traj.p
    return RealTimeTrajectory(times=times, q=traj.q.copy(), velocity=velocity,
                              lam=ext.lam, potential=h.potential, axis=h.axis)


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
    qdd = (q[2:] - 2 * q[1:-1] + q[:-2]) / dt**2
    qd = (q[2:] - q[:-2]) / (2 * dt)
    grad = np.empty_like(q[1:-1])
    for i in range(1, ts.size - 1):
        grad[i - 1] = potential_gradient(rt.potential, q[i], ts[i], rt.axis)
    return float(np.max(np.abs(qdd + rt.lam * qd + grad)))
