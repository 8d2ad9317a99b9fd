"""Closed-form and high-resolution reference solutions.

These are the ground truth the integrators are checked against.  The closed
forms solve their systems exactly:

* Stokes drag (twisted structure, linear potential):
  ``q(t) = q0 + (p0^2/lam)(1 - exp(-lam t))``, ``p(t) = p0 exp(-lam t / 2)``,
  solving ``dq/dt = p^2``, ``dp/dt = -(lam/2) p``.
* Classical constant force (canonical structure, linear potential):
  ``q(t) = -(lam/4) t^2 + p0 t + q0``, ``p(t) = p0 - (lam/2) t``.
* Twisted pure-quadratic trajectory:
  ``q(t) = (c1/sqrt(lam)) tanh(c1 sqrt(lam) t / 2 + c2)``, solving
  ``q'' = -lam q' q``; on the branch q' > 0 the momentum is
  ``p = sqrt(q') = (c1/sqrt(2)) sech(c1 sqrt(lam) t / 2 + c2)``.

``damped_newton_reference`` integrates the damped Newton equation
``q'' = -lam q' - dV/dq`` directly and independently; it is the oracle for
the extended-phase-space reconstruction in :mod:`bhamsys.timescale`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hamiltonians import PotentialSpec, potential_gradient

__all__ = [
    "OracleResult",
    "stokes_exact",
    "classical_parabola",
    "quadratic_tanh",
    "quadratic_tanh_momentum",
    "quadratic_tanh_constants",
    "damped_newton_reference",
]


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Reference trajectory: times plus position/momentum arrays of shape
    (len(times), n).  For the damped Newton oracle the momentum row is the
    velocity dq/dt (unit mass)."""

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    step: float


def stokes_exact(q0: float, p0: float, lam: float, t):
    """Exact twisted-linear (Stokes drag) trajectory at time(s) t."""
    if not lam > 0:
        raise ValueError("lam must be > 0")
    t = np.asarray(t, dtype=float)
    q = q0 + (p0**2 / lam) * (1.0 - np.exp(-lam * t))
    p = p0 * np.exp(-lam * t / 2.0)
    return q, p


def classical_parabola(q0: float, p0: float, lam: float, t):
    """Exact canonical-linear (constant force) trajectory at time(s) t."""
    if not lam > 0:
        raise ValueError("lam must be > 0")
    t = np.asarray(t, dtype=float)
    q = -(lam / 4.0) * t**2 + p0 * t + q0
    p = p0 - (lam / 2.0) * t
    return q, p


def quadratic_tanh(c1: float, c2: float, lam: float, t):
    """Twisted pure-quadratic position ``(c1/sqrt(lam)) tanh(c1 sqrt(lam) t/2 + c2)``."""
    if not lam > 0:
        raise ValueError("lam must be > 0")
    t = np.asarray(t, dtype=float)
    return (c1 / math.sqrt(lam)) * np.tanh(0.5 * c1 * math.sqrt(lam) * t + c2)


def quadratic_tanh_momentum(c1: float, c2: float, lam: float, t):
    """Momentum ``sqrt(q')`` of the tanh trajectory, valid on the q' > 0 branch."""
    if not lam > 0:
        raise ValueError("lam must be > 0")
    t = np.asarray(t, dtype=float)
    u = 0.5 * c1 * math.sqrt(lam) * t + c2
    return (c1 / math.sqrt(2.0)) / np.cosh(u)


def quadratic_tanh_constants(q0: float, p0: float, lam: float):
    """Map an initial condition with p0 > 0 to the tanh constants (c1, c2).

    Matching ``q'(0) = p0^2`` and ``q(0) = q0`` against the closed form gives
    ``c1 = 2 sqrt(H)`` with ``H = p0^2/2 + lam q0^2/4`` and
    ``c2 = artanh(a / c1)``, ``a = sqrt(lam) q0``.  Since
    ``(c1 - |a|)(c1 + |a|) = 2 p0^2``, ``c2`` is computed as
    ``sign(q0) log((c1 + |a|) / (sqrt(2) p0))``, without the cancellation
    in ``c1 - |a|`` that costs the artanh form its digits when p0 is small
    against |q0|.
    """
    if not lam > 0:
        raise ValueError("lam must be > 0")
    if not p0 > 0:
        raise ValueError("constants are defined on the q' > 0 branch (p0 > 0)")
    a = math.sqrt(lam) * abs(q0)
    c1 = math.hypot(math.sqrt(2.0) * p0, a)  # 2 sqrt(H), without squaring p0 or q0
    c2 = math.copysign(math.log((c1 + a) / (math.sqrt(2.0) * p0)), q0)
    return c1, c2


def damped_newton_reference(potential: PotentialSpec, lam: float, q0, v0,
                            t_grid, step: Optional[float] = None) -> OracleResult:
    """Direct integration of ``q'' = -lam q' - dV/dq`` on the given grid,
    with V reading the potential's own axis.

    Integrates the first-order pair (q, v) with classic fixed-step RK4,
    landing exactly on every grid node.  The internal step defaults to one
    hundredth of the smallest grid spacing; pass ``step`` to override when
    the grid is dense and the default would be needlessly slow.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("t_grid must contain at least two times")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    dts = np.diff(t_grid)
    if np.any(dts <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if step is None:
        step = float(np.min(dts)) / 100.0

    q = np.atleast_1d(np.asarray(q0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
    if q.shape != v.shape:
        raise ValueError("q0 and v0 must have the same shape")

    def accel(qv, vv):
        return -lam * vv - potential_gradient(potential, qv)

    k = t_grid.size
    qs = np.empty((k, q.size))
    vs = np.empty((k, v.size))
    qs[0] = q
    vs[0] = v
    t = float(t_grid[0])
    for j in range(1, k):
        span = float(t_grid[j]) - t
        m = max(1, int(math.ceil(span / step - 1e-12)))
        h = span / m
        for _ in range(m):
            k1q, k1v = v, accel(q, v)
            k2q = v + 0.5 * h * k1v
            k2v = accel(q + 0.5 * h * k1q, k2q)
            k3q = v + 0.5 * h * k2v
            k3v = accel(q + 0.5 * h * k2q, k3q)
            k4q = v + h * k3v
            k4v = accel(q + h * k3q, k4q)
            q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(v))):
            raise FloatingPointError("damped Newton reference blew up")
        t = float(t_grid[j])
        qs[j] = q
        vs[j] = v
    return OracleResult(times=t_grid.copy(), qs=qs, ps=vs, step=step)
