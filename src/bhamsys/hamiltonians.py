"""Hamiltonian energy functions with exact analytic gradients.

The core family is kinetic-plus-potential, ``H = |p|^2/2 + V``, where V is a
one-coordinate potential from a small named catalogue:

===================  =========================================
family               V as a function of the axis coordinate x
===================  =========================================
``linear``           (lam/2) x            (Stokes drag under the twisted form)
``pure_quadratic``   (lam/4) x^2
``general_quadratic``(lam/2) x (1 + alpha x / 2)
``periodic``         (lam/2) cos x        (pendulum angle)
``zero``             0
``custom``           user callable V(q, t)
===================  =========================================

Three extended variants append a conjugate time-energy pair and support the
time-rescaling friction construction in :mod:`bhamsys.timescale`:

* ``plain_extended``:    H = |p|^2/2 + V(q, t) - E
* ``rescaled_extended``: H = |p|^2/2 + exp(2*lam*t)/lam^2 * V(q, t)
  - exp(lam*t)/lam * E
* ``s_coordinates``:     H = |p|^2/2 + V(q, t(s))/(lam*s)^2 - E_s/s  with
  t(s) = -ln(s)/lam, defined for s > 0

For ``rescaled_extended`` the time variable enters through exponentials, so
evaluation raises an overflow error once lam*t exceeds 700; long real-time
horizons should use the s-coordinates route instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .geometry import PhaseState

__all__ = [
    "PotentialFamily",
    "ExtendedKind",
    "PotentialSpec",
    "HamiltonianSpec",
    "LogMomentumHamiltonian",
    "potential_value",
    "potential_gradient",
    "potential_time_derivative",
    "second_order_residual",
]

#: Central-difference step used when a custom potential has no analytic gradient.
FD_STEP = 1e-6

#: Guard against exp overflow in the rescaled extended Hamiltonian.
EXP_GUARD = 700.0


class PotentialFamily(str, Enum):
    LINEAR = "linear"
    PURE_QUADRATIC = "pure_quadratic"
    GENERAL_QUADRATIC = "general_quadratic"
    PERIODIC = "periodic"
    ZERO = "zero"
    CUSTOM = "custom"


class ExtendedKind(str, Enum):
    NONE = "none"
    PLAIN_EXTENDED = "plain_extended"
    RESCALED_EXTENDED = "rescaled_extended"
    S_COORDINATES = "s_coordinates"


_DISSIPATIVE = {
    PotentialFamily.LINEAR,
    PotentialFamily.PURE_QUADRATIC,
    PotentialFamily.GENERAL_QUADRATIC,
    PotentialFamily.PERIODIC,
}


@dataclass(frozen=True)
class PotentialSpec:
    """A named potential with its coefficients.

    ``lam`` is the strength/friction coefficient (must be positive for the
    dissipative families), ``alpha`` the viscosity-gradient coefficient of
    the general quadratic family.  Custom potentials supply ``custom_eval``
    (a side-effect-free callable of the full position vector and time) and
    optionally ``custom_grad``; without the latter, gradients fall back to
    central differences with step ``FD_STEP``.
    """

    family: PotentialFamily
    lam: float = 1.0
    alpha: float = 0.0
    custom_eval: Optional[Callable] = None
    custom_grad: Optional[Callable] = None

    def __post_init__(self):
        family = PotentialFamily(self.family)
        object.__setattr__(self, "family", family)
        if family in _DISSIPATIVE and not self.lam > 0.0:
            raise ValueError("lam must be > 0 for dissipative potential families")
        if family is not PotentialFamily.GENERAL_QUADRATIC and self.alpha != 0.0:
            raise ValueError(f"alpha is only meaningful for general_quadratic, got family={family.value}")
        if family is PotentialFamily.CUSTOM and self.custom_eval is None:
            raise ValueError("custom family requires custom_eval")
        if family is not PotentialFamily.CUSTOM and self.custom_eval is not None:
            raise ValueError("custom_eval is only meaningful for the custom family")


def _family_value(spec: PotentialSpec, x: float) -> float:
    f = spec.family
    if f is PotentialFamily.LINEAR:
        return 0.5 * spec.lam * x
    if f is PotentialFamily.PURE_QUADRATIC:
        return 0.25 * spec.lam * x * x
    if f is PotentialFamily.GENERAL_QUADRATIC:
        return 0.5 * spec.lam * x * (1.0 + 0.5 * spec.alpha * x)
    if f is PotentialFamily.PERIODIC:
        return 0.5 * spec.lam * math.cos(x)
    return 0.0


def _family_slope(spec: PotentialSpec, x):
    """dV/dx of a named family, for a float or elementwise for an array."""
    f = spec.family
    if f is PotentialFamily.LINEAR:
        return 0.5 * spec.lam
    if f is PotentialFamily.PURE_QUADRATIC:
        return 0.5 * spec.lam * x
    if f is PotentialFamily.GENERAL_QUADRATIC:
        return 0.5 * spec.lam * (1.0 + spec.alpha * x)
    if f is PotentialFamily.PERIODIC:
        return -0.5 * spec.lam * np.sin(x)
    return 0.0


def potential_value(spec: PotentialSpec, q: np.ndarray, t: float = 0.0,
                    axis: int = 0) -> float:
    """V(q, t).  Named families read only ``q[axis]``; custom sees all of q."""
    if not (isinstance(q, np.ndarray) and q.ndim == 1):
        q = np.atleast_1d(np.asarray(q, dtype=float))
    if spec.family is PotentialFamily.CUSTOM:
        return float(spec.custom_eval(q, t))
    return _family_value(spec, float(q[axis]))


def potential_gradient(spec: PotentialSpec, q: np.ndarray, t: float = 0.0,
                       axis: int = 0) -> np.ndarray:
    """dV/dq as a vector of the same length as q."""
    if not (isinstance(q, np.ndarray) and q.ndim == 1):
        q = np.atleast_1d(np.asarray(q, dtype=float))
    grad = np.zeros(q.size)
    if spec.family is PotentialFamily.CUSTOM:
        if spec.custom_grad is not None:
            grad[:] = np.asarray(spec.custom_grad(q, t), dtype=float)
        else:
            for i in range(q.size):
                qp = q.copy()
                qm = q.copy()
                qp[i] += FD_STEP
                qm[i] -= FD_STEP
                grad[i] = (spec.custom_eval(qp, t) - spec.custom_eval(qm, t)) / (2 * FD_STEP)
        return grad
    grad[axis] = _family_slope(spec, float(q[axis]))
    return grad


def potential_time_derivative(spec: PotentialSpec, q: np.ndarray, t: float = 0.0,
                              axis: int = 0) -> float:
    """dV/dt; zero for the named families, central differences for custom."""
    if spec.family is not PotentialFamily.CUSTOM:
        return 0.0
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return float(
        (spec.custom_eval(q, t + FD_STEP) - spec.custom_eval(q, t - FD_STEP)) / (2 * FD_STEP)
    )


@dataclass(frozen=True)
class HamiltonianSpec:
    """Kinetic-plus-potential Hamiltonian, optionally in an extended variant.

    ``axis`` selects the coordinate the one-dimensional potential families
    act on (the dissipative direction); the remaining directions are free.
    ``friction`` is the time-rescaling coefficient lam of the extended
    variants; it is independent of the potential's own ``lam``.
    """

    potential: PotentialSpec
    n: int = 1
    axis: int = 0
    extended: ExtendedKind = ExtendedKind.NONE
    friction: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "extended", ExtendedKind(self.extended))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.axis < self.n:
            raise ValueError(f"axis {self.axis} out of range for n={self.n}")
        if self.extended in (ExtendedKind.RESCALED_EXTENDED, ExtendedKind.S_COORDINATES):
            if self.friction is None or not self.friction > 0.0:
                raise ValueError(f"{self.extended.value} requires friction > 0")

    @property
    def extra_role(self) -> Optional[str]:
        """Which conjugate pair the extended variant carries, if any."""
        if self.extended is ExtendedKind.NONE:
            return None
        if self.extended is ExtendedKind.S_COORDINATES:
            return "s_energy"
        return "t_energy"

    def _check(self, state: PhaseState) -> None:
        if state.n != self.n:
            raise ValueError(f"state has n={state.n}, Hamiltonian expects n={self.n}")
        if self.extended is not ExtendedKind.NONE and state.extra is None:
            raise ValueError(f"{self.extended.value} Hamiltonian requires the extended pair")

    def value(self, state: PhaseState) -> float:
        """Total energy H at the state."""
        self._check(state)
        kinetic = 0.5 * float(np.dot(state.p, state.p))
        if self.extended is ExtendedKind.NONE:
            return kinetic + potential_value(self.potential, state.q, 0.0, self.axis)
        if self.extended is ExtendedKind.PLAIN_EXTENDED:
            t, e = state.extra
            return kinetic + potential_value(self.potential, state.q, t, self.axis) - e
        if self.extended is ExtendedKind.RESCALED_EXTENDED:
            t, e = state.extra
            lam = self.friction
            if lam * t > EXP_GUARD:
                raise OverflowError("exp(lam*t) overflow in rescaled Hamiltonian")
            v = potential_value(self.potential, state.q, t, self.axis)
            return kinetic + math.exp(2 * lam * t) / lam**2 * v - math.exp(lam * t) / lam * e
        # s-coordinates
        s, e_s = state.extra
        if s <= 0.0:
            raise ValueError("Hamiltonian singular at s=0")
        lam = self.friction
        t = -math.log(s) / lam
        v = potential_value(self.potential, state.q, t, self.axis)
        return kinetic + v / (lam * s) ** 2 - e_s / s

    def gradient(self, state: PhaseState) -> np.ndarray:
        """Exact partials over all phase coordinates, ordered
        (dH/dq, dH/dp[, dH/dt-or-s, dH/dE])."""
        self._check(state)
        n = self.n
        if self.extended is ExtendedKind.NONE:
            out = np.empty(2 * n)
            out[:n] = potential_gradient(self.potential, state.q, 0.0, self.axis)
            out[n:] = state.p
            return out
        return np.array(_extended_gradient(self, state.to_array()))


def _extended_gradient(h: HamiltonianSpec, y: np.ndarray) -> list:
    """Exact partials of an extended ``h`` at one flat state ``y``, laid out
    ``(q, p, t, E)`` or ``(q, p, s, E_s)``, as a list in the order of
    :meth:`HamiltonianSpec.gradient`.

    This is the one formula of the three extended variants, used by
    :meth:`HamiltonianSpec.gradient` and, row by row, by
    :func:`~bhamsys.geometry.compile_field`.  It works on the scalars of one
    row, with ``math.exp`` of ``lam*t`` and ``math.log`` of ``s``, since
    numpy's ``exp`` can differ from them in the last bit.  ``t`` or ``s``
    stays a numpy scalar, so that a division by an underflowed power of
    ``s`` gives inf or NaN, as an array division does, instead of raising.
    """
    n, axis, spec, lam = h.n, h.axis, h.potential, h.friction
    plain = h.extended is ExtendedKind.PLAIN_EXTENDED
    rescaled = h.extended is ExtendedKind.RESCALED_EXTENDED
    values = y.tolist()
    a, b = y[2 * n], values[2 * n + 1]  # (t, E) or (s, E_s)
    if plain or rescaled:
        t = a
        if rescaled and lam * t > EXP_GUARD:
            raise OverflowError("exp(lam*t) overflow in rescaled Hamiltonian")
    else:
        if a <= 0.0:
            raise ValueError("Hamiltonian singular at s=0")
        t = -math.log(a) / lam
    if spec.family is PotentialFamily.CUSTOM:
        q = y[:n]
        v = None if plain else potential_value(spec, q, t, axis)
        v_t = potential_time_derivative(spec, q, t, axis)
        grad = potential_gradient(spec, q, t, axis).tolist()
    else:  # V depends on q[axis] alone, not on t
        x = values[axis]
        v = None if plain else _family_value(spec, x)
        v_t = 0.0
        grad = [0.0] * n
        grad[axis] = _family_slope(spec, x)
    p = values[n:2 * n]
    if plain:
        return grad + p + [v_t, -1.0]
    if rescaled:
        elt = math.exp(lam * t)
        e2lt = elt * elt
        scale = e2lt / lam**2
        return ([scale * g for g in grad] + p
                + [2 * e2lt / lam * v + scale * v_t - elt * b, -elt / lam])
    # d/ds of V(q, t(s))/(lam s)^2 - E_s/s, with dt/ds = -1/(lam s)
    ls2 = (lam * a) ** 2
    s3 = a**3
    return ([g / ls2 for g in grad] + p
            + [-v_t / (lam**3 * s3) - 2 * v / (lam**2 * s3) + b / a**2, -1.0 / a])


@dataclass(frozen=True)
class LogMomentumHamiltonian:
    """Generator of the lifted torus action: ``c log|p_k| + sum_{i != k} p_i``.

    Under the twisted structure its field has unit speed in every base
    direction and leaves all momenta fixed, which makes it the positive
    control for the projectability test in :mod:`bhamsys.liftcheck`.
    """

    c: float = 1.0
    n: int = 1
    singular_index: int = 0

    def __post_init__(self):
        if self.c == 0.0:
            raise ValueError("c must be nonzero")
        if not 0 <= self.singular_index < self.n:
            raise ValueError("singular_index out of range")

    extended = ExtendedKind.NONE
    extra_role = None

    def value(self, state: PhaseState) -> float:
        k = self.singular_index
        pk = state.p[k]
        if pk == 0.0:
            raise ValueError("log-momentum Hamiltonian singular on the critical set")
        rest = float(np.sum(state.p)) - float(pk)
        return self.c * math.log(abs(pk)) + rest

    def gradient(self, state: PhaseState) -> np.ndarray:
        k = self.singular_index
        pk = state.p[k]
        if pk == 0.0:
            raise ValueError("log-momentum Hamiltonian singular on the critical set")
        out = np.zeros(2 * self.n)
        out[self.n:] = 1.0
        out[self.n + k] = self.c / pk
        return out


def second_order_residual(h: HamiltonianSpec, q_samples: np.ndarray, dt: float) -> np.ndarray:
    """Residual of the reduced second-order equation on a sampled path.

    For the twisted model with ``H = p^2/2 + f(q)`` the position obeys
    ``q'' = -2 q' df/dq``; this returns ``q'' + 2 q' df/dq`` by central
    differences at the interior samples, so a true trajectory gives values
    near zero (limited by the difference step).  Only one-coordinate
    potential families are supported.
    """
    if h.potential.family is PotentialFamily.CUSTOM:
        raise ValueError("second_order_residual supports the named 1-d families only")
    q = np.asarray(q_samples, dtype=float)
    if q.ndim != 1 or q.size < 3:
        raise ValueError("need a 1-d series of at least 3 samples")
    if not dt > 0:
        raise ValueError("dt must be > 0")
    qdd = (q[2:] - 2 * q[1:-1] + q[:-2]) / dt**2
    qd = (q[2:] - q[:-2]) / (2 * dt)
    slope = np.array([_family_slope(h.potential, x) for x in q[1:-1]])
    return qdd + 2.0 * qd * slope
