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
from functools import partial
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
        return np.array(_extended_gradient(self)(state.to_array().tolist()))


def _extended_gradient(h: HamiltonianSpec):
    """The exact partials of an extended ``h`` as a function of one flat row.

    Returns ``grad(y)``, where ``y`` is the list of one state's floats, laid
    out ``(q, p, t, E)`` or ``(q, p, s, E_s)``, and ``grad(y)`` the list of
    partials in the order of :meth:`HamiltonianSpec.gradient`.  The variant,
    the potential's value and slope, ``lam**2`` and ``lam**3`` are bound
    here, once per Hamiltonian.

    This is the one formula of the three extended variants, used by
    :meth:`HamiltonianSpec.gradient` and by the kernel of
    :func:`~bhamsys.geometry.compile_field`.  It works on the scalars of one
    row, with ``math.exp`` of ``lam*t`` and ``math.log`` of ``s``, since
    numpy's ``exp`` can differ from them in the last bit.  ``t`` or ``s`` is
    a numpy scalar, so that a division by an underflowed power of ``s``
    gives inf or NaN, as an array division does, instead of raising.
    """
    n, axis, spec, lam = h.n, h.axis, h.potential, h.friction
    plain = h.extended is ExtendedKind.PLAIN_EXTENDED
    if spec.family is PotentialFamily.CUSTOM:
        def potential(y, t):
            # (V, dV/dt, dV/dq); V is not needed by the plain variant
            q = np.array(y[:n])
            v = None if plain else potential_value(spec, q, t, axis)
            return (v, potential_time_derivative(spec, q, t, axis),
                    potential_gradient(spec, q, t, axis).tolist())
    else:  # V depends on q[axis] alone, not on t
        value, slope = partial(_family_value, spec), partial(_family_slope, spec)

        def potential(y, t):
            x = y[axis]
            grad = [0.0] * n
            grad[axis] = slope(x)
            return None if plain else value(x), 0.0, grad

    if plain:
        def grad(y):
            _, v_t, g = potential(y, np.float64(y[2 * n]))
            return g + y[n:2 * n] + [v_t, -1.0]
        return grad

    lam2, lam3 = lam**2, lam**3
    if h.extended is ExtendedKind.RESCALED_EXTENDED:
        def grad(y):
            t = np.float64(y[2 * n])
            if lam * t > EXP_GUARD:
                raise OverflowError("exp(lam*t) overflow in rescaled Hamiltonian")
            v, v_t, g = potential(y, t)
            elt = math.exp(lam * t)
            e2lt = elt * elt
            scale = e2lt / lam2
            return ([scale * x for x in g] + y[n:2 * n]
                    + [2 * e2lt / lam * v + scale * v_t - elt * y[2 * n + 1], -elt / lam])
        return grad

    def grad(y):
        # d/ds of V(q, t(s))/(lam s)^2 - E_s/s, with dt/ds = -1/(lam s)
        s = np.float64(y[2 * n])
        if s <= 0.0:
            raise ValueError("Hamiltonian singular at s=0")
        v, v_t, g = potential(y, -math.log(s) / lam)
        ls2 = (lam * s) ** 2
        s3 = s**3
        return ([x / ls2 for x in g] + y[n:2 * n]
                + [-v_t / (lam3 * s3) - 2 * v / (lam2 * s3) + y[2 * n + 1] / s**2, -1.0 / s])
    return grad


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
