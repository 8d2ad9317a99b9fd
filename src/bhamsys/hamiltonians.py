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

Two more are Poincare's time transformation K = g*H of the last two
(Hairer, Lubich & Wanner, *Geometric Numerical Integration*, VIII.2), with
g = dsigma/dt, so that the flow of K runs on physical time t:

* ``poincare_t``: K = lam*exp(-lam*t)*|p|^2/2 + exp(lam*t)/lam * V(q, t) - E,
  the rescaled H times g = lam*exp(-lam*t)
* ``poincare_s``: K = lam*s*|p|^2/2 + V(q, t(s))/(lam*s) - lam*E_s, the
  s-coordinate H times g = lam*s

On the level set H = 0 the field of K is g times that of H, so dt/dtau = 1
along it; off that level the partials of K carry the extra H * grad(g).

This module computes only energies and partials: one function gives those of
the five extended variants to ``HamiltonianSpec.gradient`` and to the field
kernel, and :mod:`bhamsys.geometry` alone applies the bivector to them.

Where the time variable enters through exponentials (``rescaled_extended``
and ``poincare_t``), evaluation raises an overflow error once lam*t exceeds
700.
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
    POINCARE_T = "poincare_t"
    POINCARE_S = "poincare_s"


#: The variants that carry a friction coefficient, and those on the (s, E_s) pair.
_FRICTION_KINDS = frozenset({ExtendedKind.RESCALED_EXTENDED, ExtendedKind.S_COORDINATES,
                             ExtendedKind.POINCARE_T, ExtendedKind.POINCARE_S})
_S_KINDS = frozenset({ExtendedKind.S_COORDINATES, ExtendedKind.POINCARE_S})


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


def _family_value(spec: PotentialSpec):
    """V of a named family as a function of a float x; the family and its
    constants are bound here, once, in the products' own order."""
    f = spec.family
    if f is PotentialFamily.LINEAR:
        c = 0.5 * spec.lam
        return lambda x: c * x
    if f is PotentialFamily.PURE_QUADRATIC:
        c = 0.25 * spec.lam
        return lambda x: c * x * x
    if f is PotentialFamily.GENERAL_QUADRATIC:
        c, a = 0.5 * spec.lam, 0.5 * spec.alpha
        return lambda x: c * x * (1.0 + a * x)
    if f is PotentialFamily.PERIODIC:
        c = 0.5 * spec.lam
        return lambda x: c * math.cos(x)
    return lambda x: 0.0


def _family_slope(spec: PotentialSpec, sign: float = 1.0, const=float):
    """``sign`` times dV/dx of a named family as a function of x, for a float
    or elementwise for an array; the family and its constants are bound
    here, once, each through ``const``.  The sign is folded into the family
    constant: -(c*x) is x*(-c), to the bit, so ``sign=-1.0`` gives the force
    -dV/dx with no negation of its own.  ``const=np.asarray`` makes the
    constants 0-d arrays, which numpy multiplies into an array faster than a
    Python float."""
    f = spec.family
    if f is PotentialFamily.LINEAR:
        c = const(sign * (0.5 * spec.lam))
        return lambda x: c
    if f is PotentialFamily.PURE_QUADRATIC:
        c = const(sign * (0.5 * spec.lam))
        return lambda x: x * c
    if f is PotentialFamily.GENERAL_QUADRATIC:
        c, alpha, one = const(sign * (0.5 * spec.lam)), const(spec.alpha), const(1.0)
        return lambda x: (x * alpha + one) * c
    if f is PotentialFamily.PERIODIC:
        c = const(sign * (-0.5 * spec.lam))
        return lambda x: np.sin(x) * c
    c = const(sign * 0.0)
    return lambda x: c


def potential_value(spec: PotentialSpec, q: np.ndarray, t: float = 0.0,
                    axis: int = 0) -> float:
    """V(q, t).  Named families read only ``q[axis]``; custom sees all of q."""
    if not (isinstance(q, np.ndarray) and q.ndim == 1):
        q = np.atleast_1d(np.asarray(q, dtype=float))
    if spec.family is PotentialFamily.CUSTOM:
        return float(spec.custom_eval(q, t))
    return _family_value(spec)(float(q[axis]))


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
    grad[axis] = _family_slope(spec)(float(q[axis]))
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
        if self.extended in _FRICTION_KINDS:
            if self.friction is None or not self.friction > 0.0:
                raise ValueError(f"{self.extended.value} requires friction > 0")

    @property
    def extra_role(self) -> Optional[str]:
        """Which conjugate pair the extended variant carries, if any."""
        if self.extended is ExtendedKind.NONE:
            return None
        if self.extended in _S_KINDS:
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
        lam = self.friction
        if self.extended in _S_KINDS:
            s, e_s = state.extra
            if s <= 0.0:
                raise ValueError("Hamiltonian singular at s=0")
            v = potential_value(self.potential, state.q, -math.log(s) / lam, self.axis)
            if self.extended is ExtendedKind.POINCARE_S:
                return lam * s * kinetic + v / (lam * s) - lam * e_s
            return kinetic + v / (lam * s) ** 2 - e_s / s
        t, e = state.extra
        if lam * t > EXP_GUARD:
            raise OverflowError("exp(lam*t) overflow in rescaled Hamiltonian")
        v = potential_value(self.potential, state.q, t, self.axis)
        if self.extended is ExtendedKind.POINCARE_T:
            return lam * math.exp(-lam * t) * kinetic + math.exp(lam * t) / lam * v - e
        return kinetic + math.exp(2 * lam * t) / lam**2 * v - math.exp(lam * t) / lam * e

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
        force, k_p, k_x, k_e = _extended_terms(self)(state.to_array().tolist())
        return np.array([-x for x in force] + k_p + [k_x, k_e])


def _bound_potential(h: HamiltonianSpec):
    """``potential(y, t) -> (V, dV/dt, dV/dq)`` of ``h`` on one flat row
    ``y``, with the family's value and slope bound once; ``dV/dq`` is a
    list of n floats.  V is None for the plain variant, which does not use
    it."""
    n, axis, spec = h.n, h.axis, h.potential
    plain = h.extended is ExtendedKind.PLAIN_EXTENDED
    if spec.family is PotentialFamily.CUSTOM:
        def potential(y, t):
            q = np.array(y[:n])
            v = None if plain else potential_value(spec, q, t, axis)
            return (v, potential_time_derivative(spec, q, t, axis),
                    potential_gradient(spec, q, t, axis).tolist())
        return potential
    # V depends on q[axis] alone, not on t
    value, slope = _family_value(spec), _family_slope(spec)
    if spec.family is PotentialFamily.PERIODIC:
        sine = slope

        def slope(x):
            # np.sin gives a numpy scalar; float() keeps its bits
            return float(sine(x))

    def potential(y, t):
        x = y[axis]
        grad = [0.0] * n
        grad[axis] = slope(x)
        return None if plain else value(x), 0.0, grad
    return potential


def _extended_terms(h: HamiltonianSpec):
    """The partials of an extended ``h`` in closed form, as ``terms(y) ->
    (-dH/dq, dH/dp, dH/dt-or-s, dH/dE-or-E_s)`` on one flat row ``y`` of
    Python floats, laid out ``(q, p, t, E)`` or ``(q, p, s, E_s)``, the
    first two as lists; -dH/dq, the force, is the sign the field takes.
    The variant, the potential's value and slope and the powers of lam are
    bound here, once per Hamiltonian.

    This is the one formula of the five extended variants, used by
    :meth:`HamiltonianSpec.gradient` and by the kernel of
    :func:`~bhamsys.geometry.compile_field`, which applies the bivector.
    The H variants give dH/dp = p; Poincare's K gives, on clock t,
    K = lam e^{-lam t} |p|^2/2 + e^{lam t} V / lam - E::

        dK/dq = e^{lam t} dV/dq / lam        dK/dp = lam e^{-lam t} p
        dK/dt = e^{lam t} (V + V_t / lam) - lam^2 e^{-lam t} |p|^2/2
        dK/dE = -1

    and on clock s, K = lam s |p|^2/2 + V / (lam s) - lam E_s, with
    dt/ds = -1/(lam s)::

        dK/dq = dV/dq / (lam s)              dK/dp = lam s p
        dK/ds = lam |p|^2/2 - (V + V_t / lam) / (lam s^2)
        dK/dE_s = -lam

    They raise an ``OverflowError`` past ``lam*t > 700`` and a
    ``ValueError`` at ``s <= 0``.  The time factors are ``math.exp`` of
    ``lam*t`` and ``math.log`` of ``s``, since numpy's ``exp`` can differ
    from them in the last bit.  ``t`` of the plain and rescaled H is a
    numpy scalar.  The s-coordinate H runs on a numpy scalar ``s`` and
    returns Python floats: where a power of ``s`` under- or overflows, a
    division by it gives inf or NaN, as an array division does, where
    floats raise.  K on clock s runs on a Python float ``s``, and on a numpy
    scalar, without numpy's warnings, only where ``lam s^2`` underflows to
    zero; it returns Python floats either way.
    """
    n, lam = h.n, h.friction
    potential = _bound_potential(h)
    if h.extended is ExtendedKind.PLAIN_EXTENDED:
        def terms(y):
            _, v_t, g = potential(y, np.float64(y[2 * n]))
            return [-x for x in g], y[n:2 * n], v_t, -1.0
        return terms

    if h.extended is ExtendedKind.RESCALED_EXTENDED:
        lam2 = lam**2

        def terms(y):
            t = np.float64(y[2 * n])
            if lam * t > EXP_GUARD:
                raise OverflowError("exp(lam*t) overflow in rescaled Hamiltonian")
            v, v_t, g = potential(y, t)
            elt = math.exp(lam * t)
            e2lt = elt * elt
            scale = e2lt / lam2
            push = -scale
            return ([push * x for x in g], y[n:2 * n],
                    2 * e2lt / lam * v + scale * v_t - elt * y[2 * n + 1], -elt / lam)
        return terms

    if h.extended is ExtendedKind.POINCARE_T:
        def terms(y):
            t = y[2 * n]
            if lam * t > EXP_GUARD:
                raise OverflowError("exp(lam*t) overflow in rescaled Hamiltonian")
            v, v_t, g = potential(y, t)
            elt = math.exp(lam * t)
            push, decay = -elt / lam, lam / elt
            p = y[n:2 * n]
            return ([push * x for x in g], [decay * x for x in p],
                    elt * (v + v_t / lam) - lam * decay * 0.5 * sum([x * x for x in p]), -1.0)
        return terms

    if h.extended is ExtendedKind.S_COORDINATES:
        lam2, lam3 = lam**2, lam**3

        def terms(y):
            s = np.float64(y[2 * n])
            if s <= 0.0:
                raise ValueError("Hamiltonian singular at s=0")
            v, v_t, g = potential(y, -math.log(s) / lam)
            ls2 = (lam * s) ** 2
            s3 = s**3
            return ([float(-x / ls2) for x in g], y[n:2 * n],
                    float(-v_t / (lam3 * s3) - 2 * v / (lam2 * s3) + y[2 * n + 1] / s**2),
                    float(-1.0 / s))
        return terms

    def partials(s, p, v, v_t, g):
        ls = lam * s
        return ([-x / ls for x in g], [ls * x for x in p],
                lam * 0.5 * sum([x * x for x in p]) - (v + v_t / lam) / (ls * s), -lam)

    def terms(y):
        s = y[2 * n]
        if s <= 0.0:
            raise ValueError("Hamiltonian singular at s=0")
        v, v_t, g = potential(y, -math.log(s) / lam)
        p = y[n:2 * n]
        if lam * s * s != 0.0:
            return partials(s, p, v, v_t, g)
        # lam s^2 underflowed: numpy scalars give inf or NaN, as an array
        # division does, where floats raise; float() keeps their bits
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            force, k_p, k_s, k_e = partials(np.float64(s), p, v, v_t, g)
        return [float(x) for x in force], [float(x) for x in k_p], float(k_s), k_e
    return terms


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
    slope_at = _family_slope(h.potential)
    slope = np.array([slope_at(x) for x in q[1:-1]])
    return qdd + 2.0 * qd * slope
