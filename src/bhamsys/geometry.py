"""Singular symplectic phase-space structures and their Hamiltonian fields.

Five structure kinds are supported.  ``canonical`` is the ordinary symplectic
pairing on ``T*R^n``.  ``twisted_b`` puts a 1/p-type singularity on one fiber
coordinate (2-form ``(c/p_k) dp_k ^ dq_k`` on the singular pair), so the
critical set Z is the hyperplane ``p_k = 0``.  ``nontwisted_b`` puts the
singularity on a base coordinate instead (Z is ``q_k = 0``).  The two
``extended_*`` kinds append one conjugate pair to the phase space: ``(t, E)``
with the regular pairing ``-dE ^ dt`` for ``extended_canonical``, and
``(s, E_s)`` with the singular pairing ``(c/s) dE_s ^ ds`` for
``extended_b_s`` (Z is ``s = 0``).

Conventions
-----------
Flat phase vectors are ordered ``(q_1..q_n, p_1..p_n)`` with the extended
pair, when present, appended last.  Dynamics is always derived from the
Poisson bivector P, with ``X_H = P . grad(H)``.  Signs are fixed so that the
regular blocks give the textbook equations ``dq/dt = dH/dp``,
``dp/dt = -dH/dq``, the time-energy block gives ``dt/ds = -dH/dE``,
``dE/ds = dH/dt``, and each singular block rescales its regular counterpart
by ``p_k/c``, ``q_k/c`` or ``s/c``.  With the twisted structure and
``H = |p|^2/2 + f(q)`` this reproduces ``dq/dt = p^2``,
``dp/dt = -p df/dq`` for n = 1.

The bivector is the primary object: it is smooth across the critical set and
degenerates there, so trajectories can be computed on and near Z.  The 2-form
itself blows up on Z and is only evaluated away from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "StructureKind",
    "PhaseStructure",
    "PhaseState",
    "DEGENERACY_TOL",
    "defining_function",
    "poisson_bivector",
    "bivector_rank",
    "hamiltonian_vector_field",
    "compile_field",
    "evaluate_form",
]

#: Default tolerance on the defining function for rank/degeneracy checks.
DEGENERACY_TOL = 1e-14


class StructureKind(str, Enum):
    CANONICAL = "canonical"
    TWISTED_B = "twisted_b"
    NONTWISTED_B = "nontwisted_b"
    EXTENDED_CANONICAL = "extended_canonical"
    EXTENDED_B_S = "extended_b_s"


_SINGULAR = {StructureKind.TWISTED_B, StructureKind.NONTWISTED_B, StructureKind.EXTENDED_B_S}
_EXTENDED = {StructureKind.EXTENDED_CANONICAL, StructureKind.EXTENDED_B_S}


@dataclass(frozen=True)
class PhaseStructure:
    """Descriptor of the 2-form governing the dynamics.

    Parameters
    ----------
    kind : StructureKind
        Which pairing governs the dynamics.
    dim : int
        Phase-space dimension 2n, counting only the (q, p) coordinates.
        Extended kinds carry one additional conjugate pair on top of this.
    modular_weight : float
        Coefficient c of the singular term.  Must be nonzero for the
        singular kinds; ignored for the canonical ones.
    singular_index : int
        Which coordinate carries the singularity: a momentum index for
        ``twisted_b``, a position index for ``nontwisted_b``.  Ignored for
        ``extended_b_s`` (the singular coordinate is always s) and for the
        canonical kinds.
    angular_mask : tuple of bool
        Flags positions that live on a circle of period 2*pi (for example a
        pendulum angle).  Used when states are compared, never during
        integration, so angles may wind freely along a trajectory.
    """

    kind: StructureKind
    dim: int = 2
    modular_weight: float = 1.0
    singular_index: int = 0
    angular_mask: tuple = field(default=())

    def __post_init__(self):
        kind = StructureKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError(f"dim must be an even integer >= 2, got {self.dim}")
        if kind in _SINGULAR and self.modular_weight == 0.0:
            raise ValueError("modular_weight must be nonzero for singular kinds")
        n = self.dim // 2
        if kind in (StructureKind.TWISTED_B, StructureKind.NONTWISTED_B):
            if not 0 <= self.singular_index < n:
                raise ValueError(
                    f"singular_index {self.singular_index} out of range for n={n}"
                )
        mask = tuple(bool(b) for b in self.angular_mask)
        if mask and len(mask) != n:
            raise ValueError(f"angular_mask must have length n={n}, got {len(mask)}")
        if not mask:
            mask = (False,) * n
        object.__setattr__(self, "angular_mask", mask)

    @property
    def n(self) -> int:
        return self.dim // 2

    @property
    def is_singular(self) -> bool:
        return self.kind in _SINGULAR

    @property
    def is_extended(self) -> bool:
        return self.kind in _EXTENDED

    @property
    def total_dim(self) -> int:
        """Number of flat phase coordinates, including the extended pair."""
        return self.dim + 2 if self.is_extended else self.dim


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A point in phase space: positions, momenta and, for extended
    structures, the trailing conjugate pair (t, E) or (s, E_s)."""

    q: np.ndarray
    p: np.ndarray
    extra: tuple | None = None

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float)).copy()
        p = np.atleast_1d(np.asarray(self.p, dtype=float)).copy()
        if q.ndim != 1 or p.ndim != 1 or q.size != p.size:
            raise ValueError("q and p must be 1-d arrays of equal length")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if self.extra is not None:
            if len(self.extra) != 2:
                raise ValueError("extra must be a single conjugate pair")
            object.__setattr__(self, "extra", (float(self.extra[0]), float(self.extra[1])))

    @property
    def n(self) -> int:
        return self.q.size

    def to_array(self) -> np.ndarray:
        """Flat vector (q_1..q_n, p_1..p_n[, extra pair])."""
        parts = [self.q, self.p]
        if self.extra is not None:
            parts.append(np.asarray(self.extra))
        return np.concatenate(parts)

    @classmethod
    def _trusted(cls, q: np.ndarray, p: np.ndarray, extra=None) -> "PhaseState":
        # Hot-path constructor for internal use: skips validation and copies.
        obj = object.__new__(cls)
        object.__setattr__(obj, "q", q)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "extra", extra)
        return obj

    @classmethod
    def from_array(cls, y: np.ndarray, n: int, extended: bool = False) -> "PhaseState":
        y = np.asarray(y, dtype=float)
        expected = 2 * n + 2 if extended else 2 * n
        if y.size != expected:
            raise ValueError(f"expected a flat vector of length {expected}, got {y.size}")
        extra = (y[2 * n], y[2 * n + 1]) if extended else None
        return cls._trusted(y[:n], y[n:2 * n], extra)


def _check_state(structure: PhaseStructure, state: PhaseState) -> None:
    if state.n != structure.n:
        raise ValueError(
            f"state has n={state.n} but structure expects n={structure.n}"
        )
    if structure.is_extended and state.extra is None:
        raise ValueError(f"{structure.kind.value} structure requires the extended pair")


def _defining_index(structure: PhaseStructure) -> int:
    """Flat position of the coordinate cutting out the critical set."""
    if structure.kind is StructureKind.TWISTED_B:
        return structure.n + structure.singular_index
    if structure.kind is StructureKind.NONTWISTED_B:
        return structure.singular_index
    if structure.kind is StructureKind.EXTENDED_B_S:
        return 2 * structure.n
    raise ValueError("structure has no critical set")


def defining_function(structure: PhaseStructure, state: PhaseState) -> float:
    """Value of the local coordinate cutting out the critical set Z.

    Zero exactly when the state lies on Z.  Raises for the canonical kinds,
    which have no critical set.
    """
    _check_state(structure, state)
    return float(state.to_array()[_defining_index(structure)])


def _pair_orientations(structure: PhaseStructure, state: PhaseState) -> np.ndarray:
    """Signed scale of each conjugate block of the bivector.

    Entry i (i < n) is the coefficient sigma with
    ``dq_i/dt = sigma * dH/dp_i``; the last entry, present for extended
    kinds, plays the same role for the trailing pair.
    """
    n = structure.n
    c = structure.modular_weight
    sigma = np.ones(n + (1 if structure.is_extended else 0))
    kind = structure.kind
    if kind is StructureKind.TWISTED_B:
        k = structure.singular_index
        sigma[k] = state.p[k] / c
    elif kind is StructureKind.NONTWISTED_B:
        k = structure.singular_index
        sigma[k] = state.q[k] / c
    elif kind is StructureKind.EXTENDED_CANONICAL:
        sigma[n] = -1.0
    elif kind is StructureKind.EXTENDED_B_S:
        sigma[n] = state.extra[0] / c
    return sigma


def poisson_bivector(structure: PhaseStructure, state: PhaseState) -> np.ndarray:
    """Antisymmetric matrix P with ``X_H = P . grad(H)`` at the given state.

    P is smooth through the critical set and degenerates (loses rank) there
    instead of blowing up.
    """
    _check_state(structure, state)
    n = structure.n
    d = structure.total_dim
    sigma = _pair_orientations(structure, state)
    P = np.zeros((d, d))
    for i in range(n):
        P[i, n + i] = sigma[i]
        P[n + i, i] = -sigma[i]
    if structure.is_extended:
        P[2 * n, 2 * n + 1] = sigma[n]
        P[2 * n + 1, 2 * n] = -sigma[n]
    return P


def bivector_rank(structure: PhaseStructure, state: PhaseState,
                  tol: float = DEGENERACY_TOL) -> int:
    """Rank of the bivector, counting block scales above ``tol``."""
    _check_state(structure, state)
    sigma = _pair_orientations(structure, state)
    return 2 * int(np.sum(np.abs(sigma) > tol))


def compile_field(structure: PhaseStructure, h) -> Callable[[np.ndarray], np.ndarray]:
    """Flat-array Hamiltonian field ``F(Y) = P(Y) . grad(H)(Y)`` of ``h``.

    ``F`` takes one flat state of shape ``(d,)`` or a batch of shape
    ``(N, d)``, with ``d = structure.total_dim``, and returns velocities of
    the same shape, one row per state.  The bivector is block-diagonal, so
    the field is ``sigma * swap(grad H)``: every conjugate pair ``(x, y)``
    gets ``(dH/dy, -dH/dx)``, and only one block scale depends on the
    state, ``p_k/c``, ``q_k/c`` or ``s/c`` on the singular pair.

    That the structure and the Hamiltonian fit together (the conjugate pair
    an extended Hamiltonian carries) is checked here, once, not on every
    evaluation.  For a :class:`~bhamsys.hamiltonians.HamiltonianSpec`, the
    gradient is computed on the flat states directly: as array expressions
    for the plain variant (the swap is one ``take``, and the force -dV/dx
    carries its sign in the family constant, so it needs no negation), and
    row by row for the four extended variants,
    whose one closed form (``hamiltonians._extended_terms``) gives the force
    and the other partials that this kernel puts in place:
    ``(dH/dp, -dH/dq, -dH/dE, dH/dt)`` on ``(t, E)`` and
    ``(dH/dp, -dH/dq, (s/c) dH/dE_s, -(s/c) dH/ds)`` on ``(s, E_s)``; these
    raise what ``h.gradient`` raises, an ``OverflowError`` past
    ``lam*t > 700`` and a ``ValueError`` at ``s <= 0``.  Any other ``h``
    (the log-momentum generator, duck-typed objects exposing
    ``gradient(state)``) is evaluated row by row through ``h.gradient`` and
    raises whatever that raises.  Rows never mix, so a row's velocity is
    the same, to the bit, in any batch.  ``F(Y, errors)`` with a dict ``errors`` isolates a row that
    raises: it gets NaN velocities and its first exception is kept in
    ``errors`` under its row number (:func:`_each`).  The plain kernel
    ignores ``errors``: under ``np.errstate(all="ignore")`` it cannot raise.

    ``F`` is the field itself, never negated: a backward run steps it with
    a negative step (see :mod:`bhamsys.integrate`).

    ``F.row`` is the one-row form: it takes one state as a list of floats
    and returns its velocity as a list of floats, with the bits of ``F``.
    For the extended variants it is the row kernel itself, with no array;
    every other kernel wraps ``F`` in ``np.array`` and ``tolist``.
    """
    # hamiltonians imports this module, so its names are looked up here
    from .hamiltonians import ExtendedKind, HamiltonianSpec, _extended_terms, _family_slope

    role = getattr(h, "extra_role", None)
    if structure.kind is StructureKind.EXTENDED_CANONICAL and role not in (None, "t_energy"):
        raise ValueError("Hamiltonian carries an (s, E_s) pair but the structure expects (t, E)")
    if structure.kind is StructureKind.EXTENDED_B_S and role not in (None, "s_energy"):
        raise ValueError("Hamiltonian carries a (t, E) pair but the structure expects (s, E_s)")

    n = structure.n
    ext = structure.is_extended
    col = _defining_index(structure) if structure.is_singular else None
    c = structure.modular_weight
    # the two columns of the singular pair, as a slice
    if structure.kind is StructureKind.EXTENDED_B_S:
        block = slice(2 * n, 2 * n + 2)
    else:
        block = slice(structure.singular_index, structure.singular_index + n + 1, n)

    # for n = 1 the singular pair is the whole (q, p) state
    whole = not ext and n == 1
    pair_col = None if col is None else np.array([col, col])

    def scale(Y, out):
        # the state-dependent block: (sigma dH/dy, -sigma dH/dx), sigma = Y[col]/c,
        # taken once per entry of the pair, which numpy multiplies faster than a
        # column it has to broadcast
        if col is not None:
            sigma = Y.take(pair_col, axis=-1)
            if c != 1.0:  # x / 1.0 is x, to the bit
                sigma /= c
            pair = out if whole else out[..., block]
            pair *= sigma
        return out

    named = isinstance(h, HamiltonianSpec) and h.n == n
    if named and h.extended is ExtendedKind.NONE and not ext:
        force, axis = _family_slope(h.potential, -1.0, np.asarray), h.potential.axis  # -dV/dx
        swap = np.array([*range(n, 2 * n), *range(n)])

        def field(Y, errors=None):
            # grad H = (dV/dq, p), swapped to (p, -dV/dq), with dV/dq zero off
            # the potential's axis; the swap is one copy of Y, (p, q)
            out = Y.take(swap, axis=-1)
            if n > 1:
                out[..., n:] = -0.0
            out[..., n + axis] = force(Y[..., axis])
            return scale(Y, out)

        return _with_row(field)

    if named and h.extended is not ExtendedKind.NONE and ext:
        terms = _extended_terms(h)
        if structure.kind is StructureKind.EXTENDED_CANONICAL:
            def row_field(y):
                # (dH/dp, -dH/dq), then (-dH/dE, dH/dt): the (t, E) scale is -1
                force, k_p, k_t, k_e = terms(y)
                return k_p + force + [-k_e, k_t]
        else:
            def row_field(y):
                # the (s, E_s) pair, scaled by s/c
                force, k_p, k_s, k_e = terms(y)
                sigma = y[2 * n] / c
                return k_p + force + [k_e * sigma, -k_s * sigma]

        return _with_array(row_field)

    # swap(grad H) with the constant block scales: +-1, and -1 on (t, E)
    d = structure.total_dim
    swap = np.array([*range(n, 2 * n), *range(n)] + ([2 * n + 1, 2 * n] if ext else []))
    tail = -1.0 if structure.kind is StructureKind.EXTENDED_CANONICAL else 1.0
    sign = np.array([1.0] * n + [-1.0] * n + ([tail, -tail] if ext else []))

    def gradient(row):
        g = np.asarray(h.gradient(PhaseState.from_array(row, n, ext)), dtype=float)
        if g.size != d:
            raise ValueError(f"gradient has length {g.size}, expected {d}")
        return g

    def field(Y, errors=None):
        rows = np.reshape(Y, (-1, d))
        grad = np.array(_each(gradient, rows, errors), dtype=float).reshape(rows.shape)
        return scale(rows, grad[:, swap] * sign).reshape(np.shape(Y))

    return _with_row(field)


def _each(row_field, rows, errors):
    """``row_field`` of each of ``rows``; with a dict ``errors``, a row that
    raises gets NaN velocities and its first exception is kept in
    ``errors`` under its row number, else the exception propagates."""
    out = []
    for i, y in enumerate(rows):
        try:
            out.append(row_field(y))
        except Exception as exc:
            if errors is None:
                raise
            errors.setdefault(i, exc)
            out.append([math.nan] * len(y))
    return out


def _with_array(row_field):
    """The kernel ``F`` whose one-row form ``F.row`` is ``row_field``: one
    flat state or a batch, evaluated row by row."""
    def field(Y, errors=None):
        rows = Y.tolist() if Y.ndim > 1 else [Y.tolist()]
        return np.array(_each(row_field, rows, errors)).reshape(Y.shape)

    field.row = row_field
    return field


def _with_row(field):
    """``field`` with its one-row form: ``field.row(y)`` takes one state as
    a list of floats and returns its velocity as a list of floats."""
    field.row = lambda y: field(np.array(y)).tolist()
    return field


def hamiltonian_vector_field(structure: PhaseStructure, h, state: PhaseState) -> np.ndarray:
    """Velocity vector ``P(state) . grad(H)(state)`` in flat coordinate order.

    ``h`` is any object exposing ``gradient(state) -> ndarray`` over the full
    phase coordinates (see :mod:`bhamsys.hamiltonians`).  For singular kinds
    the field is tangent to the critical set; with the twisted structure and
    ``H = |p|^2/2 + f(q)`` it vanishes identically on Z.  Single-state form
    of :func:`compile_field`.
    """
    _check_state(structure, state)
    return compile_field(structure, h)(state.to_array())


def evaluate_form(structure: PhaseStructure, state: PhaseState,
                  u: np.ndarray, v: np.ndarray) -> float:
    """Value of the 2-form on two tangent vectors at ``state``.

    Bilinear and antisymmetric; satisfies ``omega(X_H, v) = -dH(v)`` for the
    field returned by :func:`hamiltonian_vector_field`.  Not defined on the
    critical set, where the form is singular.
    """
    _check_state(structure, state)
    if structure.is_singular and defining_function(structure, state) == 0.0:
        raise ValueError("form singular on critical set")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = structure.total_dim
    if u.size != d or v.size != d:
        raise ValueError(f"tangent vectors must have length {d}")
    n = structure.n
    sigma = _pair_orientations(structure, state)
    # Block with bivector scale sigma contributes (1/sigma) * (u_y v_x - u_x v_y)
    # for the ordered pair (x, y); equivalently omega(d/dx, d/dy) = -1/sigma.
    total = 0.0
    for i in range(n):
        total += (u[n + i] * v[i] - u[i] * v[n + i]) / sigma[i]
    if structure.is_extended:
        total += (u[2 * n + 1] * v[2 * n] - u[2 * n] * v[2 * n + 1]) / sigma[n]
    return float(total)
