"""Test whether a dynamics can arise as a (b-)cotangent lift.

A diffeomorphism of the base lifts to the cotangent bundle so that its
projection to the base forgets the fiber; consequently the base (position)
component of a lifted infinitesimal generator cannot depend on the momenta.
``projectability_test`` probes exactly that: it evaluates the base component
of the Hamiltonian field at several fiber points over each base point and
reports any variation beyond tolerance, together with a witness pair of
states.

The twisted dissipative systems fail the test (their base component is
``p^2``), while the lifted torus generator ``c log|p_1| + p_2 + ...`` passes
it with unit base speed -- the positive control built by
``toric_moment_field``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# hamiltonian_vector_field is not called here; it stays importable as
# bhamsys.liftcheck.hamiltonian_vector_field, where perfbench/tracer.py wraps it.
from .geometry import (PhaseState, PhaseStructure, StructureKind,  # noqa: F401
                       _check_state, _defining_index, compile_field,
                       hamiltonian_vector_field)
from .hamiltonians import LogMomentumHamiltonian

__all__ = [
    "Verdict",
    "Witness",
    "LiftVerdict",
    "projectability_test",
    "toric_moment_field",
]

DEFAULT_TOL = 1e-9


class Verdict(str, Enum):
    PROJECTABLE = "projectable"
    NOT_PROJECTABLE = "not_projectable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """Two states over the same base point whose base velocities differ."""

    state_a: PhaseState
    state_b: PhaseState
    difference: float


@dataclass(frozen=True)
class LiftVerdict:
    verdict: Verdict
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.verdict is Verdict.NOT_PROJECTABLE and self.witness is None:
            raise ValueError("a not_projectable verdict requires a witness")


def _as_vector(value, n: int, what: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.size != n:
        raise ValueError(f"{what} must have {n} component(s), got {v.size}")
    return v


def projectability_test(structure: PhaseStructure, h, base_points, fiber_samples,
                        tol: float = DEFAULT_TOL) -> LiftVerdict:
    """Probe fiber-independence of the base component of the field.

    ``base_points`` are position vectors (scalars for n = 1) and
    ``fiber_samples`` momentum vectors; every (base, fiber) combination is
    evaluated.  Returns ``not_projectable`` with a witness as soon as some
    base point shows base-velocity variation above ``tol`` across fibers,
    ``projectable`` when all variations stay within ``tol``, and
    ``inconclusive`` when the sampling is degenerate (all fibers equal) or
    when no variation exceeds ``tol`` but some is NaN, as when the field
    overflows on every fiber.

    For singular structures the fiber samples must stay off the critical
    set.
    """
    n = structure.n
    bases = [_as_vector(b, n, "base point") for b in base_points]
    fibers = [_as_vector(f, n, "fiber sample") for f in fiber_samples]
    if not bases:
        raise ValueError("need at least one base point")
    if len(fibers) < 2:
        raise ValueError("need at least two fiber samples per base point")

    if all(np.array_equal(f, fibers[0]) for f in fibers[1:]):
        return LiftVerdict(Verdict.INCONCLUSIVE)

    # extended structures need a conjugate pair the samples do not carry
    _check_state(structure, PhaseState(q=bases[0], p=fibers[0]))
    # every (base, fiber) state as one flat row: Y[b, f] = (base b, fiber f)
    B, F = len(bases), len(fibers)
    Y = np.empty((B, F, 2 * n))
    Y[:, :, :n] = np.array(bases)[:, None, :]
    Y[:, :, n:] = np.array(fibers)[None, :, :]
    if structure.is_singular and np.any(Y[:, :, _defining_index(structure)] == 0.0):
        raise ValueError("fiber sample lies on the critical set")

    # The largest max-norm difference over fiber pairs is, per component, the
    # spread max - min; rounding is monotone, so it is the same float as the
    # largest pairwise difference.  As in a scan over the pairs in order, the
    # first base point attaining the maximum wins, and its witness is the
    # first fiber pair (i < j) attaining it.  A NaN spread (inf - inf, when
    # the field overflows on every fiber) decides nothing and is left out.
    # An overflow is an outcome of the probe, so it does not warn.
    with np.errstate(all="ignore"):
        velocity = compile_field(structure, h)(Y.reshape(-1, 2 * n))
        velocity = velocity.reshape(B, F, 2 * n)[:, :, :n]
        spread = velocity.max(axis=1) - velocity.min(axis=1)
    undecided = np.isnan(spread)
    spread[undecided] = -np.inf
    worst = float(np.max(spread))
    if not worst > tol:
        return LiftVerdict(Verdict.INCONCLUSIVE if undecided.any() else Verdict.PROJECTABLE)
    b = int(np.argmax(np.max(spread, axis=1)))
    lo, hi = np.argmin(velocity[b], axis=0), np.argmax(velocity[b], axis=0)
    i, j = min(sorted((lo[c], hi[c])) for c in range(n) if spread[b, c] == worst)
    witness = Witness(PhaseState(q=bases[b], p=fibers[i]), PhaseState(q=bases[b], p=fibers[j]),
                      worst)
    return LiftVerdict(Verdict.NOT_PROJECTABLE, witness=witness)


def toric_moment_field(structure: PhaseStructure, c: Optional[float] = None) -> LogMomentumHamiltonian:
    """Hamiltonian of the lifted torus generator for a twisted structure.

    Its field has unit speed in every base direction and keeps all momenta
    fixed, independently of ``c`` and of the fiber point.
    """
    if structure.kind is not StructureKind.TWISTED_B:
        raise ValueError("the lifted torus generator lives on the twisted structure")
    if c is None:
        c = structure.modular_weight
    if c == 0.0:
        raise ValueError("c must be nonzero")
    return LogMomentumHamiltonian(c=c, n=structure.n,
                                  singular_index=structure.singular_index)
