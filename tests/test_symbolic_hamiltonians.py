"""The Hamiltonians and their exact gradients against a symbolic derivation.

H is written in sympy from the formulas of the :mod:`bhamsys.hamiltonians`
docstring, for the plain, rescaled and s-coordinate variants (and the
non-extended one), every named potential family and n = 1, 2.  The two
Poincare variants are written as g * H, with g = lam exp(-lam t) times the
rescaled H and g = lam s times the s-coordinate one.  At seeded states,
``HamiltonianSpec.value`` must equal H, ``HamiltonianSpec.gradient`` its
partials and ``_family_slope`` dV/dx, each within 1e-12 relative to the
larger of the exact value and 1 (the largest error seen is near 1e-15).  For
all five extended variants the one-row kernel of ``compile_field``, which
puts the closed-form partials in place without the gradient, must equal
P . grad H too, with a Python float in every entry.
"""

import itertools

import numpy as np
import pytest

from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind, compile_field
from bhamsys.hamiltonians import (ExtendedKind, HamiltonianSpec, PotentialFamily,
                                  PotentialSpec, _family_slope)

sp = pytest.importorskip("sympy")

FAMILIES = [f for f in PotentialFamily if f is not PotentialFamily.CUSTOM]
VARIANTS = list(ExtendedKind)
S_VARIANTS = (ExtendedKind.S_COORDINATES, ExtendedKind.POINCARE_S)
REL = 1e-12
DIGITS = 30


def symbolic_potential(family, lam, alpha, x):
    """V(x) as in the family table of the hamiltonians docstring."""
    return {
        PotentialFamily.LINEAR: lam / 2 * x,
        PotentialFamily.PURE_QUADRATIC: lam / 4 * x**2,
        PotentialFamily.GENERAL_QUADRATIC: lam / 2 * x * (1 + alpha * x / 2),
        PotentialFamily.PERIODIC: lam / 2 * sp.cos(x),
        PotentialFamily.ZERO: sp.Integer(0),
    }[family]


def symbolic_hamiltonian(variant, v, p, tau, energy, friction):
    """H of the variant, where ``tau`` is t or s and ``energy`` E or E_s."""
    kinetic = sum(pi**2 for pi in p) / 2
    if variant is ExtendedKind.NONE:
        return kinetic + v
    if variant is ExtendedKind.PLAIN_EXTENDED:
        return kinetic + v - energy
    if variant is ExtendedKind.RESCALED_EXTENDED:
        return (kinetic + sp.exp(2 * friction * tau) / friction**2 * v
                - sp.exp(friction * tau) / friction * energy)
    if variant is ExtendedKind.POINCARE_T:
        return (friction * sp.exp(-friction * tau)
                * symbolic_hamiltonian(ExtendedKind.RESCALED_EXTENDED, v, p, tau, energy,
                                       friction))
    if variant is ExtendedKind.POINCARE_S:
        return friction * tau * symbolic_hamiltonian(ExtendedKind.S_COORDINATES, v, p, tau,
                                                     energy, friction)
    return kinetic + v / (friction * tau) ** 2 - energy / tau


def symbolic_field(variant, partials, coords, n):
    """P . grad H on the variant's extended structure (modular weight 1):
    (dH/dp, -dH/dq), then (-dH/dE, dH/dt) on (t, E) or s (dH/dE_s, -dH/ds)
    on (s, E_s)."""
    tail = ([coords[2 * n] * partials[2 * n + 1], -coords[2 * n] * partials[2 * n]]
            if variant in S_VARIANTS else [-partials[2 * n + 1], partials[2 * n]])
    return partials[n:2 * n] + [-x for x in partials[:n]] + tail


def rational(x):
    return sp.Rational(float(x))


def assert_close(actual, exact, what):
    exact = float(exact)
    assert abs(actual - exact) <= REL * max(abs(exact), 1.0), (what, actual, exact)


CASES = list(itertools.product(VARIANTS, FAMILIES, (1, 2)))


@pytest.mark.parametrize("variant,family,n", CASES,
                         ids=[f"{v.value}-{f.value}-n{n}" for v, f, n in CASES])
def test_value_and_gradient_equal_the_symbolic_hamiltonian(variant, family, n):
    rng = np.random.default_rng(CASES.index((variant, family, n)))
    lam = float(rng.uniform(0.5, 3.0))
    alpha = float(rng.uniform(-1.0, 1.0)) if family is PotentialFamily.GENERAL_QUADRATIC else 0.0
    friction = float(rng.uniform(0.3, 1.5))
    axis = n - 1
    extended = variant is not ExtendedKind.NONE
    spec = HamiltonianSpec(potential=PotentialSpec(family, lam=lam, alpha=alpha), n=n, axis=axis,
                           extended=variant,
                           friction=friction if variant not in (ExtendedKind.NONE,
                                                                ExtendedKind.PLAIN_EXTENDED)
                           else None)
    if extended:
        kind = (StructureKind.EXTENDED_B_S if variant in S_VARIANTS
                else StructureKind.EXTENDED_CANONICAL)
        field = compile_field(PhaseStructure(kind, dim=2 * n), spec).row

    q = sp.symbols(f"q1:{n + 1}")
    p = sp.symbols(f"p1:{n + 1}")
    tau, energy = sp.symbols("tau energy")
    coords = list(q) + list(p) + ([tau, energy] if extended else [])
    v = symbolic_potential(family, rational(lam), rational(alpha), q[axis])
    h = symbolic_hamiltonian(variant, v, p, tau, energy, rational(friction))
    partials = [sp.diff(h, c) for c in coords]
    slope = sp.diff(v, q[axis])

    for _ in range(4):
        qs, ps = rng.uniform(-2.0, 2.0, size=n), rng.uniform(-2.0, 2.0, size=n)
        extra = None
        if extended:
            lo, hi = (0.05, 1.0) if variant in S_VARIANTS else (0.0, 3.0)
            extra = (float(rng.uniform(lo, hi)), float(rng.uniform(-2.0, 2.0)))
        state = PhaseState(qs, ps, extra=extra)
        values = state.to_array().tolist()
        subs = {c: rational(x) for c, x in zip(coords, values)}

        assert_close(spec.value(state), h.evalf(DIGITS, subs=subs), "value")
        gradient = spec.gradient(state)
        assert gradient.shape == (len(coords),)
        for c, actual, exact in zip(coords, gradient, partials):
            assert_close(float(actual), exact.evalf(DIGITS, subs=subs), f"dH/d{c}")
        assert_close(float(_family_slope(spec.potential)(float(qs[axis]))),
                     slope.evalf(DIGITS, subs=subs), "slope")
        if extended:
            velocity = field(values)
            exact_field = symbolic_field(variant, partials, coords, n)
            assert len(velocity) == len(coords)
            for c, actual, exact in zip(coords, velocity, exact_field):
                assert type(actual) is float
                assert_close(actual, exact.evalf(DIGITS, subs=subs), f"d{c}/dtau")
