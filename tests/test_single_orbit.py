"""The cost of a one-orbit run: the extended kernel, the DOP853 step and the
import heap of the CLI.

Each rewrite must keep the bits of what it replaces, so every test here
compares against a reference kept in this file: the scalar formulas of the
extended gradients, the swap and scale of ``h.gradient`` into a field (for
the array kernel and its one-row form ``F.row``), and the generator sums of
the DOP853 step.
"""

import math

import numpy as np
import pytest
from conftest import run_python
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind, compile_field
from bhamsys.hamiltonians import (EXP_GUARD, ExtendedKind, HamiltonianSpec, PotentialSpec,
                                  potential_gradient, potential_time_derivative,
                                  potential_value)
from bhamsys.integrate import (_DOP_A, _DOP_E3, _DOP_E5, EventKind, IntegratorConfig, Method,
                               _dop_step, integrate)
from bhamsys.timescale import (build_rescaled_extended, rescaled_initial_state, run_rescaled,
                               run_s_coordinates, to_s_coordinates, to_s_state)

FAMILIES = {
    "zero": {},
    "linear": {"lam": 1.3},
    "pure_quadratic": {"lam": 0.7},
    "general_quadratic": {"lam": 0.9, "alpha": -0.4},
    "periodic": {"lam": 1.1},
}
VARIANTS = (ExtendedKind.RESCALED_EXTENDED, ExtendedKind.S_COORDINATES)


def scalar_gradient(h, state):
    """The partials of an extended ``h`` as the one-state formulas give them,
    with numpy arrays for the dV/dq block and Python floats for the rest."""
    n, pot, axis = h.n, h.potential, h.axis
    out = np.empty(2 * n + 2)
    out[n:2 * n] = state.p
    lam = h.friction
    if h.extended is ExtendedKind.RESCALED_EXTENDED:
        t, e = state.extra
        if lam * t > EXP_GUARD:
            raise OverflowError("exp(lam*t) overflow in rescaled Hamiltonian")
        elt = math.exp(lam * t)
        e2lt = elt * elt
        v = potential_value(pot, state.q, t, axis)
        v_t = potential_time_derivative(pot, state.q, t, axis)
        out[:n] = e2lt / lam**2 * potential_gradient(pot, state.q, t, axis)
        out[2 * n] = 2 * e2lt / lam * v + e2lt / lam**2 * v_t - elt * e
        out[2 * n + 1] = -elt / lam
        return out
    s, e_s = state.extra
    if s <= 0.0:
        raise ValueError("Hamiltonian singular at s=0")
    t = -math.log(s) / lam
    v = potential_value(pot, state.q, t, axis)
    v_t = potential_time_derivative(pot, state.q, t, axis)
    out[:n] = potential_gradient(pot, state.q, t, axis) / (lam * s) ** 2
    out[2 * n] = -v_t / (lam**3 * s**3) - 2 * v / (lam**2 * s**3) + e_s / s**2
    out[2 * n + 1] = -1.0 / s
    return out


def swapped_field(structure, h, y):
    """``P . grad H`` from ``h.gradient``, one conjugate pair at a time."""
    n = structure.n
    g = h.gradient(PhaseState.from_array(y, n, True))
    v = np.empty_like(g)
    for i in range(n):
        v[i], v[n + i] = g[n + i], -g[i]
    if structure.kind is StructureKind.EXTENDED_CANONICAL:
        v[2 * n], v[2 * n + 1] = -g[2 * n + 1], g[2 * n]
    else:
        sigma = y[2 * n] / structure.modular_weight
        v[2 * n], v[2 * n + 1] = sigma * g[2 * n + 1], -(sigma * g[2 * n])
    return v


def same_bits(a, b):
    """Equal to the bit, signed zeros included; any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all((a.view(np.int64) == b.view(np.int64))
                                              | (np.isnan(a) & np.isnan(b))))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return (type(exc), str(exc))


coordinates = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-3, -7.5]))
# t or s: small, near the exp guard, past it, zero and negative
first_of_pair = st.one_of(st.floats(-2.0, 2.0), st.floats(300.0, 900.0),
                          st.sampled_from([0.0, -0.0, 1e-120, -0.5]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning",
                            "ignore:divide by zero:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(variant=st.sampled_from(VARIANTS), family=st.sampled_from(sorted(FAMILIES)),
       n=st.integers(1, 2), data=st.data())
def test_extended_kernel_matches_the_swapped_gradient(variant, family, n, data):
    axis = data.draw(st.integers(0, n - 1), label="axis")
    friction = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="friction")
    weight = data.draw(st.sampled_from([1.0, -0.5]), label="weight")
    h = HamiltonianSpec(PotentialSpec(family, **FAMILIES[family]), n=n, axis=axis,
                        extended=variant, friction=friction)
    if variant is ExtendedKind.S_COORDINATES:
        structure = PhaseStructure(StructureKind.EXTENDED_B_S, dim=2 * n, modular_weight=weight)
    else:
        structure = PhaseStructure(StructureKind.EXTENDED_CANONICAL, dim=2 * n)
    rows = [data.draw(st.lists(coordinates, min_size=2 * n, max_size=2 * n), label="q, p")
            + [data.draw(first_of_pair, label="t or s"), data.draw(coordinates, label="E")]
            for _ in range(data.draw(st.integers(1, 3), label="rows"))]
    Y = np.array(rows)
    F = compile_field(structure, h)

    expected = []
    for y in Y:
        state = PhaseState.from_array(y, n, True)
        want = outcome(scalar_gradient, h, state)
        got = outcome(h.gradient, state)
        if isinstance(want, tuple):
            assert got == want
            assert outcome(F, y) == want
            assert outcome(F.row, y.tolist()) == want
        else:
            assert same_bits(got, want)
            expected.append(swapped_field(structure, h, y))
            assert same_bits(F(y), expected[-1])
            row = F.row(y.tolist())
            assert all(type(v) is float for v in row)
            assert same_bits(row, expected[-1])
    if len(expected) == len(Y):
        assert same_bits(F(Y), np.array(expected))


@pytest.mark.parametrize("variant", [ExtendedKind.RESCALED_EXTENDED, ExtendedKind.S_COORDINATES])
def test_time_factors_on_a_seeded_sweep(variant):
    # numpy's exp differs from math.exp in the last bit on about one value in
    # twenty, so 500 rows tell the two apart every time
    rng = np.random.default_rng(5)
    h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=1.3), extended=variant,
                        friction=0.9)
    kind = (StructureKind.EXTENDED_B_S if variant is ExtendedKind.S_COORDINATES
            else StructureKind.EXTENDED_CANONICAL)
    structure = PhaseStructure(kind, modular_weight=1.0)
    Y = np.column_stack([rng.uniform(-3.0, 3.0, (500, 2)), rng.uniform(0.01, 4.0, 500),
                         rng.uniform(-3.0, 3.0, 500)])
    for y in Y:
        state = PhaseState.from_array(y, 1, True)
        assert same_bits(h.gradient(state), scalar_gradient(h, state))
    expected = np.array([swapped_field(structure, h, y) for y in Y])
    F = compile_field(structure, h)
    assert same_bits(F(Y), expected)
    assert same_bits([F.row(y) for y in Y.tolist()], expected)


@pytest.mark.parametrize("variant,extra,error", [
    (ExtendedKind.RESCALED_EXTENDED, (EXP_GUARD / 2.0 + 1e-9, 0.0),
     (OverflowError, "exp(lam*t) overflow in rescaled Hamiltonian")),
    (ExtendedKind.S_COORDINATES, (0.0, 1.0), (ValueError, "Hamiltonian singular at s=0")),
    (ExtendedKind.S_COORDINATES, (-1e-300, 1.0), (ValueError, "Hamiltonian singular at s=0")),
])
def test_kernel_guards_raise_what_the_gradient_raises(variant, extra, error):
    h = HamiltonianSpec(PotentialSpec("linear"), extended=variant, friction=2.0)
    kind = (StructureKind.EXTENDED_B_S if variant is ExtendedKind.S_COORDINATES
            else StructureKind.EXTENDED_CANONICAL)
    y = np.array([0.5, -1.0, *extra])
    assert outcome(scalar_gradient, h, PhaseState.from_array(y, 1, True)) == error
    F = compile_field(PhaseStructure(kind), h)
    assert outcome(F, np.array([y, y])) == error
    assert outcome(F.row, y.tolist()) == error


def test_timescale_runs_never_call_the_gradient_method(monkeypatch):
    def no_gradient(self, state):
        raise AssertionError("the kernel went through HamiltonianSpec.gradient")
    monkeypatch.setattr(HamiltonianSpec, "gradient", no_gradient)
    potential, q0, v0 = PotentialSpec("pure_quadratic", lam=0.7), [0.3, -0.2], [0.5, 0.1]
    for runner in (run_rescaled, run_s_coordinates):
        traj = runner(potential, 0.8, q0, v0, 2.0, axis=1)
        assert traj.terminal_event.kind is EventKind.T_MAX
    # the rescaled and s-coordinate H share the kernel of K
    rescaled = build_rescaled_extended(potential, 0.8, n=2, axis=1)
    initial = rescaled_initial_state(potential, 0.8, q0, v0, axis=1)
    runs = [(*rescaled, initial),
            (*to_s_coordinates(*rescaled), to_s_state(initial, 0.8))]
    config = IntegratorConfig(method=Method.RK_ADAPTIVE, t_max=0.5)
    for structure, h, y0 in runs:
        assert integrate(structure, h, y0, config).terminal_event.kind is EventKind.T_MAX


def dop_reference(f, y, dt, k0):
    """The DOP853 step as generator sums over a list of stages; returns y8,
    the two error sums and the stages k0..k12 in one tuple."""
    ks = [k0]
    for row in _DOP_A[:11]:
        acc = sum(a * k for a, k in zip(row, ks))
        ks.append(f(y + dt * acc))
    y8 = y + dt * sum(b * k for b, k in zip(_DOP_A[11], ks))
    ks.append(f(y8))
    return (y8, sum(e * k for e, k in zip(_DOP_E5, ks)),
            sum(e * k for e, k in zip(_DOP_E3, ks)), *ks)


FIELDS = {
    # n = 2 twisted: the off-axis momentum's velocity is -0.0 in every stage
    "twisted_n2": (PhaseStructure(StructureKind.TWISTED_B, dim=4),
                   HamiltonianSpec(PotentialSpec("pure_quadratic", lam=0.8), n=2)),
    "rescaled": (PhaseStructure(StructureKind.EXTENDED_CANONICAL),
                 HamiltonianSpec(PotentialSpec("linear"), extended="rescaled_extended",
                                 friction=0.7)),
    "s_coordinates": (PhaseStructure(StructureKind.EXTENDED_B_S, dim=4),
                      HamiltonianSpec(PotentialSpec("periodic"), n=2, axis=1,
                                      extended="s_coordinates", friction=1.2)),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(FIELDS)), dt=st.floats(1e-6, 0.1), data=st.data())
def test_dp_step_matches_the_generator_sums(name, dt, data):
    structure, h = FIELDS[name]
    F = compile_field(structure, h)
    d = structure.total_dim
    y = data.draw(arrays(float, d, elements=st.one_of(st.floats(-2.0, 2.0),
                                                      st.sampled_from([0.0, -0.0]))))
    if structure.kind is StructureKind.EXTENDED_B_S:
        y[2 * structure.n] = data.draw(st.floats(0.5, 1.0))  # s > 0 in every stage
    k0 = F(y)
    y8, e5, e3, stages = _dop_step(F.row, y.tolist(), dt, k0.tolist())
    for got, want in zip([y8, e5, e3, *stages], dop_reference(F, y, dt, k0), strict=True):
        assert same_bits(got, want)


@given(y=arrays(float, 3, elements=st.sampled_from([0.0, -0.0, 0.5, -2.0])),
       k0=arrays(float, 3, elements=st.sampled_from([0.0, -0.0, 1.0, -2.5])))
@settings(max_examples=100, deadline=None)
def test_dp_step_keeps_the_sign_of_zero_sums(y, k0):
    # a sum of -0.0 terms is +0.0 from a start of 0.0 and -0.0 without it;
    # this f turns the sign of a zero input into a different stage
    def f(x):
        return np.where(x == 0.0, np.copysign(0.5, x), np.sin(x))

    def f_row(x):
        return f(np.array(x)).tolist()
    y8, e5, e3, stages = _dop_step(f_row, y.tolist(), 0.1, k0.tolist())
    for got, want in zip([y8, e5, e3, *stages], dop_reference(f, y, 0.1, k0), strict=True):
        assert same_bits(got, want)


def frozen_after(statement):
    code = f"import gc; {statement}; print(gc.get_freeze_count())"
    return int(run_python(["-c", code], check=True).stdout)


def test_cli_import_freezes_the_import_heap():
    assert frozen_after("import bhamsys.cli") > 0
    assert frozen_after("import bhamsys") == 0
