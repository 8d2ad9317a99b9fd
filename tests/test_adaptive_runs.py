"""Adaptive DP5 runs on Python floats against their numpy predecessor.

The reference below is the numpy loop of adaptive runs that the scalar one
replaced, kept here verbatim apart from its names and its Z event, which
now fires on the first sample with ``side * d <= z_epsilon`` and is located
on the step's continuous extension, with no clamp of the step near Z: a
trial step with its seven stages as the rows of one array, and the run's
tests as ``np.max`` over arrays.  Every run must give the reference's times, samples and events
to the bit, forward and backward, over the structures, families and
Hamiltonian kinds the kernel has paths for.  The edge cases pin the
decisions where NaN, inf and raising fields meet the run's tests.
"""

import math

import numpy as np
import pytest

from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind, compile_field
from bhamsys.hamiltonians import (ExtendedKind, HamiltonianSpec, LogMomentumHamiltonian,
                                  PotentialSpec)
from bhamsys.integrate import (_BLOWUP_ERRORS, _DP_A, _DP_B5, _DP_ERR, _DP_P, MIN_STEP,
                               STEP_GROW, STEP_SAFETY, STEP_SHRINK, Event, EventKind,
                               IntegratorConfig, Method, Trajectory, _bisect,
                               _defining_index, integrate)
from bhamsys.timescale import build_rescaled_extended, to_s_coordinates, to_s_state

_DP_A_COLS = tuple(np.array(row)[:, None] for row in _DP_A)
_DP_B5_COL = np.array(_DP_B5)[:, None]
_DP_ERR_COL = np.array(_DP_ERR)[:, None]
_DP_P_ROWS = np.array(_DP_P).T


def reference_dp_step(f, y, dt, k1):
    K = np.empty((7, y.size))
    K[0] = k1
    for i, a in enumerate(_DP_A_COLS, 1):
        K[i] = f(y + dt * (a * K[:i]).sum(axis=0))
    y5 = y + dt * (_DP_B5_COL * K[:6]).sum(axis=0)
    K[6] = f(y5)
    return y5, dt * (_DP_ERR_COL * K).sum(axis=0), K


def reference_dense(y, K, dt, tau):
    u = tau / dt
    powers = np.array([u, u * u, u * u * u, u * u * u * u])[:, None]
    weights = (powers * _DP_P_ROWS).sum(axis=0)[:, None]
    return y + dt * (weights * K).sum(axis=0)


def reference_adaptive(structure, h, F, sign, y, config) -> Trajectory:
    f = F if sign == 1.0 else (lambda x: sign * F(x))
    f_cur = f(y)

    times = [0.0]
    samples = [y]

    def finish(event):
        return Trajectory(times=np.array(times), ys=np.array(samples),
                          events=(event,), structure=structure, hamiltonian=h)

    if np.max(np.abs(f_cur)) < config.fp_epsilon:
        return finish(Event(0.0, EventKind.FIXED_POINT))

    z_armed = False
    z_idx = -1
    z_eps = config.z_epsilon
    if structure.is_singular:
        z_idx = _defining_index(structure)
        z_armed = abs(y[z_idx]) >= z_eps
        z_side = 1.0 if y[z_idx] > 0.0 else -1.0

    t = 0.0
    dt_next = config.step
    while True:
        remaining = config.t_max - t
        if remaining <= config.t_max * 1e-14:
            return finish(Event(config.t_max, EventKind.T_MAX))

        accepted = None
        dt = min(max(dt_next, MIN_STEP), config.t_max / 10.0, remaining)
        while accepted is None:
            dt = max(dt, MIN_STEP)
            try:
                y_trial, err, K = reference_dp_step(f, y, dt, f_cur)
            except _BLOWUP_ERRORS:
                y_trial = np.array([np.nan])
            if not np.all(np.isfinite(y_trial)):
                if dt <= 2 * MIN_STEP:
                    return finish(Event(t + dt, EventKind.BLOWUP))
                dt = max(0.25 * dt, MIN_STEP)
                continue
            scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_trial))
            err_norm = float(np.max(np.abs(err) / scale))
            if err_norm <= 1.0 or dt <= 2 * MIN_STEP:
                accepted = (y_trial, K)
                factor = STEP_GROW if err_norm == 0.0 else min(
                    STEP_GROW, max(STEP_SHRINK, STEP_SAFETY * err_norm ** -0.2))
                dt_next = dt * factor
            else:
                dt = dt * max(STEP_SHRINK, STEP_SAFETY * err_norm ** -0.2)
        y_new, K = accepted
        f_new = K[6]
        t_new = t + dt
        if remaining - dt <= config.t_max * 1e-14:
            t_new = config.t_max

        if z_armed and z_side * y_new[z_idx] <= z_eps:
            _, tau = _bisect(lambda u: z_eps - z_side * reference_dense(y, K, dt, u)[z_idx], dt)
            times.append(t + tau)
            samples.append(reference_dense(y, K, dt, tau))
            return finish(Event(t + tau, EventKind.REACHED_Z))

        times.append(t_new)
        samples.append(y_new)

        if np.max(np.abs(y_new)) > config.blowup_bound:
            return finish(Event(t_new, EventKind.BLOWUP))
        if np.max(np.abs(f_new)) < config.fp_epsilon:
            return finish(Event(t_new, EventKind.FIXED_POINT))

        y = y_new
        f_cur = f_new
        t = t_new


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same error, by type and message
        return (type(exc), str(exc))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def assert_same_as_reference(structure, h, state, config, direction=1):
    """The scalar run of ``state`` equals the reference's, to the
    bit, or both raise the same error; returns the run."""
    F = compile_field(structure, h)
    want = outcome(reference_adaptive, structure, h, F, float(direction), state.to_array(),
                   config)
    got = outcome(integrate, structure, h, state, config, direction)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert isinstance(got, Trajectory)
    assert bits(got.times) == bits(want.times)
    assert bits(got.ys) == bits(want.ys)
    assert [(e.kind, float(e.time).hex()) for e in got.events] == \
        [(e.kind, float(e.time).hex()) for e in want.events]
    return got


ADAPTIVE = dict(method=Method.RK_ADAPTIVE, step=1e-2, rel_tol=1e-8, abs_tol=1e-9)
FAMILIES = {
    "zero": {},
    "linear": {"lam": 1.3},
    "pure_quadratic": {"lam": 0.7},
    "general_quadratic": {"lam": 0.9, "alpha": -0.4},
    "periodic": {"lam": 1.1},
}


class RowByRow:
    """Duck-typed view of a Hamiltonian: only ``gradient``."""

    def __init__(self, h):
        self.h = h
        self.extra_role = h.extra_role

    def gradient(self, state):
        return self.h.gradient(state)


def _custom(q, t):
    return float(0.3 * q[0] ** 3 - 0.5 * math.sin(t) * q[-1])


RUNS = {
    "twisted_stokes": (PhaseStructure(StructureKind.TWISTED_B),
                       HamiltonianSpec(PotentialSpec("linear", lam=2.0)),
                       PhaseState(0.0, 1.0), dict(t_max=12.0, z_epsilon=1e-2)),
    "twisted_n2_pure_quadratic": (
        PhaseStructure(StructureKind.TWISTED_B, dim=4, singular_index=1),
        HamiltonianSpec(PotentialSpec("pure_quadratic", lam=0.8), n=2, axis=1),
        PhaseState([0.3, 0.5], [-0.4, 1.1]), dict(t_max=8.0)),
    "angular_periodic": (
        PhaseStructure(StructureKind.TWISTED_B, modular_weight=1.5, angular_mask=(True,)),
        HamiltonianSpec(PotentialSpec("periodic", lam=2.0)),
        PhaseState(1.0, 1.7), dict(t_max=10.0)),
    "general_quadratic": (PhaseStructure(StructureKind.TWISTED_B, modular_weight=0.7),
                          HamiltonianSpec(PotentialSpec("general_quadratic", lam=2.0,
                                                        alpha=0.3)),
                          PhaseState(-0.6, 0.9), dict(t_max=6.0)),
    "nontwisted": (PhaseStructure(StructureKind.NONTWISTED_B, modular_weight=-0.5),
                   HamiltonianSpec(PotentialSpec("pure_quadratic", lam=1.0)),
                   PhaseState(0.8, -0.3), dict(t_max=5.0)),
    "canonical_n2": (PhaseStructure(StructureKind.CANONICAL, dim=4),
                     HamiltonianSpec(PotentialSpec("periodic", lam=1.0), n=2, axis=0),
                     PhaseState([0.4, -0.2], [0.3, 0.6]), dict(t_max=7.0)),
    "custom_potential": (PhaseStructure(StructureKind.TWISTED_B),
                         HamiltonianSpec(PotentialSpec("custom", custom_eval=_custom)),
                         PhaseState(0.2, 0.8), dict(t_max=4.0)),
    "duck_typed": (PhaseStructure(StructureKind.TWISTED_B, dim=4),
                   RowByRow(HamiltonianSpec(PotentialSpec("general_quadratic", lam=1.2,
                                                          alpha=-0.3), n=2)),
                   PhaseState([0.1, 0.0], [0.7, -0.5]), dict(t_max=5.0)),
    "log_momentum": (PhaseStructure(StructureKind.TWISTED_B, dim=4),
                     LogMomentumHamiltonian(c=1.5, n=2),
                     PhaseState([0.0, 1.0], [0.5, -2.0]), dict(t_max=3.0)),
}


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_runs_equal_the_reference(name, direction):
    structure, h, state, extra = RUNS[name]
    run = assert_same_as_reference(structure, h, state, IntegratorConfig(**ADAPTIVE, **extra),
                                   direction)
    assert isinstance(run, Trajectory) and len(run) > 5


def _extended_case(clock, family, n):
    """The rescaled system (clock t) or its s-coordinates (clock s), with
    its initial state for (q0, v0) = (0.4, -0.3) on every axis."""
    potential = (PotentialSpec("custom", custom_eval=_custom) if family == "custom"
                 else PotentialSpec(family, **FAMILIES[family]))
    lam = 0.8
    structure, h = build_rescaled_extended(potential, lam, n=n, axis=n - 1)
    q0, p0 = [0.4] * n, [-0.3 / lam] * n
    state = PhaseState(q0, p0, extra=(0.0, 0.25))
    if clock == "s":
        structure, h = to_s_coordinates(structure, h)
        state = to_s_state(state, lam)
    return structure, h, state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES) + ["custom"])
@pytest.mark.parametrize("clock", ["t", "s"])
def test_extended_runs_equal_the_reference(clock, family, n, direction):
    structure, h, state = _extended_case(clock, family, n)
    config = IntegratorConfig(**ADAPTIVE, t_max=0.9, z_epsilon=1e-3, blowup_bound=1e30)
    run = assert_same_as_reference(structure, h, state, config, direction)
    assert run.terminal_event.kind is EventKind.T_MAX and len(run) > 5


def test_the_plain_extended_variant_equals_the_reference():
    h = HamiltonianSpec(PotentialSpec("custom", custom_eval=_custom), n=2,
                        extended=ExtendedKind.PLAIN_EXTENDED)
    structure = PhaseStructure(StructureKind.EXTENDED_CANONICAL, dim=4)
    state = PhaseState([0.1, -0.2], [0.5, 0.3], extra=(0.0, 1.0))
    for direction in (1, -1):
        run = assert_same_as_reference(structure, h, state,
                                       IntegratorConfig(**ADAPTIVE, t_max=3.0), direction)
        assert run.terminal_event.kind is EventKind.T_MAX


# ---------------------------------------------------------------------------
# edge semantics: NaN, inf and raising fields, fixed points, signed zeros

class Canonical:
    """A duck-typed field on the canonical (q, p) plane, given as its
    velocity ``(dq, dp)``; the gradient is ``(-dp, dq)``."""

    extended = ExtendedKind.NONE
    extra_role = None

    def __init__(self, velocity):
        self.velocity = velocity

    def gradient(self, state):
        dq, dp = self.velocity(state.q[0], state.p[0])
        return np.array([-dp, dq])


CANONICAL = PhaseStructure(StructureKind.CANONICAL)


def _nan_past(k):
    # dp = k q^3 makes y5 differ from every stage point: p gains about
    # k dt^4 / 4 at y5 and at most 0.105 k dt^4 at a stage; past p = 0.2 the
    # velocity is (1e-20, NaN), whose first entry alone is a fixed point
    def velocity(q, p):
        return (1e-20, np.nan) if p > 0.2 else (1.0, k * q**3)
    return Canonical(velocity)


@pytest.mark.parametrize("step,k", [(1e-12, 1e48), (1e-6, 1e24)],
                         ids=["at-the-least-step", "with-room-to-shrink"])
def test_a_field_turning_nan_is_never_a_fixed_point(step, k):
    config = IntegratorConfig(method=Method.RK_ADAPTIVE, step=step, t_max=1e3 * step)
    run = assert_same_as_reference(CANONICAL, _nan_past(k), PhaseState(0.0, 0.0), config)
    assert run.terminal_event.kind is EventKind.BLOWUP
    assert np.all(np.isfinite(run.ys)) and len(run) >= 2


def test_a_nan_start_is_not_a_fixed_point():
    h = Canonical(lambda q, p: (0.0, np.nan))
    config = IntegratorConfig(**ADAPTIVE)
    run = assert_same_as_reference(CANONICAL, h, PhaseState(0.0, 0.0), config)
    assert run.terminal_event.kind is EventKind.BLOWUP and len(run) == 1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("band", [(0.15, 0.25), (0.15, math.inf)], ids=["band", "half-line"])
def test_a_field_turning_inf_ends_in_blowup(band):
    # from q = 0 at unit speed, the first trial step of length 1 puts only its
    # second stage, at q = 0.2, on the band: its NaN reaches y5 through the
    # zero weight of k2 alone
    lo, hi = band

    def velocity(q, p):
        return (1.0, math.inf if lo <= q <= hi else 0.0)
    config = IntegratorConfig(method=Method.RK_ADAPTIVE, step=1.0, t_max=10.0)
    run = assert_same_as_reference(CANONICAL, Canonical(velocity), PhaseState(0.0, 0.0),
                                   config)
    assert run.terminal_event.kind is EventKind.BLOWUP
    assert run.terminal_event.time == pytest.approx(lo, abs=1e-9)
    assert run.times[-1] < lo <= run.terminal_event.time


def test_an_overflow_past_the_exp_guard_ends_in_blowup():
    # dt/dsigma = exp(lam t)/lam = e^699 at the start: a step as short as
    # MIN_STEP takes t past the guard at lam t = 700, where the Hamiltonian
    # raises OverflowError; the run ends in blowup instead of raising
    structure, h = build_rescaled_extended(PotentialSpec("linear"), 1.0)
    state = PhaseState(0.5, 0.1, extra=(699.0, 0.0))
    config = IntegratorConfig(**ADAPTIVE, t_max=1.0, blowup_bound=1e300)
    run = assert_same_as_reference(structure, h, state, config)
    assert run.terminal_event.kind is EventKind.BLOWUP and len(run) == 1
    assert run.terminal_event.time <= 2 * MIN_STEP


def test_s_reaching_zero_raises():
    # s falls at unit speed; with Z unarmed (|s0| < z_epsilon) a stage
    # reaches s <= 0, which the Hamiltonian refuses
    structure, h, state = _extended_case("s", "linear", 1)
    state = PhaseState(state.q, state.p, extra=(0.05, state.extra[1]))
    config = IntegratorConfig(**ADAPTIVE, t_max=1.0, z_epsilon=0.1, blowup_bound=1e300)
    assert assert_same_as_reference(structure, h, state, config) == \
        (ValueError, "Hamiltonian singular at s=0")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_underflowed_power_of_s_is_a_blowup_not_an_error():
    # s^3 = 0.0 at s = 1e-120: the field divides by it as numpy does, to inf
    # or NaN, without raising ZeroDivisionError; backward, s grows, so no
    # stage reaches s <= 0
    structure, h, state = _extended_case("s", "pure_quadratic", 1)
    state = PhaseState(state.q, state.p, extra=(1e-120, state.extra[1]))
    config = IntegratorConfig(**ADAPTIVE, t_max=1.0, z_epsilon=0.1)
    assert not np.all(np.isfinite(compile_field(structure, h).row(state.to_array().tolist())))
    run = assert_same_as_reference(structure, h, state, config, direction=-1)
    assert run.terminal_event.kind is EventKind.BLOWUP and len(run) == 1


def test_a_fixed_point_at_the_start():
    h = HamiltonianSpec(PotentialSpec("pure_quadratic"))
    run = assert_same_as_reference(CANONICAL, h, PhaseState(0.0, -0.0),
                                   IntegratorConfig(**ADAPTIVE))
    assert run.terminal_event == Event(0.0, EventKind.FIXED_POINT) and len(run) == 1


def test_a_fixed_point_in_the_middle():
    # p decays as exp(-t/2) on twisted Stokes; Z is not armed from p0 < z_epsilon
    structure = PhaseStructure(StructureKind.TWISTED_B)
    h = HamiltonianSpec(PotentialSpec("linear"))
    config = IntegratorConfig(**ADAPTIVE, t_max=20.0, z_epsilon=1e-3, fp_epsilon=1e-5)
    run = assert_same_as_reference(structure, h, PhaseState(0.0, 5e-4), config)
    assert run.terminal_event.kind is EventKind.FIXED_POINT
    # the first sample past p/2 = 1e-5, near t = 2 ln 25
    assert 2.0 * math.log(25.0) <= run.terminal_event.time < 2.0 * math.log(25.0) + 1.0
    F = compile_field(structure, h)
    assert np.max(np.abs(F(run.ys[-1]))) < 1e-5 <= np.max(np.abs(F(run.ys[-2])))


def test_signed_zeros_keep_their_bits():
    # the off-axis pair (q2, p2) starts at (-0.0, -0.0) with velocity
    # (-0.0, -0.0): each stage sum is +0.0, so both turn +0.0 after one step
    structure = PhaseStructure(StructureKind.TWISTED_B, dim=4)
    h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=0.8), n=2)
    for direction in (1, -1):
        run = assert_same_as_reference(structure, h, PhaseState([0.5, -0.0], [1.0, -0.0]),
                                       IntegratorConfig(**ADAPTIVE, t_max=2.0), direction)
        assert math.copysign(1.0, run.ys[0, 3]) == -1.0
        assert math.copysign(1.0, run.ys[1, 3]) == 1.0


def test_a_stage_sum_of_negative_zeros_is_positive():
    # p starts at -0.0 with velocity -0.0, and a field that tells the zeros
    # apart: a stage sum from 0 makes p +0.0 at the second stage, which
    # turns dp to 1; a sum from its first term would keep -0.0
    def velocity(q, p):
        return (1.0, 1.0 if math.copysign(1.0, p) > 0.0 else -0.0)
    config = IntegratorConfig(method=Method.RK_ADAPTIVE, step=0.1, t_max=1.0)
    run = assert_same_as_reference(CANONICAL, Canonical(velocity), PhaseState(0.0, -0.0),
                                   config)
    assert run.terminal_event.kind is EventKind.T_MAX and run.ys[-1, 1] > 0.0
