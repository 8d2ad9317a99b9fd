"""Adaptive DOP853 runs on Python floats against a numpy reference.

The reference below is a numpy loop of adaptive runs with the tableau of
scipy's ``DOP853`` (``scipy.integrate._ivp.dop853_coefficients``), a source
independent of bhamsys: a trial step with its stages as the rows of one
array, each stage and error sum a sum over those rows, the dense output as
scipy's ``_dense_output_impl`` forms and evaluates it, and the run's tests
as ``np.max`` over arrays.  Its Z event fires on the first sample with
``side * d <= z_epsilon`` and is located on the step's dense output, with
no clamp of the step near Z.  Every run must give the reference's times,
samples, step lengths and events to the bit, forward and backward, over the
structures, families and Hamiltonian kinds the kernel has paths for.  The
edge cases pin the decisions where NaN, inf and raising fields meet the
run's tests.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as dop853

from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind, compile_field
from bhamsys.hamiltonians import (ExtendedKind, HamiltonianSpec, LogMomentumHamiltonian,
                                  PotentialSpec)
from bhamsys.integrate import (_BLOWUP_ERRORS, _DOP_A, _DOP_D, _DOP_E3, _DOP_E5, MIN_STEP,
                               STEP_GROW, STEP_SAFETY, STEP_SHRINK, Event, EventKind,
                               IntegratorConfig, Method, Trajectory, _bisect,
                               _defining_index, _directed, _dop_step, integrate)
from bhamsys.timescale import build_rescaled_extended, to_s_coordinates, to_s_state

# row i weighs the stages 0 .. i-1: stages 1 to 11, y8 (row 12, scipy's B)
# and the dense output's extra stages 13 to 15
A_COLS = [dop853.A[i, :i][:, None] for i in range(1, dop853.N_STAGES_EXTENDED)]
E5_COL = dop853.E5[:, None]
E3_COL = dop853.E3[:, None]


def reference_dop_step(f, y, dt, k0):
    K = np.empty((dop853.N_STAGES + 1, y.size))
    K[0] = k0
    for i, a in enumerate(A_COLS[:dop853.N_STAGES - 1], 1):
        K[i] = f(y + dt * (a * K[:i]).sum(axis=0))
    y8 = y + dt * (A_COLS[dop853.N_STAGES - 1] * K[:-1]).sum(axis=0)
    K[-1] = f(y8)
    return y8, (E5_COL * K).sum(axis=0), (E3_COL * K).sum(axis=0), K


def reference_dense(f, y, y8, K, dt):
    K = np.vstack([K, np.empty((3, y.size))])
    for i in range(dop853.N_STAGES + 1, dop853.N_STAGES_EXTENDED):
        K[i] = f(y + dt * (A_COLS[i - 1] * K[:i]).sum(axis=0))
    F = np.empty((dop853.INTERPOLATOR_POWER, y.size))
    delta_y = y8 - y
    F[0] = delta_y
    F[1] = dt * K[0] - delta_y
    F[2] = 2 * delta_y - dt * (K[dop853.N_STAGES] + K[0])
    for j, row in enumerate(dop853.D, 3):
        F[j] = dt * (row[:, None] * K).sum(axis=0)
    return F


def reference_eval(y, F, dt, tau):
    x = tau / dt
    out = np.zeros_like(y)
    for i, coefficient in enumerate(reversed(F)):
        out += coefficient
        out *= x if i % 2 == 0 else 1 - x
    return y + out


def reference_error(y, y8, e5, e3, dt, config):
    scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y8))
    n5 = float(np.max(np.abs(e5) / scale))
    n3 = float(np.max(np.abs(e3) / scale))
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return dt * (n5 * n5) / math.sqrt(n5 * n5 + 0.01 * (n3 * n3))


def reference_adaptive(structure, h, F, sign, y, config) -> Trajectory:
    f = F if sign == 1.0 else (lambda x: sign * F(x))
    f_cur = f(y)

    times = [0.0]
    samples = [y]
    lengths = []

    def finish(event):
        return Trajectory(times=np.array(times), ys=np.array(samples), events=(event,),
                          structure=structure, hamiltonian=h, step_lengths=np.array(lengths))

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

        # scipy's floor on a step, 10 spacings of the doubles at t
        floor = max(MIN_STEP, 10.0 * float(np.spacing(t)))
        dt = min(max(dt_next, floor), config.t_max / 10.0, remaining)
        while True:
            dt = max(dt, floor)
            try:
                y_new, e5, e3, K = reference_dop_step(f, y, dt, f_cur)
            except Exception as exc:  # retried as a non-finite trial, but at the floor
                if dt <= 2 * floor and not isinstance(exc, _BLOWUP_ERRORS):
                    raise
                y_new = np.array([np.nan])
            finite = np.all(np.isfinite(y_new))
            err_norm = reference_error(y, y_new, e5, e3, dt, config) if finite else np.nan
            if err_norm <= 1.0:
                break
            # a trial that fails at the floor cannot shrink: the run ends
            if dt <= 2 * floor:
                return finish(Event(t + dt, EventKind.BLOWUP))
            if finite:
                dt = dt * max(STEP_SHRINK, STEP_SAFETY * err_norm ** -0.125)
            else:
                dt = max(0.25 * dt, floor)
        dt_next = dt * (STEP_GROW if err_norm == 0.0 else
                        min(STEP_GROW, STEP_SAFETY * err_norm ** -0.125))
        f_new = K[-1]
        t_new = t + dt
        if remaining - dt <= config.t_max * 1e-14:
            t_new = config.t_max
        lengths.append(dt)

        if z_armed and z_side * y_new[z_idx] <= z_eps:
            dense = reference_dense(f, y, y_new, K, dt)
            _, tau = _bisect(lambda u: z_eps - z_side * reference_eval(y, dense, dt, u)[z_idx],
                             dt)
            times.append(t + tau)
            samples.append(reference_eval(y, dense, dt, tau))
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
    assert bits(got.step_lengths) == bits(want.step_lengths)
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


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES) + ["custom"])
@pytest.mark.parametrize("clock", ["t", "s"])
def test_extended_runs_equal_the_reference(clock, family, n, direction):
    structure, h, state = _extended_case(clock, family, n)
    config = IntegratorConfig(**ADAPTIVE, t_max=0.9, z_epsilon=1e-3, blowup_bound=1e30)
    run = assert_same_as_reference(structure, h, state, config, direction)
    assert run.terminal_event.kind is EventKind.T_MAX and len(run) > 5


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
    # dp = k q^5 makes y8 differ from every stage point: p gains k dt^6 / 6
    # at y8 and at most 0.1609 k dt^6 at a stage, so with k dt^6 = 1.22 only
    # y8 lies past p = 0.2, where the velocity is (1e-20, NaN), whose first
    # entry alone is a fixed point
    def velocity(q, p):
        return (1e-20, np.nan) if p > 0.2 else (1.0, k * q**5)
    return Canonical(velocity)


@pytest.mark.parametrize("step,k", [(1e-12, 1.22e72), (1e-6, 1.22e36)],
                         ids=["at-the-least-step", "with-room-to-shrink"])
def test_a_field_turning_nan_is_never_a_fixed_point(step, k):
    config = IntegratorConfig(method=Method.RK_ADAPTIVE, step=step, t_max=1e3 * step)
    run = assert_same_as_reference(CANONICAL, _nan_past(k), PhaseState(0.0, 0.0), config)
    assert run.terminal_event.kind is EventKind.BLOWUP and np.all(np.isfinite(run.ys))
    # at the least step, the first trial's error norm is NaN and its step
    # cannot shrink, so it is refused and ends the run
    assert len(run) == 1 if step == MIN_STEP else len(run) >= 2


def test_a_nan_start_is_not_a_fixed_point():
    h = Canonical(lambda q, p: (0.0, np.nan))
    config = IntegratorConfig(**ADAPTIVE)
    run = assert_same_as_reference(CANONICAL, h, PhaseState(0.0, 0.0), config)
    assert run.terminal_event.kind is EventKind.BLOWUP and len(run) == 1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("band", [(0.1, 0.24), (0.1, math.inf)], ids=["band", "half-line"])
def test_a_field_turning_inf_ends_in_blowup(band):
    # from q = 0 at unit speed, the first trial step of length 1 puts only its
    # stage k3, at q = 0.118, on the band: the velocity does not depend on p,
    # so its inf reaches y8 through the zero weight of k3 alone
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


@pytest.mark.parametrize("step", [1e-2, 0.1], ids=["short", "past-zero"])
def test_s_reaching_zero_ends_in_blowup(step):
    # s falls at unit speed; with Z unarmed (|s0| < z_epsilon) the steps
    # shrink towards s = 0 until a trial at the least step fails its error
    # test, which ends the run short of s = 0; a first trial of 0.1 puts a
    # stage at s <= 0, which the Hamiltonian refuses, and is retried
    structure, h, state = _extended_case("s", "linear", 1)
    state = PhaseState(state.q, state.p, extra=(0.05, state.extra[1]))
    config = IntegratorConfig(**{**ADAPTIVE, "step": step}, t_max=1.0, z_epsilon=0.1,
                              blowup_bound=1e300)
    run = assert_same_as_reference(structure, h, state, config)
    assert run.terminal_event.kind is EventKind.BLOWUP
    assert 0.0 < run.ys[-1, 2] < 0.05 and run.step_lengths[-1] < 2 * MIN_STEP


def _wall(t0, k=4e24):
    """Free motion at unit speed from q = 0, against the wall
    V = (k/2) max(q - t0, 0)^2 that it meets at t = t0."""
    def value(q, t):
        return 0.5 * k * max(float(q[0]) - t0, 0.0) ** 2

    def gradient(q, t):
        return np.array([k * max(float(q[0]) - t0, 0.0)])
    return HamiltonianSpec(PotentialSpec("custom", custom_eval=value, custom_grad=gradient))


@pytest.mark.parametrize("t0", [1000.0, 40000.0, 1e6])
def test_a_run_at_the_floor_ends_at_any_time(t0):
    # the wall rejects every trial that reaches it until the step floor; a
    # floor of MIN_STEP moves no t past t = 16384, where it is below half the
    # spacing of the doubles, so a run there accepted its floor steps forever
    config = IntegratorConfig(method=Method.RK_ADAPTIVE, step=1.0, t_max=t0 + 1.0)
    start = time.perf_counter()
    run = integrate(CANONICAL, _wall(t0), PhaseState(0.0, 1.0), config)
    assert time.perf_counter() - start < 1.0
    assert run.terminal_event.kind is EventKind.BLOWUP
    assert run.times[-1] < t0 < run.terminal_event.time < t0 + 1e-9 * t0
    assert np.all(np.diff(run.times) > 0)
    assert_same_as_reference(CANONICAL, _wall(t0), PhaseState(0.0, 1.0), config)


def test_s_reaching_zero_raises():
    # the first trial, at the least step from s0 = 3e-13, puts a stage at
    # s <= 0, which the Hamiltonian refuses; at the floor that error is raised
    structure, h, state = _extended_case("s", "linear", 1)
    state = PhaseState(state.q, state.p, extra=(3e-13, state.extra[1]))
    config = IntegratorConfig(**{**ADAPTIVE, "step": MIN_STEP}, t_max=1.0, z_epsilon=0.1,
                              blowup_bound=1e300)
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
    # the first sample past p/2 = 1e-5, near t = 2 ln 25: at most one step
    # later, and no step is longer than t_max / 10
    assert 2.0 * math.log(25.0) <= run.terminal_event.time < 2.0 * math.log(25.0) + 2.0
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


# ---------------------------------------------------------------------------
# the inlined tableau, and the accepted steps that the trajectory keeps

def test_the_inlined_tableau_is_scipys_entry_by_entry():
    def hexes(values):
        return [float(v).hex() for v in values]
    assert len(_DOP_A) == dop853.N_STAGES_EXTENDED - 1
    for i, row in enumerate(_DOP_A, 1):
        assert hexes(row) == hexes(dop853.A[i, :i])
        assert not dop853.A[i, i:].any()  # the stages weigh earlier stages only
    assert hexes(_DOP_A[dop853.N_STAGES - 1]) == hexes(dop853.B)
    assert hexes(_DOP_E5) == hexes(dop853.E5)
    assert hexes(_DOP_E3) == hexes(dop853.E3)
    assert [hexes(row) for row in _DOP_D] == [hexes(row) for row in dop853.D]


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_an_accepted_step_run_again_gives_its_sample(name, direction):
    """Each accepted step, run again from ``ys[i - 1]`` with its recorded
    length, gives ``ys[i]`` to the bit and an error norm of at most 1 (no
    step is accepted without its error test), and the interpolant starts at
    ``ys[i - 1]``; a Z sample is the dense output inside its step."""
    structure, h, state, extra = RUNS[name]
    config = IntegratorConfig(**ADAPTIVE, **extra)
    run = integrate(structure, h, state, config, direction)
    f = _directed(compile_field(structure, h), float(direction))
    ends_at_z = run.terminal_event.kind is EventKind.REACHED_Z
    norms = []
    for i in range(1, len(run) - ends_at_z):
        y, dt = run.ys[i - 1].tolist(), float(run.step_lengths[i - 1])
        y8, e5, e3, _ = _dop_step(f, y, dt, f(y))
        assert bits(y8) == bits(run.ys[i])
        assert bits(run.interpolate(i, 0.0)) == bits(run.ys[i - 1])
        norms.append(reference_error(run.ys[i - 1], run.ys[i], np.array(e5), np.array(e3),
                                     dt, config))
    assert max(norms) <= 1.0, f"{sum(e > 1.0 for e in norms)} of {len(norms)} steps fail"
    if ends_at_z:
        i = len(run) - 1
        tau = run.terminal_event.time - run.times[i - 1]
        assert 0.0 < tau <= run.step_lengths[i - 1]
        assert np.max(np.abs(run.interpolate(i, tau) - run.ys[i])) < 1e-12
