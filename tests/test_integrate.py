"""Steppers, event detection, and trajectory bookkeeping."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind, compile_field
from bhamsys.hamiltonians import HamiltonianSpec, PotentialSpec
from bhamsys.integrate import (Event, EventKind, IntegratorConfig, Method, Trajectory,
                               _rk4_step, _rk4_steps, integrate, merge_backward_forward)
from bhamsys.integrate import hermite
from bhamsys.oracles import classical_parabola, stokes_exact

TWISTED = PhaseStructure(StructureKind.TWISTED_B)
CANONICAL = PhaseStructure(StructureKind.CANONICAL)


def linear_h(lam=1.0):
    return HamiltonianSpec(PotentialSpec("linear", lam=lam))


class TestConfigValidation:
    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(z_epsilon=-1.0)

    def test_step_below_t_max(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=2.0, t_max=1.0)

    @pytest.mark.parametrize("method", list(Method))
    def test_t_max_must_be_finite(self, method):
        with pytest.raises(ValueError, match="t_max must be finite"):
            IntegratorConfig(method=method, t_max=math.inf)


def rk4_step(structure, h, state, dt, sign=None):
    """One step of the drivers' RK4 kernel from ``state``, as a flat array."""
    field = compile_field(structure, h)
    y = state.to_array()[None, :]
    return _rk4_step(field, y, field(y), _rk4_steps(dt, sign))[0]


class TestStep:
    def test_single_step_matches_stokes_solution(self):
        dt = 1e-3
        q, p = rk4_step(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0), dt)
        q_exact, p_exact = stokes_exact(0.0, 1.0, 1.0, dt)
        assert abs(q - q_exact) < 1e-13
        assert abs(p - p_exact) < 1e-13

    def test_equilibrium_is_unchanged(self):
        out = rk4_step(TWISTED, linear_h(2.0), PhaseState(4.0, 0.0), 0.5)
        npt.assert_array_equal(out, [4.0, 0.0])

    def test_classical_parabola_is_exact(self):
        # polynomial solution: RK4 reproduces it to roundoff
        q, p = rk4_step(CANONICAL, linear_h(2.0), PhaseState(0.0, 0.0), 0.1)
        assert abs(q - (-0.005)) < 1e-12
        assert abs(p - (-0.1)) < 1e-12

    def test_a_backward_step_is_the_negated_fields_step(self):
        # a row with sign -1 steps the field with -dt, to the bit
        h, state, dt = linear_h(1.0), PhaseState(0.3, 0.8), 0.05
        field = compile_field(TWISTED, h)
        negated = lambda y, errors=None: -field(y, errors)
        y = state.to_array()[None, :]
        sign = np.full(y.shape, -1.0)
        backward = _rk4_step(field, y, field(y), _rk4_steps(dt, sign))
        npt.assert_array_equal(backward, _rk4_step(negated, y, negated(y), _rk4_steps(dt)))

    def test_the_first_sample_of_a_run_is_one_kernel_step(self):
        dt = 1e-2
        run = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0),
                        IntegratorConfig(step=dt, t_max=1.0))
        npt.assert_array_equal(run.ys[1], rk4_step(TWISTED, linear_h(1.0),
                                                   PhaseState(0.0, 1.0), dt))


class TestIntegrateEvents:
    def test_escape_reaches_z_neighborhood(self):
        cfg = IntegratorConfig(step=1e-3, t_max=20.0, z_epsilon=1e-4)
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0), cfg)
        assert traj.terminal_event.kind is EventKind.REACHED_Z
        # limit q0 + p0^2/lam = 1
        assert abs(traj.final_state.q[0] - 1.0) < 1e-6
        # localized where |p| = z_epsilon: t = -2 log(z_eps)
        assert traj.terminal_event.time == pytest.approx(-2.0 * math.log(1e-4), abs=1e-3)
        assert abs(traj.final_state.p[0]) <= 1e-4 + 1e-12

    def test_initial_on_z_is_a_fixed_point(self):
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(2.5, 0.0))
        assert len(traj) == 1
        assert traj.terminal_event.kind is EventKind.FIXED_POINT
        assert traj.terminal_event.time == 0.0

    def test_canonical_run_to_horizon(self):
        cfg = IntegratorConfig(step=1e-3, t_max=10.0)
        traj = integrate(CANONICAL, linear_h(1.0), PhaseState(0.0, 0.0), cfg)
        assert traj.terminal_event.kind is EventKind.T_MAX
        assert traj.times[-1] == 10.0
        assert abs(traj.final_state.q[0] - (-25.0)) < 1e-8

    def test_blowup_bound(self):
        cfg = IntegratorConfig(step=1e-2, t_max=100.0, blowup_bound=10.0)
        traj = integrate(CANONICAL, linear_h(1.0), PhaseState(0.0, 0.0), cfg)
        assert traj.terminal_event.kind is EventKind.BLOWUP
        assert np.max(np.abs(traj.ys[-1])) > 10.0

    def test_non_finite_initial_rejected(self):
        with pytest.raises(ValueError):
            integrate(TWISTED, linear_h(), PhaseState(np.nan, 1.0))

    def test_exactly_one_terminal_event(self):
        traj = integrate(TWISTED, linear_h(), PhaseState(0.0, 1.0),
                         IntegratorConfig(t_max=1.0))
        assert len(traj.events) == 1

    def test_nontwisted_escape_to_the_base_singularity(self):
        """Z = {q = 0}: field (q p, -(lam/2) q) drives q to the hyperplane
        while p tends to the energy-conserving limit -sqrt(2H)."""
        struct = PhaseStructure(StructureKind.NONTWISTED_B)
        cfg = IntegratorConfig(step=1e-3, t_max=30.0, z_epsilon=1e-6)
        traj = integrate(struct, linear_h(1.0), PhaseState(1.0, -1.0), cfg)
        assert traj.terminal_event.kind is EventKind.REACHED_Z
        assert abs(traj.final_state.q[0]) <= 1e-6 + 1e-15
        assert traj.final_state.p[0] == pytest.approx(-math.sqrt(2.0), abs=1e-6)
        h = linear_h(1.0)
        values = [h.value(traj.state(i)) for i in range(0, len(traj), 500)]
        assert max(abs(v - values[0]) for v in values) < 1e-10

    def test_adaptive_z_event_state_is_on_the_threshold(self):
        cfg = IntegratorConfig(method=Method.RK_ADAPTIVE, step=1e-2, t_max=30.0,
                               z_epsilon=1e-6)
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0), cfg)
        assert traj.terminal_event.kind is EventKind.REACHED_Z
        assert abs(traj.final_state.p[0]) == pytest.approx(1e-6, rel=1e-6)
        assert np.min(np.abs(traj.p[:, 0])) > 0.0  # never crossed Z
        assert len(traj) < 500  # step control near Z stays coarse but safe

    def test_z_event_never_fires_when_started_inside(self):
        # initial |p| below z_epsilon: run continues on the horizon instead
        cfg = IntegratorConfig(step=1e-3, t_max=1.0, z_epsilon=0.5)
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 0.1), cfg)
        assert traj.terminal_event.kind is EventKind.T_MAX


class TestAccuracy:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_fixed_step_matches_stokes(self, lam):
        cfg = IntegratorConfig(step=1e-3, t_max=10.0)
        traj = integrate(TWISTED, linear_h(lam), PhaseState(0.0, 1.0), cfg)
        q_exact, p_exact = stokes_exact(0.0, 1.0, lam, traj.times)
        assert np.max(np.abs(traj.q[:, 0] - q_exact)) < 1e-8
        assert np.max(np.abs(traj.p[:, 0] - p_exact)) < 1e-8

    def test_adaptive_matches_stokes(self):
        cfg = IntegratorConfig(method=Method.RK_ADAPTIVE, step=1e-2, t_max=5.0,
                               rel_tol=1e-10, abs_tol=1e-10)
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0), cfg)
        q_exact, p_exact = stokes_exact(0.0, 1.0, 1.0, traj.times)
        assert np.max(np.abs(traj.q[:, 0] - q_exact)) < 1e-8
        assert np.max(np.abs(traj.p[:, 0] - p_exact)) < 1e-8
        assert len(traj) < 2000  # adaptive should take far fewer steps than 1e-3 fixed

    def test_energy_drift_small(self):
        h = HamiltonianSpec(PotentialSpec("periodic", lam=1.0))
        struct = PhaseStructure(StructureKind.TWISTED_B, angular_mask=(True,))
        cfg = IntegratorConfig(step=1e-3, t_max=5.0)
        traj = integrate(struct, h, PhaseState(0.0, 2.0), cfg)
        values = [h.value(traj.state(i)) for i in range(0, len(traj), 100)]
        assert max(abs(v - values[0]) for v in values) < 1e-8

    def test_z_repulsion(self):
        """|p| stays strictly positive until the Z event; no sample lands on Z."""
        cfg = IntegratorConfig(step=1e-3, t_max=40.0, z_epsilon=1e-6)
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 0.5), cfg)
        assert traj.terminal_event.kind is EventKind.REACHED_Z
        assert np.min(np.abs(traj.p[:, 0])) > 0.0

    def test_dissipative_direction_decouples_from_free_motion(self):
        """n=2: drag along the singular pair, free classical motion elsewhere."""
        struct = PhaseStructure(StructureKind.TWISTED_B, dim=4, singular_index=0)
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0), n=2, axis=0)
        cfg = IntegratorConfig(step=1e-3, t_max=25.0, z_epsilon=1e-4)
        traj = integrate(struct, h, PhaseState([0.0, 0.0], [1.0, 2.0]), cfg)
        assert traj.terminal_event.kind is EventKind.REACHED_Z
        t_end = traj.terminal_event.time
        final = traj.final_state
        assert final.q[0] == pytest.approx(1.0, abs=1e-6)      # q0 + p0^2/lam
        assert abs(final.p[0]) <= 1e-4 + 1e-12                 # damped direction
        assert final.p[1] == pytest.approx(2.0, abs=1e-10)     # free momentum kept
        assert final.q[1] == pytest.approx(2.0 * t_end, rel=1e-9)

    def test_determinism(self):
        cfg = IntegratorConfig(step=1e-3, t_max=3.0)
        a = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0), cfg)
        b = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0), cfg)
        npt.assert_array_equal(a.times, b.times)
        npt.assert_array_equal(a.ys, b.ys)


class TestSignPreservation:
    def test_upper_half_plane_orbit(self):
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0),
                         IntegratorConfig(t_max=20.0, z_epsilon=1e-4))
        assert np.all(traj.p[:, 0] > 0.0)

    def test_lower_half_plane_orbit(self):
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, -1.0),
                         IntegratorConfig(t_max=20.0, z_epsilon=1e-4))
        assert np.all(traj.p[:, 0] < 0.0)

    def test_classical_orbit_crosses(self):
        traj = integrate(CANONICAL, linear_h(1.0), PhaseState(-1.0, 1.0),
                         IntegratorConfig(t_max=10.0))
        assert traj.p[0, 0] > 0.0 and traj.p[-1, 0] < 0.0


class TestTrajectory:
    def test_times_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), ys=np.zeros((2, 2)),
                       events=(), structure=TWISTED, hamiltonian=linear_h())

    # np.diff(times) <= 0 is False on a NaN and on an infinite difference
    @pytest.mark.parametrize("times", [[0.0, math.nan], [math.nan, 1.0], [0.0, math.inf],
                                       [-math.inf, 0.0], [math.inf, math.inf]])
    def test_times_must_be_finite(self, times):
        with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
            Trajectory(times=np.array(times), ys=np.zeros((2, 2)),
                       events=(Event(1.0, EventKind.T_MAX),), structure=TWISTED,
                       hamiltonian=linear_h())

    def test_arrays_given_stay_writable_and_the_kept_ones_are_read_only(self):
        times, ys, lengths = np.array([0.0, 1.0]), np.zeros((2, 2)), np.array([1.0])
        traj = Trajectory(times=times, ys=ys, events=(Event(1.0, EventKind.T_MAX),),
                          structure=TWISTED, hamiltonian=linear_h(), step_lengths=lengths)
        times[0], ys[0, 0], lengths[0] = 0.5, 2.0, 3.0
        assert traj.times[0] == 0.0 and traj.ys[0, 0] == 0.0 and traj.step_lengths[0] == 1.0
        for kept in (traj.times, traj.ys, traj.step_lengths):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 1.0

    def test_merge_backward_forward(self):
        cfg = IntegratorConfig(step=1e-2, t_max=1.0)
        fwd = integrate(CANONICAL, linear_h(1.0), PhaseState(0.0, 1.0), cfg)
        bwd = integrate(CANONICAL, linear_h(1.0), PhaseState(0.0, 1.0), cfg, direction=-1)
        merged = merge_backward_forward(bwd, fwd)
        assert merged.times[0] == -1.0 and merged.times[-1] == 1.0
        assert np.all(np.diff(merged.times) > 0)
        assert merged.terminal_event.kind is EventKind.T_MAX
        # backward samples trace the same parabola at negative times
        q_exact, _ = classical_parabola(0.0, 1.0, 1.0, merged.times)
        assert np.max(np.abs(merged.q[:, 0] - q_exact)) < 1e-10

    def test_csv_round_trip(self, tmp_path):
        cfg = IntegratorConfig(step=1e-2, t_max=0.5)
        traj = integrate(TWISTED, linear_h(1.0), PhaseState(0.0, 1.0), cfg)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,q1,p1"
        assert lines[-1].startswith("# event: t_max_reached at t=")
        data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#")
        npt.assert_array_equal(data[:, 0], traj.times)
        npt.assert_array_equal(data[:, 1], traj.q[:, 0])
        npt.assert_array_equal(data[:, 2], traj.p[:, 0])


class TestHermite:
    def test_exact_on_cubics(self):
        def y(t):
            return t**3 - 2.0 * t**2 + 0.5 * t + 1.0

        def dy(t):
            return 3.0 * t**2 - 4.0 * t + 0.5

        t0, t1 = 0.5, 2.0
        taus = np.linspace(0.0, t1 - t0, 7)
        got = hermite(y(t0), y(t1), dy(t0), dy(t1), t1 - t0, taus)
        npt.assert_allclose(got, y(t0 + taus), rtol=0, atol=1e-14)
        assert got[0] == y(t0) and got[-1] == y(t1)

    def test_columns_evaluate_many_steps(self):
        # two steps of a two-component state, each at its own offset
        y0 = np.array([[0.0, 1.0], [2.0, -1.0]])
        y1 = np.array([[1.0, 3.0], [0.0, 0.5]])
        f0 = np.array([[0.5, 0.0], [1.0, 2.0]])
        f1 = np.array([[-1.0, 2.0], [0.0, 1.0]])
        dt = np.array([[0.5], [2.0]])
        tau = np.array([[0.2], [1.5]])
        rows = hermite(y0, y1, f0, f1, dt, tau)
        for i in range(2):
            npt.assert_array_equal(rows[i], hermite(y0[i], y1[i], f0[i], f1[i],
                                                    dt[i, 0], tau[i, 0]))
