"""Extended phase space, time rescaling, and real-time reconstruction."""

import importlib
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from bhamsys.geometry import PhaseState, StructureKind, hamiltonian_vector_field
from bhamsys.hamiltonians import ExtendedKind, PotentialSpec
from bhamsys.integrate import (MIN_STEP, IntegratorConfig, Event, EventKind,
                               integrate)
from bhamsys.oracles import damped_newton_reference
from bhamsys.timescale import (DEFAULT_CONFIG, build_plain_extended,
                               build_rescaled_extended, friction_ode_residual, from_s_state,
                               plain_initial_state, poincare_transform,
                               reconstruct_real_time, rescaled_initial_state,
                               run_rescaled, run_s_coordinates, time_to_s,
                               to_s_coordinates, to_s_state)

ZERO = PotentialSpec("zero")
OSC = PotentialSpec("pure_quadratic", lam=2.0)  # V = q^2/2


class TestPlainExtended:
    def test_free_motion_carries_energy_along(self):
        structure, h = build_plain_extended(ZERO)
        initial = PhaseState(0.0, 1.0, extra=(0.0, 0.5))
        cfg = IntegratorConfig(step=1e-3, t_max=2.0)
        traj = integrate(structure, h, initial, cfg)
        final = traj.final_state
        npt.assert_allclose(final.q, [2.0], atol=1e-12)
        npt.assert_allclose(final.p, [1.0], atol=1e-12)
        assert final.extra[0] == pytest.approx(2.0, abs=1e-12)  # dt/ds = 1
        assert final.extra[1] == pytest.approx(0.5, abs=1e-12)  # E constant

    def test_displayed_field(self):
        structure, h = build_plain_extended(PotentialSpec("linear", lam=2.0))
        state = PhaseState(0.0, 0.0, extra=(0.0, 0.0))
        v = hamiltonian_vector_field(structure, h, state)
        # dq/ds = p, dp/ds = -dV/dq = -1, dt/ds = 1, dE/ds = dV/dt = 0
        npt.assert_allclose(v, [0.0, -1.0, 1.0, 0.0], rtol=0, atol=0)

    def test_hamiltonian_zero_level_is_preserved(self):
        structure, h = build_plain_extended(OSC)
        initial = plain_initial_state(OSC, 1.0, 0.5)
        assert h.value(initial) == 0.0
        cfg = IntegratorConfig(step=1e-3, t_max=10.0)
        traj = integrate(structure, h, initial, cfg)
        values = [h.value(traj.state(i)) for i in range(0, len(traj), 200)]
        assert max(abs(v) for v in values) < 1e-10


class TestRescaledExtended:
    def test_displayed_field_at_origin(self):
        structure, h = build_rescaled_extended(ZERO, lam=1.0)
        state = PhaseState(0.0, 0.0, extra=(0.0, 0.7))
        v = hamiltonian_vector_field(structure, h, state)
        # V = 0: dt/ds = e^{lam t}/lam = 1 and dE/ds = -e^{lam t} E = -E
        npt.assert_allclose(v, [0.0, 0.0, 1.0, -0.7], rtol=0, atol=0)

    def test_displayed_field_generic(self):
        """Field components match the rescaled equations of motion."""
        rng = np.random.default_rng(8)
        lam = 0.7
        pot = OSC
        structure, h = build_rescaled_extended(pot, lam)
        for _ in range(100):
            q, p = rng.uniform(-2, 2), rng.uniform(-2, 2)
            t, e = rng.uniform(0, 3), rng.uniform(-2, 2)
            v = hamiltonian_vector_field(structure, h, PhaseState(q, p, extra=(t, e)))
            elt = math.exp(lam * t)
            v_pot = 0.5 * q * q
            dv_dq = q
            expected = [p,
                        -elt**2 / lam**2 * dv_dq,
                        elt / lam,
                        2 * elt**2 / lam * v_pot - elt * e]
            npt.assert_allclose(v, expected, rtol=1e-13, atol=1e-13)

    def test_curvilinear_time_solution(self):
        """The flow of H runs on sigma = 1 - e^{-lam t}, which solves
        dt/dsigma = e^{lam t}/lam; the run of K = g H runs on t itself."""
        structure, h = build_rescaled_extended(ZERO, 1.0)
        initial = rescaled_initial_state(ZERO, 1.0, 0.0, 1.0)
        on_sigma = integrate(structure, h, initial,
                             replace(DEFAULT_CONFIG, t_max=1.0 - math.exp(-5.0)))
        npt.assert_allclose(np.exp(-on_sigma.extra[:, 0]), 1.0 - on_sigma.times, atol=1e-8)
        traj = run_rescaled(ZERO, 1.0, 0.0, 1.0, 5.0)
        assert traj.hamiltonian.extended is ExtendedKind.POINCARE_T
        npt.assert_allclose(traj.extra[:, 0], traj.times, rtol=0, atol=1e-13)
        assert traj.times[-1] == 5.0

    def test_initial_state_puts_h_on_zero(self):
        _, h = build_rescaled_extended(OSC, lam=0.3)
        initial = rescaled_initial_state(OSC, 0.3, 1.0, 0.4)
        assert h.value(initial) == pytest.approx(0.0, abs=1e-14)
        # p0 = v0 / lam at t = 0
        assert initial.p[0] == pytest.approx(0.4 / 0.3, rel=1e-15)


class TestSCoordinates:
    def test_substitution_values(self):
        assert time_to_s(0.0, 2.0) == 1.0
        assert time_to_s(math.log(2.0) / 2.0, 2.0) == pytest.approx(0.5, rel=1e-15)
        state = PhaseState(0.0, 1.0, extra=(0.0, 3.0))
        s_state = to_s_state(state, lam=2.0)
        assert s_state.extra == (1.0, 1.5)

    def test_round_trip_identity(self):
        lam = 0.8
        for t in np.linspace(0.0, 20.0 / lam, 23):
            state = PhaseState(0.3, -1.2, extra=(float(t), 2.4))
            back = from_s_state(to_s_state(state, lam), lam)
            assert back.extra[0] == pytest.approx(state.extra[0], abs=1e-12)
            assert back.extra[1] == pytest.approx(state.extra[1], abs=1e-12)

    def test_structure_and_hamiltonian(self):
        structure, h = build_rescaled_extended(OSC, lam=0.5)
        structure_s, h_s = to_s_coordinates(structure, h)
        assert structure_s.kind is StructureKind.EXTENDED_B_S
        assert h_s.extended is ExtendedKind.S_COORDINATES

    def test_unit_curvilinear_speed_and_base_equations(self):
        """ds = -1 per unit parameter; d2q/ds2 = -dV/dq/(lam s)^2."""
        lam = 0.5
        structure, h = build_rescaled_extended(OSC, lam)
        structure_s, h_s = to_s_coordinates(structure, h)
        rng = np.random.default_rng(12)
        for _ in range(50):
            q, p = rng.uniform(-2, 2), rng.uniform(-2, 2)
            s, e_s = rng.uniform(0.05, 1.0), rng.uniform(-2, 2)
            v = hamiltonian_vector_field(structure_s, h_s, PhaseState(q, p, extra=(s, e_s)))
            assert v[2] == pytest.approx(-1.0, rel=1e-15)  # s * (1/s) to one ulp
            assert v[0] == pytest.approx(p, rel=1e-15)
            assert v[1] == pytest.approx(-q / (lam * s) ** 2, rel=1e-12)

    def test_second_order_singularity(self):
        """s^2 H stays finite as s -> 0 for a bounded potential."""
        pot = PotentialSpec("periodic", lam=2.0)
        _, h = build_rescaled_extended(pot, lam=1.0)
        _, h_s = to_s_coordinates(*build_rescaled_extended(pot, 1.0))
        q, p, e_s = 0.3, 0.7, 1.1
        limit = 0.5 * 2.0 * math.cos(q)  # V(q) / lam^2
        for s in (1e-2, 1e-4, 1e-6):
            val = s**2 * h_s.value(PhaseState(q, p, extra=(s, e_s)))
            assert val == pytest.approx(limit, abs=1e-5 + 10 * s)


class TestReconstruction:
    def test_free_damped_motion(self):
        ext = run_rescaled(ZERO, 1.0, 0.0, 1.0, 10.0)
        rt = reconstruct_real_time(ext)
        ts = np.linspace(0.0, 10.0, 201)
        ref = damped_newton_reference(ZERO, 1.0, 0.0, 1.0, ts)
        q, v = rt.sample(ts)
        assert np.max(np.abs(v[:, 0] - ref.ps[:, 0])) < 1e-6
        assert np.max(np.abs(q[:, 0] - ref.qs[:, 0])) < 1e-6

    def test_damped_oscillator_against_independent_oracle(self):
        ext = run_rescaled(OSC, 0.2, 1.0, 0.0, 10.0)
        rt = reconstruct_real_time(ext)
        ts = np.linspace(0.0, 10.0, 501)
        ref = damped_newton_reference(OSC, 0.2, 1.0, 0.0, ts, step=1e-3)
        q, v = rt.sample(ts)
        assert np.max(np.abs(q[:, 0] - ref.qs[:, 0])) < 1e-5
        assert np.max(np.abs(v[:, 0] - ref.ps[:, 0])) < 1e-5

    def test_weak_damping_approaches_undamped_oscillator(self):
        ext = run_rescaled(OSC, 0.01, 1.0, 0.0, 0.15)
        rt = reconstruct_real_time(ext)
        ts = np.linspace(0.0, 0.15, 31)
        q, _ = rt.sample(ts)
        assert np.max(np.abs(q[:, 0] - np.cos(ts))) < 1e-3

    def test_friction_ode_residual(self):
        ext = run_rescaled(OSC, 0.2, 1.0, 0.0, 10.0)
        rt = reconstruct_real_time(ext)
        assert friction_ode_residual(rt, dt=0.01) < 1e-4

    def test_s_route_matches_t_route(self):
        for lam in (0.2, 1.0):
            ext_t = run_rescaled(OSC, lam, 1.0, 0.0, 10.0)
            ext_s = run_s_coordinates(OSC, lam, 1.0, 0.0, 10.0)
            ts = np.linspace(0.0, 10.0, 201)
            qt, vt = reconstruct_real_time(ext_t).sample(ts)
            qs, vs = reconstruct_real_time(ext_s).sample(ts)
            assert np.max(np.abs(qt - qs)) < 1e-5
            assert np.max(np.abs(vt - vs)) < 1e-5

    def test_multidimensional_reconstruction(self):
        # friction acts through the clock, so every direction is damped
        pot = PotentialSpec("linear", lam=4.0)  # V = 2 q1
        ext = run_rescaled(pot, 1.0, [0.0, 0.0], [1.0, 1.0], 8.0)
        rt = reconstruct_real_time(ext)
        ts = np.linspace(0.0, 8.0, 161)
        ref = damped_newton_reference(pot, 1.0, [0.0, 0.0], [1.0, 1.0], ts, step=1e-3)
        q, v = rt.sample(ts)
        assert np.max(np.abs(q - ref.qs)) < 1e-5
        # approach to terminal velocity -g/lam: v = -2 + 3 exp(-t)
        assert v[-1, 0] == pytest.approx(-2.0 + 3.0 * math.exp(-8.0), abs=1e-6)
        assert abs(v[-1, 1]) < 1e-3  # free direction decays like exp(-t)

    def test_plain_runs_are_not_reconstructible(self):
        structure, h = build_plain_extended(ZERO)
        traj = integrate(structure, h, plain_initial_state(ZERO, 0.0, 1.0),
                         IntegratorConfig(step=1e-2, t_max=1.0))
        with pytest.raises(ValueError):
            reconstruct_real_time(traj)

    @pytest.mark.parametrize("s_chart", [False, True])
    def test_runs_of_h_are_not_reconstructible(self, s_chart):
        structure, h = build_rescaled_extended(ZERO, 1.0)
        initial = rescaled_initial_state(ZERO, 1.0, 0.0, 1.0)
        if s_chart:
            structure, h = to_s_coordinates(structure, h)
            initial = to_s_state(initial, 1.0)
        traj = integrate(structure, h, initial, IntegratorConfig(step=1e-2, t_max=0.5))
        with pytest.raises(ValueError, match="run_rescaled and run_s_coordinates"):
            reconstruct_real_time(traj)


def damped_closed_form(potential, friction, q0, v0, t):
    """q'' = -friction q' - dV/dq for V = lam q/2 (linear) and an
    underdamped V = lam q^2/4 (pure_quadratic)."""
    if potential.family.value == "linear":
        v_inf = -0.5 * potential.lam / friction
        decay = np.exp(-friction * t)
        return (q0 + v_inf * t + (v0 - v_inf) * (1.0 - decay) / friction,
                v_inf + (v0 - v_inf) * decay)
    w2 = 0.5 * potential.lam
    wd = math.sqrt(w2 - 0.25 * friction**2)
    c, s = np.cos(wd * t), np.sin(wd * t) / wd
    env = np.exp(-0.5 * friction * t)
    return (env * (q0 * c + (v0 + 0.5 * friction * q0) * s),
            env * (v0 * c - (0.5 * friction * v0 + w2 * q0) * s))


# friction x horizon of 40 and 30: sigma_end = 1 - exp(-friction * horizon)
# is 1.0 and 1 - 9.4e-14 in floats, so neither horizon survives on sigma
LONG_HORIZONS = {
    "pure_quadratic": (PotentialSpec("pure_quadratic", lam=2.0), 1.0, 40.0),
    "linear": (PotentialSpec("linear", lam=4.0), 0.5, 60.0),
}
# clock, family, most DOP853 steps (168, 87, 142 and 107 are taken)
LONG_CASES = [("s", "pure_quadratic", 200), ("t", "linear", 100),
              ("t", "pure_quadratic", 170), ("s", "linear", 130)]


class TestPhysicalClock:
    @pytest.mark.parametrize("clock,family,max_steps", LONG_CASES,
                             ids=[f"{c}-{f}" for c, f, _ in LONG_CASES])
    def test_long_horizons_end_at_the_horizon_on_the_damped_solution(self, clock, family,
                                                                      max_steps):
        potential, friction, horizon = LONG_HORIZONS[family]
        runner = run_rescaled if clock == "t" else run_s_coordinates
        traj = runner(potential, friction, 1.0, 0.0, horizon)
        assert traj.terminal_event == Event(horizon, EventKind.T_MAX)
        assert traj.times[-1] == horizon
        assert len(traj) - 1 <= max_steps
        # every step but the last, which ends on the horizon, passed its error
        # test; none is at the floor below which steps are taken unchecked
        assert np.diff(traj.times)[:-1].min() > 2 * MIN_STEP
        rt = reconstruct_real_time(traj)
        assert rt.times[-1] == horizon
        q, v = damped_closed_form(potential, friction, 1.0, 0.0, rt.times)
        scale = 1.0 + np.max(np.abs(q)) + np.max(np.abs(v))
        assert np.max(np.abs(rt.q[:, 0] - q)) / scale < 1e-7
        assert np.max(np.abs(rt.velocity[:, 0] - v)) / scale < 1e-7

    def test_a_clock_s_trial_that_leaves_the_chart_is_retried_with_a_smaller_step(
            self, monkeypatch):
        """Past friction * t of about 23, s is below the absolute tolerance
        and the steps grow to horizon / 10 = 4: a trial stage of s' = -s
        then overshoots below s = 0 from friction * step of about 3.2, where
        the field raises.  With ``fp_epsilon`` below the field's size, the
        trial is retried with a quarter of its step and the run reaches its
        horizon on the free damped solution."""
        integrate_module = importlib.import_module("bhamsys.integrate")
        step, raised = integrate_module._dop_step, []

        def counted(f, y, dt, k0):
            try:
                return step(f, y, dt, k0)
            except ValueError as exc:
                raised.append(exc)
                raise
        monkeypatch.setattr(integrate_module, "_dop_step", counted)
        traj = run_s_coordinates(ZERO, 1.0, 1.0, 0.5, 40.0,
                                 config=replace(DEFAULT_CONFIG, fp_epsilon=1e-30))
        assert raised and all(str(exc) == "Hamiltonian singular at s=0" for exc in raised)
        assert traj.terminal_event == Event(40.0, EventKind.T_MAX)
        rt = reconstruct_real_time(traj)
        decay = np.exp(-rt.times)
        assert np.max(np.abs(rt.q[:, 0] - (1.0 + 0.5 * (1.0 - decay)))) < 1e-9
        assert np.max(np.abs(rt.velocity[:, 0] - 0.5 * decay)) < 1e-9

    @pytest.mark.parametrize("s_chart", [False, True])
    def test_field_of_k_is_g_times_the_field_of_h_on_the_zero_level(self, s_chart):
        rng = np.random.default_rng(3)
        lam = 0.7
        for _ in range(20):
            q0, v0, t0 = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 5)
            structure, h = build_rescaled_extended(OSC, lam)
            state = rescaled_initial_state(OSC, lam, q0, v0, t0=t0)
            g = lam * math.exp(-lam * t0)
            if s_chart:
                structure, h = to_s_coordinates(structure, h)
                state = to_s_state(state, lam)
                g = lam * state.extra[0]
            k = poincare_transform(h)
            assert abs(k.value(state)) < 1e-12 * max(1.0, abs(state.extra[1]))
            v_k = hamiltonian_vector_field(structure, k, state)
            v_h = hamiltonian_vector_field(structure, h, state)
            npt.assert_allclose(v_k[:3], g * v_h[:3], rtol=1e-12, atol=1e-12)
            # dt/dtau = 1, or ds/dtau = -lam s on clock s
            assert v_k[2] == pytest.approx(-lam * state.extra[0] if s_chart else 1.0,
                                           rel=1e-15)

    def test_only_rescaled_and_s_hamiltonians_have_a_transform(self):
        _, h = build_plain_extended(ZERO)
        with pytest.raises(ValueError, match="expected a rescaled"):
            poincare_transform(h)
