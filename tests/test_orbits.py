"""Orbit classification, portraits, and singular periodic orbit assembly."""

import math

import numpy as np
import pytest

from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind
from bhamsys.hamiltonians import HamiltonianSpec, PotentialSpec
from bhamsys.integrate import EventKind, IntegratorConfig, integrate, merge_backward_forward
from bhamsys.orbits import (OrbitKind, assemble_singular_periodic, classify_orbit,
                            level_set_residual, phase_portrait)

TWISTED = PhaseStructure(StructureKind.TWISTED_B)
CANONICAL = PhaseStructure(StructureKind.CANONICAL)
PENDULUM = PhaseStructure(StructureKind.TWISTED_B, angular_mask=(True,))


# (q, p, tol) of pendulum rotations (lam = 4) from the classify workload's
# seeds: one at two tolerances, and nine at 1e-8 that reported twice their
# period, or `undetermined` for (1.473891711134418, -2.3756395623565787),
# when the first-return search ran on the cubic Hermite between samples
ADAPTIVE_ROTATIONS = [
    pytest.param(1.3959026582909244, 2.20327097884094, 1e-8, id="1e-08"),
    pytest.param(1.3959026582909244, 2.20327097884094, 1e-10, id="1e-10"),
] + [pytest.param(q, p, 1e-8, id=f"1e-08-{q!r}-{p!r}") for q, p in [
    (-2.9684336381820478, 3.275207058926254),
    (-1.0698271771715926, -2.583038828232323),
    (-1.2365633569717065, 2.86483157958326),
    (-1.4139091612381165, -2.3360433417215245),
    (0.9891808059313085, -2.2688521197906537),
    (1.473891711134418, -2.3756395623565787),
    (1.494378890606205, 3.036813041882546),
    (1.8969012279530073, 2.6584398982231585),
    (2.3350532944055393, -3.004570321239645),
]] + [pytest.param(q, p, 1e-6, id=f"1e-06-{q!r}-{p!r}") for q, p in [
    (2.2156574695706945, -3.095456773829885),
    (-1.507352191532362, 2.830337157855952),
    (0.06841687889169634, 2.369918945202849),
]]


class TestClassify:
    def test_escape_orbit_with_limit_state(self):
        cfg = IntegratorConfig(step=1e-3, t_max=25.0, z_epsilon=1e-4)
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        traj = integrate(TWISTED, h, PhaseState(0.0, 1.0), cfg)
        cls = classify_orbit(traj)
        assert cls.kind is OrbitKind.ESCAPE_ORBIT
        assert abs(cls.limit_state.q[0] - 1.0) < 1e-6
        assert abs(cls.limit_state.p[0]) < 1e-3

    def test_point_on_z_is_fixed(self):
        h = HamiltonianSpec(PotentialSpec("periodic", lam=2.0))
        traj = integrate(TWISTED, h, PhaseState(1.0, 0.0))
        assert classify_orbit(traj).kind is OrbitKind.FIXED_POINT

    def test_pendulum_rotation_is_periodic(self):
        """Above the separatrix level the twisted pendulum still rotates."""
        h = HamiltonianSpec(PotentialSpec("periodic", lam=1.0))
        cfg = IntegratorConfig(step=2e-3, t_max=10.0)
        traj = integrate(PENDULUM, h, PhaseState(0.0, 2.0), cfg)
        cls = classify_orbit(traj)
        assert cls.kind is OrbitKind.PERIODIC
        # dtheta/dt = p^2 = 2H - cos(theta): period 2 pi / sqrt((2H)^2 - 1)
        expected = 2 * math.pi / math.sqrt(24.0)
        assert cls.period == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("q,p,tol", ADAPTIVE_ROTATIONS)
    def test_adaptive_rotation_reports_one_period(self, q, p, tol):
        """A DOP853 rotation of the twisted pendulum (lam = 4) is periodic
        with one period, 2 pi / sqrt(4 E^2 - lam^2), not a multiple of it."""
        lam = 4.0
        h = HamiltonianSpec(PotentialSpec("periodic", lam=lam))
        cfg = IntegratorConfig(method="rk_adaptive", rel_tol=tol, abs_tol=tol, step=5e-3,
                               t_max=15.0, z_epsilon=1e-4)
        cls = classify_orbit(integrate(PENDULUM, h, PhaseState(q, p), cfg))
        energy = 0.5 * p * p + 0.5 * lam * math.cos(q)
        assert cls.kind is OrbitKind.PERIODIC
        assert cls.period == pytest.approx(2 * math.pi / math.sqrt(4 * energy**2 - lam**2),
                                           rel=1e-6)

    def test_classical_oscillator_is_periodic(self):
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=2.0))
        cfg = IntegratorConfig(step=1e-3, t_max=20.0)
        traj = integrate(CANONICAL, h, PhaseState(1.0, 0.0), cfg)
        cls = classify_orbit(traj)
        assert cls.kind is OrbitKind.PERIODIC
        assert cls.period == pytest.approx(2 * math.pi, abs=1e-7)

    def test_unbounded_orbit(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        cfg = IntegratorConfig(step=1e-2, t_max=200.0, blowup_bound=50.0)
        traj = integrate(CANONICAL, h, PhaseState(0.0, 0.0), cfg)
        assert classify_orbit(traj).kind is OrbitKind.UNBOUNDED

    def test_undetermined_when_nothing_happens(self):
        # far from any return within the short horizon
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=2.0))
        cfg = IntegratorConfig(step=1e-3, t_max=1.0)
        traj = integrate(CANONICAL, h, PhaseState(1.0, 0.0), cfg)
        assert classify_orbit(traj).kind is OrbitKind.UNDETERMINED

    def test_two_sided_escape_is_heteroclinic(self):
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=1.0))
        cfg = IntegratorConfig(step=1e-3, t_max=40.0, z_epsilon=1e-5)
        fwd = integrate(TWISTED, h, PhaseState(0.0, 1.0), cfg)
        bwd = integrate(TWISTED, h, PhaseState(0.0, 1.0), cfg, direction=-1)
        cls = classify_orbit(merge_backward_forward(bwd, fwd))
        assert cls.kind is OrbitKind.HETEROCLINIC_SEGMENT
        assert cls.limit_state is not None


class TestPhasePortrait:
    def test_twisted_linear_grid_all_escape(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        cfg = IntegratorConfig(step=5e-3, t_max=25.0, z_epsilon=1e-4)
        grid = [PhaseState(-3.0 + i, sign) for i in range(7) for sign in (1.0, -1.0)]
        records = phase_portrait(TWISTED, h, grid, cfg, include_backward=False)
        assert len(records) == 14
        assert all(r.classification.kind is OrbitKind.ESCAPE_ORBIT for r in records)
        assert [r.initial for r in records] == grid

    def test_classical_oscillator_grid_all_periodic(self):
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=2.0))
        cfg = IntegratorConfig(step=2e-3, t_max=20.0)
        grid = [PhaseState(float(i), 0.0) for i in (1, 2, 3)]
        records = phase_portrait(CANONICAL, h, grid, cfg, include_backward=False)
        assert all(r.classification.kind is OrbitKind.PERIODIC for r in records)

    def test_origin_is_a_fixed_point(self):
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=2.0))
        cfg = IntegratorConfig(step=2e-3, t_max=5.0)
        records = phase_portrait(CANONICAL, h, [PhaseState(0.0, 0.0)], cfg)
        assert records[0].classification.kind is OrbitKind.FIXED_POINT

    def test_backward_runs_attached(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        cfg = IntegratorConfig(step=5e-3, t_max=5.0)
        records = phase_portrait(TWISTED, h, [PhaseState(0.0, 1.0)], cfg)
        assert records[0].backward is not None
        # backward run grows the momentum instead of damping it
        assert records[0].backward.p[-1, 0] > 1.0

    def test_per_record_errors_do_not_abort(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        cfg = IntegratorConfig(step=5e-3, t_max=5.0)
        grid = [PhaseState(np.inf, 1.0), PhaseState(0.0, 1.0)]
        records = phase_portrait(TWISTED, h, grid, cfg, include_backward=False)
        assert records[0].error is not None
        assert records[0].classification.kind is OrbitKind.UNDETERMINED
        assert records[1].error is None

    def test_empty_grid_rejected(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        with pytest.raises(ValueError):
            phase_portrait(TWISTED, h, [], IntegratorConfig())


class TestLevelSetResidual:
    def test_stokes_energy_conserved(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        cfg = IntegratorConfig(step=1e-3, t_max=10.0)
        traj = integrate(TWISTED, h, PhaseState(0.0, 1.0), cfg)
        assert level_set_residual(traj) < 1e-8

    def test_single_state_residual_is_zero(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        traj = integrate(TWISTED, h, PhaseState(3.0, 0.0))
        assert level_set_residual(traj) == 0.0

    def test_twisted_pendulum_energy_conserved(self):
        h = HamiltonianSpec(PotentialSpec("periodic", lam=1.0))
        cfg = IntegratorConfig(step=1e-3, t_max=10.0)
        traj = integrate(PENDULUM, h, PhaseState(0.0, 2.0), cfg)
        assert level_set_residual(traj) < 1e-8

    def test_orbit_coincides_with_classical_level_set(self):
        """Off Z, twisted orbits lie on the H level set of their start."""
        for family, lam in (("linear", 1.0), ("pure_quadratic", 2.0), ("periodic", 1.0)):
            h = HamiltonianSpec(PotentialSpec(family, lam=lam))
            struct = PENDULUM if family == "periodic" else TWISTED
            cfg = IntegratorConfig(step=1e-3, t_max=8.0, z_epsilon=1e-4)
            traj = integrate(struct, h, PhaseState(0.3, 1.1), cfg)
            assert level_set_residual(traj) < 1e-6


class TestCylinder:
    def test_dissipating_trajectory_tends_to_a_rotation(self):
        """Axial drag on the cylinder: the orbit escapes to the critical set
        while the angular motion keeps its momentum, so the limit is a loop
        around the cylinder at p_q = 0."""
        cyl = PhaseStructure(StructureKind.TWISTED_B, dim=4, singular_index=1,
                             angular_mask=(True, False))
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0), n=2, axis=1)
        cfg = IntegratorConfig(step=1e-3, t_max=25.0, z_epsilon=1e-4)
        traj = integrate(cyl, h, PhaseState([0.0, 0.0], [2.0, 1.0]), cfg)
        cls = classify_orbit(traj)
        assert cls.kind is OrbitKind.ESCAPE_ORBIT
        assert cls.limit_state.p[0] == pytest.approx(2.0, abs=1e-10)
        assert abs(cls.limit_state.p[1]) <= 1e-4 + 1e-12


class TestSymmetry:
    def test_momentum_reflection_preserves_classification(self):
        """(q, p) -> (q, -p) maps orbits of the twisted model to orbits."""
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=1.0))
        cfg = IntegratorConfig(step=2e-3, t_max=40.0, z_epsilon=1e-4)
        up = classify_orbit(integrate(TWISTED, h, PhaseState(0.0, 1.0), cfg))
        down = classify_orbit(integrate(TWISTED, h, PhaseState(0.0, -1.0), cfg))
        assert up.kind is down.kind is OrbitKind.ESCAPE_ORBIT
        assert up.limit_state.q[0] == pytest.approx(down.limit_state.q[0], abs=1e-6)


@pytest.fixture(scope="module")
def unit_orbit():
    h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=1.0))
    return h, assemble_singular_periodic(TWISTED, h, 1.0)


class TestSingularPeriodicAssembly:
    def test_unit_energy_endpoints(self, unit_orbit):
        h, orbit = unit_orbit
        left, right = orbit.endpoints
        assert right.q[0] == pytest.approx(2.0, abs=1e-5)
        assert left.q[0] == pytest.approx(-2.0, abs=1e-5)
        assert left.p[0] == right.p[0] == 0.0
        # the two half-orbits share the energy level
        e_up = h.value(orbit.upper_segment.initial_state)
        e_dn = h.value(orbit.lower_segment.initial_state)
        assert abs(e_up - e_dn) < 1e-8
        assert abs(h.value(left) - h.value(right)) < 1e-8

    def test_stiff_spring_pulls_endpoints_in(self):
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=4.0))
        orbit = assemble_singular_periodic(TWISTED, h, 1.0)
        assert orbit.endpoints[1].q[0] == pytest.approx(1.0, abs=1e-5)
        assert orbit.endpoints[0].q[0] == pytest.approx(-1.0, abs=1e-5)

    def test_segments_terminate_on_z(self, unit_orbit):
        _, orbit = unit_orbit
        for seg in (orbit.upper_segment, orbit.lower_segment):
            assert seg.terminal_event.kind is EventKind.REACHED_Z
            assert seg.events[0].kind is EventKind.REACHED_Z and seg.events[0].time < 0
        # lower segment limits coincide with the endpoints too
        assert orbit.lower_segment.final_state.q[0] == pytest.approx(2.0, abs=1e-5)
        assert orbit.lower_segment.state(0).q[0] == pytest.approx(-2.0, abs=1e-5)

    def test_zero_energy_rejected(self):
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=1.0))
        with pytest.raises(ValueError):
            assemble_singular_periodic(TWISTED, h, 0.0)

    def test_wrong_potential_rejected(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        with pytest.raises(ValueError):
            assemble_singular_periodic(TWISTED, h, 1.0)
