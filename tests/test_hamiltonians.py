"""Potential families, extended variants, and gradient consistency."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind, compile_field
from bhamsys.hamiltonians import (ExtendedKind, HamiltonianSpec,
                                  LogMomentumHamiltonian, PotentialSpec,
                                  _extended_terms, potential_gradient, potential_value)


def fd_gradient(h, state, step=1e-6):
    """Central-difference gradient over all phase coordinates."""
    y = state.to_array()
    ext = state.extra is not None
    n = state.n
    out = np.empty(y.size)
    for i in range(y.size):
        yp, ym = y.copy(), y.copy()
        yp[i] += step
        ym[i] -= step
        out[i] = (h.value(PhaseState.from_array(yp, n, ext))
                  - h.value(PhaseState.from_array(ym, n, ext))) / (2 * step)
    return out


class TestSpecValidation:
    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            PotentialSpec("linear", lam=-1.0)
        with pytest.raises(ValueError):
            PotentialSpec("periodic", lam=0.0)
        PotentialSpec("zero", lam=-1.0)  # zero family ignores lam

    def test_alpha_only_for_general_quadratic(self):
        with pytest.raises(ValueError):
            PotentialSpec("linear", lam=1.0, alpha=0.5)
        PotentialSpec("general_quadratic", lam=1.0, alpha=0.5)

    def test_custom_requires_callable(self):
        with pytest.raises(ValueError):
            PotentialSpec("custom")
        with pytest.raises(ValueError):
            PotentialSpec("linear", lam=1.0, custom_eval=lambda q, t: 0.0)

    def test_extended_requires_friction(self):
        pot = PotentialSpec("zero")
        with pytest.raises(ValueError):
            HamiltonianSpec(pot, extended=ExtendedKind.RESCALED_EXTENDED)
        HamiltonianSpec(pot, extended=ExtendedKind.RESCALED_EXTENDED, friction=1.0)


class TestValue:
    def test_linear(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        assert h.value(PhaseState(2.0, 2.0)) == 3.0

    def test_pure_quadratic(self):
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=4.0))
        assert h.value(PhaseState(1.0, 0.0)) == 1.0

    def test_periodic(self):
        # H = p^2/2 + (lam/2) cos(theta)
        h = HamiltonianSpec(PotentialSpec("periodic", lam=2.0))
        assert h.value(PhaseState(0.0, 0.0)) == 1.0

    def test_general_quadratic_matches_formula(self):
        h = HamiltonianSpec(PotentialSpec("general_quadratic", lam=2.0, alpha=0.5))
        q = 1.5
        expected = 0.5 * 2.0 * q * (1 + 0.5 * 0.5 * q)
        assert h.value(PhaseState(q, 0.0)) == pytest.approx(expected, rel=1e-15)

    def test_rescaled_extended(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=2.0),
                            extended=ExtendedKind.RESCALED_EXTENDED, friction=0.5)
        t, e = 1.2, 0.3
        state = PhaseState(1.0, 2.0, extra=(t, e))
        expected = 2.0 + math.exp(2 * 0.5 * t) / 0.25 * 1.0 - math.exp(0.5 * t) / 0.5 * e
        assert h.value(state) == pytest.approx(expected, rel=1e-15)

    def test_rescaled_overflow_guard(self):
        h = HamiltonianSpec(PotentialSpec("zero"),
                            extended=ExtendedKind.RESCALED_EXTENDED, friction=1.0)
        with pytest.raises(OverflowError):
            h.value(PhaseState(0.0, 1.0, extra=(701.0, 0.0)))
        with pytest.raises(OverflowError):
            h.gradient(PhaseState(0.0, 1.0, extra=(701.0, 0.0)))

    def test_s_coordinates_singular_at_zero(self):
        h = HamiltonianSpec(PotentialSpec("zero"),
                            extended=ExtendedKind.S_COORDINATES, friction=1.0)
        with pytest.raises(ValueError, match="singular at s=0"):
            h.value(PhaseState(0.0, 1.0, extra=(0.0, 0.0)))
        with pytest.raises(ValueError, match="singular at s=0"):
            h.value(PhaseState(0.0, 1.0, extra=(-0.5, 0.0)))


class TestGradient:
    def test_linear_constant_slope(self):
        h = HamiltonianSpec(PotentialSpec("linear", lam=1.0))
        npt.assert_allclose(h.gradient(PhaseState(0.0, 3.0)), [0.5, 3.0], rtol=0)

    def test_periodic_slope_checked_by_finite_differences(self):
        h = HamiltonianSpec(PotentialSpec("periodic", lam=2.0))
        state = PhaseState(math.pi / 2, 1.0)
        grad = h.gradient(state)
        npt.assert_allclose(grad, [-1.0, 1.0], rtol=1e-15)
        npt.assert_allclose(grad, fd_gradient(h, state), rtol=0, atol=1e-9)

    def test_general_quadratic_degenerates_to_linear(self):
        ha = HamiltonianSpec(PotentialSpec("general_quadratic", lam=2.0, alpha=0.0))
        hb = HamiltonianSpec(PotentialSpec("linear", lam=2.0))
        for q in np.linspace(-4, 4, 17):
            state = PhaseState(q, 0.3)
            assert ha.value(state) == hb.value(state)
            npt.assert_array_equal(ha.gradient(state), hb.gradient(state))

    @pytest.mark.parametrize("family,kwargs", [
        ("linear", {"lam": 1.0}),
        ("pure_quadratic", {"lam": 3.0}),
        ("general_quadratic", {"lam": 2.0, "alpha": 0.4}),
        ("periodic", {"lam": 2.0}),
        ("zero", {}),
    ])
    def test_gradient_matches_finite_differences(self, family, kwargs):
        rng = np.random.default_rng(hash(family) % 2**32)
        h = HamiltonianSpec(PotentialSpec(family, **kwargs))
        for _ in range(1000):
            state = PhaseState(rng.uniform(-3, 3), rng.uniform(-3, 3))
            analytic = h.gradient(state)
            numeric = fd_gradient(h, state)
            npt.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("extended,friction", [
        (ExtendedKind.RESCALED_EXTENDED, 0.7),
        (ExtendedKind.S_COORDINATES, 0.7),
    ])
    def test_extended_gradients_match_finite_differences(self, extended, friction):
        rng = np.random.default_rng(99)
        h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=2.0),
                            extended=extended, friction=friction)
        for _ in range(200):
            if extended is ExtendedKind.S_COORDINATES:
                extra = (rng.uniform(0.1, 1.0), rng.uniform(-2, 2))
            else:
                extra = (rng.uniform(0.0, 2.0), rng.uniform(-2, 2))
            state = PhaseState(rng.uniform(-2, 2), rng.uniform(-2, 2), extra=extra)
            npt.assert_allclose(h.gradient(state), fd_gradient(h, state),
                                rtol=1e-5, atol=1e-5)

    def test_custom_without_gradient_uses_central_differences(self):
        pot = PotentialSpec("custom", custom_eval=lambda q, t: float(q[0] ** 3 + t * q[0]))
        h = HamiltonianSpec(pot)
        state = PhaseState(1.2, 0.0)
        npt.assert_allclose(h.gradient(state)[0], 3 * 1.2**2, rtol=1e-7)

    def test_custom_analytic_gradient_is_used(self):
        pot = PotentialSpec("custom",
                            custom_eval=lambda q, t: float(q[0] ** 2),
                            custom_grad=lambda q, t: np.array([2.0 * q[0]]))
        h = HamiltonianSpec(pot)
        assert h.gradient(PhaseState(3.0, 0.0))[0] == 6.0

    def test_multidimensional_axis_selection(self):
        # potential acts on q2 only; q1 direction is free
        h = HamiltonianSpec(PotentialSpec("linear", lam=2.0), n=2, axis=1)
        state = PhaseState([0.5, 0.5], [3.0, 4.0])
        npt.assert_allclose(h.gradient(state), [0.0, 1.0, 3.0, 4.0], rtol=0)


class TestSecondOrderResidual:
    def test_integrated_general_quadratic_trajectory(self):
        """A simulated path satisfies q'' = -lam (1 + alpha q) q' end to end."""
        from bhamsys.geometry import PhaseStructure, StructureKind
        from bhamsys.integrate import IntegratorConfig, integrate
        h = HamiltonianSpec(PotentialSpec("general_quadratic", lam=1.0, alpha=0.4))
        traj = integrate(PhaseStructure(StructureKind.TWISTED_B), h,
                         PhaseState(0.0, 1.0), IntegratorConfig(step=1e-3, t_max=5.0))
        q, dt = traj.q[:, 0], 1e-3
        qdd = (q[2:] - 2 * q[1:-1] + q[:-2]) / dt**2
        qd = (q[2:] - q[:-2]) / (2 * dt)
        res = qdd + (1.0 + 0.4 * q[1:-1]) * qd  # lam = 1, alpha = 0.4
        assert np.max(np.abs(res)) < 1e-5

    @pytest.mark.parametrize("family", ["linear", "pure_quadratic", "periodic"])
    def test_integrated_twisted_runs_satisfy_the_friction_ode(self, family):
        """On the twisted structure q' = p^2 and p' = -V'(q) p, so
        q'' = 2 p p' = -2 V'(q) q' along every run."""
        from bhamsys.integrate import IntegratorConfig, integrate
        spec = PotentialSpec(family, lam=1.5)
        traj = integrate(PhaseStructure(StructureKind.TWISTED_B), HamiltonianSpec(spec),
                         PhaseState(0.3, 1.0), IntegratorConfig(step=1e-3, t_max=4.0))
        q, dt = traj.q[:, 0], 1e-3
        assert len(q) > 1000
        qdd = (q[2:] - 2 * q[1:-1] + q[:-2]) / dt**2
        qd = (q[2:] - q[:-2]) / (2 * dt)
        force = np.array([potential_gradient(spec, x)[0] for x in q[1:-1]])
        assert np.max(np.abs(qdd + 2.0 * force * qd)) < 1e-5


class TestFriction:
    @pytest.mark.parametrize("friction", [None, 0.0, math.nan])
    @pytest.mark.parametrize("extended", [k for k in ExtendedKind if k is not ExtendedKind.NONE])
    def test_every_extended_variant_requires_a_positive_friction(self, extended, friction):
        with pytest.raises(ValueError, match=f"{extended.value} requires friction > 0"):
            HamiltonianSpec(PotentialSpec("linear", lam=1.0), extended=extended,
                            friction=friction)


class TestLogMomentumHamiltonian:
    def test_value_and_gradient(self):
        h = LogMomentumHamiltonian(c=2.0, n=2, singular_index=0)
        state = PhaseState([0.0, 0.0], [0.5, 4.0])
        assert h.value(state) == pytest.approx(2.0 * math.log(0.5) + 4.0, rel=1e-15)
        npt.assert_allclose(h.gradient(state), [0.0, 0.0, 4.0, 1.0], rtol=0)

    def test_singular_on_critical_set(self):
        h = LogMomentumHamiltonian()
        with pytest.raises(ValueError):
            h.gradient(PhaseState(0.0, 0.0))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            LogMomentumHamiltonian(c=0.0)


def test_potential_helpers_agree_with_spec_objects():
    pot = PotentialSpec("general_quadratic", lam=2.0, alpha=0.3)
    q = np.array([1.1])
    h = HamiltonianSpec(pot)
    assert potential_value(pot, q) == h.value(PhaseState(1.1, 0.0))
    npt.assert_array_equal(potential_gradient(pot, q), h.gradient(PhaseState(1.1, 0.0))[:1])


@pytest.mark.parametrize("family", ["zero", "linear", "pure_quadratic", "periodic", "custom"])
def test_s_chart_partials_on_floats_equal_those_on_numpy_scalars(family):
    """The partials of both s-chart variants do not depend on whether s
    arrives as a Python float or a numpy scalar.  The s-coordinate H always
    computes on a numpy scalar s; K on clock s computes on a float s and
    switches to a numpy scalar only where lam s^2 underflows to zero.  Over
    s from subnormal to 1e300, the powers of s underflowed, subnormal or
    overflowed included, both inputs give the same bits."""
    if family == "custom":
        potential = PotentialSpec("custom", custom_eval=lambda q, t: q[0] ** 2 * (1.0 + 0.1 * t),
                                  custom_grad=lambda q, t: [2.0 * q[0] * (1.0 + 0.1 * t)])
    else:
        potential = PotentialSpec(family, lam=1.7)
    rng = np.random.default_rng(17)
    exponents = np.concatenate([rng.uniform(-323.0, 300.0, 400), rng.uniform(-110.0, -100.0, 100),
                                rng.uniform(-165.0, -150.0, 100), rng.uniform(100.0, 160.0, 100)])
    size = exponents.size
    rows = np.column_stack([rng.normal(size=(size, 2)) * 3.0, 10.0 ** exponents,
                            rng.normal(size=size) * 10.0 ** rng.integers(-5, 5, size)])
    for variant in (ExtendedKind.S_COORDINATES, ExtendedKind.POINCARE_S):
        terms = _extended_terms(HamiltonianSpec(potential, extended=variant, friction=0.6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for row in rows.tolist():
                on_floats = terms(row)
                on_numpy = terms(row[:2] + [np.float64(row[2]), row[3]])
                flat = [[*force, *k_p, k_s, k_e] for force, k_p, k_s, k_e in (on_floats, on_numpy)]
                assert [float(x).hex() for x in flat[0]] == [float(x).hex() for x in flat[1]]


def test_k_on_clock_s_gives_python_floats_where_lam_s_squared_underflows():
    """Where lam s^2 underflows to zero, K on clock s computes on a numpy
    scalar s to get numpy's inf instead of a float division error; its
    kernel row is still four Python floats, with the bits of that
    arithmetic, and numpy's divide-by-zero warning is not raised."""
    h = HamiltonianSpec(PotentialSpec("linear", lam=1.0), extended=ExtendedKind.POINCARE_S,
                        friction=0.8)
    F = compile_field(PhaseStructure(StructureKind.EXTENDED_B_S), h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        velocity = F.row([0.1, 0.2, 1e-170, 0.3])
    assert [type(x) for x in velocity] == [float] * 4
    assert [x.hex() for x in velocity] == ["0x1.8bba884e35a7ap-568", "-0x1.08f936baf85c1p+564",
                                           "-0x1.eea92a61c3118p-566", "inf"]
