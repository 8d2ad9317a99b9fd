"""Closed-form oracles: frozen values and residuals in their defining ODEs."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from bhamsys.hamiltonians import PotentialSpec
from bhamsys.oracles import (classical_parabola, damped_newton_reference, quadratic_tanh,
                             quadratic_tanh_constants, quadratic_tanh_momentum, stokes_exact)


def central_residual(values, dt, rhs):
    """q'' - rhs(q, q') by central differences at the interior samples."""
    qdd = (values[2:] - 2 * values[1:-1] + values[:-2]) / dt**2
    qd = (values[2:] - values[:-2]) / (2 * dt)
    return qdd - rhs(values[1:-1], qd)


class TestStokesExact:
    def test_frozen_point_values(self):
        q, p = stokes_exact(0.0, 1.0, 1.0, 1.0)
        assert q == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        assert p == pytest.approx(math.exp(-0.5), abs=1e-15)
        # decimal values quoted to 1e-7
        assert q == pytest.approx(0.6321206, abs=1e-7)
        assert p == pytest.approx(0.6065307, abs=1e-7)

    def test_zero_momentum_is_a_fixed_point(self):
        for t in (0.0, 1.0, 50.0):
            q, p = stokes_exact(3.0, 0.0, 2.0, t)
            assert (q, p) == (3.0, 0.0)

    def test_long_time_limit(self):
        q, p = stokes_exact(0.0, 1.0, 1.0, 1e3)
        assert q == pytest.approx(1.0, abs=1e-12)
        assert abs(p) < 1e-12

    def test_satisfies_the_twisted_system(self):
        """Residual of q'' = -lam q' below 1e-6 over [0, 10] (step 1e-4)."""
        lam = 1.3
        dt = 1e-4
        t = np.arange(0.0, 10.0, dt)
        q, p = stokes_exact(0.2, 1.1, lam, t)
        res = central_residual(q, dt, lambda qq, qd: -lam * qd)
        assert np.max(np.abs(res)) < 1e-6
        # first-order relations: q' = p^2 and p' = -(lam/2) p
        qd = (q[2:] - q[:-2]) / (2 * dt)
        pd = (p[2:] - p[:-2]) / (2 * dt)
        assert np.max(np.abs(qd - p[1:-1] ** 2)) < 1e-6
        assert np.max(np.abs(pd + 0.5 * lam * p[1:-1])) < 1e-8

    def test_positive_lambda_required(self):
        with pytest.raises(ValueError):
            stokes_exact(0.0, 1.0, 0.0, 1.0)


class TestClassicalParabola:
    def test_frozen_point_values(self):
        assert classical_parabola(0.0, 0.0, 1.0, 2.0) == (pytest.approx(-1.0), pytest.approx(-1.0))
        assert classical_parabola(0.0, 0.0, 2.0, 0.0) == (0.0, 0.0)
        q, p = classical_parabola(3.0, 1.0, 2.0, 1.0)
        assert q == pytest.approx(3.5) and p == pytest.approx(0.0)

    def test_satisfies_the_classical_system(self):
        # modest lam keeps |q| small so second differences are not dominated
        # by roundoff amplification (eps * |q| / dt^2)
        lam = 0.2
        dt = 1e-4
        t = np.arange(0.0, 10.0, dt)
        q, p = classical_parabola(-1.0, 0.4, lam, t)
        res = central_residual(q, dt, lambda qq, qd: np.full_like(qq, -lam / 2.0))
        assert np.max(np.abs(res)) < 1e-6
        qd = (q[2:] - q[:-2]) / (2 * dt)
        npt.assert_allclose(qd, p[1:-1], atol=1e-7)


class TestQuadraticTanh:
    def test_frozen_point_values(self):
        assert quadratic_tanh(1.0, 0.0, 1.0, 0.0) == 0.0
        assert quadratic_tanh(1.0, 0.0, 1.0, 2.0) == pytest.approx(math.tanh(1.0), abs=1e-15)
        assert quadratic_tanh(1.0, 0.0, 1.0, 2.0) == pytest.approx(0.7615942, abs=1e-7)
        # bounded by c1/sqrt(lam)
        assert quadratic_tanh(1.0, 0.0, 1.0, 1e3) == pytest.approx(1.0, abs=1e-12)

    def test_satisfies_the_quadratic_model(self):
        lam, c1, c2 = 1.0, 1.0, 0.0
        dt = 1e-4
        t = np.arange(0.0, 10.0, dt)
        q = quadratic_tanh(c1, c2, lam, t)
        res = central_residual(q, dt, lambda qq, qd: -lam * qd * qq)
        assert np.max(np.abs(res)) < 1e-6

    def test_momentum_is_sqrt_of_velocity(self):
        lam, c1, c2 = 2.0, 1.4, 0.3
        dt = 1e-5
        t = np.arange(0.5, 1.5, dt)
        q = quadratic_tanh(c1, c2, lam, t)
        p = quadratic_tanh_momentum(c1, c2, lam, t)
        qd = (q[2:] - q[:-2]) / (2 * dt)
        npt.assert_allclose(p[1:-1] ** 2, qd, atol=1e-8)

    def test_constants_from_initial_conditions(self):
        """(c1, c2) reproduce q(0) = q0 and q'(0) = p0^2 for random data."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = rng.uniform(0.3, 3.0)
            p0 = rng.uniform(0.2, 2.0)
            c1_max = 2.0 * math.sqrt(0.5 * p0**2)  # keep |q0| inside the tanh range
            q0 = rng.uniform(-0.9, 0.9) * c1_max / math.sqrt(lam)
            c1, c2 = quadratic_tanh_constants(q0, p0, lam)
            eps = 1e-6
            q_m, q_0, q_p = (quadratic_tanh(c1, c2, lam, tt) for tt in (-eps, 0.0, eps))
            assert q_0 == pytest.approx(q0, abs=1e-12)
            assert (q_p - q_m) / (2 * eps) == pytest.approx(p0**2, rel=1e-7)

    @pytest.mark.parametrize("q0", [1.0, -1.0])
    @pytest.mark.parametrize("p0", [1e-7, 1e-9, 1e-200])
    def test_constants_at_a_small_momentum(self, q0, p0):
        c1, c2 = quadratic_tanh_constants(q0, p0, 1.0)
        assert quadratic_tanh(c1, c2, 1.0, 0.0) == pytest.approx(q0, rel=1e-15)
        assert quadratic_tanh_momentum(c1, c2, 1.0, 0.0) == pytest.approx(p0, rel=1e-12)

    def test_constants_need_positive_momentum(self):
        with pytest.raises(ValueError):
            quadratic_tanh_constants(0.0, 0.0, 1.0)


class TestDampedNewtonReference:
    def test_free_damped_motion(self):
        t = np.linspace(0.0, 10.0, 101)
        res = damped_newton_reference(PotentialSpec("zero"), 1.0, 0.0, 1.0, t)
        npt.assert_allclose(res.qs[:, 0], 1.0 - np.exp(-t), atol=1e-10)
        npt.assert_allclose(res.ps[:, 0], np.exp(-t), atol=1e-10)
        assert res.step is not None

    def test_undamped_oscillator_limit(self):
        # lam = 0 with V = q^2/2 is cos(t)
        t = np.linspace(0.0, 10.0, 201)
        pot = PotentialSpec("pure_quadratic", lam=2.0)
        res = damped_newton_reference(pot, 0.0, 1.0, 0.0, t)
        npt.assert_allclose(res.qs[:, 0], np.cos(t), atol=1e-8)

    def test_terminal_velocity_under_constant_force(self):
        # V = 2q: steady state of q'' = -q' - 2 is q' = -2
        t = np.linspace(0.0, 20.0, 201)
        pot = PotentialSpec("linear", lam=4.0)
        res = damped_newton_reference(pot, 1.0, 0.0, 0.0, t, step=1e-3)
        assert res.ps[-1, 0] == pytest.approx(-2.0, abs=1e-6)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            damped_newton_reference(PotentialSpec("zero"), 1.0, 0.0, 1.0, [0.0, 0.0, 1.0])

    # these failed later, converting NaN to an integer or overflowing
    @pytest.mark.parametrize("t_grid", [[0.0, math.nan], [math.nan, 1.0], [0.0, math.inf],
                                        [-math.inf, 0.0], [math.inf, math.inf]])
    def test_grid_must_be_finite(self, t_grid):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            damped_newton_reference(PotentialSpec("zero"), 1.0, 0.0, 1.0, t_grid)

    def test_vector_valued_states(self):
        t = np.linspace(0.0, 5.0, 51)
        res = damped_newton_reference(PotentialSpec("linear", lam=2.0), 0.5,
                                      [0.0, 1.0], [1.0, 0.0], t, axis=1)
        assert res.qs.shape == (51, 2)
        # axis 0 is free damped motion, axis 1 sees the constant force
        npt.assert_allclose(res.qs[:, 0], (1 - np.exp(-0.5 * t)) / 0.5, atol=1e-9)
