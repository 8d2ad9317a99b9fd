"""Structure descriptors, bivector inversion, and the defining identity."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from bhamsys.geometry import (DEGENERACY_TOL, PhaseState, PhaseStructure,
                              StructureKind, bivector_rank, compile_field,
                              defining_function, evaluate_form,
                              hamiltonian_vector_field, poisson_bivector)
from bhamsys.hamiltonians import HamiltonianSpec, PotentialSpec

TWISTED = PhaseStructure(StructureKind.TWISTED_B)
NONTWISTED = PhaseStructure(StructureKind.NONTWISTED_B)
CANONICAL = PhaseStructure(StructureKind.CANONICAL)

LINEAR = HamiltonianSpec(PotentialSpec("linear", lam=1.0))


class TestValidation:
    def test_dim_must_be_even(self):
        with pytest.raises(ValueError):
            PhaseStructure(StructureKind.CANONICAL, dim=3)

    def test_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            PhaseStructure(StructureKind.CANONICAL, dim=0)

    def test_zero_modular_weight_rejected_for_singular_kinds(self):
        with pytest.raises(ValueError):
            PhaseStructure(StructureKind.TWISTED_B, modular_weight=0.0)
        # canonical kinds do not care
        PhaseStructure(StructureKind.CANONICAL, modular_weight=0.0)

    def test_singular_index_range(self):
        with pytest.raises(ValueError):
            PhaseStructure(StructureKind.TWISTED_B, dim=2, singular_index=1)
        PhaseStructure(StructureKind.TWISTED_B, dim=4, singular_index=1)

    def test_angular_mask_length(self):
        with pytest.raises(ValueError):
            PhaseStructure(StructureKind.TWISTED_B, dim=2, angular_mask=(True, False))

    def test_state_shape_mismatch(self):
        with pytest.raises(ValueError):
            PhaseState(q=[0.0, 1.0], p=[0.0])

    def test_extended_structure_requires_extra_pair(self):
        ext = PhaseStructure(StructureKind.EXTENDED_CANONICAL)
        with pytest.raises(ValueError):
            defining_function(PhaseStructure(StructureKind.EXTENDED_B_S),
                              PhaseState(0.0, 1.0))
        assert ext.total_dim == 4


class TestDefiningFunction:
    def test_point_on_critical_set(self):
        assert defining_function(TWISTED, PhaseState(3.0, 0.0)) == 0.0

    def test_reads_singular_momentum(self):
        assert defining_function(TWISTED, PhaseState(0.0, 2.0)) == 2.0

    def test_reads_singular_position(self):
        assert defining_function(NONTWISTED, PhaseState(0.5, 7.0)) == 0.5

    def test_reads_s_coordinate(self):
        ext = PhaseStructure(StructureKind.EXTENDED_B_S)
        assert defining_function(ext, PhaseState(0.0, 1.0, extra=(0.25, 3.0))) == 0.25

    def test_canonical_has_no_critical_set(self):
        with pytest.raises(ValueError, match="no critical set"):
            defining_function(CANONICAL, PhaseState(0.0, 1.0))


def _form_matrix_from_scratch(kind, c, state):
    """Independent 2x2 form matrix for n=1, written out from the definitions."""
    q, p = state.q[0], state.p[0]
    if kind is StructureKind.TWISTED_B:
        coeff = c / p          # form (c/p) dp ^ dq
    elif kind is StructureKind.NONTWISTED_B:
        coeff = c / q          # form (c/q) dp ^ dq
    else:
        coeff = 1.0            # form dp ^ dq
    # W[i, j] = omega(e_i, e_j) in the basis (d/dq, d/dp)
    return np.array([[0.0, -coeff], [coeff, 0.0]])


class TestPoissonBivector:
    def test_twisted_pairing_by_linear_solve(self):
        """Oracle: invert the form matrix numerically; P must equal W^-1."""
        state = PhaseState(0.0, 2.0)
        W = _form_matrix_from_scratch(StructureKind.TWISTED_B, 1.0, state)
        P_expected = np.linalg.inv(W)
        P = poisson_bivector(TWISTED, state)
        npt.assert_allclose(P, P_expected, rtol=0, atol=1e-15)
        assert P[0, 1] == 2.0

    def test_nontwisted_pairing_by_linear_solve(self):
        state = PhaseState(0.5, 7.0)
        W = _form_matrix_from_scratch(StructureKind.NONTWISTED_B, 2.0, state)
        struct = PhaseStructure(StructureKind.NONTWISTED_B, modular_weight=2.0)
        npt.assert_allclose(poisson_bivector(struct, state), np.linalg.inv(W),
                            rtol=0, atol=1e-15)

    def test_degenerate_on_critical_set(self):
        P = poisson_bivector(TWISTED, PhaseState(5.0, 0.0))
        assert np.all(P == 0.0)
        assert bivector_rank(TWISTED, PhaseState(5.0, 0.0)) == 0

    def test_canonical_is_constant_standard_pairing(self):
        struct = PhaseStructure(StructureKind.CANONICAL, dim=4)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 1.0
        expected[2, 0] = expected[3, 1] = -1.0
        for qp in ([0.0, 0.0, 0.0, 0.0], [1.0, -2.0, 3.0, 4.0]):
            state = PhaseState(qp[:2], qp[2:])
            npt.assert_array_equal(poisson_bivector(struct, state), expected)

    def test_extended_blocks(self):
        ext_c = PhaseStructure(StructureKind.EXTENDED_CANONICAL)
        P = poisson_bivector(ext_c, PhaseState(0.0, 1.0, extra=(2.0, 3.0)))
        assert P.shape == (4, 4)
        assert P[2, 3] == -1.0 and P[3, 2] == 1.0
        ext_s = PhaseStructure(StructureKind.EXTENDED_B_S)
        P = poisson_bivector(ext_s, PhaseState(0.0, 1.0, extra=(0.25, 3.0)))
        assert P[2, 3] == 0.25 and P[3, 2] == -0.25

    def test_degeneracy_locus_tracks_defining_function(self):
        """Rank drops below 2n exactly when |defining| < tolerance."""
        for mag in (1e-16, 1e-15, 2e-14, 1e-13, 1e-2, 1.0):
            for sign in (1.0, -1.0):
                state = PhaseState(0.3, sign * mag)
                rank = bivector_rank(TWISTED, state)
                if mag < DEGENERACY_TOL:
                    assert rank < 2, mag
                else:
                    assert rank == 2, mag

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = PhaseState(rng.normal(), rng.normal() + 2.0)
            P = poisson_bivector(TWISTED, state)
            npt.assert_array_equal(P, -P.T)


class TestHamiltonianVectorField:
    def test_twisted_stokes_equations(self):
        # dq/dt = p^2, dp/dt = -(lam/2) p with lam = 1 at (0, 2)
        v = hamiltonian_vector_field(TWISTED, LINEAR, PhaseState(0.0, 2.0))
        npt.assert_allclose(v, [4.0, -1.0], rtol=0, atol=0)

    def test_fixed_points_on_critical_set(self):
        v = hamiltonian_vector_field(TWISTED, LINEAR, PhaseState(5.0, 0.0))
        npt.assert_array_equal(v, [0.0, 0.0])

    def test_canonical_equations(self):
        v = hamiltonian_vector_field(CANONICAL, LINEAR, PhaseState(0.0, 2.0))
        npt.assert_allclose(v, [2.0, -0.5], rtol=0, atol=0)

    def test_twisted_field_is_momentum_times_classical_field(self):
        """dq/dt and dp/dt of the singular model are p times the classical ones."""
        rng = np.random.default_rng(42)
        for family, lam in (("linear", 1.0), ("pure_quadratic", 1.0), ("periodic", 2.0)):
            h = HamiltonianSpec(PotentialSpec(family, lam=lam))
            for _ in range(300):
                state = PhaseState(rng.uniform(-3, 3), rng.uniform(-3, 3))
                xb = hamiltonian_vector_field(TWISTED, h, state)
                xc = hamiltonian_vector_field(CANONICAL, h, state)
                expected = state.p[0] * xc
                npt.assert_allclose(xb, expected, rtol=1e-14, atol=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from([StructureKind.TWISTED_B, StructureKind.NONTWISTED_B]),
           n=st.sampled_from([1, 2]), c=st.sampled_from([1.0, -0.5, 2.0]),
           potential=st.sampled_from([PotentialSpec("zero"), PotentialSpec("linear", lam=1.3),
                                      PotentialSpec("pure_quadratic", lam=0.7),
                                      PotentialSpec("general_quadratic", lam=0.9, alpha=-0.4),
                                      PotentialSpec("periodic", lam=1.1)]),
           data=st.data())
    def test_singular_field_is_the_canonical_field_scaled_on_the_singular_pair(
            self, kind, n, c, potential, data):
        """The pair (q_k, p_k) of the twisted (non-twisted) field is p_k/c
        (q_k/c) times its canonical velocities; the other pairs are canonical."""
        k = data.draw(st.integers(0, n - 1), label="singular_index")
        axis = data.draw(st.integers(0, n - 1), label="axis")
        y = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * n,
                                        max_size=2 * n), label="state"))
        z = y[n + k] if kind is StructureKind.TWISTED_B else y[k]
        assume(z != 0.0)  # off the critical set
        structure = PhaseStructure(kind, dim=2 * n, modular_weight=c, singular_index=k)
        h = HamiltonianSpec(replace(potential, axis=axis), n=n)
        expected = compile_field(PhaseStructure(StructureKind.CANONICAL, dim=2 * n), h)(y)
        expected[[k, n + k]] *= z / c
        npt.assert_array_equal(compile_field(structure, h)(y), expected)

    def test_tangent_to_critical_set(self):
        # normal component (dp/dt at the singular momentum) vanishes on Z
        for family in ("linear", "pure_quadratic", "periodic"):
            h = HamiltonianSpec(PotentialSpec(family, lam=2.0))
            for q in (-1.0, 0.0, 2.5):
                v = hamiltonian_vector_field(TWISTED, h, PhaseState(q, 0.0))
                assert v[1] == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_vector_field(TWISTED, LINEAR, PhaseState([0.0, 0.0], [1.0, 1.0]))


class TestEvaluateForm:
    def test_twisted_coefficient(self):
        # omega = (1/p) dp ^ dq at p = 2: omega(d/dp, d/dq) = 1/2
        val = evaluate_form(TWISTED, PhaseState(0.0, 2.0), [0.0, 1.0], [1.0, 0.0])
        assert val == 0.5

    def test_vanishes_on_equal_arguments(self):
        rng = np.random.default_rng(3)
        for struct in (TWISTED, CANONICAL, NONTWISTED):
            u = rng.normal(size=2)
            state = PhaseState(1.3, 0.7)
            assert evaluate_form(struct, state, u, u) == 0.0

    def test_singular_on_critical_set(self):
        with pytest.raises(ValueError, match="singular"):
            evaluate_form(TWISTED, PhaseState(0.0, 0.0), [0.0, 1.0], [1.0, 0.0])

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(11)
        state = PhaseState(0.4, -1.7)
        for _ in range(100):
            u, v = rng.normal(size=2), rng.normal(size=2)
            assert evaluate_form(TWISTED, state, u, v) == -evaluate_form(TWISTED, state, v, u)

    def test_reconstructs_defining_identity(self):
        """omega(X_H, v) = -dH(v) at random off-Z states and test vectors."""
        rng = np.random.default_rng(2024)
        specs = [
            (TWISTED, HamiltonianSpec(PotentialSpec("linear", lam=1.0))),
            (TWISTED, HamiltonianSpec(PotentialSpec("periodic", lam=2.0))),
            (NONTWISTED, HamiltonianSpec(PotentialSpec("pure_quadratic", lam=1.0))),
            (CANONICAL, HamiltonianSpec(PotentialSpec("general_quadratic", lam=2.0, alpha=0.3))),
        ]
        checks = 0
        for struct, h in specs:
            while checks < 250 * (specs.index((struct, h)) + 1):
                q = rng.uniform(-3, 3)
                p = rng.uniform(-3, 3)
                state = PhaseState(q, p)
                if struct.is_singular and abs(defining_function(struct, state)) < 1e-3:
                    continue
                x = hamiltonian_vector_field(struct, h, state)
                grad = h.gradient(state)
                v = rng.normal(size=2)
                lhs = evaluate_form(struct, state, x, v)
                rhs = -float(grad @ v)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
                checks += 1
