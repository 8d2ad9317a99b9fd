"""The flat-array field kernel and the batched driver.

A batch must reproduce, to the bit, what the rows give on their own: the
vectorized kernel against the per-row loop over ``h.gradient``, and every row
of :func:`integrate_batch` against a one-row :func:`integrate`.
"""

import importlib
import json
import math

import numpy as np
import pytest

from bhamsys.cli import main
from bhamsys.geometry import (PhaseState, PhaseStructure, StructureKind, compile_field,
                              hamiltonian_vector_field)
from bhamsys.hamiltonians import ExtendedKind, HamiltonianSpec, PotentialSpec
from bhamsys.integrate import (EventKind, IntegratorConfig, Method, Trajectory, integrate,
                               integrate_batch)
from bhamsys.liftcheck import projectability_test, toric_moment_field

STRUCTURES = {
    "canonical": PhaseStructure(StructureKind.CANONICAL),
    "twisted": PhaseStructure(StructureKind.TWISTED_B, modular_weight=1.5),
    "nontwisted": PhaseStructure(StructureKind.NONTWISTED_B, modular_weight=-0.5),
}
FAMILIES = {
    "linear": PotentialSpec("linear", lam=1.0),
    "pure_quadratic": PotentialSpec("pure_quadratic", lam=1.0),
    "general_quadratic": PotentialSpec("general_quadratic", lam=2.0, alpha=0.3),
    "periodic": PotentialSpec("periodic", lam=2.0),
}


class RowByRow:
    """Duck-typed view of a Hamiltonian: only ``gradient``, so the kernel
    takes its per-row loop."""

    def __init__(self, h):
        self.h = h
        self.extra_role = h.extra_role

    def gradient(self, state):
        return self.h.gradient(state)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def assert_same_run(a, b):
    assert isinstance(a, Trajectory) and isinstance(b, Trajectory)
    assert bits(a.times) == bits(b.times)
    assert bits(a.ys) == bits(b.ys)
    assert [(e.kind, float(e.time).hex()) for e in a.events] == \
        [(e.kind, float(e.time).hex()) for e in b.events]


class TestCompileField:
    @pytest.mark.parametrize("structure", [
        *STRUCTURES.values(),
        PhaseStructure(StructureKind.TWISTED_B, dim=4, singular_index=1),
        PhaseStructure(StructureKind.NONTWISTED_B, dim=4, singular_index=0),
    ])
    @pytest.mark.parametrize("family", [*FAMILIES.values(), PotentialSpec("zero")])
    def test_vectorized_rows_equal_the_gradient_loop(self, structure, family):
        n = structure.n
        h = HamiltonianSpec(family, n=n, axis=n - 1)
        rng = np.random.default_rng(5)
        Y = rng.uniform(-3.0, 3.0, size=(40, 2 * n))
        Y[:4] = [[0.0] * (2 * n), [-0.0] * (2 * n), [1.0] * (2 * n), [-2.0] * (2 * n)]
        fast = compile_field(structure, h)(Y)
        assert bits(fast) == bits(compile_field(structure, RowByRow(h))(Y))
        for y, v in zip(Y, fast):
            state = PhaseState(y[:n], y[n:])
            assert bits(hamiltonian_vector_field(structure, h, state)) == bits(v)
            assert bits(compile_field(structure, h)(y)) == bits(v)

    @pytest.mark.parametrize("kind,extended", [
        (StructureKind.EXTENDED_CANONICAL, ExtendedKind.PLAIN_EXTENDED),
        (StructureKind.EXTENDED_CANONICAL, ExtendedKind.RESCALED_EXTENDED),
        (StructureKind.EXTENDED_B_S, ExtendedKind.S_COORDINATES),
    ])
    def test_extended_rows_equal_the_single_state_field(self, kind, extended):
        structure = PhaseStructure(kind, modular_weight=0.5)
        h = HamiltonianSpec(FAMILIES["pure_quadratic"], extended=extended, friction=0.7)
        rng = np.random.default_rng(9)
        Y = rng.uniform(0.1, 2.0, size=(10, 4))
        out = compile_field(structure, h)(Y)
        for y, v in zip(Y, out):
            state = PhaseState(y[:1], y[1:2], extra=(y[2], y[3]))
            assert bits(hamiltonian_vector_field(structure, h, state)) == bits(v)

    def test_role_mismatch_is_rejected_when_compiled(self):
        h = HamiltonianSpec(FAMILIES["linear"], extended=ExtendedKind.S_COORDINATES,
                            friction=1.0)
        with pytest.raises(ValueError, match="expects \\(t, E\\)"):
            compile_field(PhaseStructure(StructureKind.EXTENDED_CANONICAL), h)


def run_both_ways(structure, h, states, config, directions):
    batch = integrate_batch(structure, h, [s.to_array() for s in states], config, directions)
    for state, direction, got in zip(states, directions, batch):
        assert_same_run(got, integrate(structure, h, state, config, direction))
    return batch


class TestIntegrateBatch:
    @pytest.mark.parametrize("structure", STRUCTURES.values(), ids=STRUCTURES.keys())
    @pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
    def test_rows_equal_one_row_runs(self, structure, family):
        h = HamiltonianSpec(family)
        ics = [(0.0, 1.0), (2.5, 0.0), (0.3, -0.7), (-1.0, 2.0), (1.5, 1.5), (-2.0, -0.5)]
        states = [PhaseState(q, p) for q, p in ics] * 2
        directions = [1] * len(ics) + [-1] * len(ics)
        config = IntegratorConfig(step=0.01, t_max=4.0, z_epsilon=1e-3, blowup_bound=8.0)
        run_both_ways(structure, h, states, config, directions)

    def test_every_terminal_event_in_one_batch(self):
        structure = PhaseStructure(StructureKind.TWISTED_B)
        h = HamiltonianSpec(FAMILIES["linear"])
        states = [PhaseState(0.0, 1.0),      # reaches Z
                  PhaseState(2.5, 0.0),      # starts on Z: fixed point
                  PhaseState(7.9, 1.0),      # q grows past the bound: blowup
                  PhaseState(0.0, 5e-4)]     # inside Z's neighborhood: horizon
        config = IntegratorConfig(step=0.01, t_max=20.0, z_epsilon=1e-3, blowup_bound=8.0)
        runs = run_both_ways(structure, h, states, config, [1, 1, 1, 1])
        assert [r.terminal_event.kind for r in runs] == [
            EventKind.REACHED_Z, EventKind.FIXED_POINT, EventKind.BLOWUP, EventKind.T_MAX]

    def test_bad_rows_leave_the_others_unchanged(self):
        structure = STRUCTURES["canonical"]
        h = HamiltonianSpec(FAMILIES["linear"])
        config = IntegratorConfig(step=0.01, t_max=20.0, blowup_bound=30.0)
        rows = [[0.0, 1.0], [np.inf, 1.0], [0.0, 0.0], [0.5], [1.0, -1.0]]
        runs = integrate_batch(structure, h, rows, config)
        assert isinstance(runs[1], ValueError) and "finite" in str(runs[1])
        assert isinstance(runs[3], ValueError) and "length 2" in str(runs[3])
        assert runs[2].terminal_event.kind is EventKind.BLOWUP
        for i in (0, 2, 4):
            assert_same_run(runs[i], integrate(structure, h, PhaseState(*rows[i]), config))

    def test_hamiltonian_errors_stay_in_their_rows(self):
        class Fragile:
            """Classical H = p^2/2 + q^2/2 that refuses q > 2 and overflows below -2."""

            extra_role = None

            def gradient(self, state):
                q = state.q[0]
                if q > 2.0:
                    raise ValueError("refused")
                if q < -2.0:
                    raise OverflowError("too far")
                return np.array([q, state.p[0]])

        structure = STRUCTURES["canonical"]
        h = Fragile()
        config = IntegratorConfig(step=0.05, t_max=3.0)
        states = [PhaseState(0.0, 1.0), PhaseState(1.9, 1.0), PhaseState(-1.9, -1.0),
                  PhaseState(3.0, 0.0)]
        runs = integrate_batch(structure, h, [s.to_array() for s in states], config)
        assert isinstance(runs[1], ValueError) and isinstance(runs[3], ValueError)
        blown = runs[2]
        assert blown.terminal_event.kind is EventKind.BLOWUP
        # the step that overflowed leaves no sample; the event is one step on
        assert np.all(np.isfinite(blown.ys))
        assert blown.terminal_event.time == pytest.approx(blown.times[-1] + 0.05)
        for i in (0, 2):
            assert_same_run(runs[i], integrate(structure, h, states[i], config))
        with pytest.raises(ValueError, match="refused"):
            integrate(structure, h, states[1], config)

    def test_adaptive_rows_equal_one_row_runs(self):
        structure = STRUCTURES["twisted"]
        h = HamiltonianSpec(FAMILIES["pure_quadratic"])
        config = IntegratorConfig(method=Method.RK_ADAPTIVE, step=1e-2, t_max=15.0,
                                  z_epsilon=1e-4)
        states = [PhaseState(0.0, 1.0), PhaseState(1.0, -0.5), PhaseState(2.0, 0.0)]
        run_both_ways(structure, h, states + states, config, [1, 1, 1, -1, -1, -1])

    def test_growing_sample_store(self, monkeypatch):
        structure = STRUCTURES["twisted"]
        h = HamiltonianSpec(FAMILIES["periodic"])
        config = IntegratorConfig(step=0.01, t_max=3.0, z_epsilon=1e-4)
        rows = [[0.0, 2.0], [1.0, -0.5], [3.0, 1.0]]
        whole = integrate_batch(structure, h, rows, config, [1, -1, 1])
        # the package exports the function integrate under the module's name
        monkeypatch.setattr(importlib.import_module("bhamsys.integrate"), "STORE_ELEMENTS", 12)
        grown = integrate_batch(structure, h, rows, config, [1, -1, 1])
        for a, b in zip(whole, grown):
            assert_same_run(a, b)

    def test_direction_values_checked(self):
        with pytest.raises(ValueError, match="direction"):
            integrate_batch(STRUCTURES["twisted"], HamiltonianSpec(FAMILIES["linear"]),
                            [[0.0, 1.0]], None, [0])


def test_cli_portrait_batch_matches_single_runs(tmp_path):
    ics = [[0.0, 1.0], [1.0, -0.8], [-1.5, 0.6], [2.0, 0.0]]
    base = {
        "structure": {"kind": "twisted_b", "dim": 2},
        "potential": {"family": "pure_quadratic", "lambda": 1.0},
        "integrator": {"step": 0.01, "t_max": 30.0, "z_epsilon": 1e-4},
    }

    def portrait(name, initial):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(base, initial=initial)))
        out = tmp_path / name
        assert main(["portrait", "--config", str(path), "--out", str(out)]) == 0
        return out

    together = portrait("all", ics)
    for i, ic in enumerate(ics):
        alone = portrait(f"one_{i}", [ic])
        for direction in ("forward", "backward"):
            assert (together / f"traj_{i:03d}_{direction}.csv").read_bytes() == \
                (alone / f"traj_000_{direction}.csv").read_bytes()


def pairwise_verdict(structure, h, bases, fibers):
    """The scan over fiber pairs that the spread computation replaces."""
    n = structure.n
    worst = None
    for base in bases:
        v = [hamiltonian_vector_field(structure, h, PhaseState(base, f))[:n] for f in fibers]
        for i in range(len(fibers)):
            for j in range(i + 1, len(fibers)):
                diff = float(np.max(np.abs(v[i] - v[j])))
                if worst is None or diff > worst[0]:
                    worst = (diff, base, fibers[i], fibers[j])
    return worst


@pytest.mark.parametrize("n,family", [(1, "linear"), (1, "periodic"), (2, "pure_quadratic"),
                                      (2, "general_quadratic")])
def test_liftcheck_witness_equals_the_pair_scan(n, family):
    structure = PhaseStructure(StructureKind.TWISTED_B, dim=2 * n, modular_weight=0.7)
    h = HamiltonianSpec(FAMILIES[family], n=n)
    rng = np.random.default_rng(3)
    bases = [rng.uniform(-2, 2, n) for _ in range(6)]
    fibers = [rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n) for _ in range(7)]
    fibers += [-f for f in fibers]  # ties: p and -p give the same base velocity
    verdict = projectability_test(structure, h, bases, fibers, tol=1e-9)
    diff, base, fa, fb = pairwise_verdict(structure, h, bases, fibers)
    w = verdict.witness
    assert w.difference == diff
    assert bits(w.state_a.q) == bits(base) and bits(w.state_b.q) == bits(base)
    assert bits(w.state_a.p) == bits(fa) and bits(w.state_b.p) == bits(fb)


def test_liftcheck_control_stays_projectable():
    structure = PhaseStructure(StructureKind.TWISTED_B, dim=4)
    verdict = projectability_test(structure, toric_moment_field(structure),
                                  [[0.0, 1.0], [math.pi, -1.0]],
                                  [[0.5, 1.0], [-2.0, 3.0], [1.0, -1.0]])
    assert verdict.witness is None and verdict.verdict.value == "projectable"
