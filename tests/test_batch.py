"""The flat-array field kernel and the batched driver.

A batch must reproduce, to the bit, what the rows give on their own: the
vectorized kernel against the per-row loop over ``h.gradient``, and every row
of :func:`integrate_batch` against a one-row :func:`integrate`.
"""

import importlib
import json
import math
import warnings

import numpy as np
import pytest
from conftest import run_python

from bhamsys.cli import main
from bhamsys.geometry import (PhaseState, PhaseStructure, StructureKind, compile_field,
                              hamiltonian_vector_field, poisson_bivector)
from bhamsys.hamiltonians import ExtendedKind, HamiltonianSpec, PotentialSpec
from bhamsys.integrate import (RETURN_BLOCK, Event, EventKind, IntegratorConfig, Method,
                               Trajectory, integrate, integrate_batch)
from bhamsys.liftcheck import projectability_test, toric_moment_field
from bhamsys.timescale import build_rescaled_extended, to_s_coordinates

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


class Negated(RowByRow):
    """-H through its gradient alone: the kernel's per-row loop over -grad H."""

    def gradient(self, state):
        return -self.h.gradient(state)


# q and p of the direction test; -0.0 on every coordinate that can hold it,
# and a second, free degree of freedom at +-0.0, whose velocities are zeros
# of both signs (on a backward row its RK4 sum cancels to +0.0)
DIRECTION_ICS = [(0.0, 1.0), (-0.0, 1.0), (1.5, -0.0), (0.3, -0.7), (-1.0, 2.0),
                 (2.5, 0.0), (0.0, 5e-4), (-0.0, -5e-4), (-0.0, -0.0), (1e-3, -1.5)]
DIRECTION_FREE = [(0.0, -0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURES.keys())
def test_backward_rows_are_forward_runs_of_minus_h(structure, n):
    """Each backward row of a mixed-direction batch is, to the bit, the forward
    run of -H through the per-row gradient path, for each family and at
    every end: Z (its sample on the Hermite of signed velocities), a fixed
    point and t_max."""
    base = STRUCTURES[structure]
    structure = PhaseStructure(base.kind, dim=2 * n, modular_weight=base.modular_weight)
    states = []
    for i, (q, p) in enumerate(DIRECTION_ICS):
        free_q, free_p = DIRECTION_FREE[i % 4]
        states.append(PhaseState([q, free_q][:n], [p, free_p][:n]).to_array())
    config = IntegratorConfig(step=0.02, t_max=8.0, z_epsilon=1e-2, blowup_bound=8.0)
    ends = set()
    for family in FAMILIES.values():
        h = HamiltonianSpec(family, n=n)
        batch = integrate_batch(structure, h, states + states, config,
                                [1] * len(states) + [-1] * len(states))
        backward = batch[len(states):]
        for got, want in zip(backward, integrate_batch(structure, Negated(h), states, config)):
            assert got.direction == -1
            assert_same_run(got, want)
            ends.add(got.terminal_event.kind)
    assert {EventKind.FIXED_POINT, EventKind.T_MAX} <= ends
    assert (EventKind.REACHED_Z in ends) == structure.is_singular


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


@pytest.mark.parametrize("kind", [StructureKind.TWISTED_B, StructureKind.NONTWISTED_B])
@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_unit_weight_kernel_equals_the_bivector_product(kind, family):
    """With c = 1 and n = 1 the kernel scales the whole state by the singular
    coordinate itself; it must agree with P . grad H."""
    structure = PhaseStructure(kind)
    h = HamiltonianSpec(family)
    Y = np.random.default_rng(11).uniform(-3.0, 3.0, size=(30, 2))
    fast = compile_field(structure, h)(Y)
    assert bits(fast) == bits(compile_field(structure, RowByRow(h))(Y))
    for y, v in zip(Y, fast):
        state = PhaseState(y[:1], y[1:])
        np.testing.assert_array_equal(v, poisson_bivector(structure, state) @ h.gradient(state))


class NaNBeyond:
    """Classical H = (p^2 + q^2)/2 whose gradient turns NaN past q = 1.2,
    without raising."""

    extra_role = None

    def gradient(self, state):
        q, p = state.q[0], state.p[0]
        return np.array([np.nan if q > 1.2 else q, p])


def test_nan_gradient_ends_its_row_in_blowup_without_touching_the_others():
    structure = STRUCTURES["canonical"]
    h = NaNBeyond()
    config = IntegratorConfig(step=0.01, t_max=4.0)
    # rows 0 and 3 circle at radius <= 1 and go on; rows 1 and 2 cross q = 1.2
    states = [PhaseState(0.0, 1.0), PhaseState(1.0, 1.0), PhaseState(-1.0, -1.0),
              PhaseState(0.5, -0.5)]
    directions = [1, 1, -1, -1]
    runs = run_both_ways(structure, h, states, config, directions)
    for i in (0, 3):
        assert runs[i].terminal_event.kind is EventKind.T_MAX
    for i in (1, 2):
        run = runs[i]
        assert run.terminal_event.kind is EventKind.BLOWUP
        assert np.all(np.isfinite(run.ys)) and len(run) > 10
        # the last sample is the last finite one: one step on, the state is NaN
        assert run.terminal_event.time == pytest.approx(run.times[-1] + 0.01)


class RaisesAt(RowByRow):
    """``h`` through its gradient, which raises ``error`` at one exact state."""

    def __init__(self, h, state, error):
        super().__init__(h)
        self.state, self.error = state, error

    def gradient(self, state):
        if np.array_equal(state.to_array(), self.state):
            raise self.error
        return super().gradient(state)


@pytest.mark.parametrize("error", [ValueError("refused"), OverflowError("too far"),
                                   FloatingPointError("overflow encountered")],
                         ids=["ValueError", "OverflowError", "FloatingPointError"])
def test_an_error_at_a_new_sample_ends_only_its_row(error):
    """The field evaluation at the end of step k, on its new sample, raises
    for one row of a batch; no stage of the step does."""
    structure = STRUCTURES["twisted"]
    h = HamiltonianSpec(FAMILIES["periodic"])
    config = IntegratorConfig(step=0.01, t_max=1.0, z_epsilon=1e-4)
    states = [PhaseState(0.0, 2.0), PhaseState(1.0, -0.5), PhaseState(3.0, 1.0)]
    directions = [1, -1, 1]
    k = 40
    clean = integrate(structure, RowByRow(h), states[1], config, directions[1])
    assert len(clean) > k + 1
    bad = RaisesAt(h, clean.ys[k], error)
    runs = integrate_batch(structure, bad, [s.to_array() for s in states], config, directions)
    if isinstance(error, (OverflowError, FloatingPointError)):  # a blowup at the previous sample
        assert runs[1].terminal_event == Event(clean.times[k], EventKind.BLOWUP)
        assert bits(runs[1].times) == bits(clean.times[:k])
        assert bits(runs[1].ys) == bits(clean.ys[:k])
    else:
        assert runs[1] is error
    for i in (0, 2):
        assert_same_run(runs[i], integrate(structure, bad, states[i], config, directions[i]))


EXTENDED_ROWS = {
    # exp(lam*t) overflows past lam*t = 700: the second row ends in blowup
    "rescaled_extended": (False, IntegratorConfig(step=0.01, t_max=1.0, blowup_bound=1e300),
                          [[0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 699.9, 1.0]], {1: EventKind.BLOWUP}),
    # a stage of the middle row leaves the chart's domain s > 0
    "s_coordinates": (True, IntegratorConfig(step=0.1, t_max=0.5, z_epsilon=1e-9),
                      [[0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.15, 1.0], [0.5, -1.0, 2.0, 0.5]],
                      {1: ValueError("Hamiltonian singular at s=0")}),
}


@pytest.mark.parametrize("variant", EXTENDED_ROWS, ids=EXTENDED_ROWS.keys())
def test_a_raising_row_of_an_extended_kernel_ends_only_its_row(variant):
    """The extended kernels run row by row and raise on one row: that row
    ends, in blowup or with its error, and every other row has the bits of
    its run alone."""
    s_chart, config, rows, failing = EXTENDED_ROWS[variant]
    structure, h = build_rescaled_extended(FAMILIES["linear"], 1.0)
    if s_chart:
        structure, h = to_s_coordinates(structure, h)
    runs = integrate_batch(structure, h, rows, config)
    for i, (row, run) in enumerate(zip(rows, runs)):
        expected = failing.get(i)
        if isinstance(expected, Exception):
            assert repr(run) == repr(expected)
        elif expected is not None:
            assert run.terminal_event.kind is expected
        else:
            (alone,) = integrate_batch(structure, h, [row], config)
            assert_same_run(run, alone)


def test_classify_leaves_numpy_ma_unimported(tmp_path):
    """The first-return scan takes a median without numpy.ma, whose import
    would cost a classify process 17-30 ms."""
    doc = {"structure": {"kind": "canonical"}, "potential": {"family": "pure_quadratic"},
           "initial": [[1.0, 0.0]], "integrator": {"step": 0.01, "t_max": 20.0}}
    (tmp_path / "run.json").write_text(json.dumps(doc))
    code = ("import json, sys\n"
            "from bhamsys.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    out = run_python(["-c", code, "classify", "--config", str(tmp_path / "run.json"),
                      "--out", str(tmp_path / "out")], timeout=120, check=True)
    assert out.stdout.strip() == "False"
    payload = json.loads((tmp_path / "out" / "classifications.json").read_text())
    assert payload[0]["classification"]["kind"] == "periodic"


def test_fixed_point_reached_mid_run():
    """A row whose field decays below fp_epsilon leaves at the first sample
    where it does, while the other rows go on."""
    structure = PhaseStructure(StructureKind.TWISTED_B)
    h = HamiltonianSpec(FAMILIES["linear"])
    config = IntegratorConfig(step=0.01, t_max=20.0, z_epsilon=1e-3, fp_epsilon=1e-5,
                              blowup_bound=1e6)
    # p decays as exp(-t/2): the row started inside Z's neighborhood, where
    # the Z event is not armed, stops at p/2 < 1e-5, near t = 2 ln 25
    states = [PhaseState(0.0, 5e-4), PhaseState(0.0, 1.0), PhaseState(1.0, -2.0)]
    runs = run_both_ways(structure, h, states, config, [1, 1, -1])
    fixed = runs[0]
    assert fixed.terminal_event.kind is EventKind.FIXED_POINT
    assert fixed.terminal_event.time == pytest.approx(2.0 * math.log(25.0), abs=0.02)
    F = compile_field(structure, h)
    assert np.max(np.abs(F(fixed.ys[-1]))) < 1e-5 <= np.max(np.abs(F(fixed.ys[-2])))
    assert [r.terminal_event.kind for r in runs[1:]] == [EventKind.REACHED_Z, EventKind.BLOWUP]


def refuses_below(bound):
    """dV/dq of V = q/2, refused (``ValueError``) below ``q = -bound`` and
    on a non-finite q."""
    def slope(q, t):
        if not -bound <= q[0] < math.inf:
            raise ValueError("refused")
        return [0.5]
    return slope


def count_rows_alone(monkeypatch):
    """A list whose one entry counts the kernel calls on a single row."""
    count = [0]

    def counting(structure, h):
        F = compile_field(structure, h)

        def field(Y, errors=None):
            count[0] += np.ndim(Y) == 1
            return F(Y, errors)
        field.row = F.row
        return field
    monkeypatch.setattr(importlib.import_module("bhamsys.integrate"), "compile_field", counting)
    return count


def test_rows_that_end_inside_a_block_equal_one_row_runs(monkeypatch):
    """Events are found once per block of steps; a row that ends inside a
    block, at any event, has the bits of its run alone, and so do the rows
    carried on beside it.  A row that raises is isolated inside the batch
    kernel, so no row is evaluated alone."""
    alone = count_rows_alone(monkeypatch)
    structure = PhaseStructure(StructureKind.TWISTED_B)
    h = HamiltonianSpec(PotentialSpec("custom", custom_eval=lambda q, t: 0.5 * q[0],
                                      custom_grad=refuses_below(5.0)))
    # p decays as exp(-t/2) forward and q grows by p^2; backward, q falls
    config = IntegratorConfig(step=0.05, t_max=10.0, z_epsilon=0.05, fp_epsilon=1e-4,
                              blowup_bound=1e3)
    rows = [((0.0, 1.0), 1, EventKind.REACHED_Z),
            ((0.0, 5e-4), 1, EventKind.FIXED_POINT),  # Z unarmed; |F| = p/2 < 1e-4
            ((0.0, 40.0), 1, EventKind.BLOWUP),  # q passes the bound
            ((0.0, 3e4), 1, EventKind.BLOWUP),  # q passes the bound in the first step
            ((0.0, 1e154), 1, EventKind.BLOWUP),  # q overflows; the field raises at inf
            ((0.0, 0.5), -1, ValueError),  # q falls below -5
            ((0.0, 10.0), 1, EventKind.T_MAX),
            ((0.0, 1e-2), -1, EventKind.T_MAX)]
    states = [PhaseState(*ic) for ic, _, _ in rows]
    directions = [direction for _, direction, _ in rows]
    batch = integrate_batch(structure, h, [s.to_array() for s in states], config, directions)
    assert alone[0] == 0
    last = []
    for state, direction, (_, _, expected), got in zip(states, directions, rows, batch):
        if expected is ValueError:
            assert isinstance(got, ValueError)
            with pytest.raises(ValueError, match="refused"):
                integrate(structure, h, state, config, direction)
            continue
        assert got.terminal_event.kind is expected
        assert_same_run(got, integrate(structure, h, state, config, direction))
        last.append(len(got) - 1)
    assert last == [120, 37, 20, 1, 0, 200, 200]
    assert all(i % RETURN_BLOCK for i in last if i)
    assert batch[4].terminal_event.time == config.step  # no sample past the start


def test_an_overflowing_row_does_not_stop_the_batch_when_numpy_raises():
    """With numpy set to raise on every floating-point error and warnings
    as errors, the rows that overflow end in blowup and the others run on."""
    structure = PhaseStructure(StructureKind.TWISTED_B)
    h = HamiltonianSpec(FAMILIES["linear"])
    config = IntegratorConfig(step=0.01, t_max=2.0)
    rows = [[0.0, 3e4], [0.0, 1e5], [0.5, 1.0], [0.0, 1e154], [1.0, 2e3], [0.0, 1e200]]
    old = np.seterr(all="raise")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = integrate_batch(structure, h, rows, config)
    finally:
        np.seterr(**old)
    assert [r.terminal_event.kind for r in runs] == [
        EventKind.T_MAX, EventKind.BLOWUP, EventKind.T_MAX, EventKind.BLOWUP, EventKind.T_MAX,
        EventKind.BLOWUP]
