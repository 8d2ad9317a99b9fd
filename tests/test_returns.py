"""Runs that end at their first return (``stop_at_return``).

On fixed-step RK4 such a run must classify as the full run to ``t_max``
does: the same kind and the same period to the bit, in both directions,
with the period as the time of its ``returned_to_start`` event.  Rows that
do not return, and adaptive DOP853 rows, run as they always did.
"""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhamsys import cli
from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind
from bhamsys.hamiltonians import HamiltonianSpec, PotentialSpec
from bhamsys.integrate import Event, EventKind, IntegratorConfig, Trajectory, integrate_batch
from bhamsys.orbits import OrbitKind, classify_orbit

integrate_module = importlib.import_module("bhamsys.integrate")

PENDULUM = PhaseStructure(StructureKind.TWISTED_B, angular_mask=(True,))
CANONICAL = PhaseStructure(StructureKind.CANONICAL)
NONTWISTED_2 = PhaseStructure(StructureKind.NONTWISTED_B, dim=4, modular_weight=-0.5)
METHODS = ["rk4_fixed", "rk_adaptive"]


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def assert_same_run(a, b):
    assert isinstance(a, Trajectory) and isinstance(b, Trajectory)
    assert bits(a.times) == bits(b.times)
    assert bits(a.ys) == bits(b.ys)
    assert [(e.kind, float(e.time).hex()) for e in a.events] == \
        [(e.kind, float(e.time).hex()) for e in b.events]
    assert a.direction == b.direction


def pendulum_state(lam, level, u, q_sign, p_sign):
    """A twisted pendulum state (V = (lam/2) cos q) with 2E/lam = ``level``
    in [-0.8, 3]: a rotation above 1, a libration (which reaches Z) below.
    cos q0 lies at the fraction ``u`` of [-1, 0.8 min(level, 1) - 0.2], so
    that p0^2 >= lam (level + 1) / 5."""
    c = -1.0 + 0.8 * (min(level, 1.0) + 1.0) * u
    return [q_sign * math.acos(c), p_sign * math.sqrt(lam * (level - c))]


@st.composite
def cases(draw):
    """(structure, h, initial state, expected kind of the full run or None)."""
    case = draw(st.sampled_from(["rotation", "libration", "on_z", "oscillator", "nontwisted_n2"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if case in ("rotation", "libration", "on_z"):
        lam = draw(st.floats(3.0, 5.0))
        h = HamiltonianSpec(PotentialSpec("periodic", lam=lam))
        if case == "on_z":
            return PENDULUM, h, [draw(st.floats(-math.pi, math.pi)), 0.0], OrbitKind.FIXED_POINT
        level = draw(st.floats(1.3, 3.0) if case == "rotation" else st.floats(-0.8, 0.8))
        kind = OrbitKind.PERIODIC if case == "rotation" else OrbitKind.ESCAPE_ORBIT
        state = pendulum_state(lam, level, draw(st.floats(0.0, 1.0)),
                               draw(st.sampled_from([1.0, -1.0])), sign)
        return PENDULUM, h, state, kind
    lam = draw(st.floats(1.0, 8.0))  # period 2 pi / sqrt(lam / 2) <= 8.9
    x, v = draw(st.floats(0.2, 2.0)), draw(st.floats(-2.0, 2.0))
    if case == "oscillator":
        return CANONICAL, HamiltonianSpec(PotentialSpec("pure_quadratic", lam=lam)), \
            [sign * x, v], OrbitKind.PERIODIC
    # the singular pair (q1, p1 = 0) rests while (q2, p2) oscillates
    h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=lam, axis=1), n=2)
    return NONTWISTED_2, h, [sign * draw(st.floats(0.5, 2.0)), x, 0.0, v], OrbitKind.PERIODIC


def config(method, t_max=12.0):
    return IntegratorConfig(method=method, step=5e-3, t_max=t_max, z_epsilon=1e-4)


def assert_stops_as_the_full_run_classifies(full, stop):
    """``stop`` classifies as ``full``; it is ``full`` itself unless it
    returned, and then a prefix of ``full`` whose event time is the period."""
    expected, got = classify_orbit(full), classify_orbit(stop)
    assert got.kind is expected.kind
    assert (got.period is None) == (expected.period is None)
    if expected.period is not None:
        assert got.period.hex() == expected.period.hex()
    if stop.terminal_event.kind is EventKind.RETURNED:
        assert expected.kind is OrbitKind.PERIODIC
        assert stop.terminal_event.time == got.period
        assert stop.times[-2] <= got.period <= stop.times[-1]  # found at the crossing
        assert len(stop) < len(full)
        assert bits(stop.times) == bits(full.times[:len(stop)])
        assert bits(stop.ys) == bits(full.ys[:len(stop)])
        assert stop.direction == full.direction
    else:
        assert_same_run(stop, full)


@settings(max_examples=60, deadline=None)
@given(case=cases(), method=st.sampled_from(METHODS), direction=st.sampled_from([1, -1]))
def test_a_run_stopped_at_its_return_classifies_as_the_full_run(case, method, direction):
    structure, h, y0, kind = case
    full, = integrate_batch(structure, h, [y0], config(method), [direction])
    stop, = integrate_batch(structure, h, [y0], config(method), [direction], stop_at_return=True)
    assert classify_orbit(full).kind is kind
    assert_stops_as_the_full_run_classifies(full, stop)
    if method == "rk_adaptive":
        assert_same_run(stop, full)
    elif kind is OrbitKind.PERIODIC:
        assert stop.terminal_event.kind is EventKind.RETURNED


@pytest.mark.parametrize("method", METHODS)
def test_backward_periodic_runs_are_periodic(method):
    """The return is sought along the field the run followed: a backward
    rotation has the period of the forward one, not ``undetermined``."""
    h = HamiltonianSpec(PotentialSpec("periodic", lam=4.0))
    for structure, y0 in ((PENDULUM, [0.3, 2.7]), (CANONICAL, [1.0, 0.5])):
        if structure is CANONICAL:
            h = HamiltonianSpec(PotentialSpec("pure_quadratic", lam=2.0))
        forward, backward = integrate_batch(structure, h, [y0, y0], config(method), [1, -1])
        assert backward.direction == -1 and forward.direction == 1
        periods = [classify_orbit(run).period for run in (forward, backward)]
        assert None not in periods
        assert periods[0] == pytest.approx(periods[1], abs=1e-8)


def mixed_batch(method, stop_at_return):
    """Rotations, librations, points on Z and a rotation too slow to return
    before t_max in one batch, both ways."""
    lam = 4.0
    h = HamiltonianSpec(PotentialSpec("periodic", lam=lam))
    states = [pendulum_state(lam, 1.6, 0.4, 1.0, 1.0), pendulum_state(lam, 0.3, 0.7, 1.0, -1.0),
              [2.0, 0.0], pendulum_state(lam, 2.4, 0.1, -1.0, -1.0),
              pendulum_state(lam, 1.0 + 1e-5, 0.5, 1.0, 1.0),
              pendulum_state(lam, -0.5, 0.2, -1.0, 1.0)]
    directions = [1] * len(states) + [-1] * len(states)
    return integrate_batch(PENDULUM, h, states + states, config(method, t_max=6.0), directions,
                           stop_at_return=stop_at_return)


@pytest.mark.parametrize("method", METHODS)
def test_rows_that_do_not_return_keep_their_bits_in_a_mixed_batch(method):
    """Only the fixed-step rotations stop early."""
    fulls, stops = mixed_batch(method, False), mixed_batch(method, True)
    kinds = [stop.terminal_event.kind for stop in stops]
    assert kinds.count(EventKind.RETURNED) == (4 if method == "rk4_fixed" else 0)
    assert {classify_orbit(run).kind for run in fulls} == \
        {OrbitKind.PERIODIC, OrbitKind.ESCAPE_ORBIT, OrbitKind.FIXED_POINT, OrbitKind.UNDETERMINED}
    for full, stop in zip(fulls, stops):
        assert_stops_as_the_full_run_classifies(full, stop)


def test_a_returned_row_classifies_with_the_period_of_its_event():
    """``classify_orbit`` takes the period of a ``returned_to_start`` event
    as it stands: the float the first-return search gives on the run's own
    samples, to the bit."""
    returned = [run for run in mixed_batch("rk4_fixed", True)
                if run.terminal_event.kind is EventKind.RETURNED]
    assert len(returned) == 4
    for run in returned:
        # the same samples, as a run ended by t_max, go through the search
        searched = dataclasses.replace(run, events=(Event(run.times[-1], EventKind.T_MAX),))
        period = classify_orbit(searched).period
        assert classify_orbit(run).period.hex() == period.hex() == run.terminal_event.time.hex()


@pytest.mark.parametrize("block", [1, 7])
def test_a_return_ends_a_row_at_its_crossing_whatever_the_scan_interval(monkeypatch, block):
    """A row ends at the sample of the crossing where its return was found,
    not at the scan that found it: scanning after every step, or every 7
    steps, gives the runs of the default interval to the bit."""
    reference = mixed_batch("rk4_fixed", True)
    monkeypatch.setattr(integrate_module, "RETURN_BLOCK", block)
    for run, expected in zip(mixed_batch("rk4_fixed", True), reference):
        assert_same_run(run, expected)


# ---------------------------------------------------------------------------
# CLI classify

def pendulum_config(seed, method):
    """Seeded pendulum classify: 4 rotations, 4 librations, 1 point on Z."""
    rng = np.random.default_rng(seed)
    lam = 4.0
    states = [pendulum_state(lam, level, rng.uniform(), rng.choice((-1.0, 1.0)),
                             rng.choice((-1.0, 1.0)))
              for level in list(rng.uniform(1.25, 2.5, 4)) + list(rng.uniform(-0.8, 0.8, 4))]
    states.append([rng.uniform(-math.pi, math.pi), 0.0])
    return {"structure": {"kind": "twisted_b", "dim": 2, "angular_mask": [True]},
            "potential": {"family": "periodic", "lambda": lam},
            "initial": [[float(q), float(p)] for q, p in states],
            "integrator": {"method": method, "step": 5e-3, "t_max": 15.0, "z_epsilon": 1e-4}}


def run_classify(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / name
    assert cli.main(["classify", "--config", str(path), "--out", str(out)]) == 0
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def full_runs(monkeypatch):
    """Make the CLI integrate every row to its own end, as before rows
    could stop at their first return."""
    def integrate_fully(*args, stop_at_return=False, **kwargs):
        return integrate_batch(*args, **kwargs)
    monkeypatch.setattr(cli, "integrate_batch", integrate_fully)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_classify_artifacts_equal_those_of_full_runs(tmp_path, monkeypatch, seed, method):
    doc = pendulum_config(seed, method)
    stopped = run_classify(tmp_path, "stopped", doc)
    with monkeypatch.context() as m:
        full_runs(m)
        reference = run_classify(tmp_path, "reference", doc)
    assert stopped == reference
    kinds = [e["classification"]["kind"] for e in json.loads(stopped["classifications.json"])]
    assert kinds == ["periodic"] * 4 + ["escape_orbit"] * 4 + ["fixed_point"]


def test_cli_classify_runs_until_the_last_row_is_decided(tmp_path, monkeypatch):
    """Lockstep RK4 stops once every rotation has returned and every
    libration has reached Z, not at t_max = 15 (3,000 steps).  Here the
    rotations return by step 401 and the last libration reaches Z at step
    1,297.  Events are found once per block of ``RETURN_BLOCK`` = 32 steps,
    so the batch runs to the end of that step's block: 41 blocks, 1,312
    steps."""
    steps = []
    rk4_step = integrate_module._rk4_step

    def counted(*args):
        steps.append(None)
        return rk4_step(*args)

    monkeypatch.setattr(integrate_module, "_rk4_step", counted)
    doc = pendulum_config(0, "rk4_fixed")
    with monkeypatch.context() as m:
        full_runs(m)
        run_classify(tmp_path, "reference", doc)
    full_steps = len(steps)
    steps.clear()
    run_classify(tmp_path, "stopped", doc)
    assert full_steps == 3000
    assert len(steps) == 1312
