"""The Z event located on each step's own interpolant.

Event times and event samples are checked against closed forms (the Stokes
arrival 2 ln|p0/eps|/lam and the arcosh arrival of the twisted box) and, for
the families without one, against scipy's DOP853 with a terminal event.
Every bound scales with the configured tolerance or with dt^4.  A property
test covers random starts off Z: the defining function keeps its sign, and
a run that reaches Z fires on its first sample with side * d <= z_epsilon.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhamsys.geometry import PhaseState, PhaseStructure, StructureKind, compile_field
from bhamsys.hamiltonians import HamiltonianSpec, PotentialSpec
from bhamsys.integrate import (EventKind, IntegratorConfig, Method, _defining_index,
                               integrate, sign_preservation_check)

TWISTED = PhaseStructure(StructureKind.TWISTED_B)


def adaptive(tol, **kw):
    return IntegratorConfig(method=Method.RK_ADAPTIVE, step=1e-2, rel_tol=tol, abs_tol=tol,
                            **kw)


# (tol, q0, p0, lam), with z_epsilon 1e-2
STOKES = [(1e-6, 0.3, 1.0, 1.0), (1e-8, -0.5, 2.0, 0.5), (1e-10, 0.0, -1.5, 2.0),
          (1e-12, 1.0, 0.7, 1.0)]


@pytest.mark.parametrize("tol,q0,p0,lam", STOKES)
def test_adaptive_stokes_event_matches_the_closed_form(tol, q0, p0, lam):
    eps = 1e-2
    t_z = 2.0 * math.log(abs(p0) / eps) / lam
    run = integrate(TWISTED, HamiltonianSpec(PotentialSpec("linear", lam=lam)),
                    PhaseState(q0, p0),
                    adaptive(tol, t_max=math.ceil(1.5 * t_z + 1.0), z_epsilon=eps))
    assert run.terminal_event.kind is EventKind.REACHED_Z
    assert run.times[-1] == run.terminal_event.time
    # |dp/dt| = lam eps / 2 at the event converts a state error to a time error
    state_tol = tol * (1.0 + eps)
    assert abs(run.terminal_event.time - t_z) <= 10.0 * state_tol / (0.5 * lam * eps)
    q, p = run.ys[-1]
    err = max(abs(q - (q0 + (p0 * p0 - eps * eps) / lam)), abs(p - math.copysign(eps, p0)))
    assert err <= 10.0 * state_tol * (1.0 + abs(q0) + p0 * p0 / lam)


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("q0,p0", [(0.3, 1.2), (-0.8, -0.9), (1.1, 0.5), (0.0, -1.7)])
def test_box_rk4_event_time_matches_the_arcosh_formula(q0, p0, direction):
    # twisted H = p^2/2 + lam q^2/4: |p| = (c1/sqrt 2) sech(c1 sqrt(lam) t/2 + c2)
    lam, eps, dt = 1.0, 1e-4, 1e-2
    c1 = 2.0 * math.sqrt(0.5 * p0 * p0 + 0.25 * lam * q0 * q0)
    c2 = math.atanh(math.sqrt(lam) * q0 / c1)
    t_z = 2.0 / (c1 * math.sqrt(lam)) * (math.acosh(c1 / (math.sqrt(2.0) * eps))
                                         - direction * c2)
    config = IntegratorConfig(step=dt, t_max=math.ceil(1.25 * t_z + 1.0), z_epsilon=eps)
    run = integrate(TWISTED, HamiltonianSpec(PotentialSpec("pure_quadratic", lam=lam)),
                    PhaseState(q0, p0), config, direction)
    assert run.terminal_event.kind is EventKind.REACHED_Z
    assert abs(run.terminal_event.time - t_z) <= 10.0 * dt**4
    assert abs(abs(run.ys[-1, 1]) - eps) <= 10.0 * dt**4 * eps


# ---------------------------------------------------------------------------
# scipy reference for the families without a closed form

ESCAPES = {
    "periodic": (PotentialSpec("periodic", lam=2.0), [(-2.5, -0.8), (1.0, 0.3)]),
    "general_quadratic": (PotentialSpec("general_quadratic", lam=2.0, alpha=0.3),
                          [(0.3, 1.0), (-0.5, -0.7)]),
}
ESCAPE_CASES = [(family, q0, p0) for family, (_, ics) in ESCAPES.items() for q0, p0 in ics]


def scipy_event(h, y0, direction, eps):
    """(time, state, |d'|, 1 + max |y|) at the first |d| = eps of a twisted
    run of DOP853 at rtol 1e-13, on the field of the package kernel."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    F = compile_field(TWISTED, h)
    z = _defining_index(TWISTED)

    def reach(t, y):
        return abs(y[z]) - eps
    reach.terminal = True
    sol = solve_ivp(lambda t, y: direction * F(y), (0.0, 100.0), y0, method="DOP853",
                    rtol=1e-13, atol=1e-14, events=reach)
    (t_event,), (y_event,) = sol.t_events[0], sol.y_events[0]
    return t_event, y_event, abs(F(y_event)[z]), 1.0 + float(np.max(np.abs(sol.y)))


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("family,q0,p0", ESCAPE_CASES)
def test_escape_events_match_scipy(family, q0, p0, direction):
    eps = 1e-3
    h = HamiltonianSpec(ESCAPES[family][0])
    t_ref, y_ref, rate, scale = scipy_event(h, [q0, p0], direction, eps)
    t_max = math.ceil(1.5 * t_ref + 1.0)
    for tol in (1e-6, 1e-9, 1e-12):
        run = integrate(TWISTED, h, PhaseState(q0, p0),
                        adaptive(tol, t_max=t_max, z_epsilon=eps), direction)
        assert run.terminal_event.kind is EventKind.REACHED_Z
        state_tol = tol * (1.0 + eps)
        assert abs(run.terminal_event.time - t_ref) <= 10.0 * state_tol / rate
        assert np.max(np.abs(run.ys[-1] - y_ref)) <= 10.0 * state_tol * scale
    for dt in (1e-2, 5e-3):
        run = integrate(TWISTED, h, PhaseState(q0, p0),
                        IntegratorConfig(step=dt, t_max=t_max, z_epsilon=eps), direction)
        assert run.terminal_event.kind is EventKind.REACHED_Z
        # dt^4 relative to d = eps, converted to time by |d'| at the event
        assert abs(run.terminal_event.time - t_ref) <= 10.0 * dt**4 * eps / rate
        assert np.max(np.abs(run.ys[-1] - y_ref)) <= 10.0 * dt**4 * scale


# ---------------------------------------------------------------------------
# random starts off Z

@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from([StructureKind.TWISTED_B, StructureKind.NONTWISTED_B]),
       weight=st.sampled_from([1.0, -0.5, 2.0]),
       family=st.sampled_from(["linear", "pure_quadratic", "periodic"]),
       lam=st.floats(0.5, 3.0),
       q0=st.floats(-2.0, 2.0), p0=st.floats(-2.0, 2.0),
       z_eps=st.sampled_from([1e-6, 1e-3, 1e-1]),
       stepper=st.sampled_from([("rk4", 1e-2), ("rk4", 0.2), ("dp5", 1e-4), ("dp5", 1e-9)]),
       direction=st.sampled_from([1, -1]))
def test_random_starts_keep_their_side_until_z(kind, weight, family, lam, q0, p0, z_eps,
                                               stepper, direction):
    structure = PhaseStructure(kind, modular_weight=weight)
    z = _defining_index(structure)
    d0 = (q0, p0)[z]
    if abs(d0) <= z_eps:
        d0 = math.copysign(z_eps, d0) * (1.0 + 1e-9)  # start off Z, so the event is armed
        q0, p0 = (q0, d0) if z else (d0, p0)
    method, size = stepper
    # nontwisted runs off Z can grow without bound, at ever shorter steps
    limits = dict(t_max=4.0, z_epsilon=z_eps, blowup_bound=100.0)
    config = (IntegratorConfig(step=size, **limits) if method == "rk4"
              else adaptive(size, **limits))
    run = integrate(structure, HamiltonianSpec(PotentialSpec(family, lam=lam)),
                    PhaseState(q0, p0), config, direction)
    assert sign_preservation_check(run, z_epsilon=z_eps)
    side_d = math.copysign(1.0, d0) * run.ys[:, z]
    assert np.all(side_d[:-1] > z_eps)
    if run.terminal_event.kind is EventKind.REACHED_Z:
        assert side_d[-1] <= z_eps
    else:
        assert side_d[-1] > z_eps
