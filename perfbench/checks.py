"""Reference checks for the CLI artifacts, computed from closed forms.

Nothing here imports ``bhamsys``: every expected value is derived from the
equations of motion in this file, so a fault in the program cannot leak into
its own reference.  Each checker returns, for every operation of one
invocation, the list of its failed checks, each a string that starts with
the check's name; an empty list means the operation passed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Fixed-step RK4 (box portrait, pendulum): interior rows carry the method's
# O(dt^4) global error; event times are localized on a linear interpolant,
# whose error is O(dt^2) times the decay rate near Z.
RK4_ROW_FACTOR = 100.0
RK4_EVENT_FACTOR = 10.0
# Pendulum periods and limit angles, relative and absolute.
PERIOD_RTOL = 1e-6
ANGLE_TOL = 1e-6
# Adaptive DP5 runs: interior rows within this many tolerances of the
# solution's scale; the event time within this many tolerances carried
# through the conditioning of the event, |d(defining function)/dt| at Z.
ADAPTIVE_ROW_FACTOR = 50.0
ADAPTIVE_EVENT_FACTOR = 10.0
# Real-time reconstruction of timescale runs (default DP5 at 1e-10).
TIMESCALE_ROW_TOL = 1e-7
TIMESCALE_HORIZON_TOL = 1e-5
# liftcheck witness difference, relative.
WITNESS_RTOL = 1e-9


# ---------------------------------------------------------------------------
# artifact readers

def read_csv(path):
    """Return (header, rows, event) of a CLI CSV artifact.

    ``event`` is ``(kind, t)`` from the trailing comment line, or None.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    event = None
    end = len(lines)
    if lines[-1].startswith("#"):
        end -= 1
        kind, _, t = lines[-1][len("# event: "):].partition(" at t=")
        event = (kind, float(t))
    rows = np.array(",".join(lines[1:end]).split(","), dtype=float)
    return header, rows.reshape(end - 1, len(header)), event


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def manifest_records(out_dir):
    """Records of ``manifest.json``, or None when it is missing or invalid."""
    try:
        return read_json(os.path.join(out_dir, "manifest.json"))["records"]
    except (OSError, ValueError, KeyError):
        return None


def _worst(actual, expected):
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))


def _status(record):
    status = str(record.get("status", "missing"))
    return [] if status == "ok" else [f"cli.status ({status})"]


# ---------------------------------------------------------------------------
# closed forms

def box_constants(q0, p0, lam):
    """(E, c1, c2) of the twisted pure-quadratic box, H = p^2/2 + lam q^2/4."""
    energy = 0.5 * p0 * p0 + 0.25 * lam * q0 * q0
    c1 = 2.0 * math.sqrt(energy)
    c2 = math.atanh(math.sqrt(lam) * q0 / c1)
    return energy, c1, c2


def box_solution(q0, p0, lam, t):
    """q(t) = (c1/sqrt(lam)) tanh(u), p(t) = sign(p0) (c1/sqrt 2) sech(u),
    u = c1 sqrt(lam) t / 2 + c2."""
    _, c1, c2 = box_constants(q0, p0, lam)
    u = 0.5 * c1 * math.sqrt(lam) * np.asarray(t) + c2
    return (c1 / math.sqrt(lam)) * np.tanh(u), math.copysign(c1 / math.sqrt(2.0), p0) / np.cosh(u)


def box_arrival(q0, p0, lam, eps, direction):
    """Time for |p| to fall to eps, forward (+1) or backward (-1)."""
    _, c1, c2 = box_constants(q0, p0, lam)
    return 2.0 / (c1 * math.sqrt(lam)) * (math.acosh(c1 / (math.sqrt(2.0) * eps))
                                          - direction * c2)


def box_end_q(q0, p0, lam, eps, direction):
    energy, _, _ = box_constants(q0, p0, lam)
    return direction * 2.0 * math.sqrt((energy - 0.5 * eps * eps) / lam)


def pendulum_period(energy, lam):
    """Rotation period of dq/dt = 2E - lam cos q: 2 pi / sqrt(4E^2 - lam^2)."""
    return 2.0 * math.pi / math.sqrt(4.0 * energy * energy - lam * lam)


def pendulum_limit_angle(q0, energy, lam):
    """First q above q0 with cos q = 2E/lam, where p^2 = 2E - lam cos q
    reaches zero from above (sin q < 0)."""
    theta = math.acos(2.0 * energy / lam)
    k = math.floor((q0 + theta) / (2.0 * math.pi)) + 1
    return -theta + 2.0 * math.pi * k


def wrap_angle(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def stokes_solution(q0, p0, lam, t):
    """Twisted linear potential: q = q0 + (p0^2/lam)(1 - e^{-lam t}),
    p = p0 e^{-lam t/2}."""
    t = np.asarray(t)
    return q0 + p0 * p0 / lam * (1.0 - np.exp(-lam * t)), p0 * np.exp(-0.5 * lam * t)


def damped_solution(family, lam, gamma, q0, v0, t):
    """Closed form of q'' = -gamma q' - dV/dq on the potential's axis.

    ``zero``: free motion; ``linear`` (V = lam q/2): constant force -lam/2;
    ``pure_quadratic`` (V = lam q^2/4): oscillator with w^2 = lam/2, in
    whichever damping regime mu^2 = gamma^2/4 - w^2 selects.
    """
    t = np.asarray(t, dtype=float)
    if family in ("zero", "linear"):
        v_inf = 0.0 if family == "zero" else -0.5 * lam / gamma
        decay = np.exp(-gamma * t)
        return (q0 + v_inf * t + (v0 - v_inf) * (1.0 - decay) / gamma,
                v_inf + (v0 - v_inf) * decay)
    w2 = 0.5 * lam
    mu2 = 0.25 * gamma * gamma - w2
    if mu2 > 0.0:
        mu = math.sqrt(mu2)
        c, s = np.cosh(mu * t), np.sinh(mu * t) / mu
    elif mu2 < 0.0:
        wd = math.sqrt(-mu2)
        c, s = np.cos(wd * t), np.sin(wd * t) / wd
    else:
        c, s = np.ones_like(t), t
    env = np.exp(-0.5 * gamma * t)
    return (env * (q0 * c + (v0 + 0.5 * gamma * q0) * s),
            env * (v0 * c - (0.5 * gamma * v0 + w2 * q0) * s))


# ---------------------------------------------------------------------------
# checkers, one per command

def _check_box_run(path, q0, p0, lam, eps, dt, direction):
    """One forward or backward portrait CSV against the tanh solution."""
    label = "forward" if direction > 0 else "backward"
    try:
        _, rows, event = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"box.artifact ({label}: {exc})"]
    if event is None or event[0] != "reached_Z_neighborhood":
        return [f"box.event_kind ({label}: {event})"]
    failures = []
    t, q, p = rows[:, 0], rows[:, 1], rows[:, 2]
    qe, pe = box_solution(q0, p0, lam, direction * t[:-1])
    err = max(_worst(q[:-1], qe), _worst(p[:-1], pe))
    bound = RK4_ROW_FACTOR * dt ** 4
    if not err <= bound:
        failures.append(f"box.rows ({label}: {err:.3g} > {bound:.3g})")
    err = abs(event[1] - box_arrival(q0, p0, lam, eps, direction))
    bound = RK4_EVENT_FACTOR * dt * dt
    if not (err <= bound and t[-1] == event[1]):
        failures.append(f"box.event_time ({label}: {err:.3g} > {bound:.3g})")
    err = abs(q[-1] - box_end_q(q0, p0, lam, eps, direction))
    bound = RK4_ROW_FACTOR * dt ** 4
    if not err <= bound:
        failures.append(f"box.end_q ({label}: {err:.3g} > {bound:.3g})")
    return failures


def check_portrait(out_dir, ics, lam, eps, dt):
    """Every IC of a box portrait: escape orbit, forward and backward CSV."""
    records = manifest_records(out_dir)
    if records is None or len(records) != len(ics):
        return [["cli.manifest"] for _ in ics]
    results = []
    for (q0, p0), record in zip(ics, records):
        failures = _status(record)
        if not failures:
            kind = record.get("classification", {}).get("kind")
            if kind != "escape_orbit":
                failures.append(f"box.kind ({kind})")
            files = record.get("files", [])
            if len(files) != 2:
                failures.append(f"box.artifact (files {files})")
            else:
                for name, direction in zip(files, (1, -1)):
                    failures += _check_box_run(os.path.join(out_dir, name),
                                               q0, p0, lam, eps, dt, direction)
        results.append(failures)
    return results


def check_classify(out_dir, ics, lam):
    """Pendulum ICs: rotations periodic with the exact period, librations
    escaping at the turning angle, ICs on Z fixed points."""
    try:
        entries = read_json(os.path.join(out_dir, "classifications.json"))
    except (OSError, ValueError) as exc:
        return [[f"cli.artifact ({exc})"] for _ in ics]
    if len(entries) != len(ics):
        return [["cli.artifact (length)"] for _ in ics]
    results = []
    for (q0, p0), entry in zip(ics, entries):
        failures = _status(entry)
        if failures:
            results.append(failures)
            continue
        cls = entry.get("classification", {})
        kind = cls.get("kind")
        energy = 0.5 * p0 * p0 + 0.5 * lam * math.cos(q0)
        if p0 == 0.0:
            if kind != "fixed_point":
                failures.append(f"pendulum.fixed_point ({kind})")
        elif 2.0 * energy > lam:
            if kind != "periodic":
                failures.append(f"pendulum.kind (rotation is {kind})")
            else:
                exact = pendulum_period(energy, lam)
                err = abs(cls["period"] - exact)
                if not err <= PERIOD_RTOL * exact:
                    failures.append(f"pendulum.period ({err:.3g} > {PERIOD_RTOL * exact:.3g})")
        else:
            if kind != "escape_orbit":
                failures.append(f"pendulum.kind (libration is {kind})")
            else:
                q_lim = cls["limit_state"]["q"][0]
                err = abs(wrap_angle(q_lim - pendulum_limit_angle(q0, energy, lam)))
                if not err <= ANGLE_TOL:
                    failures.append(f"pendulum.limit_angle ({err:.3g} > {ANGLE_TOL:.3g})")
        results.append(failures)
    return results


def check_simulate_stokes(out_dir, q0, p0, lam, eps, tol):
    """One adaptive Stokes run: interior rows, Z-arrival time and the event
    sample, each to an accuracy scaled to the configured tolerance."""
    records = manifest_records(out_dir)
    if not records:
        return [["cli.manifest"]]
    failures = _status(records[0])
    if failures:
        return [failures]
    try:
        _, rows, event = read_csv(os.path.join(out_dir, records[0]["file"]))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [[f"cli.artifact ({exc})"]]
    if event is None or event[0] != "reached_Z_neighborhood":
        return [[f"adaptive.event_kind ({event})"]]
    t, q, p = rows[:, 0], rows[:, 1], rows[:, 2]
    scale = 1.0 + abs(q0) + p0 * p0 / lam
    qe, pe = stokes_solution(q0, p0, lam, t[:-1])
    err = max(_worst(q[:-1], qe), _worst(p[:-1], pe))
    bound = ADAPTIVE_ROW_FACTOR * tol * scale
    if not err <= bound:
        failures.append(f"adaptive.rows ({err:.3g} > {bound:.3g})")
    state_tol = tol + tol * eps
    t_exact = 2.0 * math.log(abs(p0) / eps) / lam
    err = abs(event[1] - t_exact)
    bound = ADAPTIVE_EVENT_FACTOR * state_tol / (0.5 * lam * eps)
    if not err <= bound:
        failures.append(f"adaptive.event_time ({err:.3g} > {bound:.3g})")
    err = max(abs(q[-1] - (q0 + (p0 * p0 - eps * eps) / lam)),
              abs(p[-1] - math.copysign(eps, p0)))
    bound = ADAPTIVE_EVENT_FACTOR * state_tol * scale
    if not err <= bound:
        failures.append(f"adaptive.event_sample ({err:.3g} > {bound:.3g})")
    return [failures]


def check_timescale(out_dir, family, lam, gamma, horizon, q0, v0, axis):
    """Real-time rows against the damped Newton closed form; the last row at
    the horizon."""
    records = manifest_records(out_dir)
    if not records:
        return [["cli.manifest"]]
    failures = _status(records[0])
    if failures:
        return [failures]
    try:
        _, rows, _ = read_csv(os.path.join(out_dir, "realtime_000.csv"))
    except (OSError, ValueError, IndexError) as exc:
        return [[f"cli.artifact ({exc})"]]
    n = len(q0)
    t = rows[:, 0]
    err = 0.0
    for i in range(n):
        fam = family if i == axis else "zero"
        qe, ve = damped_solution(fam, lam, gamma, q0[i], v0[i], t)
        scale = 1.0 + float(np.max(np.abs(qe))) + float(np.max(np.abs(ve)))
        err = max(err, max(_worst(rows[:, 1 + i], qe), _worst(rows[:, 1 + n + i], ve)) / scale)
    if not err <= TIMESCALE_ROW_TOL:
        failures.append(f"timescale.rows ({err:.3g} > {TIMESCALE_ROW_TOL:.3g})")
    err = abs(t[-1] - horizon)
    if not err <= TIMESCALE_HORIZON_TOL:
        failures.append(f"timescale.horizon (last t {t[-1]:.17g}, "
                        f"{err:.3g} > {TIMESCALE_HORIZON_TOL:.3g})")
    return [failures]


def check_liftcheck(out_dir, fibers, c, toric):
    """Verdict, and for the dissipative families the witness difference
    (max p^2 - min p^2)/|c| with a witness pair at the extreme fibres."""
    try:
        verdict = read_json(os.path.join(out_dir, "verdict.json"))
    except (OSError, ValueError) as exc:
        return [[f"cli.artifact ({exc})"]]
    if toric:
        if verdict.get("verdict") != "projectable" or verdict.get("witness") is not None:
            return [[f"liftcheck.verdict ({verdict.get('verdict')} for toric)"]]
        return [[]]
    if verdict.get("verdict") != "not_projectable":
        return [[f"liftcheck.verdict ({verdict.get('verdict')} for a dissipative family)"]]
    witness = verdict.get("witness") or {}
    squares = [f * f for f in fibers]
    width = max(squares) - min(squares)
    exact = width / abs(c)
    diff = witness.get("difference")
    if not (isinstance(diff, (int, float)) and abs(diff - exact) <= WITNESS_RTOL * exact):
        return [[f"liftcheck.witness (difference {diff} != {exact!r})"]]
    a, b = witness["state_a"], witness["state_b"]
    pair = abs(a["p"][0] ** 2 - b["p"][0] ** 2)
    if a["q"] != b["q"] or abs(pair - width) > WITNESS_RTOL * width:
        return [["liftcheck.witness (pair not at the extreme fibres)"]]
    return [[]]
