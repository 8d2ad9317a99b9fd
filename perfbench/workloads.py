"""Seeded inputs of the workloads, as CLI invocations with their checks.

``orbits`` runs the invocations of ``box_portrait`` and ``pendulum_classify``
together; it and ``single_runs`` are the workloads listed in BENCHMARK.json.

Each workload is a list of :class:`Invocation`: one CLI command, the JSON
config it reads, the labels of the operations it performs (one initial
condition, one timescale run or one liftcheck verdict each) and a checker
from :mod:`checks` bound to the closed-form parameters of those operations.

The generators keep the constraints the checks rely on and keep the total
work of a workload nearly independent of the seed, so that runs at
different seeds measure the same amount of work: the quantity that sets an
orbit's cost (its energy, or friction x horizon) is drawn stratified, one
draw per equal-width stratum, and the seed moves each draw inside its
stratum and everything that does not change the cost.

Two groups of operations use fixed inputs, the same at every seed, because
the program fails them every time (see README.md): adaptive Stokes runs,
whose Z-arrival time is localized on a straight line between steps, and
timescale runs past the horizon where the curvilinear clock loses its digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

import checks

FAULT_ADAPTIVE_EVENT = "adaptive Z-arrival time and event sample"
FAULT_LONG_HORIZON = "long-horizon timescale"

SIZES = {
    "box_portrait": {"ics": 16},
    "pendulum_classify": {"rotations": 6, "librations": 6, "fixed": 2},
    "single_runs": {"timescale": 12, "bases": 30, "fibers": 40},
}
TINY = {
    "box_portrait": {"ics": 2},
    "pendulum_classify": {"rotations": 1, "librations": 1, "fixed": 1},
    "single_runs": {"timescale": 3, "bases": 2, "fibers": 3},
}
for _sizes in (SIZES, TINY):
    _sizes["orbits"] = {"box": _sizes["box_portrait"], "pendulum": _sizes["pendulum_classify"]}


@dataclass
class Invocation:
    name: str
    command: str
    config: dict
    labels: list
    check: Callable[[str], list]
    known_fault: Optional[str] = None


def _strata(rng, count, lo, hi):
    """One uniform draw in each of ``count`` equal strata of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count


def _twisted(weight=1.0, angular=False):
    return {"kind": "twisted_b", "dim": 2, "modular_weight": weight,
            "angular_mask": [angular]}


# ---------------------------------------------------------------------------
# box_portrait

BOX_LAMBDA = 1.0
BOX_EPS = 1e-4
BOX_DT = 1e-2


def box_portrait(rng, ics):
    """Twisted pure-quadratic box: energies stratified in [0.5, 2], momentum
    signs alternating, q0 with lam q0^2/4 <= E/2 so |p0| >= sqrt(E)."""
    lam = BOX_LAMBDA
    states = []
    for i, energy in enumerate(_strata(rng, ics, 0.5, 2.0)):
        q0 = math.sqrt(2.0 * energy / lam) * rng.uniform(-1.0, 1.0)
        p0 = math.sqrt(2.0 * energy - 0.5 * lam * q0 * q0) * (1.0 if i % 2 == 0 else -1.0)
        states.append((float(q0), float(p0)))
    longest = max(checks.box_arrival(q0, p0, lam, BOX_EPS, d)
                  for q0, p0 in states for d in (1, -1))
    config = {
        "structure": _twisted(),
        "potential": {"family": "pure_quadratic", "lambda": lam},
        "initial": [list(s) for s in states],
        "integrator": {"method": "rk4_fixed", "step": BOX_DT,
                       "t_max": math.ceil(1.25 * longest + 1.0), "z_epsilon": BOX_EPS},
        "backward": True,
    }
    return [Invocation("portrait", "portrait", config,
                       [f"portrait[{i}]" for i in range(ics)],
                       partial(checks.check_portrait, ics=states, lam=lam,
                               eps=BOX_EPS, dt=BOX_DT))]


# ---------------------------------------------------------------------------
# pendulum_classify

PENDULUM_LAMBDA = 4.0
PENDULUM_EPS = 1e-4
PENDULUM_DT = 5e-3
PENDULUM_T_MAX = 15.0


def pendulum_classify(rng, rotations, librations, fixed):
    """Pendulum on the cylinder, V = (lam/2) cos q.  Rotations have
    2E/lam in [1.25, 2.5] (period <= 2.1); librations 2E/lam in [-0.8, 0.8],
    so the turning angle has |sin q*| >= 0.6 and Z is reached well inside
    t_max; |p0|^2 >= lam/4 off Z; fixed points sit on p = 0."""
    lam = PENDULUM_LAMBDA
    states = []
    for a in _strata(rng, rotations, 1.25, 2.5):
        q0 = rng.uniform(-math.pi, math.pi)
        p0 = math.sqrt(lam * (a - math.cos(q0))) * rng.choice((-1.0, 1.0))
        states.append((q0, p0))
    for a in _strata(rng, librations, -0.8, 0.8):
        u = -1.0 + 0.8 * (a + 1.0) * rng.uniform()
        q0 = math.acos(u) * rng.choice((-1.0, 1.0))
        p0 = math.sqrt(lam * (a - u)) * rng.choice((-1.0, 1.0))
        states.append((q0, p0))
    for _ in range(fixed):
        states.append((rng.uniform(-math.pi, math.pi), 0.0))
    states = [(float(q), float(p)) for q, p in states]
    config = {
        "structure": _twisted(angular=True),
        "potential": {"family": "periodic", "lambda": lam},
        "initial": [list(s) for s in states],
        "integrator": {"method": "rk4_fixed", "step": PENDULUM_DT,
                       "t_max": PENDULUM_T_MAX, "z_epsilon": PENDULUM_EPS},
    }
    return [Invocation("classify", "classify", config,
                       [f"classify[{i}]" for i in range(len(states))],
                       partial(checks.check_classify, ics=states, lam=lam))]


# ---------------------------------------------------------------------------
# single_runs

# clock -> range of friction x horizon in which the clock keeps its horizon
TIMESCALE_GAMMA_T = {"t": (4.0, 8.0), "s": (6.0, 12.0)}
# pure_quadratic lam = r gamma^2/2: r > 1 underdamped, r = 1 critical, r < 1 over
DAMPING_RATIO = {"under": (2.0, 8.0), "critical": (1.0, 1.0), "over": (0.1, 0.5)}
REGIMES = ("under", "over", "critical")

# (tol, q0, p0, lam) of the adaptive Stokes runs; z_epsilon 1e-2 keeps the
# event well conditioned, so the event-time bound is reachable.
STOKES_RUNS = ((1e-6, 0.3, 1.0, 1.0), (1e-8, -0.5, 2.0, 0.5),
               (1e-10, 0.0, -1.5, 2.0), (1e-12, 1.0, 0.7, 1.0))
STOKES_EPS = 1e-2

# Beyond the clocks' range: clock s raises at s = 0, clock t stops short.
LONG_HORIZON_RUNS = (
    {"potential": {"family": "pure_quadratic", "lambda": 2.0}, "friction": 1.0,
     "clock": "s", "horizon": 40.0, "initial": [1.0, 0.0], "n": 1},
    {"potential": {"family": "linear", "lambda": 4.0}, "friction": 0.5,
     "clock": "t", "horizon": 60.0, "initial": [1.0, 0.0], "n": 1},
)

LIFT_FAMILIES = ("linear", "pure_quadratic", "general_quadratic", "periodic")


def _timescale_invocation(name, doc, fault=None):
    n = doc["n"]
    q0, v0 = doc["initial"][:n], doc["initial"][n:]
    pot = doc["potential"]
    check = partial(checks.check_timescale, family=pot["family"],
                    lam=pot.get("lambda", 1.0), gamma=doc["friction"],
                    horizon=doc["horizon"], q0=q0, v0=v0, axis=pot.get("axis", 0))
    return Invocation(name, "timescale", doc, [name], check, fault)


def _timescale_runs(rng, count):
    """``count`` runs cycling through clock x family x n, friction x horizon
    stratified within each clock's range."""
    combos = [(clock, family, n) for n in (1, 2) for clock in ("t", "s")
              for family in ("zero", "linear", "pure_quadratic")]
    combos = [combos[i % len(combos)] for i in range(count)]
    gamma_t = {clock: list(_strata(rng, sum(c[0] == clock for c in combos), *span))
               for clock, span in TIMESCALE_GAMMA_T.items()}
    runs = []
    regime = 0
    for i, (clock, family, n) in enumerate(combos):
        gamma = float(rng.uniform(0.3, 1.5))
        horizon = float(gamma_t[clock].pop() / gamma)
        potential = {"family": family, "axis": int(rng.integers(n))}
        if family == "linear":
            potential["lambda"] = float(rng.uniform(0.5, 3.0))
        elif family == "pure_quadratic":
            lo, hi = DAMPING_RATIO[REGIMES[regime % len(REGIMES)]]
            regime += 1
            potential["lambda"] = float(rng.uniform(lo, hi) * gamma * gamma / 2.0)
        doc = {"potential": potential, "friction": gamma, "clock": clock,
               "horizon": horizon, "n": n,
               "initial": [float(x) for x in rng.uniform(-1.0, 1.0, size=2 * n)]}
        runs.append(_timescale_invocation(f"timescale_{i:02d}_{clock}_{family}_n{n}", doc))
    return runs


def _stokes_runs():
    runs = []
    for tol, q0, p0, lam in STOKES_RUNS:
        t_z = 2.0 * math.log(abs(p0) / STOKES_EPS) / lam
        config = {
            "structure": _twisted(),
            "potential": {"family": "linear", "lambda": lam},
            "initial": [[q0, p0]],
            "integrator": {"method": "rk_adaptive", "step": 1e-2, "rel_tol": tol,
                           "abs_tol": tol, "t_max": math.ceil(1.5 * t_z + 1.0),
                           "z_epsilon": STOKES_EPS},
        }
        name = f"simulate_stokes_tol{tol:.0e}"
        runs.append(Invocation(name, "simulate", config, [name],
                               partial(checks.check_simulate_stokes, q0=q0, p0=p0,
                                       lam=lam, eps=STOKES_EPS, tol=tol),
                               FAULT_ADAPTIVE_EVENT))
    return runs


def _liftcheck_runs(rng, bases, fibers):
    """Twisted n = 1 structures with seeded weight c, base points and fibres
    (|p| in [0.1, 3], both signs, off Z) for every dissipative family and
    the toric control."""
    runs = []
    for family in LIFT_FAMILIES + ("toric",):
        c = float(rng.uniform(0.5, 2.0))
        fiber = [float(x) for x in rng.uniform(0.1, 3.0, size=fibers)
                 * rng.choice((-1.0, 1.0), size=fibers)]
        config = {"structure": _twisted(c),
                  "base_points": [float(x) for x in rng.uniform(-3.0, 3.0, size=bases)],
                  "fiber_samples": fiber}
        if family == "toric":
            config["toric"] = {"c": float(rng.uniform(0.5, 2.0))}
        else:
            config["potential"] = {"family": family, "lambda": float(rng.uniform(0.5, 3.0))}
            if family == "general_quadratic":
                config["potential"]["alpha"] = float(rng.uniform(-1.0, 1.0))
        name = f"liftcheck_{family}"
        runs.append(Invocation(name, "liftcheck", config, [name],
                               partial(checks.check_liftcheck, fibers=fiber, c=c,
                                       toric=family == "toric")))
    return runs


def single_runs(rng, timescale, bases, fibers):
    runs = _timescale_runs(rng, timescale)
    runs += [_timescale_invocation(f"timescale_long_{doc['clock']}", doc, FAULT_LONG_HORIZON)
             for doc in LONG_HORIZON_RUNS]
    runs += _stokes_runs()
    runs += _liftcheck_runs(rng, bases, fibers)
    return runs


# ---------------------------------------------------------------------------
# orbits


def orbits(rng, box, pendulum):
    """The box portrait and the pendulum classify, one after the other in
    each pass: the many-orbit invocations, with and without the CSV writer."""
    return box_portrait(rng, **box) + pendulum_classify(rng, **pendulum)


GENERATORS = {
    "orbits": orbits,
    "box_portrait": box_portrait,
    "pendulum_classify": pendulum_classify,
    "single_runs": single_runs,
}


def build(workload, seed, sizes=None):
    """The workload's invocations for ``seed``; the same seed gives the same
    configs."""
    rng = np.random.default_rng(seed)
    return GENERATORS[workload](rng, **(sizes or SIZES[workload]))
