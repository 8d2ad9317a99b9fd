"""Command-line front end emitting deterministic CSV/JSON artifacts.

Usage::

    bhamsys <command> --config run.json [--out DIR]

with commands ``simulate``, ``portrait``, ``classify``, ``oracle-compare``,
``timescale`` and ``liftcheck``.  The configuration, a UTF-8 JSON document,
is the whole input of a run: every command takes the same two options, and
:func:`parse_config` decodes and validates it, rejecting unknown keys with
their full path.  A file that cannot be read or decoded is a configuration
error like any invalid document.  All artifacts are plain CSV (floats
with 17 significant digits) and JSON with sorted keys, so identical
configurations produce byte-identical outputs.  Exit codes: 0 on success,
1 when some record failed numerically, 2 on configuration errors.

Every command but ``liftcheck`` builds its manifest records in one loop,
:func:`_records`: one record per initial state, ``ok`` or the error that
stopped it.  The side files (``portrait.json``, ``classifications.json``,
``summary.json``) are projections of those records.

The environment variable ``BHAMSYS_LOG`` (debug/info/warning/error) controls
log verbosity.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import __version__
from .geometry import PhaseState, PhaseStructure, StructureKind
from .hamiltonians import HamiltonianSpec, PotentialFamily, PotentialSpec
# integrate is not called here; it stays importable as bhamsys.cli.integrate,
# where perfbench/tracer.py wraps it.
from .integrate import (IntegratorConfig, Method, Trajectory, integrate,  # noqa: F401
                        integrate_batch, write_table)
from .liftcheck import DEFAULT_TOL, projectability_test, toric_moment_field
from .oracles import (classical_parabola, quadratic_tanh,
                      quadratic_tanh_constants, quadratic_tanh_momentum,
                      stokes_exact)
from .orbits import OrbitKind, classify_orbit, phase_portrait
from .timescale import (DEFAULT_CONFIG, reconstruct_real_time, run_rescaled,
                        run_s_coordinates, s_chart_z_epsilon)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

logger = logging.getLogger("bhamsys")

COMMANDS = ("simulate", "portrait", "classify", "oracle-compare", "timescale", "liftcheck")

#: Most steps a fixed-step run may take, ``ceil(t_max / step)``; for
#: ``timescale``, whose ``t_max`` is its horizon, ``ceil(horizon / step)``.
MAX_FIXED_STEPS = 10**7

#: Most initial states a grid spec may expand to, its q count times its p
#: count; a grid of 10^5 states takes about 0.7 s and 80 MB to parse.
MAX_GRID_STATES = 10**5

_STRUCTURE_KEYS = {"kind", "dim", "modular_weight", "singular_index", "angular_mask"}
_POTENTIAL_KEYS = {"family", "lambda", "alpha", "axis"}
#: ``method``, then the numeric settings, in field order
_INTEGRATOR_KEYS = tuple(f.name for f in fields(IntegratorConfig))
_AXIS_SPEC_KEYS = {"start", "stop", "count", "values"}

_TOP_KEYS = {
    "simulate": {"command", "structure", "potential", "initial", "integrator", "out_dir"},
    "portrait": {"command", "structure", "potential", "initial", "integrator",
                 "out_dir", "backward"},
    "classify": {"command", "structure", "potential", "initial", "integrator", "out_dir"},
    "oracle-compare": {"command", "structure", "potential", "initial", "integrator", "out_dir"},
    "timescale": {"command", "potential", "friction", "clock", "horizon", "initial",
                  "n", "e0", "integrator", "out_dir"},
    "liftcheck": {"command", "structure", "potential", "toric", "base_points",
                  "fiber_samples", "tol", "out_dir"},
}


class ConfigError(ValueError):
    """Invalid configuration document (CLI exit code 2)."""


@dataclass
class RunConfig:
    """Validated run description; fields unused by a command stay None."""

    command: str
    raw: dict
    warnings: list = field(default_factory=list)
    structure: Optional[PhaseStructure] = None
    hamiltonian: Optional[HamiltonianSpec] = None  # for a toric liftcheck, its generator
    potential: Optional[PotentialSpec] = None
    axis: int = 0
    initials: list = field(default_factory=list)
    integrator: Optional[IntegratorConfig] = None
    out_dir: Optional[str] = None
    backward: bool = True
    # timescale
    friction: Optional[float] = None
    clock: Optional[str] = None
    horizon: Optional[float] = None
    e0: Optional[float] = None
    initial_qv: Optional[tuple] = None
    # liftcheck
    base_points: Optional[list] = None
    fiber_samples: Optional[list] = None
    tol: Optional[float] = None


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a JSON object")
    return value


def _reject_unknown(section: dict, allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key: {where}")


def _is_int(value) -> bool:
    """Whether a JSON value is an integer; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_number(value, path: str, finite: bool = True) -> float:
    """A JSON number as a float; booleans are not numbers here.

    ``NaN``, ``Infinity`` and numbers past the float range are rejected
    unless ``finite`` is false, as for the entries of an initial state, where
    a non-finite value fails only its own record.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        value = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite")
    return value


def _as_point(value, path: str, n: int) -> list:
    """A point of n finite components, given as a list of numbers or, for
    n = 1, as one number."""
    if isinstance(value, list):
        point = [_as_number(v, f"{path}[{j}]") for j, v in enumerate(value)]
    else:
        point = [_as_number(value, path)]
    if len(point) != n:
        raise ConfigError(f"{path} must have {n} component(s), got {len(point)}")
    return point


def _number(section: dict, key: str, path: str, default=None, positive=False):
    if key not in section:
        return default
    value = _as_number(section[key], f"{path}.{key}")
    if positive and not value > 0:
        raise ConfigError(f"{path}.{key} must be > 0")
    return value


def _section(document: dict, key: str):
    if key not in document:
        raise ConfigError(f"{key} section is required")
    return document[key]


def _build_structure(section) -> PhaseStructure:
    """A non-extended structure; extended ones belong to ``timescale``."""
    section = _require_mapping(section, "structure")
    _reject_unknown(section, _STRUCTURE_KEYS, "structure")
    kind = section.get("kind")
    try:
        kind = StructureKind(kind)
    except ValueError:
        raise ConfigError(
            f"structure.kind must be one of {[k.value for k in StructureKind]}, got {kind!r}")
    dim = section.get("dim", 2)
    if not _is_int(dim):
        raise ConfigError("structure.dim must be an integer")
    index = section.get("singular_index", 0)
    if not _is_int(index):
        raise ConfigError("structure.singular_index must be an integer")
    mask = section.get("angular_mask", ())
    if not isinstance(mask, (list, tuple)) or not all(isinstance(b, bool) for b in mask):
        raise ConfigError("structure.angular_mask must be a list of booleans")
    weight = _number(section, "modular_weight", "structure", 1.0)
    try:
        structure = PhaseStructure(
            kind=kind, dim=dim,
            modular_weight=weight,
            singular_index=index,
            angular_mask=tuple(mask))
    except ValueError as exc:
        raise ConfigError(f"structure: {exc}")
    if structure.is_extended:
        raise ConfigError("structure.kind: extended structures run through "
                          "the timescale command")
    return structure


def _build_potential(section, n: int) -> tuple:
    """The potential and its axis, which must be below ``n``."""
    section = _require_mapping(section, "potential")
    _reject_unknown(section, _POTENTIAL_KEYS, "potential")
    family = section.get("family")
    try:
        family = PotentialFamily(family)
    except ValueError:
        raise ConfigError(
            f"potential.family must be one of {[f.value for f in PotentialFamily]}, got {family!r}")
    if family is PotentialFamily.CUSTOM:
        raise ConfigError("potential.family: custom potentials are library-only, "
                          "not addressable from a JSON config")
    lam = _number(section, "lambda", "potential", 1.0)
    if family is not PotentialFamily.ZERO and not lam > 0:
        raise ConfigError("potential.lambda must be > 0")
    alpha = _number(section, "alpha", "potential", 0.0)
    if alpha != 0.0 and family is not PotentialFamily.GENERAL_QUADRATIC:
        raise ConfigError("potential.alpha is only valid for family general_quadratic")
    axis = section.get("axis", 0)
    if not _is_int(axis) or axis < 0:
        raise ConfigError("potential.axis must be a nonnegative integer")
    if axis >= n:
        raise ConfigError(f"potential.axis {axis} out of range for n={n}")
    return PotentialSpec(family=family, lam=lam, alpha=alpha), axis


def _build_integrator(section, structure, warnings, base=IntegratorConfig(),
                      horizon=None) -> IntegratorConfig:
    """``base`` with the keys of ``section`` replaced.  A ``timescale`` run
    passes its ``horizon``, which is its ``t_max``; its ``z_epsilon`` is set
    by the horizon (clock s) or has no use (clock t).  A fixed step must be
    smaller than ``t_max`` and take at most MAX_FIXED_STEPS steps over it;
    an adaptive run chooses its own."""
    if section is None:
        return base
    section = _require_mapping(section, "integrator")
    _reject_unknown(section, _INTEGRATOR_KEYS, "integrator")
    kwargs = {}
    if "method" in section:
        try:
            kwargs["method"] = Method(section["method"])
        except ValueError:
            raise ConfigError(
                f"integrator.method must be one of {[m.value for m in Method]}")
    for key in _INTEGRATOR_KEYS[1:]:
        value = _number(section, key, "integrator", None, positive=True)
        if value is not None:
            kwargs[key] = value
    if "z_epsilon" in section and structure is not None and not structure.is_singular:
        warnings.append("integrator.z_epsilon has no effect for canonical "
                        "structures and is ignored")
    key, what = "t_max", "t_max"
    if horizon is not None:
        for ignored in ("t_max", "z_epsilon"):
            if kwargs.pop(ignored, None) is not None:
                warnings.append(f"integrator.{ignored} has no effect on timescale runs "
                                "and is ignored")
        key, what = "step", "the horizon"
        step = kwargs.get("step", base.step)
        if kwargs.get("method", base.method) is Method.RK4_FIXED and not step < horizon:
            raise ConfigError(f"integrator.step must be smaller than the horizon {horizon!r}, "
                              f"got {step!r}")
        kwargs["t_max"] = horizon
    try:
        config = replace(base, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}")
    # ceil(t_max / step) > MAX_FIXED_STEPS, without rounding an infinite ratio
    if config.method is Method.RK4_FIXED and config.t_max / config.step > MAX_FIXED_STEPS:
        raise ConfigError(f"integrator.{key}: {what} / step must not exceed {MAX_FIXED_STEPS} "
                          f"fixed steps, got {config.t_max!r} / {config.step!r}")
    return config


def _axis_spec(spec, path) -> tuple:
    """``(count, expand)`` of one axis of a grid spec: the number of its
    values, and a function that lists them, so that the grid's size is
    checked before either axis is built.  A range's ``start``, ``stop`` and
    ``stop - start`` must be finite; a ``values`` entry may be non-finite,
    which fails only its own records."""
    spec = _require_mapping(spec, path)
    _reject_unknown(spec, _AXIS_SPEC_KEYS, path)
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.values must be a nonempty list")
        values = [_as_number(v, f"{path}.values[{i}]", finite=False)
                  for i, v in enumerate(values)]
        return len(values), lambda: values
    for key in ("start", "stop", "count"):
        if key not in spec:
            raise ConfigError(f"{path}.{key} is required for a range spec")
    count = spec["count"]
    if not _is_int(count) or count < 1:
        raise ConfigError(f"{path}.count must be a positive integer")
    start = _as_number(spec["start"], f"{path}.start")
    stop = _as_number(spec["stop"], f"{path}.stop")
    if not math.isfinite(stop - start):
        raise ConfigError(f"{path}: stop - start must be finite, got {stop!r} - {start!r}")
    return count, lambda: list(np.linspace(start, stop, count))


def _build_initials(section, n) -> list:
    if isinstance(section, dict):
        _reject_unknown(section, {"grid"}, "initial")
        grid = _require_mapping(section.get("grid"), "initial.grid")
        _reject_unknown(grid, {"q", "p"}, "initial.grid")
        if n != 1:
            raise ConfigError("initial.grid is only supported for n=1; "
                              "list initial conditions explicitly")
        q_count, qs = _axis_spec(grid.get("q", {"values": [0.0]}), "initial.grid.q")
        p_count, ps = _axis_spec(grid.get("p", {"values": [0.0]}), "initial.grid.p")
        if q_count * p_count > MAX_GRID_STATES:
            raise ConfigError(f"initial.grid.q x initial.grid.p: {q_count} x {p_count} states "
                              f"exceed the {MAX_GRID_STATES} a grid may have")
        qs, ps = qs(), ps()
        return [PhaseState(q, p) for q in qs for p in ps]
    if not isinstance(section, list) or not section:
        raise ConfigError("initial must be a nonempty list of states or a grid spec")
    states = []
    for i, row in enumerate(section):
        if not isinstance(row, list) or len(row) != 2 * n:
            raise ConfigError(f"initial[{i}] must be a flat list of length {2 * n} "
                              f"(q1..q{n}, p1..p{n})")
        values = [_as_number(v, f"initial[{i}][{j}]", finite=False)
                  for j, v in enumerate(row)]
        states.append(PhaseState(values[:n], values[n:]))
    return states


def parse_config(document, command: Optional[str] = None) -> RunConfig:
    """Validate a JSON document (text, bytes or parsed object) into a RunConfig.

    Every way the text fails to decode is a ConfigError: malformed JSON,
    bytes that are not UTF-8, UTF-16 or UTF-32, an integer past
    ``sys.get_int_max_str_digits()`` digits (a ValueError) and nesting past
    the recursion limit (a RecursionError)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON: {exc}")
    document = _require_mapping(document, "config")
    declared = document.get("command")
    if command is None:
        command = declared
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {list(COMMANDS)}, got {command!r}")
    if declared is not None and declared != command:
        raise ConfigError(f"config declares command {declared!r} but {command!r} was invoked")
    _reject_unknown(document, _TOP_KEYS[command], "")

    cfg = RunConfig(command=command, raw=document)
    cfg.out_dir = document.get("out_dir")
    if cfg.out_dir is not None and not isinstance(cfg.out_dir, str):
        raise ConfigError("out_dir must be a string")

    if command == "timescale":
        return _parse_timescale(document, cfg)
    if command == "liftcheck":
        return _parse_liftcheck(document, cfg)

    structure, potential = _section(document, "structure"), _section(document, "potential")
    cfg.structure = _build_structure(structure)
    cfg.potential, cfg.axis = _build_potential(potential, cfg.structure.n)
    cfg.hamiltonian = HamiltonianSpec(potential=cfg.potential, n=cfg.structure.n,
                                      axis=cfg.axis)
    cfg.initials = _build_initials(_section(document, "initial"), cfg.structure.n)
    cfg.integrator = _build_integrator(document.get("integrator"), cfg.structure,
                                       cfg.warnings)
    if command == "portrait":
        backward = document.get("backward", True)
        if not isinstance(backward, bool):
            raise ConfigError("backward must be a boolean")
        cfg.backward = backward
    if command == "oracle-compare":
        _oracle_for(cfg)  # raises early when no closed form exists
    return cfg


def _parse_timescale(document, cfg: RunConfig) -> RunConfig:
    potential = _section(document, "potential")
    n = document.get("n", 1)
    if not _is_int(n) or n < 1:
        raise ConfigError("n must be a positive integer")
    cfg.potential, cfg.axis = _build_potential(potential, n)
    cfg.friction = _number(document, "friction", "config", None, positive=True)
    if cfg.friction is None:
        raise ConfigError("friction must be a positive number")
    clock = document.get("clock", "t")
    if clock not in ("t", "s"):
        raise ConfigError("clock must be 't' or 's'")
    cfg.clock = clock
    cfg.horizon = _number(document, "horizon", "config", None, positive=True)
    if cfg.horizon is None:
        raise ConfigError("horizon must be a positive number")
    if clock == "s":
        try:
            s_chart_z_epsilon(cfg.friction, cfg.horizon)
        except ValueError as exc:
            raise ConfigError(f"horizon: {exc}") from None
    initial = document.get("initial")
    if not isinstance(initial, list) or len(initial) != 2 * n:
        raise ConfigError(f"initial must be a flat list of length {2 * n} "
                          f"(q1..q{n}, v1..v{n})")
    values = [_as_number(v, f"initial[{j}]", finite=False) for j, v in enumerate(initial)]
    cfg.initial_qv = (np.array(values[:n]), np.array(values[n:]))
    cfg.e0 = _number(document, "e0", "config", None)
    if "integrator" in document:
        cfg.integrator = _build_integrator(_require_mapping(document["integrator"], "integrator"),
                                           None, cfg.warnings, DEFAULT_CONFIG, cfg.horizon)
    return cfg


def _parse_liftcheck(document, cfg: RunConfig) -> RunConfig:
    structure = cfg.structure = _build_structure(_section(document, "structure"))
    n = structure.n
    has_potential = "potential" in document
    has_toric = "toric" in document
    if has_potential == has_toric:
        raise ConfigError("provide exactly one of potential or toric")
    if has_potential:
        cfg.potential, cfg.axis = _build_potential(document["potential"], n)
        cfg.hamiltonian = HamiltonianSpec(potential=cfg.potential, n=n, axis=cfg.axis)
    else:
        if structure.kind is not StructureKind.TWISTED_B:
            raise ConfigError("toric: the lifted torus generator lives on the twisted structure")
        toric = _require_mapping(document["toric"], "toric")
        _reject_unknown(toric, {"c"}, "toric")
        c = _number(toric, "c", "toric", structure.modular_weight)
        if c == 0.0:
            raise ConfigError("toric.c must be nonzero")
        cfg.hamiltonian = toric_moment_field(structure, c)
    cfg.base_points = document.get("base_points", [0.0])
    cfg.fiber_samples = document.get("fiber_samples", [1.0, 2.0])
    if not isinstance(cfg.base_points, list) or not cfg.base_points:
        raise ConfigError("base_points must be a nonempty list")
    if not isinstance(cfg.fiber_samples, list) or len(cfg.fiber_samples) < 2:
        raise ConfigError("fiber_samples must contain at least two samples")
    cfg.base_points = [_as_point(b, f"base_points[{i}]", n)
                       for i, b in enumerate(cfg.base_points)]
    cfg.fiber_samples = [_as_point(f, f"fiber_samples[{i}]", n)
                         for i, f in enumerate(cfg.fiber_samples)]
    # the field is probed off the critical set, which a twisted structure
    # puts on a momentum and a nontwisted one on a position
    k = structure.singular_index
    for key, kind, name in (("fiber_samples", StructureKind.TWISTED_B, "p"),
                            ("base_points", StructureKind.NONTWISTED_B, "q")):
        if structure.kind is kind:
            for i, point in enumerate(getattr(cfg, key)):
                if point[k] == 0.0:
                    raise ConfigError(f"{key}[{i}] lies on the critical set {name}{k + 1} = 0")
    cfg.tol = _number(document, "tol", "config", DEFAULT_TOL, positive=True)
    return cfg


# ---------------------------------------------------------------------------
# artifact writers

def _standard_json(value):
    """``value`` with every non-finite float, which standard JSON cannot
    hold, as the string ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {key: _standard_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_standard_json(item) for item in value]
    return value


def _write_json(path, payload) -> None:
    text = json.dumps(_standard_json(payload), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")  # one write, where json.dump writes chunk by chunk


def _state_payload(state: PhaseState):
    return {"q": [float(v) for v in state.q], "p": [float(v) for v in state.p]}


def _config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_extended_csv(path, traj: Trajectory, clock: str) -> None:
    cols, values, footer = traj.csv_table()
    write_table(path, cols + ["clock"], values, footer, suffix="," + clock)


def _write_realtime_csv(path, rt) -> None:
    n = rt.q.shape[1]
    cols = ["t"] + [f"q{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)]
    write_table(path, cols, np.column_stack([rt.times, rt.q, rt.velocity]))


# ---------------------------------------------------------------------------
# command runners

def _integrate_all(cfg: RunConfig, stop_at_return: bool = False) -> list:
    """One trajectory, or the exception that stopped it, per initial state."""
    return integrate_batch(cfg.structure, cfg.hamiltonian,
                           [initial.to_array() for initial in cfg.initials], cfg.integrator,
                           stop_at_return=stop_at_return)


def _records(initials, runs, body, failed=None) -> list:
    """One manifest record per initial state: ``index``, ``initial`` (its
    entry in ``initials``) and ``status``, ``ok`` with the fields
    ``body(i, run)`` returns, or ``error: <Type>: <msg>`` with the fields of
    ``failed`` when ``run`` (a trajectory, or the exception that stopped it)
    is an exception or ``body`` raises."""
    records = []
    for i, (initial, run) in enumerate(zip(initials, runs)):
        record = {"index": i, "initial": initial}
        try:
            if isinstance(run, Exception):
                raise run
            record.update(body(i, run), status="ok")
        except Exception as exc:
            record.update(failed or {}, status=f"error: {type(exc).__name__}: {exc}")
        records.append(record)
    return records


def _without(records, *keys) -> list:
    """The records without the fields ``keys``; side files are such projections."""
    return [{k: v for k, v in record.items() if k not in keys} for record in records]


def _event_payload(traj: Trajectory) -> dict:
    event = traj.terminal_event
    return {"kind": event.kind.value, "t": float(event.time)}


def _classification_payload(cls):
    payload = {"kind": cls.kind.value}
    if cls.period is not None:
        payload["period"] = float(cls.period)
    if cls.limit_state is not None:
        payload["limit_state"] = _state_payload(cls.limit_state)
    return payload


def _run_simulate(cfg: RunConfig, out_dir: str) -> list:
    def body(i, traj):
        name = f"traj_{i:03d}.csv"
        traj.write_csv(os.path.join(out_dir, name))
        return {"file": name, "event": _event_payload(traj)}

    return _records(map(_state_payload, cfg.initials), _integrate_all(cfg), body)


def _run_portrait(cfg: RunConfig, out_dir: str) -> list:
    results = phase_portrait(cfg.structure, cfg.hamiltonian, cfg.initials,
                             cfg.integrator, include_backward=cfg.backward)

    def body(i, rec):
        files = [f"traj_{i:03d}_forward.csv"]
        if rec.backward is not None:
            files.append(f"traj_{i:03d}_backward.csv")
        for name, traj in zip(files, (rec.trajectory, rec.backward)):
            traj.write_csv(os.path.join(out_dir, name))
        return {"files": files, "classification": _classification_payload(rec.classification),
                "event": _event_payload(rec.trajectory)}

    runs = [rec if rec.error is None else rec.error for rec in results]
    records = _records(map(_state_payload, cfg.initials), runs, body,
                       {"files": [], "classification": {"kind": OrbitKind.UNDETERMINED.value}})
    _write_json(os.path.join(out_dir, "portrait.json"), _without(records, "status", "event"))
    return records


def _run_classify(cfg: RunConfig, out_dir: str) -> list:
    def body(i, traj):
        return {"classification": _classification_payload(classify_orbit(traj))}

    # only the classification is written, which the first return settles
    records = _records(map(_state_payload, cfg.initials), _integrate_all(cfg, True), body)
    _write_json(os.path.join(out_dir, "classifications.json"), _without(records, "index"))
    return records


def _tanh_oracle(q0, p0, lam, times):
    """The twisted pure-quadratic closed form, on either half plane."""
    if p0 == 0.0:
        return np.full_like(times, q0), np.zeros_like(times)
    sign = 1.0 if p0 > 0 else -1.0
    c1, c2 = quadratic_tanh_constants(q0, abs(p0), lam)
    return (quadratic_tanh(c1, c2, lam, times),
            sign * quadratic_tanh_momentum(c1, c2, lam, times))


#: closed form ``(q0, p0, lam, times) -> (q, p)`` per structure kind and family
_ORACLES = {
    (StructureKind.TWISTED_B, PotentialFamily.LINEAR): stokes_exact,
    (StructureKind.CANONICAL, PotentialFamily.LINEAR): classical_parabola,
    (StructureKind.TWISTED_B, PotentialFamily.PURE_QUADRATIC): _tanh_oracle,
}


def _oracle_for(cfg: RunConfig):
    kind = cfg.structure.kind
    family = cfg.potential.family
    if cfg.structure.n != 1:
        raise ConfigError("oracle-compare supports n=1 systems")
    if (kind, family) not in _ORACLES:
        raise ConfigError(f"no closed-form oracle for structure.kind={kind.value} "
                          f"with potential.family={family.value}")
    return _ORACLES[kind, family]


def _run_oracle_compare(cfg: RunConfig, out_dir: str) -> list:
    oracle = _oracle_for(cfg)

    def body(i, traj):
        initial = cfg.initials[i]
        # an extreme initial state overflows in the closed form as it does in
        # the run: its inf or NaN is written, without a numpy warning
        with np.errstate(all="ignore"):
            q_exact, p_exact = oracle(initial.q[0], initial.p[0], cfg.potential.lam, traj.times)
            q_error = float(np.max(np.abs(traj.q[:, 0] - q_exact)))
            p_error = float(np.max(np.abs(traj.p[:, 0] - p_exact)))
        name = f"compare_{i:03d}.csv"
        write_table(os.path.join(out_dir, name),
                    ["t", "q_sim", "p_sim", "q_exact", "p_exact"],
                    np.column_stack([traj.times, traj.q[:, 0], traj.p[:, 0],
                                     q_exact, p_exact]))
        return {"file": name, "max_abs_q_error": q_error, "max_abs_p_error": p_error}

    records = _records(map(_state_payload, cfg.initials), _integrate_all(cfg), body)
    _write_json(os.path.join(out_dir, "summary.json"),
                _without([r for r in records if r["status"] == "ok"], "index", "status"))
    return records


def _run_timescale(cfg: RunConfig, out_dir: str) -> list:
    q0, v0 = cfg.initial_qv
    runner = run_rescaled if cfg.clock == "t" else run_s_coordinates

    def body(i, initial):
        traj = runner(cfg.potential, cfg.friction, *initial, cfg.horizon,
                      config=cfg.integrator, axis=cfg.axis, e0=cfg.e0)
        _write_extended_csv(os.path.join(out_dir, "extended_000.csv"), traj, cfg.clock)
        _write_realtime_csv(os.path.join(out_dir, "realtime_000.csv"),
                            reconstruct_real_time(traj))
        return {"files": ["extended_000.csv", "realtime_000.csv"], "clock": cfg.clock,
                "event": _event_payload(traj)}

    initial = {"q": [float(v) for v in q0], "v": [float(v) for v in v0]}
    return _records([initial], [cfg.initial_qv], body)


def _run_liftcheck(cfg: RunConfig, out_dir: str) -> list:
    verdict = projectability_test(cfg.structure, cfg.hamiltonian, cfg.base_points,
                                  cfg.fiber_samples, cfg.tol)
    payload = {"verdict": verdict.verdict.value, "tol": cfg.tol, "witness": None}
    if verdict.witness is not None:
        payload["witness"] = {
            "state_a": _state_payload(verdict.witness.state_a),
            "state_b": _state_payload(verdict.witness.state_b),
            "difference": float(verdict.witness.difference),
        }
    _write_json(os.path.join(out_dir, "verdict.json"), payload)
    print(json.dumps(_standard_json(payload), sort_keys=True, indent=2, allow_nan=False))
    return [{"index": 0, "status": "ok", "verdict": verdict.verdict.value,
             "file": "verdict.json"}]


_RUNNERS = {
    "simulate": _run_simulate,
    "portrait": _run_portrait,
    "classify": _run_classify,
    "oracle-compare": _run_oracle_compare,
    "timescale": _run_timescale,
    "liftcheck": _run_liftcheck,
}


def run(cfg: RunConfig, out_dir: Optional[str] = None) -> int:
    """Execute a validated configuration; returns the process exit status."""
    out_dir = out_dir or cfg.out_dir or "out"
    os.makedirs(out_dir, exist_ok=True)
    logger.info("running %s into %s", cfg.command, out_dir)
    records = _RUNNERS[cfg.command](cfg, out_dir)
    manifest = {
        "command": cfg.command,
        "config_sha256": _config_hash(cfg.raw),
        "version": __version__,
        "warnings": cfg.warnings,
        "records": records,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    failed = [r for r in records if r["status"] != "ok"]
    for r in failed:
        logger.warning("record %s failed: %s", r.get("index"), r.get("status"))
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhamsys",
        description="Simulate Hamiltonian dynamics on singular phase spaces.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides out_dir)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("BHAMSYS_LOG", "WARNING").upper(), logging.WARNING),
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}")
        cfg = parse_config(text, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg, out_dir=args.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


# The objects made by the imports above, numpy's most of all, live until
# the process exits.  Freezing them keeps every later collection, the final
# ones at interpreter shutdown included, from walking them again.  This runs
# once, on import, so that repeated calls of main() in one process do not
# freeze the garbage of earlier runs.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
