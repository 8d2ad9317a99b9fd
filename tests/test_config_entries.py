"""Numeric list entries of a config are checked when it is parsed.

A non-numeric entry, or a boolean read as a number, is a configuration error
naming the entry's path (exit code 2); a non-finite initial state is still a
per-record failure (exit code 1), and its manifest entry holds the value as
the string ``"inf"``, ``"-inf"`` or ``"nan"``, so every artifact stays
standard JSON.  The values that parse but would crash or never end the run
are configuration errors too: a non-finite number outside the initial
states, a liftcheck sample on the critical set or of the wrong length, a
non-integer ``singular_index``, a boolean where an integer belongs
(``potential.axis``, ``n``, ``structure.dim``), a fixed-step run of more
than ``MAX_FIXED_STEPS`` steps, a fixed ``timescale`` step that does not fit
the horizon, which is the run's ``t_max``, and a clock-s horizon whose
``z_epsilon`` underflows to 0.  An adaptive step is only a first guess and
fits any horizon.  A liftcheck document must give its samples.  The keys
that the command line or the zero level of H settles (``command``,
``out_dir``, ``timescale``'s ``e0``), a grid spec in place of the list of
initial states, and the integrator keys that a run cannot read (``t_max``
and ``z_epsilon`` of ``timescale``, ``z_epsilon`` on a canonical structure,
``rel_tol`` and ``abs_tol`` of a fixed-step run) and the potential keys that
its family does not read (``lambda`` of ``zero``, ``alpha`` of any family but
``general_quadratic``) are unknown keys.
"""

import copy
import json
import math
import re

import numpy as np
import pytest

from bhamsys.cli import MAX_FIXED_STEPS, ConfigError, main, parse_config
from bhamsys.hamiltonians import PotentialSpec
from bhamsys.timescale import run_s_coordinates

SIMULATE = {
    "structure": {"kind": "twisted_b", "dim": 2},
    "potential": {"family": "linear", "lambda": 1.0},
    "initial": [[0.0, 1.0]],
}
TIMESCALE = {"potential": {"family": "zero"}, "friction": 1.0, "horizon": 1.0,
             "initial": [0.0, 1.0]}
LIFTCHECK = {"structure": {"kind": "twisted_b", "dim": 4},
             "potential": {"family": "linear", "lambda": 1.0},
             "base_points": [[0.0, 1.0]], "fiber_samples": [[1.0, 1.0], [2.0, 1.0]]}


def edit(doc, path, value):
    """``doc`` with ``value`` at ``path``, a missing section made on the way."""
    doc = copy.deepcopy(doc)
    *keys, last = path
    target = doc
    for key in keys:
        target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
    target[last] = value
    return doc


CASES = [
    ("simulate", SIMULATE, ("initial", 0, 0), "initial[0][0]"),
    ("simulate", SIMULATE, ("initial", 0, 1), "initial[0][1]"),
    ("timescale", TIMESCALE, ("initial", 1), "initial[1]"),
    ("liftcheck", LIFTCHECK, ("base_points", 0, 1), "base_points[0][1]"),
    ("liftcheck", LIFTCHECK, ("fiber_samples", 1, 0), "fiber_samples[1][0]"),
]


@pytest.mark.parametrize("bad", ["a", True, None, [1.0]], ids=["string", "true", "null", "list"])
@pytest.mark.parametrize("command,doc,path,where", CASES, ids=[c[3] for c in CASES])
def test_bad_entry_names_its_path(command, doc, path, where, bad):
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be a number$"):
        parse_config(edit(doc, path, bad), command)


@pytest.mark.parametrize("bad", ["a", False])
def test_bad_entry_exits_with_code_2(tmp_path, capsys, bad):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(edit(SIMULATE, ("initial", 0, 0), bad)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "initial[0][0] must be a number" in capsys.readouterr().err


def test_scalar_points_are_checked_too():
    doc = dict(LIFTCHECK, structure={"kind": "twisted_b", "dim": 2},
               base_points=[0.0, "x"], fiber_samples=[1.0, 2.0])
    with pytest.raises(ConfigError, match=r"base_points\[1\] must be a number"):
        parse_config(doc, "liftcheck")


def run_main(tmp_path, command, text, *flags):
    path = tmp_path / "run.json"
    path.write_text(text)
    return main([command, "--config", str(path), "--out", str(tmp_path / "out"), *flags])


@pytest.mark.parametrize("doc,where", [
    (dict(LIFTCHECK, structure={"kind": "twisted_b", "dim": 2}, base_points=[0.0],
          fiber_samples=[0.0, 1.0]), r"fiber_samples\[0\] lies on the critical set p1 = 0"),
    (dict(LIFTCHECK, structure={"kind": "nontwisted_b", "dim": 2}, base_points=[1.0, 0.0],
          fiber_samples=[1.0, 2.0]), r"base_points\[1\] lies on the critical set q1 = 0"),
    (dict(LIFTCHECK, structure={"kind": "twisted_b", "dim": 2}, base_points=[[0.0, 1.0]],
          fiber_samples=[1.0, 2.0]), r"base_points\[0\] must have 1 component\(s\), got 2"),
    (dict(LIFTCHECK, fiber_samples=[[1.0, 1.0], 2.0]),
     r"fiber_samples\[1\] must have 2 component\(s\), got 1"),
    (dict(LIFTCHECK, structure={"kind": "extended_canonical", "dim": 2}),
     "extended structures"),
    (dict(LIFTCHECK, potential={"family": "linear", "axis": 2}), "axis 2 out of range"),
], ids=["fiber-on-Z", "base-on-Z", "base-length", "fiber-length", "extended", "axis"])
def test_liftcheck_samples_that_would_crash(tmp_path, capsys, doc, where):
    with pytest.raises(ConfigError, match=where):
        parse_config(doc, "liftcheck")
    assert run_main(tmp_path, "liftcheck", json.dumps(doc)) == 2
    assert re.search(where, capsys.readouterr().err)


def test_toric_generator_needs_the_twisted_structure():
    doc = {"structure": {"kind": "canonical", "dim": 2}, "toric": {}}
    with pytest.raises(ConfigError, match="^toric: .*twisted"):
        parse_config(doc, "liftcheck")
    with pytest.raises(ConfigError, match=r"^toric\.c must be nonzero$"):
        parse_config(dict(doc, structure={"kind": "twisted_b"}, toric={"c": 0.0}), "liftcheck")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, literal):
    text = json.dumps(SIMULATE)[:-1] + f', "integrator": {{"t_max": {literal}}}}}'
    with pytest.raises(ConfigError, match=r"^integrator\.t_max must be (finite|> 0)$"):
        parse_config(text, "simulate")
    assert run_main(tmp_path, "simulate", text) == 2
    assert "config error: integrator.t_max must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


PARAMETERS = [
    ("simulate", SIMULATE, ("potential", "lambda"), "potential.lambda"),
    ("simulate", SIMULATE, ("structure", "modular_weight"), "structure.modular_weight"),
    ("timescale", TIMESCALE, ("friction",), "config.friction"),
    ("liftcheck", LIFTCHECK, ("base_points", 0, 1), "base_points[0][1]"),
    ("liftcheck", LIFTCHECK, ("tol",), "config.tol"),
]


@pytest.mark.parametrize("command,doc,path,where", PARAMETERS, ids=[c[3] for c in PARAMETERS])
def test_non_finite_parameters_name_their_path(command, doc, path, where):
    text = json.dumps(edit(doc, path, float("inf")))
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be finite$"):
        parse_config(text, command)


def test_huge_integer_is_not_a_float_overflow():
    with pytest.raises(ConfigError, match=r"^integrator\.step must be finite$"):
        parse_config(dict(SIMULATE, integrator={"step": 10 ** 400}), "simulate")


def test_non_finite_initial_state_stays_a_record_failure():
    cfg = parse_config(json.dumps(edit(SIMULATE, ("initial", 0, 0), float("nan"))), "simulate")
    assert np.isnan(cfg.initials[0].q[0])


@pytest.mark.parametrize("index", [0.5, True, "0"])
def test_singular_index_must_be_an_integer(tmp_path, capsys, index):
    doc = edit(SIMULATE, ("structure", "singular_index"), index)
    with pytest.raises(ConfigError, match=r"^structure\.singular_index must be an integer$"):
        parse_config(doc, "simulate")
    assert run_main(tmp_path, "simulate", json.dumps(doc)) == 2


def test_angular_mask_must_be_a_list(tmp_path):
    doc = edit(SIMULATE, ("structure", "angular_mask"), True)
    assert run_main(tmp_path, "simulate", json.dumps(doc)) == 2


BOOLEAN_INTEGERS = [
    ("simulate", edit(SIMULATE, ("potential", "axis"), True), "potential.axis"),
    ("timescale", dict(TIMESCALE, n=True), "n"),
    ("simulate", edit(SIMULATE, ("structure", "dim"), True), "structure.dim"),
]


@pytest.mark.parametrize("command,doc,where", BOOLEAN_INTEGERS,
                         ids=[c[2] for c in BOOLEAN_INTEGERS])
def test_a_boolean_is_not_an_integer(tmp_path, capsys, command, doc, where):
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be a"):
        parse_config(doc, command)
    assert run_main(tmp_path, command, json.dumps(doc)) == 2
    assert f"config error: {where} must be a" in capsys.readouterr().err


def test_fixed_step_runs_are_bounded(tmp_path, capsys):
    doc = dict(SIMULATE, integrator={"t_max": 1e12})
    with pytest.raises(ConfigError, match=r"^integrator\.t_max: .*10000000 fixed steps"):
        parse_config(doc, "simulate")
    assert run_main(tmp_path, "simulate", json.dumps(doc)) == 2
    assert "config error: integrator.t_max" in capsys.readouterr().err
    # the bound is ceil(t_max / step) <= MAX_FIXED_STEPS, on the default step too
    parse_config(dict(SIMULATE, integrator={"t_max": MAX_FIXED_STEPS * 1e-3}), "simulate")
    with pytest.raises(ConfigError, match=r"^integrator\.t_max"):
        parse_config(dict(SIMULATE, integrator={"t_max": 1e4, "step": 0.999e-3}), "simulate")
    with pytest.raises(ConfigError, match=r"^integrator\.step"):
        parse_config(dict(TIMESCALE, integrator={"method": "rk4_fixed", "step": 1e-300}),
                     "timescale")
    # an adaptive run chooses its own steps
    parse_config(dict(SIMULATE, integrator={"method": "rk_adaptive", "t_max": 1e12}), "simulate")


@pytest.mark.parametrize("command", ["simulate", "portrait", "classify", "oracle-compare"])
def test_an_adaptive_run_may_be_shorter_than_its_first_step(tmp_path, command):
    # the default step 1e-3 is only DOP853's first guess, clamped to t_max / 10
    doc = dict(SIMULATE, integrator={"method": "rk_adaptive", "t_max": 5e-4})
    assert run_main(tmp_path, command, json.dumps(doc)) == 0
    records = strict_json(tmp_path / "out" / "manifest.json")["records"]
    assert [record["status"] for record in records] == ["ok"]
    with pytest.raises(ConfigError, match=r"^integrator\.step must be smaller than t_max"):
        parse_config(dict(SIMULATE, integrator={"t_max": 5e-4}), command)


def strict_loads(text):
    """Parse standard JSON: NaN and Infinity are not allowed."""
    def reject(literal):
        raise ValueError(f"non-standard JSON constant {literal}")
    return json.loads(text, parse_constant=reject)


def strict_json(path):
    return strict_loads(path.read_text())


# json.dumps writes the infinite entry as Infinity, for the test to replace
NON_FINITE_INITIAL = [
    ("simulate", dict(SIMULATE, initial=[[math.inf, 1.0]]), ["manifest.json"]),
    ("portrait", dict(SIMULATE, initial=[[math.inf, 1.0]]), ["manifest.json", "portrait.json"]),
    ("classify", dict(SIMULATE, initial=[[math.inf, 1.0]]),
     ["manifest.json", "classifications.json"]),
    ("oracle-compare", dict(SIMULATE, initial=[[math.inf, 1.0]]),
     ["manifest.json", "summary.json"]),
    ("timescale", dict(TIMESCALE, initial=[math.inf, 1.0]), ["manifest.json"]),
]


@pytest.mark.parametrize("command,doc,files", NON_FINITE_INITIAL,
                         ids=[c[0] for c in NON_FINITE_INITIAL])
@pytest.mark.parametrize("literal,text", [("1e400", "inf"), ("-1e400", "-inf"), ("NaN", "nan")])
def test_non_finite_initial_entries_are_standard_json(tmp_path, command, doc, files,
                                                      literal, text):
    config = json.dumps(doc).replace("Infinity", literal)
    assert run_main(tmp_path, command, config) == 1
    documents = {name: strict_json(tmp_path / "out" / name) for name in files}
    (record,) = documents["manifest.json"]["records"]
    assert record["status"].startswith("error: ValueError")
    assert record["initial"]["q"] == [text]


def test_an_overflowing_witness_is_standard_json(tmp_path, capsys):
    # p^2 of the fibre 1e200 overflows, so the two fibres differ by inf
    doc = dict(LIFTCHECK, structure={"kind": "twisted_b", "dim": 2}, base_points=[0.0],
               fiber_samples=[1.0, 1e200])
    assert run_main(tmp_path, "liftcheck", json.dumps(doc)) == 0
    verdict = strict_json(tmp_path / "out" / "verdict.json")
    assert verdict["witness"]["difference"] == "inf"
    assert strict_loads(capsys.readouterr().out) == verdict
    strict_json(tmp_path / "out" / "manifest.json")


def test_fixed_step_timescale_runs_are_bounded_by_their_horizon(tmp_path, capsys):
    # the horizon 1 is the run's t_max, over which a step of 1e-9 takes 1e9 steps
    doc = dict(TIMESCALE, integrator={"method": "rk4_fixed", "step": 1e-9})
    with pytest.raises(ConfigError, match=r"^integrator\.step: .*10000000 fixed steps"):
        parse_config(doc, "timescale")
    for clock in ("t", "s"):
        assert run_main(tmp_path, "timescale", json.dumps(dict(doc, clock=clock))) == 2
        assert "config error: integrator.step" in capsys.readouterr().err
    # 1e7 steps fit the bound, 2e7 do not; an adaptive run chooses its own
    parse_config(dict(TIMESCALE, integrator={"method": "rk4_fixed", "step": 1e-7}), "timescale")
    with pytest.raises(ConfigError, match=r"^integrator\.step"):
        parse_config(dict(TIMESCALE, integrator={"method": "rk4_fixed", "step": 5e-8}),
                     "timescale")
    parse_config(dict(TIMESCALE, integrator={"method": "rk_adaptive", "step": 1e-9}), "timescale")


@pytest.mark.parametrize("clock", ["t", "s"])
def test_a_timescale_run_takes_t_max_and_z_epsilon_from_its_horizon(clock):
    # the default t_max 20 / step is 2e8 steps, but the run takes 1e7 over
    # its horizon, which is its t_max; on clock s z_epsilon is half of
    # s = exp(-friction * horizon), and clock t keeps the default it never reads
    integrator = {"method": "rk4_fixed", "step": 1e-7}
    cfg = parse_config(dict(TIMESCALE, clock=clock, integrator=integrator), "timescale")
    assert cfg.integrator.t_max == TIMESCALE["horizon"]
    assert cfg.integrator.z_epsilon == (math.exp(-1.0) / 2 if clock == "s" else 1e-6)
    with pytest.raises(ConfigError, match=r"^integrator\.step: "):
        parse_config(dict(SIMULATE, integrator=integrator), "simulate")


@pytest.mark.parametrize("clock", ["t", "s"])
def test_a_timescale_step_past_the_default_t_max_fits_a_longer_horizon(tmp_path, clock):
    # step 24 is past the default t_max 20, which the run replaces by its horizon 40
    doc = {"potential": {"family": "zero"}, "friction": 0.02, "clock": clock, "horizon": 40.0,
           "initial": [0.0, 1.0], "integrator": {"method": "rk4_fixed", "step": 24.0}}
    assert run_main(tmp_path, "timescale", json.dumps(doc)) == 0
    (record,) = strict_json(tmp_path / "out" / "manifest.json")["records"]
    assert record["event"] == {"kind": "t_max_reached", "t": 40.0}
    assert len((tmp_path / "out" / "realtime_000.csv").read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize("method", ["rk4_fixed", "rk_adaptive"])
def test_a_timescale_step_must_fit_its_horizon(tmp_path, capsys, method):
    # friction 1, horizon 1: the run's t_max is 1
    doc = dict(TIMESCALE, integrator={"method": method, "step": 1.5})
    if method == "rk_adaptive":
        # a DOP853 step is only the first guess, which the run clamps to horizon / 10
        clamped = dict(TIMESCALE, integrator={"method": method, "step": 0.1})
        for clock in ("t", "s"):
            files = []
            for run in (doc, clamped):
                assert run_main(tmp_path, "timescale", json.dumps(dict(run, clock=clock))) == 0
                (record,) = strict_json(tmp_path / "out" / "manifest.json")["records"]
                assert record["event"] == {"kind": "t_max_reached", "t": 1.0}
                files.append([(tmp_path / "out" / name).read_bytes() for name in record["files"]])
            assert files[0] == files[1]
        return
    with pytest.raises(ConfigError, match=r"^integrator\.step must be smaller than t_max 1\.0, "
                                          r"got 1\.5$"):
        parse_config(doc, "timescale")
    for clock in ("t", "s"):
        assert run_main(tmp_path, "timescale", json.dumps(dict(doc, clock=clock))) == 2
        assert "config error: integrator.step" in capsys.readouterr().err
    parse_config(dict(TIMESCALE, integrator={"method": method, "step": 0.9}), "timescale")


def test_a_clock_s_horizon_must_keep_its_z_epsilon_positive(tmp_path, capsys):
    # clock s sets z_epsilon = exp(-friction * horizon) / 2, which underflows
    # to 0 past friction * horizon of about 744.03: a record error before
    doc = dict(TIMESCALE, clock="s", horizon=800.0, initial=[1.0, 0.5])
    limit = r"^horizon: clock s needs friction \* horizon of at most about 744, "
    with pytest.raises(ConfigError, match=limit + r".*got 800\.0$"):
        parse_config(doc, "timescale")
    assert run_main(tmp_path, "timescale", json.dumps(doc)) == 2
    assert "config error: horizon: clock s" in capsys.readouterr().err
    # the limit is on the product; clock t has no z_epsilon
    with pytest.raises(ConfigError, match=limit + r".*got 745\.0$"):
        parse_config(dict(doc, friction=0.5, horizon=1490.0), "timescale")
    parse_config(dict(doc, horizon=744.0), "timescale")
    parse_config(dict(doc, clock="t"), "timescale")
    with pytest.raises(ValueError, match="at most about 744"):
        run_s_coordinates(PotentialSpec("zero"), 1.0, [1.0], [0.5], 800.0)


@pytest.mark.parametrize("fibers,verdict,difference", [
    ([1e200, 3e200], "inconclusive", None),  # every velocity is inf: inf - inf is NaN
    ([1.0, 2.0, 1e200, 3e200], "not_projectable", "inf"),
], ids=["all-overflow", "mixed"])
def test_an_overflowing_field_is_never_projectable(tmp_path, capsys, fibers, verdict,
                                                   difference):
    doc = dict(LIFTCHECK, structure={"kind": "twisted_b", "dim": 2}, base_points=[0.0, 1.0],
               fiber_samples=fibers)
    assert run_main(tmp_path, "liftcheck", json.dumps(doc)) == 0
    payload = strict_json(tmp_path / "out" / "verdict.json")
    assert payload["verdict"] == verdict
    witness = payload["witness"]
    assert (witness and witness["difference"]) == difference


# a small valid document of each command
ORBIT_COMMANDS = ("simulate", "portrait", "classify", "oracle-compare")
DOCUMENTS = {command: dict(SIMULATE, integrator={"step": 0.01, "t_max": 1.0})
             for command in ORBIT_COMMANDS}
DOCUMENTS.update(timescale=TIMESCALE, liftcheck=LIFTCHECK)


CANONICAL = dict(DOCUMENTS["simulate"], structure={"kind": "canonical", "dim": 2})
GRID_SPEC = {"q": {"start": -4.0, "stop": 6.0, "count": 11}, "p": {"values": [1.0, -1.0]}}

#: (command, document, dotted key, value put at the key)
REMOVED = ([(command, DOCUMENTS[command], "command", command) for command in sorted(DOCUMENTS)]
           + [(command, DOCUMENTS[command], "out_dir", "elsewhere")
              for command in sorted(DOCUMENTS)]
           + [("timescale", TIMESCALE, "e0", 7.0)]
           + [(command, dict(SIMULATE, initial={}), "initial.grid", GRID_SPEC)
              for command in ORBIT_COMMANDS]
           + [(command, CANONICAL, "integrator.z_epsilon", 1e-4) for command in ORBIT_COMMANDS]
           + [("timescale", dict(TIMESCALE, clock=clock), f"integrator.{key}", 0.5)
              for clock in ("t", "s") for key in ("t_max", "z_epsilon")]
           + [("simulate", edit(SIMULATE, ["potential"], {"family": "zero"}),
               "potential.lambda", 3.0),
              ("timescale", TIMESCALE, "potential.lambda", 2.0)]
           + [(command, edit(doc, ["potential"], {"family": "linear"}), "potential.alpha", 0.0)
              for command, doc in (("simulate", SIMULATE), ("timescale", TIMESCALE))]
           + [(command, doc, f"integrator.{key}", 0.5)
              for command, doc in (("simulate", DOCUMENTS["simulate"]),
                                   ("timescale", edit(TIMESCALE, ["integrator"],
                                                      {"method": "rk4_fixed", "step": 0.01})))
              for key in ("rel_tol", "abs_tol")])


@pytest.mark.parametrize("command,doc,key,value", REMOVED,
                         ids=[f"{c}-{k}-clock-{d['clock']}" if "clock" in d else f"{c}-{k}"
                              for c, d, k, _ in REMOVED])
def test_the_removed_settings_are_unknown_keys(tmp_path, capsys, command, doc, key, value):
    # the command line names the command and the output directory, E starts
    # on the zero level of H, a grid is the list of states it expands to, a
    # timescale horizon sets t_max and z_epsilon, a canonical structure has
    # no critical set for z_epsilon to bound, V = 0 reads no lambda, only the
    # general quadratic reads alpha and a fixed step reads no tolerance
    doc = edit(doc, key.split("."), value)
    with pytest.raises(ConfigError, match=f"^unknown key: {re.escape(key)}$"):
        parse_config(doc, command)
    assert run_main(tmp_path, command, json.dumps(doc)) == 2
    assert capsys.readouterr().err == f"config error: unknown key: {key}\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize("initial", [{}, [], 1.0, "states"],
                         ids=["mapping", "empty", "number", "string"])
def test_initial_is_a_nonempty_list_of_states(tmp_path, initial):
    doc = dict(SIMULATE, initial=initial)
    with pytest.raises(ConfigError, match="^initial must be a nonempty list of states$"):
        parse_config(doc, "simulate")
    assert run_main(tmp_path, "simulate", json.dumps(doc)) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(DOCUMENTS))
def test_the_output_directory_leaves_the_manifest_unchanged(tmp_path, capsys, command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(DOCUMENTS[command]))
    manifests = []
    for out in ("a", "b"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / out)]) == 0
        manifests.append((tmp_path / out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


# the defaults [0.0] and [1.0, 2.0] were one-component points, of the wrong
# length for dim 4 and on the critical set q1 = 0 for nontwisted_b
LIFT_SAMPLES = [
    ({"kind": "twisted_b", "dim": 4}, [[1.0, 1.0]], [[1.0, 1.0], [2.0, 1.0]]),
    ({"kind": "nontwisted_b", "dim": 2}, [1.0], [1.0, 2.0]),
]


@pytest.mark.parametrize("structure,bases,fibers", LIFT_SAMPLES,
                         ids=["twisted-4", "nontwisted-2"])
@pytest.mark.parametrize("given,missing", [({}, "base_points"),
                                           ({"base_points"}, "fiber_samples"),
                                           ({"fiber_samples"}, "base_points")])
def test_liftcheck_samples_are_required(tmp_path, capsys, structure, bases, fibers,
                                        given, missing):
    doc = {"structure": structure, "potential": {"family": "linear"}}
    samples = {"base_points": bases, "fiber_samples": fibers}
    partial = dict(doc, **{key: samples[key] for key in given})
    with pytest.raises(ConfigError, match=f"^{missing} section is required$"):
        parse_config(partial, "liftcheck")
    assert run_main(tmp_path, "liftcheck", json.dumps(partial)) == 2
    assert capsys.readouterr().err == f"config error: {missing} section is required\n"
    assert not (tmp_path / "out").exists()
    assert run_main(tmp_path, "liftcheck", json.dumps(dict(doc, **samples))) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "not_projectable"
