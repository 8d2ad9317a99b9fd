"""Numeric list entries of a config are checked when it is parsed.

A non-numeric entry, or a boolean read as a number, is a configuration error
naming the entry's path (exit code 2); a non-finite initial state is still a
per-record failure (exit code 1), and its manifest entry holds the value as
the string ``"inf"``, ``"-inf"`` or ``"nan"``, so every artifact stays
standard JSON.  The values that parse but would crash or never end the run
are configuration errors too: a non-finite number outside the initial
states, a liftcheck sample on the critical set or of the wrong length, a
non-integer ``singular_index``, a boolean where an integer belongs
(``potential.axis``, ``n``, a grid's ``count``, ``structure.dim``), a grid
range whose ends or span are not finite, a grid of more than
``MAX_GRID_STATES`` states, a fixed-step run of more than
``MAX_FIXED_STEPS`` steps, a fixed ``timescale`` step that does not fit the
horizon, which is the run's ``t_max``, and a clock-s horizon whose
``z_epsilon`` underflows to 0.  An adaptive step is only a first guess and
fits any horizon.
"""

import copy
import json
import math
import re
import warnings

import numpy as np
import pytest

from bhamsys.cli import MAX_FIXED_STEPS, MAX_GRID_STATES, ConfigError, main, parse_config
from bhamsys.hamiltonians import PotentialSpec
from bhamsys.timescale import run_s_coordinates

SIMULATE = {
    "structure": {"kind": "twisted_b", "dim": 2},
    "potential": {"family": "linear", "lambda": 1.0},
    "initial": [[0.0, 1.0]],
}
GRID = dict(SIMULATE, initial={"grid": {"q": {"start": -1.0, "stop": 1.0, "count": 3},
                                        "p": {"values": [1.0, -1.0]}}})
TIMESCALE = {"potential": {"family": "zero"}, "friction": 1.0, "horizon": 1.0,
             "initial": [0.0, 1.0]}
LIFTCHECK = {"structure": {"kind": "twisted_b", "dim": 4},
             "potential": {"family": "linear", "lambda": 1.0},
             "base_points": [[0.0, 1.0]], "fiber_samples": [[1.0, 1.0], [2.0, 1.0]]}


def edit(doc, path, value):
    doc = copy.deepcopy(doc)
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return doc


CASES = [
    ("simulate", SIMULATE, ("initial", 0, 0), "initial[0][0]"),
    ("simulate", SIMULATE, ("initial", 0, 1), "initial[0][1]"),
    ("portrait", GRID, ("initial", "grid", "q", "start"), "initial.grid.q.start"),
    ("portrait", GRID, ("initial", "grid", "q", "stop"), "initial.grid.q.stop"),
    ("portrait", GRID, ("initial", "grid", "p", "values", 1), "initial.grid.p.values[1]"),
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
    ("timescale", TIMESCALE, ("e0",), "config.e0"),
    ("liftcheck", LIFTCHECK, ("base_points", 0, 1), "base_points[0][1]"),
    ("liftcheck", LIFTCHECK, ("tol",), "config.tol"),
]


@pytest.mark.parametrize("command,doc,path,where", PARAMETERS, ids=[c[3] for c in PARAMETERS])
def test_non_finite_parameters_name_their_path(command, doc, path, where):
    text = json.dumps(edit(doc, path, float("inf")))
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be finite$"):
        parse_config(text, command)


@pytest.mark.parametrize("start,stop,where", [
    (-1e308, 1e308, r"initial\.grid\.q: stop - start must be finite"),
    (1e308, -1e308, r"initial\.grid\.q: stop - start must be finite"),
    (-math.inf, 1.0, r"initial\.grid\.q\.start must be finite"),
    (0.0, math.nan, r"initial\.grid\.q\.stop must be finite"),
], ids=["span-overflows", "negative-span-overflows", "infinite-start", "nan-stop"])
def test_a_grid_range_must_have_a_finite_span(tmp_path, capsys, start, stop, where):
    # the ends are finite, yet linspace's step overflows: before, the states
    # were nan, inf and 1e308, with two numpy RuntimeWarnings
    doc = edit(edit(GRID, ("initial", "grid", "q", "start"), start),
               ("initial", "grid", "q", "stop"), stop)
    with pytest.raises(ConfigError, match=f"^{where}"):
        parse_config(doc, "portrait")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(tmp_path, "portrait", json.dumps(doc)) == 2
    assert re.search(where, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("q,p", [
    ({"start": 0.0, "stop": 1.0, "count": MAX_GRID_STATES + 1}, {"values": [1.0]}),
    ({"values": [0.0, 1.0]}, {"start": 0.0, "stop": 1.0, "count": MAX_GRID_STATES // 2 + 1}),
    ({"start": 0.0, "stop": 1.0, "count": 1000},
     {"start": 0.0, "stop": 1.0, "count": MAX_GRID_STATES // 1000 + 1}),
], ids=["q-count", "values-times-count", "count-times-count"])
def test_grids_are_bounded_before_they_are_built(tmp_path, capsys, monkeypatch, q, p):
    def no_linspace(*args):
        raise AssertionError("the grid was expanded before its size was checked")
    monkeypatch.setattr(np, "linspace", no_linspace)
    doc = dict(SIMULATE, initial={"grid": {"q": q, "p": p}})
    where = r"^initial\.grid\.q x initial\.grid\.p: \d+ x \d+ states exceed the 100000"
    with pytest.raises(ConfigError, match=where):
        parse_config(doc, "portrait")
    assert run_main(tmp_path, "portrait", json.dumps(doc)) == 2
    assert "config error: initial.grid.q x initial.grid.p" in capsys.readouterr().err
    # a grid of MAX_GRID_STATES states passes the check (expanded short here)
    monkeypatch.setattr(np, "linspace", lambda start, stop, count: [start, stop])
    doc = dict(SIMULATE, initial={"grid": {"q": {"start": 0.0, "stop": 1.0, "count": 1000},
                                           "p": {"start": 0.0, "stop": 1.0,
                                                 "count": MAX_GRID_STATES // 1000}}})
    assert len(parse_config(doc, "portrait").initials) == 4


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
    ("portrait", edit(GRID, ("initial", "grid", "q", "count"), True), "initial.grid.q.count"),
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
    with pytest.raises(ConfigError, match=r"^integrator: step must be smaller than t_max"):
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
    # t_max allows two steps, but the run replaces it by its horizon 1 and
    # would take 1e9 steps
    doc = dict(TIMESCALE, integrator={"method": "rk4_fixed", "step": 1e-9, "t_max": 2e-9})
    with pytest.raises(ConfigError, match=r"^integrator\.step: .*10000000 fixed steps"):
        parse_config(doc, "timescale")
    for clock in ("t", "s"):
        assert run_main(tmp_path, "timescale", json.dumps(dict(doc, clock=clock))) == 2
        assert "config error: integrator.step" in capsys.readouterr().err
    # 1e7 steps fit the bound, 2e7 do not; an adaptive run chooses its own
    parse_config(dict(TIMESCALE, integrator={"method": "rk4_fixed", "step": 1e-7,
                                             "t_max": 1e-6}), "timescale")
    with pytest.raises(ConfigError, match=r"^integrator\.step"):
        parse_config(dict(TIMESCALE, integrator={"method": "rk4_fixed", "step": 5e-8,
                                                 "t_max": 1e-6}), "timescale")
    parse_config(dict(TIMESCALE, integrator={"method": "rk_adaptive", "step": 1e-9,
                                             "t_max": 2e-9}), "timescale")


def test_a_timescale_step_is_not_bounded_by_the_t_max_it_discards(tmp_path):
    # the default t_max 20 / step is 2e8 steps, but the run takes 1e7 over
    # its horizon, which is the parsed t_max
    integrator = {"method": "rk4_fixed", "step": 1e-7}
    cfg = parse_config(dict(TIMESCALE, integrator=integrator), "timescale")
    assert cfg.integrator.t_max == TIMESCALE["horizon"]
    with pytest.raises(ConfigError, match=r"^integrator\.t_max: "):
        parse_config(dict(SIMULATE, integrator=integrator), "simulate")
    # a step past t_max that fits the horizon 1 runs; the discarded t_max
    # is still checked as a number
    integrator = {"method": "rk4_fixed", "step": 0.5, "t_max": 0.1}
    for clock in ("t", "s"):
        doc = dict(TIMESCALE, clock=clock, integrator=integrator)
        assert run_main(tmp_path, "timescale", json.dumps(doc)) == 0
    with pytest.raises(ConfigError, match=r"^integrator: step must be smaller than t_max"):
        parse_config(dict(SIMULATE, integrator=integrator), "simulate")
    with pytest.raises(ConfigError, match=r"^integrator\.t_max must be > 0"):
        parse_config(dict(TIMESCALE, integrator=dict(integrator, t_max=-0.1)), "timescale")


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
    # friction 1, horizon 1: the run's t_max is 1, whatever the section says
    doc = dict(TIMESCALE, integrator={"method": method, "step": 1.5, "t_max": 2.0})
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
    with pytest.raises(ConfigError, match=r"^integrator\.step must be smaller than the "
                                          r"horizon 1\.0, got 1\.5"):
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
