"""Numeric list entries of a config are checked when it is parsed.

A non-numeric entry, or a boolean read as a number, is a configuration error
naming the entry's path (exit code 2); a non-finite initial state is still a
per-record failure (exit code 1).  So are the values that parse but would
crash the run: a non-finite number outside the initial states, a liftcheck
sample on the critical set or of the wrong length, a non-integer
``singular_index`` and a non-object ``potential`` under ``--family``.
"""

import copy
import json
import re

import numpy as np
import pytest

from bhamsys.cli import ConfigError, main, parse_config

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


@pytest.mark.parametrize("potential", [5, [], "zero"])
def test_family_flag_on_a_non_object_potential(tmp_path, capsys, potential):
    text = json.dumps(dict(TIMESCALE, potential=potential))
    assert run_main(tmp_path, "timescale", text, "--family", "linear") == 2
    assert "config error: potential must be a JSON object" in capsys.readouterr().err
