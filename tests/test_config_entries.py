"""Numeric list entries of a config are checked when it is parsed.

A non-numeric entry, or a boolean read as a number, is a configuration error
naming the entry's path (exit code 2); a non-finite initial state is still a
per-record failure (exit code 1).
"""

import copy
import json
import re

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
