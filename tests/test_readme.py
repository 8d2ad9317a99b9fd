"""README's examples run against the current API: its two Python blocks in
order, in one namespace, and its configuration documents through
``parse_config``."""

import json
import math
import pathlib
import re

from bhamsys.cli import parse_config
from bhamsys.integrate import EventKind
from bhamsys.orbits import OrbitKind

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_the_python_examples_run_in_order(capsys):
    python = blocks("python")
    assert len(python) == 2
    namespace = {}
    for source in python:
        exec(compile(source, "README.md", "exec"), namespace)
    traj = namespace["traj"]
    assert traj.terminal_event.kind is EventKind.REACHED_Z
    assert math.isclose(traj.terminal_event.time, 18.42, abs_tol=5e-3)
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == str(OrbitKind.ESCAPE_ORBIT)
    forward, backward = namespace["forward"], namespace["backward"]
    assert len(forward) == len(backward) == 6
    assert all(run.direction == -1 for run in backward)


def test_the_configuration_examples_parse():
    simulate, timescale = map(json.loads, blocks("json"))
    cfg = parse_config(simulate, "simulate")
    assert cfg.structure.n == 1
    cfg = parse_config(timescale, "timescale")
    assert (cfg.friction, cfg.clock, cfg.horizon) == (0.2, "t", 10.0)
