"""The manifest records of the CLI and the files derived from them.

Every command writes one manifest record per initial state, with the status
``ok`` or ``error: <Type>: <msg>``, and a failing record never stops the
others.  The side files of ``portrait``, ``classify`` and ``oracle-compare``
are projections of those records.  The manifest holds no seed and the CLI
takes no ``--seed``.  Every function the benchmark tracer wraps must exist
under the name it looks up.
"""

import importlib
import importlib.util
import json
import math
import pathlib
import re

import pytest
from conftest import run_python

from bhamsys.cli import main

STOKES = {
    "structure": {"kind": "twisted_b", "dim": 2},
    "potential": {"family": "linear", "lambda": 1.0},
    "initial": [[0.0, 1.0]],
    "integrator": {"step": 0.01, "t_max": 2.0},
}
TIMESCALE = {"potential": {"family": "zero"}, "friction": 1.0, "horizon": 1.0,
             "initial": [0.0, 1.0]}
ERROR = re.compile(r"error: [A-Za-z]\w*: \S")


def run_main(tmp_path, command, doc, *flags):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))  # math.inf is written as Infinity
    out = tmp_path / "out"
    return main([command, "--config", str(path), "--out", str(out), *flags]), out


def read(out, name):
    return json.loads((out / name).read_text())


def without(records, *keys):
    return [{k: v for k, v in record.items() if k not in keys} for record in records]


PROJECTIONS = [
    ("portrait", "portrait.json", lambda records: without(records, "status", "event")),
    ("classify", "classifications.json", lambda records: without(records, "index")),
    ("oracle-compare", "summary.json",
     lambda records: without([r for r in records if r["status"] == "ok"], "index", "status")),
]


@pytest.mark.parametrize("command,name,projection", PROJECTIONS, ids=[p[0] for p in PROJECTIONS])
def test_side_file_is_a_projection_of_the_records(tmp_path, command, name, projection):
    doc = dict(STOKES, initial=[[0.0, 1.0], [math.inf, 1.0]])
    code, out = run_main(tmp_path, command, doc)
    assert code == 1
    records = read(out, "manifest.json")["records"]
    assert [r["status"] == "ok" for r in records] == [True, False]
    assert read(out, name) == projection(records)


def test_a_failed_portrait_record_lists_no_files(tmp_path):
    code, out = run_main(tmp_path, "portrait", dict(STOKES, initial=[[math.inf, 1.0]]))
    assert code == 1
    (record,) = read(out, "manifest.json")["records"]
    assert record["files"] == []
    assert record["classification"] == {"kind": "undetermined"}
    assert "event" not in record


FAILING = [
    ("simulate", dict(STOKES, initial=[[math.inf, 1.0]])),
    ("portrait", dict(STOKES, initial=[[math.inf, 1.0]])),
    ("classify", dict(STOKES, initial=[[math.inf, 1.0]])),
    ("oracle-compare", dict(STOKES, initial=[[math.inf, 1.0]])),
    ("timescale", dict(TIMESCALE, initial=[math.inf, 1.0])),
    # the run itself raises: the momentum v0 / friction of a finite v0 overflows
    ("timescale", dict(TIMESCALE, friction=0.5, initial=[0.0, 1e308])),
]


@pytest.mark.parametrize("command,doc", FAILING, ids=[f"{c}-{i}" for i, (c, _) in enumerate(FAILING)])
def test_every_error_record_names_its_exception(tmp_path, command, doc):
    code, out = run_main(tmp_path, command, doc)
    assert code == 1
    (record,) = read(out, "manifest.json")["records"]
    assert ERROR.match(record["status"]), record["status"]
    assert record["index"] == 0


def test_an_overflowing_initial_momentum_names_v0_without_a_warning(tmp_path):
    # p0 = v0 e^{friction t0} / friction overflows; the CLI runs in its own
    # interpreter, so a numpy RuntimeWarning would reach its stderr
    (tmp_path / "run.json").write_text(json.dumps(dict(TIMESCALE, friction=0.5,
                                                       initial=[0.0, 1e308])))
    code = "import sys\nfrom bhamsys.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    out = run_python(["-c", code, "timescale", "--config", str(tmp_path / "run.json"),
                      "--out", str(tmp_path / "out")], timeout=120)
    assert out.returncode == 1
    (record,) = read(tmp_path / "out", "manifest.json")["records"]
    assert record["status"].startswith("error: ValueError: ")
    assert "v0" in record["status"]
    assert "RuntimeWarning" not in out.stderr


@pytest.mark.parametrize("command,name", [("simulate", "traj_000.csv"),
                                          ("portrait", "traj_000_forward.csv")])
def test_a_record_whose_files_cannot_be_written_fails_alone(tmp_path, command, name):
    (tmp_path / "out" / name).mkdir(parents=True)  # a directory where the CSV goes
    code, out = run_main(tmp_path, command, dict(STOKES, initial=[[0.0, 1.0], [0.5, 1.0]]))
    assert code == 1
    first, second = read(out, "manifest.json")["records"]
    assert first["status"].startswith("error: IsADirectoryError: ")
    assert second["status"] == "ok"


def test_the_manifest_holds_no_seed(tmp_path):
    code, out = run_main(tmp_path, "simulate", STOKES)
    assert code == 0
    assert set(read(out, "manifest.json")) == {"command", "config_sha256", "version",
                                               "records"}


def test_there_is_no_seed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_main(tmp_path, "simulate", STOKES, "--seed", "1")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--friction", "--family", "--clock", "--horizon"])
def test_a_timescale_setting_is_no_flag(tmp_path, capsys, flag):
    # every command takes --config and --out alone; the document is the whole input
    with pytest.raises(SystemExit) as exit_:
        run_main(tmp_path, "timescale", STOKES, flag, "1")
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_every_name_the_tracer_wraps_exists():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for targets in tracer._FUNCTIONS.values():
        for module, attr in targets:
            if not callable(getattr(importlib.import_module(module), attr, None)):
                missing.append(f"{module}.{attr}")
    for targets in tracer._METHODS.values():
        for module, cls, attr in targets:
            owner = getattr(importlib.import_module(module), cls, None)
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{module}.{cls}.{attr}")
    assert missing == []
