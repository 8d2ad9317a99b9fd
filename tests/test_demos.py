"""Every script in ``demos/`` runs to completion against the current API."""

import pathlib

import pytest
from conftest import run_python

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    out = run_python([str(demo)], cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
