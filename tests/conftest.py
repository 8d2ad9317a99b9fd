"""Helpers shared by the test modules."""

import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_python(args, **kwargs):
    """``subprocess.run`` of a child interpreter on this checkout: ``args``
    follow the interpreter, ``src`` is the ``PYTHONPATH`` and the output is
    captured as text."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, **kwargs)
