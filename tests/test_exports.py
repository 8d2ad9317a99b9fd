"""Every public name resolves: each module's ``__all__`` names only what the
module defines, and the package's own imports succeed.  A stale export of a
deleted name fails here, in a fresh interpreter, rather than at a user's
``import *``."""

import pkgutil

import pytest
from conftest import SRC, run_python

MODULES = sorted(m.name for m in pkgutil.iter_modules([f"{SRC}/bhamsys"]))


def test_every_module_is_listed():
    assert MODULES == ["cli", "geometry", "hamiltonians", "integrate", "liftcheck",
                       "oracles", "orbits", "timescale"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_and_the_package_import(module):
    # sys.modules, since the package binds the name integrate to the function
    code = (f"from bhamsys.{module} import *\n"
            "import sys, bhamsys\n"
            f"m = sys.modules['bhamsys.{module}']\n"
            "assert m.__all__ and all(name in globals() for name in m.__all__)\n")
    out = run_python(["-c", code], timeout=60)
    assert out.returncode == 0, out.stderr
