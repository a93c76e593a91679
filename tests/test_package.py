"""The package's export table: `import polycm` runs only the psi layer, and
each other public name loads its submodule on first access."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import polycm

PSI_LAYER = ["polycm", "polycm.checks", "polycm.errors", "polycm.evaluation", "polycm.polygamma"]
SUBMODULES = ["errors", "checks", "evaluation", "polygamma", "kernels", "cm_engine",
              "classifier", "inequalities", "cli"]


def _fresh_python(code: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter on this polycm."""
    src = os.path.dirname(os.path.dirname(polycm.__file__))
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()


def test_import_runs_only_the_psi_layer_until_a_name_is_used():
    out = _fresh_python(
        "import sys, polycm\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'polycm')\n"
        "print(loaded(), 'cm_check' in vars(polycm))\n"
        "polycm.cm_check\n"
        "print(loaded(), 'cm_check' in vars(polycm))\n"
    )
    assert out == [
        f"{PSI_LAYER} False",
        f"{sorted([*PSI_LAYER, 'polycm.cm_engine'])} True",
    ]


def test_every_export_is_its_submodules_object():
    assert polycm.__all__ == [*polycm._EXPORTS, "__version__"]
    for name, module in polycm._EXPORTS.items():
        assert getattr(polycm, name) is getattr(importlib.import_module(f"polycm.{module}"), name)


@pytest.mark.parametrize("order", [SUBMODULES, SUBMODULES[::-1]], ids=["forward", "reverse"])
def test_polygamma_stays_the_function_whatever_loads_after_it(order):
    # importing a submodule binds its name on the package, so the function
    # that shares the polygamma submodule's name must already be bound
    out = _fresh_python(
        "import importlib, sys, polycm\n"
        f"for name in {order!r}:\n"
        "    importlib.import_module('polycm.' + name)\n"
        "print(type(polycm.polygamma).__name__, "
        "polycm.polygamma is sys.modules['polycm.polygamma'].polygamma)\n"
    )
    assert out == ["function True"]


def test_dir_and_star_import_cover_every_export():
    assert set(polycm.__all__) <= set(dir(polycm))
    namespace: dict = {}
    exec("from polycm import *", namespace)
    for name in polycm.__all__:
        assert namespace[name] is getattr(polycm, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'polycm' has no attribute 'no_such_name'"):
        polycm.no_such_name
