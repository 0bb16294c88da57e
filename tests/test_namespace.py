"""The package imports nothing: each name is imported from the module that
defines it, and no import of the package or its modules loads numpy."""

import importlib
import os
import subprocess
import sys

import pytest

import deformed_heisenberg

# every public name and its home module
HOMES = {
    "deformed_algebra": [
        "AlgebraTriple", "DeformationParams", "RealizationKind",
        "build_realization", "commutator_residual_tilde",
        "commutator_residual_uzp", "tilde_basis_change"],
    "errors": [
        "BadParams", "BranchCut", "DeformedHeisenbergError",
        "IllConditioned", "NonNormalizable", "NotConverged", "NotNilpotent",
        "PhaseWindow", "SingularCosh", "TailTooHeavy", "ZeroNorm"],
    "fock_core": [
        "TruncationConfig", "annihilation", "coherent_state", "creation",
        "displacement_operator", "expectation", "guarded_norm",
        "inner_product", "norm", "normalize", "number_operator",
        "squeeze_operator", "vacuum"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOMES.items()
                                          for n in names])
def test_each_name_is_its_home_modules_object(module, name):
    # the home module defines the name, and the package does not serve it
    home = importlib.import_module(f"deformed_heisenberg.{module}")
    assert getattr(home, name).__module__ == home.__name__
    assert not hasattr(deformed_heisenberg, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        deformed_heisenberg.nope
    assert not hasattr(deformed_heisenberg, "nope")


# prints whether numpy is loaded, whether the collector is on, and the public
# names of the package other than its loaded submodules
_IMPORT = """
import gc, importlib, sys
if sys.argv[2] == "off":
    gc.disable()
importlib.import_module(sys.argv[1])
pkg = "deformed_heisenberg"
print("numpy" in sys.modules, gc.isenabled(),
      [n for n in dir(sys.modules[pkg]) if not n.startswith("_")
       and f"{pkg}.{n}" not in sys.modules])
"""


@pytest.mark.parametrize("collector", ["on", "off"])
@pytest.mark.parametrize("module, numpy", [("deformed_heisenberg", False),
                                           ("deformed_heisenberg.cli", False)])
def test_import_leaves_the_collector_as_found(module, numpy, collector):
    # only `python -m deformed_heisenberg.cli` pauses the collector; neither
    # the bare package nor cli, which loads every module, loads numpy: each
    # function that uses it imports it.  The test process has both loaded,
    # so this runs in a fresh interpreter
    src = os.path.dirname(os.path.dirname(deformed_heisenberg.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT, module, collector],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{numpy} {collector == 'on'} []\n"

