"""The package namespace is lazy: importing the package loads nothing until a
name of __all__ is used, and each name is its home module's object."""

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
NAMES = [name for names in HOMES.values() for name in names]


def test_all_lists_31_names():
    assert len(NAMES) == 31
    assert sorted(deformed_heisenberg.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOMES.items()
                                          for n in names])
def test_each_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"deformed_heisenberg.{module}")
    assert getattr(deformed_heisenberg, name) is getattr(home, name)


def test_star_import_binds_every_name():
    ns = {}
    exec("from deformed_heisenberg import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(NAMES)
    for name in NAMES:
        assert ns[name] is getattr(deformed_heisenberg, name)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(deformed_heisenberg))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        deformed_heisenberg.nope
    assert not hasattr(deformed_heisenberg, "nope")


_IMPORT = """
import gc, importlib, sys
if sys.argv[2] == "off":
    gc.disable()
importlib.import_module(sys.argv[1])
print("numpy" in sys.modules, gc.isenabled())
"""


@pytest.mark.parametrize("collector", ["on", "off"])
@pytest.mark.parametrize("module, numpy", [("deformed_heisenberg", False),
                                           ("deformed_heisenberg.cli", True)])
def test_import_leaves_the_collector_as_found(module, numpy, collector):
    # only `python -m deformed_heisenberg.cli` pauses the collector; the bare
    # package loads not even numpy.  The test process has both loaded, so
    # this runs in a fresh interpreter
    src = os.path.dirname(os.path.dirname(deformed_heisenberg.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT, module, collector],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{numpy} {collector == 'on'}\n"
