"""Deformed quantum Heisenberg algebras on truncated Fock spaces.

Realizations of the one- and two-parameter deformed Heisenberg algebras in
terms of oscillator operators, their algebra eigenstates (deformed coherent
and squeezed states), exact nilpotent-variable calculus, quadrature dispersion
analysis, and the associated pseudo-Hermitian ladder Hamiltonian — all backed
by brute-force matrix checks on truncated Fock spaces.

Records are typing.NamedTuple classes, and the value types that check their
arguments (TruncationConfig, DeformationParams, GrassmannODESpec) are
NamedTuple subclasses with a validating __new__; QC and NilpotentPoly, which
carry ring arithmetic, are __slots__ classes.

The namespace is lazy (PEP 562): importing the package loads nothing, not
even numpy, until a name of __all__ is used; each name then comes from its
home module, which is imported on that first use.  So ``python -m
deformed_heisenberg.cli`` reaches the cli module before numpy loads (see its
docstring).
"""

# each public name's home module
_HOMES = {
    "deformed_algebra": (
        "AlgebraTriple", "DeformationParams", "RealizationKind",
        "build_realization", "commutator_residual_tilde",
        "commutator_residual_uzp", "tilde_basis_change"),
    "errors": (
        "BadParams", "BranchCut", "DeformedHeisenbergError", "IllConditioned",
        "NonNormalizable", "NotConverged", "NotNilpotent", "PhaseWindow",
        "SingularCosh", "TailTooHeavy", "ZeroNorm"),
    "fock_core": (
        "TruncationConfig", "annihilation", "coherent_state", "creation",
        "displacement_operator", "expectation", "guarded_norm",
        "inner_product", "norm", "normalize", "number_operator",
        "squeeze_operator", "vacuum"),
}

__all__ = [name for names in _HOMES.values() for name in names]

_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value             # later uses skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
