"""Deformed quantum Heisenberg algebras on truncated Fock spaces.

Realizations of the one- and two-parameter deformed Heisenberg algebras in
terms of oscillator operators, their algebra eigenstates (deformed coherent
and squeezed states), exact nilpotent-variable calculus, quadrature dispersion
analysis, and the associated pseudo-Hermitian ladder Hamiltonian — all backed
by brute-force matrix checks on truncated Fock spaces.
"""

from .deformed_algebra import (AlgebraTriple, DeformationParams,
                               RealizationKind, build_realization,
                               commutator_residual_tilde,
                               commutator_residual_uzp, tilde_basis_change)
from .errors import (BadParams, BranchCut, DeformedHeisenbergError,
                     IllConditioned, NonNormalizable, NotConverged,
                     NotNilpotent, PhaseWindow, SingularCosh,
                     TailTooHeavy, ZeroNorm)
from .fock_core import (TruncationConfig, annihilation, coherent_state,
                        creation, displacement_operator, expectation,
                        guarded_norm, inner_product, norm, normalize,
                        number_operator, squeeze_operator, vacuum)

__all__ = [
    "AlgebraTriple", "DeformationParams", "RealizationKind",
    "build_realization", "commutator_residual_tilde",
    "commutator_residual_uzp", "tilde_basis_change",
    "BadParams", "BranchCut", "DeformedHeisenbergError", "IllConditioned",
    "NonNormalizable", "NotConverged", "NotNilpotent", "PhaseWindow",
    "SingularCosh", "TailTooHeavy", "ZeroNorm",
    "TruncationConfig", "annihilation", "coherent_state", "creation",
    "displacement_operator", "expectation", "guarded_norm", "inner_product",
    "norm", "normalize", "number_operator", "squeeze_operator", "vacuum",
]
