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

The package exports no names: each is imported from the module that defines
it (fock_core, deformed_algebra, aes_series, errors, ...).  Importing the
package loads nothing, not even numpy, so ``python -m deformed_heisenberg.cli``
reaches the cli module before numpy loads (see its docstring).
"""
