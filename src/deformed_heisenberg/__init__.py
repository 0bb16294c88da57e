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
package loads nothing, and no module imports numpy at load time: each
function that uses numpy imports it.  So ``dheis state``, whose kernels are
plain Python, never loads numpy, and the other subcommands load it in
cli.run (see the cli docstring).
"""
