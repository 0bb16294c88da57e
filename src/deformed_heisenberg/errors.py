"""Error taxonomy shared by all modules.

Exceptions mark a result the package will not return: bad parameters, a
series that did not converge, a state with no finite norm, a metric too
ill-conditioned to use.  cli.EXIT_CODES gives the exit code of each.  The two
Warning subclasses flag evaluations that are well-defined but numerically
delicate (convergence phase windows, branch cuts) without aborting.
"""


class DeformedHeisenbergError(Exception):
    """Base class for all package errors."""


class TailTooHeavy(DeformedHeisenbergError):
    """State carries too much norm in the guard band of the truncation."""


class NotNilpotent(DeformedHeisenbergError):
    """A strictly-triangular (nilpotent) matrix was required."""


class ZeroNorm(DeformedHeisenbergError):
    """Attempted to normalize a numerically zero vector."""


class BadParams(DeformedHeisenbergError):
    """Parameter set violates a constructor precondition."""


class SingularCosh(DeformedHeisenbergError):
    """cosh factor in the basis change is numerically non-invertible."""


class NotConverged(DeformedHeisenbergError):
    """An adaptively truncated series failed to reach the requested tolerance."""


class NonNormalizable(DeformedHeisenbergError):
    """Requested state has no finite norm (e.g. |mu| >= 1 squeezed symbol)."""


class IllConditioned(DeformedHeisenbergError):
    """The metric eta = (G^-1)+ G^-1 is too ill-conditioned for the similarity
    transform: cond(eta) exceeds the limit, or G^-1 leaves the float range."""


class PhaseWindow(UserWarning):
    """Eigenvalue phase lies outside the known convergence window of the series."""


class BranchCut(UserWarning):
    """Evaluation point is close to a principal-branch cut of log / arcsinh."""
