"""The dense residual route: the defining relations of the realizations and
of the pseudo-Hermitian ladder system checked on their truncated matrices.

This is the tests' independent check of the series identities that
``dheis verify`` prints (deformed_algebra.commutator_residual_tilde and
commutator_residual_uzp, pseudo_hermitian.commutator_checks).  Commutators
with a ladder A scale rows and columns in O(N^2) (ladder_commutator), the
other products are dense, cosh, sinh and the reciprocal are Taylor sums in
dense matrix powers (fock_core.triangular_matrix_function, cut at
roundoff), and each residual is the largest guarded norm of its three
blocks (max_guarded_norm): O(N^3) throughout.
"""

import cmath
import math

import numpy as np

from deformed_heisenberg import fock_core
from deformed_heisenberg.deformed_algebra import exp_coefficients
from deformed_heisenberg.errors import BadParams
from deformed_heisenberg.fock_core import (creation, guarded_block,
                                           triangular_matrix_function)


# Taylor data f^(m)(alpha)/m! for the matrix route; a real alpha gives real
# data

def _cosh_sinh_at(alpha):
    m = cmath if isinstance(alpha, complex) else math
    return m.cosh(alpha), m.sinh(alpha)


def cosh_series(alpha, n):
    c, s = _cosh_sinh_at(alpha)
    return [(c if m % 2 == 0 else s) * t
            for m, t in enumerate(exp_coefficients([0.0, 1.0], n))]


def sinh_series(alpha, n):
    c, s = _cosh_sinh_at(alpha)
    return [(s if m % 2 == 0 else c) * t
            for m, t in enumerate(exp_coefficients([0.0, 1.0], n))]


def recip_series(alpha, n):
    """Coefficients of 1/(alpha + x)."""
    return [(-1) ** m / alpha ** (m + 1) for m in range(n)]


# the largest spread of a diagonal that nilpotent_part takes as constant
DIAGONAL_TOL = 1e-12


def nilpotent_part(M):
    """Split M = alpha I + K with K strictly triangular; the diagonal must be
    constant (to DIAGONAL_TOL).  alpha is a Python float for a real M,
    complex otherwise."""
    d = np.diag(M)
    alpha = d[0].item()
    if np.max(np.abs(d - alpha)) > DIAGONAL_TOL:
        raise BadParams("matrix diagonal is not constant; cannot split off "
                        "scalar part")
    K = M - alpha * np.eye(M.shape[0], dtype=M.dtype)
    np.fill_diagonal(K, 0.0)
    return alpha, K


def apply_series(series_fn, M):
    """f(M) for M = alpha I + nilpotent, with f's Taylor data from
    series_fn(alpha, N)."""
    alpha, K = nilpotent_part(M)
    return triangular_matrix_function(series_fn(alpha, M.shape[0]), K)


def cosh_sinh(M):
    """(cosh M, sinh M) for M = alpha I + nilpotent, from one table of
    powers."""
    alpha, K = nilpotent_part(M)
    n = M.shape[0]
    return triangular_matrix_function([cosh_series(alpha, n),
                                       sinh_series(alpha, n)], K)


def ladder_commutator(A, X):
    """A X - X A.  For a ladder A (-a+ or a: one nonzero diagonal, next to
    the main one) each entry of A X and of X A is a single product, so row
    and column scalings by that diagonal give the dense products' values in
    O(N^2).  Any other A takes the dense products."""
    off = -1 if np.diagonal(A, -1).any() else 1
    d = np.diagonal(A, off)
    if np.count_nonzero(A) != np.count_nonzero(d):
        return A @ X - X @ A
    # A X moves row src of X to row dst; X A moves column dst to column src
    src, dst = ((slice(None, -1), slice(1, None)) if off < 0
                else (slice(1, None), slice(None, -1)))
    out = np.zeros(X.shape, dtype=np.result_type(A, X))
    out[dst] = d[:, None] * X[src]
    out[:, src] -= X[:, dst] * d
    return out


def uzp_residual_blocks(triple, params):
    """Residual matrices of the two-parameter defining relations:

        [A,B],   [B,C] + (2z/p^2)(cosh pB - 1),   [A,C] - (1/p) sinh pB.
    """
    z, p = params.z, params.p
    A, B, C = triple.A, triple.B, triple.C
    cosh_pB, sinh_pB = cosh_sinh(p * B)
    return (ladder_commutator(A, B),
            B @ C - C @ B + (2 * z / p ** 2) * (cosh_pB - np.eye(len(B))),
            ladder_commutator(A, C) - sinh_pB / p)


def tilde_residual_blocks(triple, params):
    """Residual matrices [A,B], [B,C] + z B^2, [A,C] - B."""
    z = params.z
    A, B, C = triple.A, triple.B, triple.C
    return (ladder_commutator(A, B), B @ C - C @ B + z * (B @ B),
            ladder_commutator(A, C) - B)


def pseudo_commutator_blocks(sys):
    """Residual matrices [H,A]+A, [H,a+]-a+, [A,a+]-1 of a
    pseudo_hermitian.PseudoHermitianSystem."""
    ad = creation(sys.cfg)
    H, A = sys.H, sys.A_op
    return (H @ A - A @ H + A, H @ ad - ad @ H - ad,
            A @ ad - ad @ A - np.eye(sys.cfg.dim))


# relative slack between the norm bounds of max_guarded_norm, far above the
# rounding of the bounds and of the SVD
_BOUND_SLACK = 1e-8


def max_guarded_norm(mats, cfg):
    """max(guarded_norm(M, cfg) for M in mats), with an SVD only for the
    matrices that can attain it.

    A guarded block's spectral norm lies between its largest column norm and
    its Frobenius norm, both O(N^2) against the SVD's O(N^3).  A block whose
    Frobenius norm stays below the largest column norm of any block cannot
    be the largest, so it gets no SVD; the block with that column norm
    always does, and the result is its guarded_norm, bit for bit.  When a
    bound is inf or nan, or every column norm is below 1e-100 (where the
    squares lose entries to underflow), every block gets its SVD.  A block
    with a nan entry then raises numpy.linalg.LinAlgError ("SVD did not
    converge"); one with an inf entry has a nan norm, and that nan is the
    result: Python's max would drop it unless it came first.  Each SVD goes
    through fock_core.guarded_norm.
    """
    blocks = [guarded_block(M, cfg) for M in mats]
    upper = [float(np.linalg.norm(b)) for b in blocks]
    lower = max(float(np.linalg.norm(b, axis=0).max()) for b in blocks)
    if not (np.isfinite(upper).all() and lower >= 1e-100):
        return float(np.max([fock_core.guarded_norm(M, cfg) for M in mats]))
    return max(fock_core.guarded_norm(M, cfg) for M, f in zip(mats, upper)
               if f >= (1 - _BOUND_SLACK) * lower)


def residual_uzp(triple, params, cfg):
    """Largest guarded norm of the three uzp_residual_blocks."""
    return max_guarded_norm(uzp_residual_blocks(triple, params), cfg)


def residual_tilde(triple, params, cfg):
    """Largest guarded norm of the three tilde_residual_blocks."""
    return max_guarded_norm(tilde_residual_blocks(triple, params), cfg)
