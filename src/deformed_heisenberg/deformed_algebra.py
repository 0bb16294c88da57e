"""Boson realizations of the deformed oscillator algebras and residual checks.

Two families are covered: the one-parameter algebra with relations

    [A, B] = 0,   [B, C] = -z B^2,      [A, C] = B        (tilde form)

and the two-parameter algebra with

    [A, B] = 0,   [B, C] = -(2z/p^2)(cosh(pB) - 1),   [A, C] = (1/p) sinh(pB).

The realizations are power series in a+ (or a, by transposition with z -> -z)
built by fock_core.series_operator.  Each coefficient list comes from one
O(N^2) recurrence on its series' own ODE, J. C. P. Miller's (_miller):
w' = u' w for e^{u(x)} and u w' = c u' w for u(x)^c, no series composition.
The linear exponent e^{zx}, most of the calls, keeps a scalar loop with its
bits (_exp_linear): numpy's one-term dot products cost more than the sums.
z and p are real, so every realization is a float64 triple; its ladder
factor a (or a+) scales columns (rows) in O(N^2) instead of a dense
product, and so do the commutators [A, B] and [A, C] with the ladder
A = -a+ (or a) in the residual checks.  Those checks apply cosh, sinh and
the reciprocal to the matrices by an independent route, their Taylor sums
in dense matrix powers (triangular_matrix_function, Paterson-Stockmeyer, cut
at roundoff), in real arithmetic; cosh and sinh of one matrix share one
table of its powers.

tilde_residual_blocks and uzp_residual_blocks give each family's three
residual matrices.  commutator_residual_tilde and commutator_residual_uzp
return the largest of their guarded norms, the residual ``dheis verify``
prints, through fock_core.max_guarded_norm: one SVD per realization where
the three norms would take three.

numpy is imported by each function that uses it, so that importing this
module loads no numpy: DeformationParams, which ``dheis state`` builds,
needs none.
"""

import cmath
import math
from enum import Enum
from typing import NamedTuple

from .errors import BadParams, NotNilpotent, SingularCosh
from .fock_core import (TruncationConfig, max_guarded_norm,
                        series_operator, triangular_matrix_function)


class DeformationParams(NamedTuple("DeformationParams",
                                   [("z", float), ("p", float), ("lam", complex),
                                    ("mu", complex), ("nu", complex)])):
    """Deformation scalars z, p (real) and the linear-combination coefficients
    lam, mu, nu (complex), with polar accessors:

        mu = delta e^{i phi},  lam = beta e^{i theta},  nu = -gamma e^{i eta_phase}.
    """

    __slots__ = ()

    def __new__(cls, z=0.0, p=0.0, lam=0.0, mu=0.0, nu=0.0):
        for name, val in (("z", z), ("p", p)):
            if isinstance(val, complex) and val.imag != 0:
                raise BadParams(f"{name} must be real, got {val}")
        return super().__new__(cls, float(z.real), float(p.real), lam, mu, nu)

    @classmethod
    def from_polar(cls, delta=0.0, phi=0.0, beta=0.0, theta=0.0,
                   gamma=0.0, eta_phase=0.0, z=0.0, p=0.0):
        if delta < 0 or beta < 0 or gamma < 0:
            raise BadParams("polar moduli delta, beta, gamma must be >= 0")
        return cls(z=z, p=p,
                   lam=beta * cmath.exp(1j * theta),
                   mu=delta * cmath.exp(1j * phi),
                   nu=-gamma * cmath.exp(1j * eta_phase))

    @property
    def delta(self) -> float:
        return abs(self.mu)

    @property
    def phi(self) -> float:
        return cmath.phase(self.mu) if self.mu != 0 else 0.0

    @property
    def beta(self) -> float:
        return abs(self.lam)

    @property
    def theta(self) -> float:
        return cmath.phase(self.lam) if self.lam != 0 else 0.0

    @property
    def gamma(self) -> float:
        return abs(self.nu)

    @property
    def eta_phase(self) -> float:
        return cmath.phase(-self.nu) if self.nu != 0 else 0.0


class RealizationKind(Enum):
    """The six boson realizations."""

    TildeZ0_Cas1 = "tilde_z0_case1"     # A = -a+, B = e^{z a+}, C = e^{z a+} a
    TildeZ0_Cas2 = "tilde_z0_case2"     # A = a,  B = e^{-z a}, C = a+ e^{-z a}
    Uzp_One = "uzp_one"                 # two-parameter, built on a+
    Uzp_Two = "uzp_two"                 # two-parameter, built on a
    Celeghini_One = "celeghini_one"     # z = 0 special case of Uzp_One
    Celeghini_Two = "celeghini_two"     # z = 0 special case, C built on a+

P_KINDS = {RealizationKind.Uzp_One, RealizationKind.Uzp_Two,
           RealizationKind.Celeghini_One, RealizationKind.Celeghini_Two}


class AlgebraTriple(NamedTuple):
    A: "numpy.ndarray"
    B: "numpy.ndarray"
    C: "numpy.ndarray"
    kind: RealizationKind


# ---------------------------------------------------------------------------
# power-series kernels: each coefficient list from the recurrence of its ODE
# ---------------------------------------------------------------------------

def exp_coefficients(u, n):
    """Coefficients of e^{u(x)} to order n-1, for u(0) = 0.

    w = e^u solves w' = u' w: _miller with alpha 1, beta 0, d0 = w0 = 1.  A
    linear u = u_1 x, most calls, keeps _exp_linear's loop with the same bits,
    as one-term dot products cost numpy more than their arithmetic.  A huge u
    gives inf or nan as numpy's error state says; callers check finiteness.
    """
    import numpy as np
    u = np.asarray(u, dtype=complex)[:n]
    if u[0] != 0:
        raise NotNilpotent(f"exponent series has a nonzero constant term {u[0]}")
    if len(u) == 2:                   # u_1 weighted as _miller weights it
        return _exp_linear(complex((np.arange(2) * u)[1]), n)
    return _miller(u, n, 1, 0, 1, 1.0)


def _miller(u, n, alpha, beta, d0, w0):
    """w_0 .. w_{n-1} from w_0 = w0 and J. C. P. Miller's recurrence (Knuth,
    TAOCP vol. 2, 4.7), one dot product per order:

        m d0 w_m = sum_{k=1}^{min(m, len(u)-1)} (alpha k - beta m) u_k w_{m-k}.

    e^u (w' = u' w) takes alpha 1, beta 0, d0 = w0 = 1; u^c (u w' = c u' w)
    takes alpha c + 1, beta 1, d0 = u_0, w0 = u_0^c.
    """
    import numpy as np
    u = np.asarray(u, dtype=complex)[:n]
    ak = alpha * np.arange(len(u))
    aku = ak * u                       # the weights if beta = 0, built once
    w = np.zeros(n, dtype=complex)
    w[0] = w0
    for m in range(1, n):
        j = min(m, len(u) - 1)
        a = aku[1:j + 1] if beta == 0 else (ak[1:j + 1] - beta * m) * u[1:j + 1]
        w[m] = a @ w[m - 1::-1][:j] / (m * d0)
    return w


def _exp_linear(u1: complex, n: int):
    """Coefficients of e^{u1 x} to order n-1: w_m = u1 w_{m-1} / m in plain
    Python floats, several times faster than numpy's one-term dot products
    at n = 160.  Each step rounds as _miller's loop does, signed zeros, inf
    and nan included: the complex product (re re - im im, re im + im re)
    added to a +0 accumulator, as a dot product sums, then numpy's complex
    division by m + 0j, ((re + im 0) (1/m), (im - re 0) (1/m)), whose zero
    products turn an inf part into nan.  Python floats never warn, and
    overflow to inf as numpy's do.
    """
    import numpy as np
    ur, ui = u1.real, u1.imag
    wr, wi = 1.0, 0.0
    w = [1.0, 0.0]                     # re, im of w_0, w_1, ...
    for m in range(1, n):
        pr, pi = 0.0 + (ur * wr - ui * wi), 0.0 + (ur * wi + ui * wr)
        r = 1.0 / m
        wr, wi = (pr + pi * 0.0) * r, (pi - pr * 0.0) * r
        w += (wr, wi)
    return np.array(w).view(complex)


# Taylor data f^(m)(alpha)/m! for the matrix route (triangular_matrix_function);
# a real alpha gives real data

def _cosh_sinh_at(alpha):
    m = cmath if isinstance(alpha, complex) else math
    return m.cosh(alpha), m.sinh(alpha)


def cosh_series(alpha, n):
    c, s = _cosh_sinh_at(alpha)
    return [(c if m % 2 == 0 else s) * t
            for m, t in enumerate(exp_coefficients([0.0, 1.0], n).real)]


def sinh_series(alpha, n):
    c, s = _cosh_sinh_at(alpha)
    return [(s if m % 2 == 0 else c) * t
            for m, t in enumerate(exp_coefficients([0.0, 1.0], n).real)]


def recip_series(alpha, n):
    """Coefficients of 1/(alpha + x)."""
    return [(-1) ** m / alpha ** (m + 1) for m in range(n)]


# the largest spread of a diagonal that _nilpotent_part takes as constant
DIAGONAL_TOL = 1e-12


def _nilpotent_part(M):
    """Split M = alpha I + K with K strictly triangular; the diagonal must be
    constant (to DIAGONAL_TOL).  alpha is a Python float for a real M,
    complex otherwise."""
    import numpy as np
    d = np.diag(M)
    alpha = d[0].item()
    if np.max(np.abs(d - alpha)) > DIAGONAL_TOL:
        raise BadParams("matrix diagonal is not constant; cannot split off scalar part")
    K = M - alpha * np.eye(M.shape[0], dtype=M.dtype)
    np.fill_diagonal(K, 0.0)
    return alpha, K


def _apply_series(series_fn, M):
    """f(M) for M = alpha I + nilpotent, with f's Taylor data from series_fn(alpha, N)."""
    alpha, K = _nilpotent_part(M)
    return triangular_matrix_function(series_fn(alpha, M.shape[0]), K)


def _cosh_sinh(M):
    """(cosh M, sinh M) for M = alpha I + nilpotent, from one table of powers."""
    alpha, K = _nilpotent_part(M)
    n = M.shape[0]
    return triangular_matrix_function([cosh_series(alpha, n),
                                       sinh_series(alpha, n)], K)


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

def _uzp_coefficients(z: float, p: float, n: int):
    """Coefficients of the two-parameter B = (2/p) arcsinh((p/2) e^{zx}) and of
    C = e^{zx} sqrt(1 + (p/2)^2 e^{2zx}) before its factor a (or a+).

    With q = 1 + (p/2)^2 e^{2zx}: C = e^{zx} q^{1/2}, and B' = z e^{zx} q^{-1/2},
    so B = (2/p) arcsinh(p/2) + int_0^x z e^{zt} q^{-1/2} dt.
    """
    import numpy as np
    e = exp_coefficients([0.0, z], n)
    q = (p / 2) ** 2 * exp_coefficients([0.0, 2 * z], n)
    q[0] += 1.0
    C = np.convolve(e, _miller(q, n, 1.5, 1, q[0], complex(q[0]) ** 0.5))[:n]
    dB = z * np.convolve(e, _miller(q, n, 0.5, 1, q[0],
                                    complex(q[0]) ** -0.5))[:n - 1]
    B = np.r_[(2 / p) * math.asinh(p / 2), dB / np.arange(1, n)]
    return B, C


def build_realization(kind: RealizationKind, params: DeformationParams,
                      cfg: TruncationConfig) -> AlgebraTriple:
    """Operator triple (A, B, C) for the requested realization: A = -a+,
    C = C(a+) a, or for the kinds built on a, A = a, C = a+ C(a).

    Raises BadParams when p = 0 is passed for a p-dependent kind.
    """
    import numpy as np
    if not isinstance(kind, RealizationKind):
        raise BadParams(f"unknown realization kind {kind!r}")
    z, p = params.z, params.p
    if kind in P_KINDS and p == 0:
        raise BadParams(f"{kind.name} needs p != 0")
    if kind in (RealizationKind.Celeghini_One, RealizationKind.Celeghini_Two):
        z = 0.0                        # the z = 0 members of the Uzp kinds
    # the kinds built on a are transposes of their a+ series with z -> -z
    on_a = kind in (RealizationKind.TildeZ0_Cas2, RealizationKind.Uzp_Two,
                    RealizationKind.Celeghini_Two)
    if on_a:
        z = -z
    # z and p are real, so the coefficients are: their imaginary parts are 0
    if kind in P_KINDS:
        B, C = _uzp_coefficients(z, p, cfg.dim)
        B, C = series_operator(B.real, cfg), series_operator(C.real, cfg)
    else:                              # C(a+) = B = e^{z a+}: build it once
        B = series_operator(exp_coefficients([0.0, z], cfg.dim).real, cfg)
        C = B.copy()
    root = np.sqrt(np.arange(1.0, cfg.dim))       # a's entries (n-1, n)
    # C(a+) a in O(N^2): column n is sqrt(n) times column n-1 of C(a+), one
    # product per entry as in the dense matmul; a+ C(a) is its transpose
    C[:, 1:] = C[:, :-1] * root
    C[:, 0] = 0.0
    a = np.diag(root, 1)
    if on_a:
        return AlgebraTriple(A=a, B=B.T, C=C.T, kind=kind)
    return AlgebraTriple(A=-a.T, B=B, C=C, kind=kind)


def _ladder_commutator(A, X):
    """A X - X A.  For a ladder A (-a+ or a: one nonzero diagonal, next to
    the main one) each entry of A X and of X A is a single product, so row
    and column scalings by that diagonal give the dense products' values in
    O(N^2).  Any other A takes the dense products."""
    import numpy as np
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


def uzp_residual_blocks(triple: AlgebraTriple, params: DeformationParams):
    """Residual matrices of the two-parameter defining relations:

        [A,B],   [B,C] + (2z/p^2)(cosh pB - 1),   [A,C] - (1/p) sinh pB.
    """
    import numpy as np
    z, p = params.z, params.p
    A, B, C = triple.A, triple.B, triple.C
    cosh_pB, sinh_pB = _cosh_sinh(p * B)
    return (_ladder_commutator(A, B),
            B @ C - C @ B + (2 * z / p ** 2) * (cosh_pB - np.eye(len(B))),
            _ladder_commutator(A, C) - sinh_pB / p)


def tilde_residual_blocks(triple: AlgebraTriple, params: DeformationParams):
    """Residual matrices [A,B], [B,C] + z B^2, [A,C] - B."""
    z = params.z
    A, B, C = triple.A, triple.B, triple.C
    return (_ladder_commutator(A, B), B @ C - C @ B + z * (B @ B),
            _ladder_commutator(A, C) - B)


def commutator_residual_uzp(triple: AlgebraTriple, params: DeformationParams,
                            cfg: TruncationConfig) -> float:
    """Largest guarded norm of the three uzp_residual_blocks."""
    return max_guarded_norm(uzp_residual_blocks(triple, params), cfg)


def commutator_residual_tilde(triple: AlgebraTriple, params: DeformationParams,
                              cfg: TruncationConfig) -> float:
    """Largest guarded norm of the three tilde_residual_blocks."""
    return max_guarded_norm(tilde_residual_blocks(triple, params), cfg)


def tilde_basis_change(triple: AlgebraTriple, p: float,
                       cfg: TruncationConfig) -> AlgebraTriple:
    """Map a two-parameter triple to the one-parameter (tilde) basis:

        A -> A,   B -> (2/p) sinh(pB/2),   C -> cosh(pB/2)^{-1} C.

    The inverse cosh factor is the reciprocal's Taylor sum on the nilpotent
    split; SingularCosh if its scalar part vanishes numerically.
    """
    A, B, C = triple.A, triple.B, triple.C
    cosh_half, sinh_half = _cosh_sinh((p / 2) * B)
    B_t = (2 / p) * sinh_half
    if abs(cosh_half[0, 0]) < 1e-12:
        raise SingularCosh(f"cosh(pB/2) scalar part {cosh_half[0, 0]} ~ 0")
    inv = _apply_series(recip_series, cosh_half)
    return AlgebraTriple(A=A, B=B_t, C=inv @ C, kind=triple.kind)
