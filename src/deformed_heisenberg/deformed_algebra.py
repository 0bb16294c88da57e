"""Boson realizations of the deformed oscillator algebras and residual checks.

Two families are covered: the one-parameter algebra with relations

    [A, B] = 0,   [B, C] = -z B^2,      [A, C] = B        (tilde form)

and the two-parameter algebra with

    [A, B] = 0,   [B, C] = -(2z/p^2)(cosh(pB) - 1),   [A, C] = (1/p) sinh(pB).

The realizations are power series in a+ (or a, by transposition with z -> -z)
built by fock_core.series_operator.  Each coefficient list comes from the
O(N^2) recurrence of its series' own ODE: exp_coefficients for e^{u(x)} and
_pow_series for u(x)^c, with no series composition.  z and p are real, so
every realization is a float64 triple; its ladder factor a (or a+) scales
columns (rows) in O(N^2) instead of a dense product.  The residual checks
apply cosh, sinh and the reciprocal to those matrices by an independent
route, their Taylor sums in dense matrix powers (triangular_matrix_function,
Paterson-Stockmeyer), in real arithmetic; cosh and sinh of one matrix share
one table of its powers.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadParams, NotNilpotent, SingularCosh
from .fock_core import (FockOperator, TruncationConfig, guarded_norm,
                        series_operator, triangular_matrix_function)


@dataclass(frozen=True)
class DeformationParams:
    """Deformation scalars z, p (real) and the linear-combination coefficients
    lam, mu, nu (complex), with polar accessors:

        mu = delta e^{i phi},  lam = beta e^{i theta},  nu = -gamma e^{i eta_phase}.
    """

    z: float = 0.0
    p: float = 0.0
    lam: complex = 0.0
    mu: complex = 0.0
    nu: complex = 0.0

    def __post_init__(self):
        for name in ("z", "p"):
            val = getattr(self, name)
            if isinstance(val, complex) and val.imag != 0:
                raise BadParams(f"{name} must be real, got {val}")
            object.__setattr__(self, name, float(np.real(val)))

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


@dataclass(frozen=True, eq=False)
class AlgebraTriple:
    A: FockOperator
    B: FockOperator
    C: FockOperator
    kind: RealizationKind


# ---------------------------------------------------------------------------
# power-series kernels: each coefficient list from the recurrence of its ODE
# ---------------------------------------------------------------------------

def exp_coefficients(u, n):
    """Coefficients of e^{u(x)} to order n-1, for u(0) = 0.

    w = e^u solves w' = u' w, so m w_m = sum_{k=1}^{m} k u_k w_{m-k}: one dot
    product per order, O(n^2) in all.  A huge u gives inf or nan without
    numpy warnings; callers check finiteness where it matters.
    """
    u = np.asarray(u, dtype=complex)[:n]
    if u[0] != 0:
        raise NotNilpotent(f"exponent series has a nonzero constant term {u[0]}")
    ku = np.arange(len(u)) * u
    w = np.zeros(n, dtype=complex)
    w[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n):
            k = min(m, len(u) - 1)
            w[m] = ku[1:k + 1] @ w[m - 1::-1][:k] / m
    return w


def _pow_series(u, c, n):
    """Coefficients of (u(x))^c to order n-1 given coefficients of u, u[0] != 0.

    J.C.P. Miller recurrence (Knuth, TAOCP vol. 2, 4.7): w_0 = u_0^c,
    m u_0 w_m = sum_{k=1}^{m} ((c+1)k - m) u_k w_{m-k}, one dot product per order.
    """
    u = np.asarray(u, dtype=complex)[:n]
    k = np.arange(len(u))
    w = np.zeros(n, dtype=complex)
    w[0] = complex(u[0]) ** c
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n):
            j = min(m, len(u) - 1)
            w[m] = ((((c + 1) * k[1:j + 1] - m) * u[1:j + 1])
                    @ w[m - 1::-1][:j]) / (m * u[0])
    return w


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


def _nilpotent_part(M, tol=1e-12):
    """Split M = alpha I + K with K strictly triangular; the diagonal must be
    constant.  alpha is a Python float for a real M, complex otherwise."""
    d = np.diag(M)
    alpha = d[0].item()
    if np.max(np.abs(d - alpha)) > tol:
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
    e = exp_coefficients([0.0, z], n)
    q = (p / 2) ** 2 * exp_coefficients([0.0, 2 * z], n)
    q[0] += 1.0
    C = np.convolve(e, _pow_series(q, 0.5, n))[:n]
    dB = z * np.convolve(e, _pow_series(q, -0.5, n))[:n - 1]
    B = np.r_[(2 / p) * math.asinh(p / 2), dB / np.arange(1, n)]
    return B, C


def build_realization(kind: RealizationKind, params: DeformationParams,
                      cfg: TruncationConfig) -> AlgebraTriple:
    """Operator triple (A, B, C) for the requested realization: A = -a+,
    C = C(a+) a, or for the kinds built on a, A = a, C = a+ C(a).

    Raises BadParams when p = 0 is passed for a p-dependent kind.
    """
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
    if kind in P_KINDS:
        B, C = _uzp_coefficients(z, p, cfg.dim)
    else:
        B = C = exp_coefficients([0.0, z], cfg.dim)
    # z and p are real, so the coefficients are: their imaginary parts are 0
    B, C = series_operator(B.real, cfg), series_operator(C.real, cfg)
    root = np.sqrt(np.arange(1.0, cfg.dim))       # a's entries (n-1, n)
    # C(a+) a in O(N^2): column n is sqrt(n) times column n-1 of C(a+), one
    # product per entry as in the dense matmul; a+ C(a) is its transpose
    C[:, 1:] = C[:, :-1] * root
    C[:, 0] = 0.0
    a = np.diag(root, 1)
    if on_a:
        return AlgebraTriple(A=a, B=B.T, C=C.T, kind=kind)
    return AlgebraTriple(A=-a.T, B=B, C=C, kind=kind)


def commutator_residual_uzp(triple: AlgebraTriple, params: DeformationParams,
                            cfg: TruncationConfig):
    """Guarded norms of the two-parameter defining relations:

        [A,B],   [B,C] + (2z/p^2)(cosh pB - 1),   [A,C] - (1/p) sinh pB.
    """
    z, p = params.z, params.p
    A, B, C = triple.A, triple.B, triple.C
    ident = np.eye(cfg.dim)
    cosh_pB, sinh_pB = _cosh_sinh(p * B)
    r1 = guarded_norm(A @ B - B @ A, cfg)
    r2 = guarded_norm(B @ C - C @ B + (2 * z / p ** 2) * (cosh_pB - ident), cfg)
    r3 = guarded_norm(A @ C - C @ A - sinh_pB / p, cfg)
    return r1, r2, r3


def commutator_residual_tilde(triple: AlgebraTriple, params: DeformationParams,
                              cfg: TruncationConfig):
    """Guarded norms of [A,B], [B,C] + z B^2, [A,C] - B."""
    z = params.z
    A, B, C = triple.A, triple.B, triple.C
    r1 = guarded_norm(A @ B - B @ A, cfg)
    r2 = guarded_norm(B @ C - C @ B + z * (B @ B), cfg)
    r3 = guarded_norm(A @ C - C @ A - B, cfg)
    return r1, r2, r3


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
