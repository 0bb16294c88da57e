"""The eta-pseudo-Hermitian ladder system G, H = G a+a G^-1, eta, rho = sqrt(eta).

Everything here lives in the lower-triangular algebra generated by a+, where
truncation to N levels is exact (the leading N x N block of a product equals
the product of the blocks).  In particular H = a+a + mu e^{-z a+} (a+)^2 is
*exactly* similar to a+a at finite N, eta = (G^-1)+ G^-1 is exactly positive
definite, and rho G is unitary up to eigensolver noise.  Guarded norms are
still used for residuals that involve the (upper-shift) annihilator, whose
truncated top rows are garbage.  G, G^-1, H and A are functions of a+ (plus
a+a and a), built from their coefficient lists by fock_core.series_operator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .deformed_algebra import exp_coefficients
from .errors import IllConditioned, NotPositiveDefinite
from .fock_core import (DEFAULT_CONFIG, FockOperator, FockVector,
                        TruncationConfig, annihilation, creation,
                        displacement_operator, guarded_norm, normalize,
                        number_operator, series_operator, vacuum)

ETA_CONDITION_LIMIT = 1e12


def _g_coefficients(mu: complex, z: float, N: int) -> np.ndarray:
    """Coefficients of the exponent of G, g(s) = -mu int_0^s t e^{-z t} dt."""
    integrand = -mu * np.r_[0.0, exp_coefficients([0.0, -z], N)]
    return np.r_[0.0, integrand[:N - 1] / np.arange(1, N)]


def build_G(mu: complex, z: float, cfg: TruncationConfig = DEFAULT_CONFIG) -> FockOperator:
    """G = exp(-mu sum_k (-z a+)^k/k! (a+)^2/(k+2)), an exact finite sum."""
    return series_operator(exp_coefficients(_g_coefficients(mu, z, cfg.dim),
                                            cfg.dim), cfg)


def build_H(mu: complex, z: float, cfg: TruncationConfig = DEFAULT_CONFIG) -> FockOperator:
    """H = a+a + mu e^{-z a+} (a+)^2: triangular with diagonal 0..N-1."""
    e = exp_coefficients([0.0, -z], cfg.dim)
    return number_operator(cfg) + series_operator(mu * np.r_[0.0, 0.0, e], cfg)


def _build_A(mu: complex, z: float, cfg: TruncationConfig) -> FockOperator:
    """The deformed annihilator  A = a + mu a+ e^{-z a+}."""
    e = exp_coefficients([0.0, -z], cfg.dim)
    return annihilation(cfg) + series_operator(mu * np.r_[0.0, e], cfg)


@dataclass(frozen=True, eq=False)
class PseudoHermitianSystem:
    """G, H, the deformed annihilator, the metric eta and its square root."""

    G: FockOperator
    H: FockOperator
    A_op: FockOperator
    eta: FockOperator
    rho_hat: FockOperator        # None when eta is numerically non-PD
    rho_inv: FockOperator
    eta_eigs: np.ndarray
    params: tuple                # (mu, z)
    cfg: TruncationConfig

    @property
    def eta_condition(self) -> float:
        lo = float(self.eta_eigs.min())
        if lo <= 0:
            return math.inf
        return float(self.eta_eigs.max()) / lo


def build_system(mu: complex, z: float,
                 cfg: TruncationConfig = DEFAULT_CONFIG) -> PseudoHermitianSystem:
    """Assemble the full system.  rho is the spectral square root of the full
    eta matrix: keeping rho^2 = eta exact (to eigensolver precision) is what
    makes rho G unitary and rho H rho^-1 Hermitian; a square root of the
    guarded block alone breaks both by orders of magnitude."""
    G = build_G(mu, z, cfg)
    Ginv = series_operator(exp_coefficients(-_g_coefficients(mu, z, cfg.dim),
                                            cfg.dim), cfg)
    with np.errstate(over="ignore", invalid="ignore"):   # caught just below
        eta = Ginv.conj().T @ Ginv
        eta = (eta + eta.conj().T) / 2
    if not np.isfinite(eta).all():
        raise IllConditioned("eta leaves the float range; reduce |mu| or |z|")
    w, V = np.linalg.eigh(eta)
    if w.min() > 0:
        rho = V @ np.diag(np.sqrt(w)) @ V.conj().T
        rho_inv = V @ np.diag(1 / np.sqrt(w)) @ V.conj().T
    else:
        rho = rho_inv = None
    return PseudoHermitianSystem(G=G, H=build_H(mu, z, cfg),
                                 A_op=_build_A(mu, z, cfg), eta=eta,
                                 rho_hat=rho, rho_inv=rho_inv, eta_eigs=w,
                                 params=(mu, z), cfg=cfg)


def _require_rho(sys: PseudoHermitianSystem) -> None:
    if sys.rho_hat is None:
        raise NotPositiveDefinite(
            f"eta has a non-positive eigenvalue ({sys.eta_eigs.min():.3e}) "
            f"under truncation; reduce |mu| or dim")
    if sys.eta_condition > ETA_CONDITION_LIMIT:
        raise IllConditioned(
            f"eta condition number {sys.eta_condition:.3e} exceeds "
            f"{ETA_CONDITION_LIMIT:.0e}")


def pseudo_hermiticity_residual(sys: PseudoHermitianSystem) -> float:
    """Guarded norm of H+ - eta H eta^-1, with eta^-1 = G G+ used exactly."""
    if sys.eta_condition > ETA_CONDITION_LIMIT:
        raise IllConditioned(
            f"eta condition number {sys.eta_condition:.3e} exceeds "
            f"{ETA_CONDITION_LIMIT:.0e}")
    lhs = sys.H.conj().T
    rhs = sys.eta @ sys.H @ (sys.G @ sys.G.conj().T)
    return guarded_norm(lhs - rhs, sys.cfg)


def commutator_checks(sys: PseudoHermitianSystem):
    """Guarded norms of [H,A]+A, [H,a+]-a+, [A,a+]-1."""
    ad = creation(sys.cfg)
    H, A = sys.H, sys.A_op
    r1 = guarded_norm(H @ A - A @ H + A, sys.cfg)
    r2 = guarded_norm(H @ ad - ad @ H - ad, sys.cfg)
    r3 = guarded_norm(A @ ad - ad @ A - np.eye(sys.cfg.dim), sys.cfg)
    return r1, r2, r3


def ground_state(sys: PseudoHermitianSystem) -> FockVector:
    """Normalized G|0>: annihilated by both H and A."""
    return normalize(sys.G @ vacuum(sys.cfg))


def coherent_eigenstate(nu: complex, sys: PseudoHermitianSystem) -> FockVector:
    """Normalized G e^{-nu a+}|0>: eigenstate of A with eigenvalue -nu."""
    seed = series_operator(exp_coefficients([0.0, -nu], sys.cfg.dim), sys.cfg)[:, 0]
    return normalize(sys.G @ seed)


def rho_hat(sys: PseudoHermitianSystem) -> FockOperator:
    """The Hermitian square root of eta (full-space spectral root)."""
    _require_rho(sys)
    return sys.rho_hat


def hermitian_hamiltonian(sys: PseudoHermitianSystem) -> FockOperator:
    """H~ = rho H rho^-1: Hermitian and isospectral to a+a."""
    _require_rho(sys)
    return sys.rho_hat @ sys.H @ sys.rho_inv


def unitarity_check(sys: PseudoHermitianSystem) -> float:
    """Guarded norm of (rho G)+(rho G) - 1."""
    _require_rho(sys)
    U = sys.rho_hat @ sys.G
    return guarded_norm(U.conj().T @ U - np.eye(sys.cfg.dim), sys.cfg)


def generalized_coherent_state(nu: complex, sys: PseudoHermitianSystem) -> FockVector:
    """rho G D(nu)|0>, eigenstate of rho A rho^-1 with eigenvalue nu."""
    _require_rho(sys)
    psi = sys.rho_hat @ sys.G @ (displacement_operator(nu, sys.cfg) @ vacuum(sys.cfg))
    return normalize(psi)


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    max_deviation_from_integers: float


def spectrum_report(sys: PseudoHermitianSystem, which: str = "pseudo") -> SpectrumReport:
    """Eigenvalues (sorted by real part) of H or of the full Hermitian H~.

    The H~ spectrum is taken on the full matrix: the similarity to a+a is a
    full-space identity and principal-submatrix eigenvalues of a dense
    Hermitian matrix do not track it.
    """
    if which == "pseudo":
        ev = np.sort_complex(np.linalg.eigvals(sys.H))
    elif which == "hermitian":
        Ht = hermitian_hamiltonian(sys)
        ev = np.sort(np.linalg.eigvalsh((Ht + Ht.conj().T) / 2)).astype(complex)
    else:
        raise ValueError("which must be 'pseudo' or 'hermitian'")
    dev = float(np.abs(ev - np.arange(sys.cfg.dim)).max())
    return SpectrumReport(eigenvalues=ev, max_deviation_from_integers=dev)
