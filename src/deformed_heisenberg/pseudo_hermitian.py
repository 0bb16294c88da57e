"""The eta-pseudo-Hermitian ladder system G, H = G a+a G^-1, eta, rho = sqrt(eta).

Everything here lives in the lower-triangular algebra generated by a+, where
truncation to N levels is exact (the leading N x N block of a product equals
the product of the blocks).  In particular H = a+a + mu e^{-z a+} (a+)^2 is
*exactly* similar to a+a at finite N, eta = (G^-1)+ G^-1 is exactly positive
definite, and rho = sqrt(eta) comes from the SVD of G^-1 without forming eta,
so rho G is unitary to the SVD's backward error.  Guarded norms are
still used for residuals that involve the (upper-shift) annihilator, whose
truncated top rows are garbage; the commutator relations of H and A are
identities of their coefficient series (commutator_checks), which need no
matrix.  G, G^-1, H and A are functions of a+ (plus a+a and a), real for a
real mu, built from their coefficient lists by fock_core.series_operator;
the lists of G = e^{g(a+)} and G^-1 = e^{-g(a+)} come from the O(N^2)
recurrence deformed_algebra.exp_coefficients.

The ladder system is the lam = 0 slice of the algebra eigenproblem of
aes_series: A = G a G^-1, and A psi = -nu psi reads psi'/psi =
-mu xi e^{-z xi} - nu in Bargmann space, the eigenstates' symbol at lam = 0.
So ground_state and coherent_eigenstate, G e^{-nu a+}|0>, are vacuum images
(aes_series.eigenstate_image), one O(N^2) call of the row kernel with no G,
and generalized_coherent_state is rho times the second.

The spectrum of H is read off its diagonal, 0..N-1 by construction, so the
h_eig column of ``dheis spectrum`` is diag(H) and its deviation is 0: it
checks nothing.  A column that could fail, such as the per-level condition
number kappa_n = ||G e_n|| ||e_n^T G^-1|| from the known eigenvectors (the
columns of G and the rows of G^-1), is still open.

build_system builds what every caller reads: H, G^-1 and the SVD factors
V+ and Sigma of G^-1 = W Sigma V+.  G, the deformed annihilator A, rho and
rho^-1 are built when read (PseudoHermitianSystem.G, .A_op, .rho_hat and
.rho_inv), by the pseudo rows of ``dheis verify`` and rho by
generalized_coherent_state, not by ``dheis spectrum``, which reads none of them: its H~ spectrum is that of
X = Sigma (V+ H V) Sigma^-1, which V carries to rho H rho^-1 = V X V+, so it
takes two dense products where forming rho, rho^-1 and H~ took four, and
rounds less.  numpy is imported by each function that uses it, so that
importing this module loads no numpy.
"""

import math
from typing import NamedTuple

from .aes_series import eigenstate_image
from .deformed_algebra import DeformationParams, exp_coefficients
from .errors import IllConditioned
from .fock_core import (TruncationConfig, annihilation, guarded_norm,
                        normalize, number_operator, series_bound,
                        series_operator)

ETA_CONDITION_LIMIT = 1e12


def _scaled_exp_coefficients(c: complex, z: float, shift: int, N: int):
    """Coefficients of c x^shift e^{-z x}.  A huge z makes them inf or nan,
    reported as numpy's error state says; build_system's finiteness and
    condition checks turn that into an error."""
    import numpy as np
    return c * np.r_[np.zeros(shift), exp_coefficients([0.0, -z], N)]


def _g_coefficients(mu: complex, z: float, N: int):
    """Coefficients of the exponent of G, g(s) = -mu int_0^s t e^{-z t} dt."""
    import numpy as np
    integrand = _scaled_exp_coefficients(-mu, z, 1, N)
    return np.r_[0.0, integrand[:N - 1] / np.arange(1, N)]


def build_G(mu: complex, z: float, cfg: TruncationConfig):
    """G = exp(-mu sum_k (-z a+)^k/k! (a+)^2/(k+2)), an exact finite sum."""
    return series_operator(exp_coefficients(_g_coefficients(mu, z, cfg.dim),
                                            cfg.dim), cfg)


def build_H(mu: complex, z: float, cfg: TruncationConfig):
    """H = a+a + mu e^{-z a+} (a+)^2: triangular with diagonal 0..N-1."""
    return number_operator(cfg) + series_operator(
        _scaled_exp_coefficients(mu, z, 2, cfg.dim), cfg)


def _build_A(mu: complex, z: float, cfg: TruncationConfig):
    """The deformed annihilator  A = a + mu a+ e^{-z a+}."""
    return annihilation(cfg) + series_operator(
        _scaled_exp_coefficients(mu, z, 1, cfg.dim), cfg)


class PseudoHermitianSystem(NamedTuple):
    """H, G^-1 and the SVD factors of G^-1 = W Sigma V+ that the metric
    needs, for (mu, z, cfg); G, the deformed annihilator, rho and rho^-1 are
    built each time they are read."""

    mu: complex
    z: float
    H: "numpy.ndarray"
    Ginv: "numpy.ndarray"
    Vh: "numpy.ndarray"             # V+
    sigma: "numpy.ndarray"          # sigma(G^-1), descending
    eta_eigs: "numpy.ndarray"       # sigma(G^-1)^2, ascending
    cfg: TruncationConfig

    @property
    def G(self):
        """G, built by build_G."""
        return build_G(self.mu, self.z, self.cfg)

    @property
    def A_op(self):
        """The deformed annihilator, built by _build_A."""
        return _build_A(self.mu, self.z, self.cfg)

    @property
    def rho_hat(self):
        """rho = V Sigma V+, the Hermitian positive square root of eta."""
        V = self.Vh.conj().T
        return (V * self.sigma) @ self.Vh

    @property
    def rho_inv(self):
        """rho^-1 = V Sigma^-1 V+."""
        V = self.Vh.conj().T
        return (V / self.sigma) @ self.Vh

    @property
    def eta_condition(self) -> float:
        """cond(eta) = cond(G^-1)^2; inf when G^-1 is numerically singular."""
        lo = float(self.eta_eigs[0])
        return float(self.eta_eigs[-1]) / lo if lo > 0 else math.inf


def build_system(mu: complex, z: float, cfg: TruncationConfig) -> PseudoHermitianSystem:
    """Assemble the system.  With G^-1 = W Sigma V+, the metric is
    eta = V Sigma^2 V+, so rho = V Sigma V+ and rho^-1 = V Sigma^-1 V+ on the
    full space: rho^2 = eta to the SVD's backward error, which keeps rho G
    unitary and rho H rho^-1 Hermitian (a square root of the guarded block
    alone breaks both by orders of magnitude), and the singular values are
    never negative.  Only V+ and Sigma are kept: the H~ spectrum needs
    neither rho nor rho^-1 (_similar_hamiltonian)."""
    import numpy as np
    Ginv = series_operator(exp_coefficients(-_g_coefficients(mu, z, cfg.dim),
                                            cfg.dim), cfg)
    if not np.isfinite(Ginv).all():
        raise IllConditioned("G^-1 leaves the float range; reduce |mu| or |z|")
    _, s, Vh = np.linalg.svd(Ginv)
    eta_eigs = s[::-1] ** 2              # _require_rho rejects inf and 0
    return PseudoHermitianSystem(mu=mu, z=z, H=build_H(mu, z, cfg), Ginv=Ginv,
                                 Vh=Vh, sigma=s, eta_eigs=eta_eigs, cfg=cfg)


def _require_rho(sys: PseudoHermitianSystem) -> None:
    if sys.eta_condition > ETA_CONDITION_LIMIT:
        raise IllConditioned(
            f"eta condition number {sys.eta_condition:.3e} exceeds "
            f"{ETA_CONDITION_LIMIT:.0e} (sigma_min(G^-1) = "
            f"{math.sqrt(sys.eta_eigs[0]):.3e}); reduce |mu|, |z| or dim")


def metric(sys: PseudoHermitianSystem):
    """eta = (G^-1)+ G^-1, Hermitian by construction."""
    eta = sys.Ginv.conj().T @ sys.Ginv
    return (eta + eta.conj().T) / 2


def pseudo_hermiticity_residual(sys: PseudoHermitianSystem, G=None) -> float:
    """Guarded norm of H+ - eta H eta^-1, with eta^-1 = G G+ used exactly;
    G is sys.G, built here unless the caller passes the one it holds."""
    _require_rho(sys)
    G = sys.G if G is None else G
    lhs = sys.H.conj().T
    rhs = metric(sys) @ sys.H @ (G @ G.conj().T)
    return guarded_norm(lhs - rhs, sys.cfg)


def commutator_checks(sys: PseudoHermitianSystem) -> float:
    """[H, A] = -A, [H, a+] = a+ and [A, a+] = 1 as series identities: with
    H = a+a + h(a+), A = a + alpha(a+) and [a, f(a+)] = f'(a+), [H, A] + A
    is x alpha' + alpha - h', whose fock_core.series_bound this returns, and
    the other two residuals vanish identically."""
    import numpy as np
    n = sys.cfg.kept
    alpha = _scaled_exp_coefficients(sys.mu, sys.z, 1, n)[:n]
    h = _scaled_exp_coefficients(sys.mu, sys.z, 2, n)[:n + 1]
    k = np.arange(n)
    return series_bound(k * alpha + alpha - (k + 1) * h[1:], sys.cfg)


def ground_state(sys: PseudoHermitianSystem):
    """Normalized G|0>: annihilated by both H and A."""
    return coherent_eigenstate(0.0, sys)


def coherent_eigenstate(nu: complex, sys: PseudoHermitianSystem):
    """Normalized G e^{-nu a+}|0>: eigenstate of A with eigenvalue -nu, the
    lam = 0 algebra eigenstate of aes_series, built as its vacuum image with
    no G."""
    import numpy as np
    params = DeformationParams(z=sys.z, mu=sys.mu)
    return normalize(np.array(eigenstate_image(params, nu, sys.cfg.dim)))


def rho_hat(sys: PseudoHermitianSystem):
    """The Hermitian positive square root of eta, from the SVD of G^-1."""
    _require_rho(sys)
    return sys.rho_hat


def _similar_hamiltonian(sys: PseudoHermitianSystem):
    """X = Sigma (V+ H V) Sigma^-1, so that rho H rho^-1 = V X V+: the
    unitary V carries X to H~, and X costs two dense products where H~
    itself takes four."""
    _require_rho(sys)
    Vh, s = sys.Vh, sys.sigma
    return (Vh @ sys.H @ Vh.conj().T) * (s[:, None] / s)


def hermitian_hamiltonian(sys: PseudoHermitianSystem):
    """H~ = rho H rho^-1 = V X V+: Hermitian and isospectral to a+a."""
    X = _similar_hamiltonian(sys)
    return sys.Vh.conj().T @ X @ sys.Vh


def unitarity_check(sys: PseudoHermitianSystem, G=None) -> float:
    """Guarded norm of (rho G)+(rho G) - 1; G as in
    pseudo_hermiticity_residual."""
    import numpy as np
    _require_rho(sys)
    U = sys.rho_hat @ (sys.G if G is None else G)
    return guarded_norm(U.conj().T @ U - np.eye(sys.cfg.dim), sys.cfg)


def generalized_coherent_state(nu: complex, sys: PseudoHermitianSystem):
    """rho G D(nu)|0>, eigenstate of rho A rho^-1 with eigenvalue nu: rho
    times coherent_eigenstate(-nu), as G D(nu)|0> is G e^{nu a+}|0> up to
    its norm."""
    _require_rho(sys)
    return normalize(sys.rho_hat @ coherent_eigenstate(-nu, sys))


class SpectrumReport(NamedTuple):
    eigenvalues: "numpy.ndarray"
    max_deviation_from_integers: float


def spectrum_report(sys: PseudoHermitianSystem, which: str = "pseudo") -> SpectrumReport:
    """Sorted real eigenvalues of H or of the full Hermitian H~.

    H is lower triangular, so its eigenvalues are its diagonal, read in
    O(N): np.linalg.eigvals balances first, balancing isolates every
    eigenvalue of a triangular matrix, and it returns exactly diag(H), whose
    imaginary parts are 0 (build_H puts mu only below it).  The
    H~ spectrum is eigvalsh of the Hermitian part of X =
    Sigma (V+ H V) Sigma^-1 (_similar_hamiltonian), unitarily similar to
    H~, on the full matrix: the similarity to a+a is a full-space identity
    and principal-submatrix eigenvalues of a dense Hermitian matrix do not
    track it.
    """
    import numpy as np
    if which == "pseudo":
        ev = np.sort(np.diagonal(sys.H).real)
    elif which == "hermitian":
        X = _similar_hamiltonian(sys)
        ev = np.sort(np.linalg.eigvalsh((X + X.conj().T) / 2))
    else:
        raise ValueError("which must be 'pseudo' or 'hermitian'")
    dev = float(np.abs(ev - np.arange(sys.cfg.dim)).max())
    return SpectrumReport(eigenvalues=ev, max_deviation_from_integers=dev)
