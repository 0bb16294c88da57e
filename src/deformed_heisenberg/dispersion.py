"""Quadrature statistics of the deformed states.

Covers the X/P operators and their dispersions, the squeezed-vacuum matrix
elements Gamma_kl / Lambda_kl, the first-order perturbed moments and the
variance tables built from them (sweep_table, over a phi or delta grid), and
the all-order dispersions of general_dispersion.  The first-order moments
and the undeformed dispersions (mus_dispersions) take scalars or numpy
arrays, so a sweep evaluates its whole grid in one call of each and returns
the result columns as the table; no per-row record is built.  numpy is
imported by each function that uses it, so that importing this module loads
no numpy.
"""

import cmath
import math
from typing import NamedTuple

from . import _gaussian
from .aes_series import fock_coefficients
from .deformed_algebra import DeformationParams
from .errors import BadParams, NotConverged
from .fock_core import (TruncationConfig,
                        annihilation, check_tail, expectation, normalize,
                        squeezed_displaced_vacuum)

SQRT2 = math.sqrt(2.0)

# |Omega - 1| above this marks a first-order row as untrustworthy (the state's
# normalization correction is no longer small); calibrated so the delta sweep
# at z=0.0025, p=0.01, beta=2, theta=0.8 pi trips just past delta = 0.75
# (|eps| = 0.074 at 0.75, 0.083 at 0.76).
VALIDITY_EPSILON_THRESHOLD = 0.075


# ---------------------------------------------------------------------------
# quadratures
# ---------------------------------------------------------------------------

class QuadratureStats(NamedTuple):
    """Means and dispersions of X and P plus the X-P correlation <F>,
    F = {X - <X>, P - <P>}."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    corr_f: float

    @property
    def srur_bound(self) -> float:
        return 0.25 * (1.0 + self.corr_f ** 2)

    @property
    def product(self) -> float:
        return self.var_x * self.var_p


def position_operator(cfg: TruncationConfig):
    a = annihilation(cfg)
    return (a + a.conj().T) / SQRT2


def momentum_operator(cfg: TruncationConfig):
    a = annihilation(cfg)
    return 1j * (a.conj().T - a) / SQRT2


def quadrature_stats(state, cfg: TruncationConfig) -> QuadratureStats:
    """Direct matrix evaluation of the X/P statistics on a Fock vector."""
    check_tail(state, cfg)
    psi = normalize(state)
    X = position_operator(cfg)
    P = momentum_operator(cfg)
    mx = expectation(X, psi).real
    mp = expectation(P, psi).real
    x2 = expectation(X @ X, psi).real
    p2 = expectation(P @ P, psi).real
    f = expectation(X @ P + P @ X, psi).real - 2 * mx * mp
    return QuadratureStats(mean_x=mx, mean_p=mp,
                           var_x=x2 - mx * mx, var_p=p2 - mp * mp, corr_f=f)


def mus_dispersions(delta, phi):
    """Dispersions of the undeformed squeezed states (independent of lam).

    delta and phi may be numpy arrays of one broadcast shape (a sweep grid);
    the pair is then a pair of arrays, each element computed as for scalars.
    """
    import numpy as np
    if not np.all((0 <= delta) & (delta < 1)):
        raise BadParams("need 0 <= delta < 1")
    r2 = 2 * (1 - delta * delta)
    base = 1 + delta * delta
    return ((base - 2 * delta * np.cos(phi)) / r2,
            (base + 2 * delta * np.cos(phi)) / r2)


# ---------------------------------------------------------------------------
# squeezed-vacuum matrix elements
# ---------------------------------------------------------------------------

def gamma_element(k: int, l: int, delta, phi, beta, theta) -> complex:
    """<0|D+ S+ (a+)^k a^l S D|0>, the corner of the Hermite recurrence table
    of the Gaussian generating function's derivatives."""
    return _gaussian.gamma_kl(k, l, delta, phi, beta, theta)[..., k, l]


def gamma_matrix_table(delta, phi, beta, theta, k_max: int,
                       cfg: TruncationConfig):
    """Gamma_kl, k, l <= k_max, on the truncated Fock space: the reference the
    closed form is checked against.  v = S D|0> from its Bargmann symbol
    (no dense expm), the rows w_l = a^l v by index shifts, and
    Gamma_kl = <w_k|w_l>."""
    import numpy as np
    W = np.zeros((k_max + 1, cfg.dim), dtype=complex)
    W[0] = squeezed_displaced_vacuum(delta, phi, beta * cmath.exp(1j * theta),
                                     cfg)
    roots = np.sqrt(np.arange(1, cfg.dim, dtype=float))
    for l in range(1, k_max + 1):
        W[l, :-1] = roots * W[l - 1, 1:]
    return W.conj() @ W.T


def lambda_element(k: int, l: int, delta, phi, beta, theta) -> complex:
    """<0|D+ S+ a^k (a+)^l S D|0>, the corner of the same recurrence table."""
    return _gaussian.lambda_kl(k, l, delta, phi, beta, theta)[..., k, l]


# ---------------------------------------------------------------------------
# first-order moments of the perturbed states (gamma = 0 sector)
# ---------------------------------------------------------------------------

class PerturbedMoments(NamedTuple):
    """<X>^2, <X^2> and the P analogues, first order in z and p^2."""

    mean_x_sq: float
    x2_mean: float
    mean_p_sq: float
    p2_mean: float
    epsilon: float           # Omega~ - 1, the norm correction actually used
    mean_a: complex          # first-order <a>
    a_sq: complex            # first-order <a^2>
    n_bar: float             # first-order <a+ a>

    @property
    def var_x(self) -> float:
        return self.x2_mean - self.mean_x_sq

    @property
    def var_p(self) -> float:
        return self.p2_mean - self.mean_p_sq

    @property
    def stats(self) -> QuadratureStats:
        """QuadratureStats view: means, variances and <F>."""
        mean_x = SQRT2 * self.mean_a.real
        mean_p = SQRT2 * self.mean_a.imag
        corr_f = 2 * self.a_sq.imag - 2 * mean_x * mean_p
        return QuadratureStats(mean_x=mean_x, mean_p=mean_p,
                               var_x=self.var_x, var_p=self.var_p,
                               corr_f=corr_f)


def perturbed_moments(delta, phi, beta, theta, z, p) -> PerturbedMoments:
    """First-order <a>, <a^2>, <a+a>, epsilon and the four X/P moments.

    The corrections come from sandwiching the bracket operator
    1 + z Q + (p^2/4) R,  Q = mu (a+)^3/3 - lam (a+)^2/2,
    R = mu (a+)^2/4 - (lam/2) a+  (nu = 0), against S D |0>, normal-ordering
    everything onto Gamma / Lambda elements; second-order cross terms in
    (z, p^2, epsilon) are dropped.  The 17 elements come from one Gamma table
    (k <= 5, l <= 2) and one Lambda table (k <= 2, l <= 3), and each Q / R
    block is formed once.  The parameters may be numpy arrays of one
    broadcast shape (a sweep grid); every field then is an array of that
    shape, evaluated elementwise.
    """
    import numpy as np
    mu = delta * np.exp(1j * phi)
    lam = beta * np.exp(1j * theta)
    q = p * p / 4.0
    G = _gaussian.gamma_kl(5, 2, delta, phi, beta, theta)
    L = _gaussian.lambda_kl(2, 3, delta, phi, beta, theta)

    def blocks(e):
        """The Q and R blocks, e(m) being the element that carries (a+)^m."""
        return mu * e(3) / 3 - lam * e(2) / 2, mu * e(2) / 4 - lam / 2 * e(1)

    def a_power_blocks(j):
        """<a^j (.)> + <(a+)^j (.)>^* for the Q and R blocks."""
        aQ, aR = blocks(lambda m: L[..., j, m])
        adQ, adR = blocks(lambda m: G[..., m + j, 0])
        return aQ + adQ.conjugate(), aR + adR.conjugate()

    mean_q, mean_r = blocks(lambda m: G[..., m, 0])
    eps = -(z * mean_q + q * mean_r).real
    norm = 1 + 2 * eps
    q1, r1 = a_power_blocks(1)
    q2, r2 = a_power_blocks(2)
    # a+ a against (a+)^m: a (a+)^m = (a+)^m a + m (a+)^{m-1}
    nq, nr = blocks(lambda m: G[..., m + 1, 1] + m * G[..., m, 0])

    g01 = G[..., 0, 1]
    mean_a = norm * g01 + z * q1 + q * r1
    a_sq = norm * G[..., 0, 2] + z * q2 + q * r2
    n_bar = norm * G[..., 1, 1].real + 2 * (z * nq + q * nr).real

    corr = z * q1 + q * r1
    mean_x_sq = 2 * (g01.real ** 2 * (1 + 4 * eps) + 2 * g01.real * corr.real)
    mean_p_sq = 2 * (g01.imag ** 2 * (1 + 4 * eps) + 2 * g01.imag * corr.imag)
    core = norm * (G[..., 1, 1].real + G[..., 0, 2].real)
    core_p = norm * (G[..., 1, 1].real - G[..., 0, 2].real)
    x2_mean = 0.5 + core + (z * (q2 + 2 * nq) + q * (r2 + 2 * nr)).real
    p2_mean = 0.5 + core_p + (z * (-q2 + 2 * nq) + q * (-r2 + 2 * nr)).real
    return PerturbedMoments(mean_x_sq=mean_x_sq, x2_mean=x2_mean,
                            mean_p_sq=mean_p_sq, p2_mean=p2_mean,
                            epsilon=eps, mean_a=mean_a, a_sq=a_sq, n_bar=n_bar)


def _perturbed_moments_literal(delta, phi, beta, theta, z, p):
    """The same four moments, transcribed term-for-term from the grouped
    Gamma/Lambda presentation (the one that mixes Lambda_41 - Gamma_03 style
    differences).  Kept private as an independent assembly; equality with
    perturbed_moments is asserted in the test suite."""
    mu = delta * cmath.exp(1j * phi)
    lam = beta * cmath.exp(1j * theta)
    mub, lamb = mu.conjugate(), lam.conjugate()
    G = _gaussian.gamma_kl(3, 5, delta, phi, beta, theta)
    L = _gaussian.lambda_kl(4, 4, delta, phi, beta, theta)

    eps = -(z * (mu * G[3, 0] / 3 - lam * G[2, 0] / 2)
            + p * p / 4 * (mu * G[2, 0] / 4 - lam / 2 * G[1, 0])).real

    inner = ((1 + 4 * eps) * G[0, 1]
             + 2 * z * (mub / 3 * G[0, 4] - lamb / 2 * G[0, 3]
                        + mu / 3 * L[1, 3] - lam / 2 * L[1, 2])
             + p * p / 2 * (mub / 4 * G[0, 3] - lamb / 2 * G[0, 2]
                            + mu / 4 * L[1, 2] - lam / 2 * L[1, 1]))
    mean_x_sq = 2 * G[0, 1].real * inner.real
    mean_p_sq = 2 * G[0, 1].imag * inner.imag

    re_blocks = (z * (mub / 3 * G[0, 5] - lamb / 2 * G[0, 4]
                      + mu / 3 * L[2, 3] - lam / 2 * L[2, 2])
                 + p * p / 4 * (mub / 4 * G[0, 4] - lamb / 2 * G[0, 3]
                                + mu / 4 * L[2, 2] - lam / 2 * L[2, 1]))
    plain_blocks = (z * (mub / 3 * (L[4, 1] - G[0, 3])
                         - lamb / 2 * (L[3, 1] - G[0, 2])
                         + mu / 3 * (L[1, 4] - L[0, 3])
                         - lam / 2 * (L[1, 3] - L[0, 2]))
                    + p * p / 4 * (mub / 4 * (L[3, 1] - G[0, 2])
                                   - lamb / 2 * (L[2, 1] - G[0, 1])
                                   + mu / 4 * (L[1, 3] - L[0, 2])
                                   - lam / 2 * (L[1, 2] - L[0, 1])))
    base = (1 + 2 * eps) * (G[1, 1] + G[0, 2]).real
    base_p = (1 + 2 * eps) * (G[1, 1] - G[0, 2]).real
    x2_mean = 0.5 + base + re_blocks.real + plain_blocks.real
    p2_mean = 0.5 + base_p - re_blocks.real + plain_blocks.real
    return mean_x_sq, x2_mean, mean_p_sq, p2_mean


def perturbed_quadrature_stats(delta, phi, beta, theta, z, p) -> QuadratureStats:
    """QuadratureStats view of perturbed_moments (means, variances, <F>)."""
    return perturbed_moments(delta, phi, beta, theta, z, p).stats


# ---------------------------------------------------------------------------
# all-order dispersions from C_n(tau)
# ---------------------------------------------------------------------------

def general_dispersion(params: DeformationParams, n_max: int = 128,
                       tol: float = 1e-12) -> QuadratureStats:
    """All-order dispersions of X and P on the z-deformed squeezed state
    (nu = 0, any z) from sums over n of C_n(0) = c_n, C'_n(0) = sqrt(n/2)
    c_{n-1} and C''_n(0) = sqrt(n(n-1))/2 c_{n-2}, C_n(tau) being the
    amplitudes of e^{tau a+ / sqrt2} on the C_0 = 1 state of
    fock_coefficients; P follows by the tau -> i tau rule."""
    import numpy as np
    if params.nu != 0:
        raise BadParams("the all-order dispersion sums cover the nu = 0 states")
    tol = max(tol, 1e-12)
    c = np.array(fock_coefficients(params, n_max)[0])
    w = np.abs(c) ** 2
    s0 = float(np.sum(w))                           # >= |c_0|^2 = 1
    if w[-3:].sum() > tol * s0:
        raise NotConverged(
            f"norm series tail {w[-3:].sum() / s0:.2e} above tolerance at "
            f"n_max={n_max}")

    # C'_n(0) and C''_n(0) for every n at once
    n = np.arange(1, n_max + 1)
    cp = np.sqrt(n / 2.0) * c[:-1]
    s_cp = np.vdot(c[1:], cp)                       # sum conj(C_n) C'_n
    s_cpp = np.vdot(c[2:], np.sqrt(n[1:] * (n[1:] - 1)) / 2.0 * c[:-2])
    s_pp = np.vdot(cp, cp).real                     # sum |C'_n|^2

    mean_x = 2 * s_cp.real / s0
    mean_p = -2 * s_cp.imag / s0
    x2 = -0.5 + (2 * s_cpp.real + 2 * s_pp) / s0
    p2 = -0.5 + (-2 * s_cpp.real + 2 * s_pp) / s0
    a_sq = (2 * s_cpp / s0).conjugate()
    corr_f = 2 * a_sq.imag - 2 * mean_x * mean_p
    return QuadratureStats(mean_x=mean_x, mean_p=mean_p,
                           var_x=x2 - mean_x ** 2, var_p=p2 - mean_p ** 2,
                           corr_f=corr_f)


# ---------------------------------------------------------------------------
# figure sweeps
# ---------------------------------------------------------------------------

class SweepTable(NamedTuple):
    grid_value: list
    var_x_mus: list
    var_p_mus: list
    var_x_def: list
    var_p_def: list
    product_def: list
    srur_bound: list
    validity_flag: list


def sweep_table(*, delta, phi, beta, theta, varying: str, grid, z, p):
    """Variance table over a phi or delta grid for one (z, p), as columns.

    The whole grid goes through one mus_dispersions and one perturbed_moments
    call on numpy arrays; each SweepTable field is a list, one plain float
    (validity_flag: bool) per grid value in grid order.  validity_flag is
    False where |epsilon| = |Omega~ - 1| exceeds the module threshold and the
    first-order state can no longer be trusted.  A non-finite column raises
    NotConverged naming the first grid value where it is not finite.
    """
    import numpy as np
    if varying not in ("phi", "delta"):
        raise BadParams("varying must be 'phi' or 'delta'")
    g = np.array(grid, dtype=float)
    d, f = (delta, g) if varying == "phi" else (g, phi)
    mus = mus_dispersions(d, f)
    m = perturbed_moments(d, f, beta, theta, z, p)
    st = m.stats
    cols = (st.var_x, st.var_p, st.product, st.srur_bound)
    ok = np.abs(m.epsilon) <= VALIDITY_EPSILON_THRESHOLD
    bad = ~np.isfinite(cols).all(axis=0)
    if bad.any():
        raise NotConverged(f"moments overflow at {varying}="
                           f"{float(g[bad.argmax()])}")
    return SweepTable._make(c.tolist() for c in (g, *mus, *cols, ok))
