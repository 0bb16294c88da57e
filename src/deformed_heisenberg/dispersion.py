"""Quadrature statistics of the deformed states.

Covers the X/P operators and their dispersions, the squeezed-vacuum matrix
elements Gamma_kl / Lambda_kl, the first-order perturbed moments and the
variance tables built from them (sweep_table, over a phi or delta grid), and
the all-order dispersions of general_dispersion.  The first-order moments
and the undeformed dispersions (mus_dispersions) are plain Python on
numbers.  A sweep is one loop over its points: _moments, the one assembly of
the moments, takes each point's Gaussian coefficients from
_gaussian._coefficients and forms its Gamma and Lambda entries and moments
in one iteration, with the sweep's constants evaluated once, and
sweep_table derives the point's row in the same iteration.  numpy
is imported by each function that uses it, so that importing this module
loads no numpy, and a sweep loads none at all.
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
        return 0.25 * (1.0 + self.corr_f * self.corr_f)

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
    """Dispersions (var_x, var_p) of the undeformed squeezed states
    (independent of lam)."""
    if not 0 <= delta < 1:
        raise BadParams("need 0 <= delta < 1")
    r2 = 2 * (1 - delta * delta)
    base = 1 + delta * delta
    c = 2 * delta * math.cos(phi)
    return (base - c) / r2, (base + c) / r2


# ---------------------------------------------------------------------------
# squeezed-vacuum matrix elements
# ---------------------------------------------------------------------------

def gamma_element(k: int, l: int, delta, phi, beta, theta) -> complex:
    """<0|D+ S+ (a+)^k a^l S D|0>, the corner of the Hermite recurrence table
    of the Gaussian generating function's derivatives."""
    return _gaussian.gamma_kl(k, l, delta, phi, beta, theta)[k][l]


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
    return _gaussian.lambda_kl(k, l, delta, phi, beta, theta)[k][l]


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


def _transpose(rows, width) -> list:
    """The columns of equal-width rows as lists; width empty ones for none."""
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(width)]


def _moments(deltas, phis, beta, theta, z, p):
    """Yield, for each point of the equal-length lists deltas and phis, its
    first seven PerturbedMoments fields, then the norm, h, nq and nr of its
    n_bar, which only perturbed_moments forms.  Each point takes its w, c, a
    and d from _gaussian._coefficients, which checks its delta, and forms
    from them the 15 Gamma and Lambda entries it reads, by the recurrences of
    quadratic_exponential_derivative written out term by term, so each entry
    has the bits of gamma_kl(5, 1) and lambda_kl(2, 3) at that point.  lam
    and lam/2 are evaluated once: a sweep varies neither beta nor theta."""
    q = p * p / 4.0
    lam = beta * cmath.exp(1j * theta)
    half = lam / 2
    one = 1 + 0j
    for x, f in zip(deltas, phis):
        w, c, a, d = _gaussian._coefficients(x, f, beta, theta)
        mu = x * cmath.exp(1j * f)
        # Gamma: sigma^2 a, tau^2 conj(a), sigma tau c, sigma d, tau conj(d);
        # Lambda swaps each pair and couples sigma tau by w, so its top row
        # is Gamma's first column and Lambda_10 is Gamma_01
        ac, dc = a.conjugate(), d.conjugate()
        g10, g01 = d * one, dc * one
        g20 = d * g10 + 2.0 * a * one
        g30 = d * g20 + 4.0 * a * g10
        g40 = d * g30 + 6.0 * a * g20
        g50 = d * g40 + 8.0 * a * g30
        g11 = d * g01 + 1.0 * c * one
        g21 = d * g11 + 2.0 * a * g01 + 1.0 * c * g10
        g31 = d * g21 + 4.0 * a * g11 + 1.0 * c * g20
        g41 = d * g31 + 6.0 * a * g21 + 1.0 * c * g30
        l11 = dc * g10 + 1.0 * w * one
        l12 = dc * g20 + 2.0 * w * g10
        l13 = dc * g30 + 3.0 * w * g20
        l21 = dc * l11 + 2.0 * ac * g10 + 1.0 * w * g01
        l22 = dc * l12 + 2.0 * ac * g20 + 2.0 * w * l11
        l23 = dc * l13 + 2.0 * ac * g30 + 3.0 * w * l12
        # the Q and R blocks against the element e(m) that carries (a+)^m,
        # Q = mu e(3)/3 - lam e(2)/2 and R = mu e(2)/4 - (lam/2) e(1), kept
        # apart.  Past |beta| ~ 1e40 a moment's terms cancel beyond a
        # float's digits: summed in this order, their rounding leaves the
        # float range, as the exact first-order product does, and a sweep
        # exits 3; summed as one polynomial in a+, they cancelled to a
        # finite table with no correct digit (beta 1e60)
        m3, m4 = mu * g30, mu * g40
        mean_q = m3 / 3 - lam * g20 / 2
        mean_r = mu * g20 / 4 - half * g10
        eps = -(z * mean_q + q * mean_r).real
        norm = 1 + 2 * eps
        # <a^j (.)> + <(a+)^j (.)>^*: Lambda's row j, Gamma's (a+)^(m + j)
        q1 = (mu * l13 / 3 - lam * l12 / 2
              + (m4 / 3 - lam * g30 / 2).conjugate())
        r1 = mu * l12 / 4 - half * l11 + (m3 / 4 - half * g20).conjugate()
        q2 = (mu * l23 / 3 - lam * l22 / 2
              + (mu * g50 / 3 - lam * g40 / 2).conjugate())
        r2 = mu * l22 / 4 - half * l21 + (m4 / 4 - half * g30).conjugate()
        # a+ a against (a+)^m: a (a+)^m = (a+)^m a + m (a+)^{m-1}
        n2 = g31 + 2 * g20
        nq = mu * (g41 + 3 * g30) / 3 - lam * n2 / 2
        nr = mu * n2 / 4 - half * (g21 + g10)

        g01, g02 = g10.conjugate(), g20.conjugate()
        corr = z * q1 + q * r1
        gx, gp, h = g01.real, g01.imag, g11.real
        yield (2 * (gx * gx * (1 + 4 * eps) + 2 * gx * corr.real),
               0.5 + norm * (h + g02.real)
               + (z * (q2 + 2 * nq) + q * (r2 + 2 * nr)).real,
               2 * (gp * gp * (1 + 4 * eps) + 2 * gp * corr.imag),
               0.5 + norm * (h - g02.real)
               + (z * (-q2 + 2 * nq) + q * (-r2 + 2 * nr)).real,
               eps,
               norm * g01 + z * q1 + q * r1,
               norm * g02 + z * q2 + q * r2,
               norm, h, nq, nr)


def perturbed_moments(delta, phi, beta, theta, z, p) -> PerturbedMoments:
    """First-order <a>, <a^2>, <a+a>, epsilon and the four X/P moments.

    The corrections come from sandwiching the bracket operator
    1 + z Q + (p^2/4) R,  Q = mu (a+)^3/3 - lam (a+)^2/2,
    R = mu (a+)^2/4 - (lam/2) a+  (nu = 0), against S D |0>, normal-ordering
    everything onto Gamma / Lambda elements; second-order cross terms in
    (z, p^2, epsilon) are dropped.  The 17 elements are 15 entries of the
    Gamma (k <= 5, l <= 1) and Lambda (k <= 2, l <= 3) tables and the
    conjugates Gamma_01 and Gamma_02 of Gamma_10 and Gamma_20; they and each
    Q / R block are formed once, by _moments, the one assembly that
    sweep_table reads too.  Every parameter is a number.
    """
    q = p * p / 4.0
    *m, norm, h, nq, nr = next(_moments([delta], [phi], beta, theta, z, p))
    return PerturbedMoments(*m, norm * h + 2 * (z * nq + q * nr).real)


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

    One loop over the grid's points, each a (delta, phi) pair: mus_dispersions
    at every point first, so that a delta outside [0, 1) fails before any
    moment can overflow, then from _moments each point's Gamma/Lambda
    entries, moments and row in one iteration, with no n_bar; each
    SweepTable field is a list, one plain float (validity_flag: bool) per
    grid value in grid order.  validity_flag is False where
    |epsilon| = |Omega~ - 1| exceeds the module threshold and the first-order
    state can no longer be trusted.  A non-finite column raises NotConverged
    naming the first grid value where it is not finite, as does an
    arithmetic error (an OverflowError or a complex division by zero), which
    Python raises where numpy returned inf or nan.
    """
    if varying not in ("phi", "delta"):
        raise BadParams("varying must be 'phi' or 'delta'")
    g = [float(x) for x in grid]
    deltas, phis = (([delta] * len(g), g) if varying == "phi"
                    else (g, [phi] * len(g)))
    try:
        mus = [mus_dispersions(x, f) for x, f in zip(deltas, phis)]
        rows, moments = [], _moments(deltas, phis, beta, theta, z, p)
        # each point's PerturbedMoments.stats, product and SRUR bound
        for x, (mean_x_sq, x2_mean, mean_p_sq, p2_mean, eps, mean_a, a_sq,
                _, _, _, _) in zip(g, moments):
            var_x, var_p = x2_mean - mean_x_sq, p2_mean - mean_p_sq
            corr_f = (2 * a_sq.imag
                      - 2 * (SQRT2 * mean_a.real) * (SQRT2 * mean_a.imag))
            product, bound = var_x * var_p, 0.25 * (1.0 + corr_f * corr_f)
            # a finite product has finite factors
            if not (math.isfinite(product) and math.isfinite(bound)):
                raise NotConverged(f"moments overflow at {varying}={x}")
            rows.append((var_x, var_p, product, bound,
                         abs(eps) <= VALIDITY_EPSILON_THRESHOLD))
    except ArithmeticError as e:
        raise NotConverged(f"moments overflow on the {varying} grid: "
                           f"{type(e).__name__}: {e}") from e
    return SweepTable(g, *_transpose(mus, 2), *_transpose(rows, 5))
