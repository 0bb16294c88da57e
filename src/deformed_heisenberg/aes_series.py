"""Algebra eigenstates of the deformed oscillator: series amplitudes and states.

The eigenstates of  e^{z a+} a + mu a+ + nu e^{z a+}  solve the Bargmann ODE
P(xi) w' = Q(xi) w, and both of their routes are calls of the one row kernel
fock_core.bargmann_rows, O(N^2) at any dim, with two different splits:
(i) the row recurrence of the eigen-equation (_amplitudes: P = e^{z xi},
Q = lam - mu xi), the production route for every z, and (ii) the vacuum
image exp(x(a+))|0> of the symbol e^{x} (eigenstate_image: P = 1, Q = x'),
which builds the states and checks every table of (i).  The two calls share
the kernel and the scale of their orders but no coefficient, so the check
still compares two arithmetic paths.  The tests hold (i) against two
references: the exact-integer tables (upsilon_table, amplitude_coefficients)
and the paper's double series (mpmath).
First-order perturbed squeezed/coherent states and the two-parameter Bargmann
symbol live here as well.

Both routes and the norm sum are plain Python over lists of complex:
_amplitudes, eigenstate_image, normalization_c0 and fock_coefficients return
lists, and ``dheis state``, which runs only these, never loads numpy.  Python
floats do not warn where numpy returned inf: the kernel turns an overflow
into nan entries, which the finiteness and norm checks report as
NotConverged.  The states built from the vacuum image
(deformed_squeezed_state, deformed_coherent_state) are numpy arrays; numpy
is imported where an array is built.
"""

import cmath
import math
import warnings
from functools import lru_cache
from itertools import cycle
from math import comb, factorial
from typing import NamedTuple

from . import _gaussian
from .deformed_algebra import (DeformationParams, RealizationKind,
                               build_realization)
from .errors import BadParams, NonNormalizable, NotConverged, PhaseWindow, BranchCut
from .fock_core import (TruncationConfig, bargmann_rows, check_tail, norm,
                        normalize, series_operator, squeezed_displaced_vacuum)


class SeriesDiagnostics(NamedTuple):
    """Terms used by a series that passed its checks, and its error estimate."""

    terms_used: int
    tail_estimate: float


# ---------------------------------------------------------------------------
# exact-integer tables (the reference) and the amplitude recurrence
# ---------------------------------------------------------------------------

class UpsilonTable(NamedTuple):
    """Exact integers upsilon[m][j] (0 <= m <= n, 0 <= j <= n-m) defined by

        k^{n-m}/(k-m)!  =  sum_j upsilon[m][j] / (k-m-j)!   for all k >= m,

    where 1/(negative)! = 0.
    """

    n: int
    rows: tuple

    def identity_residual(self, m: int, k: int):
        """LHS - RHS of the defining identity at integer k >= m (exact rational)."""
        from fractions import Fraction      # not at load: see cli's docstring
        d = k - m
        lhs = Fraction(k ** (self.n - m), factorial(d))
        rhs = sum((Fraction(self.rows[m][j], factorial(d - j))
                   for j in range(min(d, self.n - m) + 1)), Fraction(0))
        return lhs - rhs


@lru_cache(maxsize=None)
def upsilon_table(n: int) -> UpsilonTable:
    """Solve for the upsilon integers by matching the identity at k = m..n;
    the system is triangular in j."""
    if n < 0:
        raise BadParams("n must be >= 0")
    from fractions import Fraction          # not at load: see cli's docstring
    rows = []
    for m in range(n + 1):
        d = n - m
        v = []
        for i in range(d + 1):          # match at k = m + i
            k = m + i
            lhs = Fraction(k ** d, factorial(i))
            acc = sum((v[j] * Fraction(1, factorial(i - j)) for j in range(i)),
                      Fraction(0))
            val = lhs - acc
            if val.denominator != 1:
                raise ArithmeticError(f"upsilon({n})[{m}][{i}] not integral: {val}")
            v.append(val)
        rows.append(tuple(int(x) for x in v))
    return UpsilonTable(n=n, rows=tuple(rows))


@lru_cache(maxsize=None)
def amplitude_coefficients(n: int):
    """Integer coefficients K of the scaled amplitude

        c_n * sqrt(n!) / C_0  =  sum_{s,t} K[(s,t)] lam^t mu^s z^{n-2s-t},

    obtained by expanding the (X, Y) double sum exactly.  The z-degree of every
    monomial is n - 2s - t >= 0 and the pure-z term is absent for n >= 1 (the
    amplitude is a z-polynomial of degree n-1).
    """
    if n == 0:
        return (((0, 0), 1),)
    ups = upsilon_table(n).rows
    out = {}
    for s in range(n + 1):
        for t in range(n + 1 - s):
            if n - 2 * s - t < 0:
                continue
            tot = 0
            for m in range(min(s, n) + 1):
                j = s + t - m
                if 0 <= j <= n - m:
                    tot += comb(n, m) * (-1) ** (n - m) * ups[m][j] * comb(s + t - m, t)
            val = (-1) ** t * tot
            if val:
                out[(s, t)] = val
    assert (0, 0) not in out, "pure-z monomial must cancel for n >= 1"
    return tuple(sorted(out.items()))


def _amplitudes(params: DeformationParams, n_max: int) -> list:
    """c_n for n = 0..n_max with C_0 = 1, as a list of complex: the
    eigen-equation is the Bargmann ODE e^{z xi} w' = (lam - mu xi) w, whose
    fock_core.bargmann_rows give row n as

        sqrt(n+1) c_{n+1} = (lam - n z) c_n - (mu + (n-1) z^2/2) sqrt(n) c_{n-1}
            - sum_{j=2}^{n} (n-j) z^{j+1}/(j+1)! sqrt(n!/(n-j)!) c_{n-j},

    P_{j+1} = z^{j+1}/(j+1)! on the scale |z|^{j-1}/(j-1)! that
    eigenstate_image shares.  Any real z, any n_max: at z = 0 the rows are
    those of the squeezed state of a + mu a+.  fock_coefficients and
    normalization_c0 check finiteness.
    """
    # Python complex, so that a numpy scalar parameter keeps no numpy type
    lam, mu, z = complex(params.lam), complex(params.mu), params.z
    if z == 0 and abs(mu) >= 1:
        raise NonNormalizable(f"|mu| = {abs(mu)} >= 1 squeezed state has no norm")
    signs = cycle((1.0, math.copysign(1.0, z)))      # sign(z)^(j-1)
    js = range(1, n_max if z else 1)            # at z = 0, orders 0 and 1
    p = [1.0, z] + [z * z / (j * (j + 1)) * s for j, s in zip(js, signs)]
    ratio = [1.0] + [abs(z) / j for j in js]
    return bargmann_rows([lam, -mu], p, ratio, n_max + 1)


# ---------------------------------------------------------------------------
# the vacuum-image route (independent check of the recurrence amplitudes)
# ---------------------------------------------------------------------------

# Largest gap allowed between the two routes, in units of the largest
# amplitude.  The benchmark's state requests read below 1e-15; past the turn
# of a z != 0 series both routes lose more: at z -0.047, delta 0.69, beta
# 2.5, N 512 the recurrence reads 7.0e-11 against the tests' 60-digit
# _mp_recurrence and the vacuum image 1.0e-10, 1.3e-10 apart.
ROUTE_DEVIATION_BOUND = 1e-9

# normalization_c0's stop: a norm-series term below this share of the total
NORM_TOL = 1e-12


def _phase_window_check(params: DeformationParams) -> None:
    if params.mu == 0 and params.lam != 0 and params.z != 0:
        theta = cmath.phase(params.lam)
        ok = math.cos(theta) >= -1e-12 if params.z > 0 else math.cos(theta) <= 1e-12
        if not ok:
            warnings.warn(PhaseWindow(
                f"mu=0 series phase arg(lam)={theta:.4f} outside the convergence "
                f"window for z={params.z}"))


def eigenstate_image(params: DeformationParams, nu: complex, n: int) -> list:
    """Fock amplitudes psi_0..psi_{n-1} (psi_0 = 1) of exp(x(a+))|0>, the
    vacuum image of the eigenstates' symbol, as a list of complex:
    fock_core.bargmann_rows with P = 1 and Q = x' = (lam - mu xi) e^{-z xi}
    - nu, whose order j >= 1 is (-z)^{j-1}/(j-1)! (-mu - lam z/j)."""
    lam, mu, z = complex(params.lam), complex(params.mu), params.z
    signs = cycle((1.0, math.copysign(1.0, -z)))     # sign(-z)^(j-1)
    q = [lam - complex(nu)] + [(-mu - lam * z / j) * s
                               for j, s in zip(range(1, n - 1), signs)]
    ratio = [1.0] + [abs(z) / j for j in range(1, n)]
    return bargmann_rows(q, [1.0], ratio, n)


def fock_coefficients(params: DeformationParams, n_max: int, amps=None):
    """(c, SeriesDiagnostics): amplitudes c_n (C_0 = 1) of the deformed
    squeezed eigenstate, for any real z, as a list of complex.

    The values come from the row recurrence of the eigen-equation
    (_amplitudes); the vacuum-image route, which shares the row kernel and
    the scale of its orders with it but no coefficient, checks every one.  tail_estimate is the
    largest gap between the routes in units of the largest amplitude,
    terms_used the number of amplitudes checked; NotConverged when the gap
    passes ROUTE_DEVIATION_BOUND.  amps: _amplitudes(params, m) for some
    m >= n_max, whose first n_max + 1 rows are those of a shorter run,
    reused instead of running the recurrence again.
    """
    _phase_window_check(params)
    c = _amplitudes(params, n_max) if amps is None else amps[:n_max + 1]
    if not all(map(cmath.isfinite, c)):
        raise NotConverged("amplitudes leave the float range: no normalizable state")
    psi = eigenstate_image(params, 0.0, n_max + 1)
    try:
        gaps = [abs(p - v) for p, v in zip(psi, c)]
        # a nan gap (the vacuum image past the float range) is the result
        dev = (math.nan if any(map(math.isnan, gaps))
               else max(gaps) / max(map(abs, c)))
    except OverflowError:           # a modulus past the float range
        dev = math.inf
    if not dev <= ROUTE_DEVIATION_BOUND:          # nan fails too
        raise NotConverged(
            f"route deviation {dev:.2e} between the row recurrence and the "
            f"vacuum-image route exceeds {ROUTE_DEVIATION_BOUND:.0e}")
    return c, SeriesDiagnostics(terms_used=n_max + 1, tail_estimate=dev)


def _weight(a: complex) -> float:
    """|a|^2, inf where it leaves the float range (abs and ** raise there)."""
    try:
        return abs(a) ** 2
    except OverflowError:
        return math.inf


def normalization_c0(params: DeformationParams, n_max: int = 96, amps=None):
    """Real positive C_0 with sum |c_n|^2 = 1, by adaptive partial sums.

    The sum stops after three terms in a row below NORM_TOL of the running
    total; NotConverged is raised if it does not, or if the weights computed
    past the stop (up to n_max) exceed sqrt(NORM_TOL) of the accepted total.
    amps is reused as in fock_coefficients."""
    _phase_window_check(params)
    amps = _amplitudes(params, n_max) if amps is None else amps[:n_max + 1]
    weights = [_weight(a) for a in amps]          # inf or nan: not converged
    total, small, used, w = 0.0, 0, 0, 0.0
    for w in weights:
        total += w
        used += 1
        if w < NORM_TOL * max(total, 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    # the last term alone can be a zero of an odd amplitude or undercut the
    # terms already computed past the stop, so report their sum if larger
    rest = sum(weights[used:])
    tail = max(w, rest) / max(total, 1e-300)          # inf / inf: nan
    # not converged: a series that dips below NORM_TOL and grows again, or nan
    if small < 3 or not rest <= math.sqrt(NORM_TOL) * total:
        raise NotConverged(
            f"norm series not converged by n_max={n_max} (tail {tail:.2e})")
    return 1.0 / math.sqrt(total), SeriesDiagnostics(terms_used=used,
                                                     tail_estimate=tail)


# ---------------------------------------------------------------------------
# operator-route state assembly
# ---------------------------------------------------------------------------

def deformed_squeezed_state(params: DeformationParams, cfg: TruncationConfig):
    """Normalized eigenstate of e^{z a+} a + mu a+ with eigenvalue lam:
    deformed_coherent_state at nu = 0."""
    return deformed_coherent_state(params._replace(nu=0.0), cfg)


def aes_operator(params: DeformationParams, cfg: TruncationConfig):
    """The eigenvalue operator  e^{z a+} a + mu a+ + nu e^{z a+}: C - mu A
    + nu B of the TildeZ0_Cas1 realization (A = -a+, B = e^{z a+},
    C = e^{z a+} a), built in O(N^2)."""
    t = build_realization(RealizationKind.TildeZ0_Cas1,
                          DeformationParams(z=params.z), cfg)
    return t.C - params.mu * t.A + params.nu * t.B


def deformed_coherent_state(params: DeformationParams, cfg: TruncationConfig):
    """Normalized eigenstate of e^{z a+} a + mu a+ + nu e^{z a+} with eigenvalue
    lam, tail-guarded: the vacuum image exp(x(a+))|0>, x' = (lam - mu xi)
    e^{-z xi} - nu, as a numpy array."""
    import numpy as np
    v = normalize(np.array(eigenstate_image(params, params.nu, cfg.dim)))
    check_tail(v, cfg)
    return v


# ---------------------------------------------------------------------------
# first-order perturbed states and their norm factors
# ---------------------------------------------------------------------------

class PerturbedState(NamedTuple):
    """First-order state with its printed norm factor.

    raw is Omega * (bracket) S D |0> exactly as assembled (normalized only to
    first order); normalized is raw rescaled to unit norm; norm_error is
    | ||raw|| - 1 |, an O(z^2)-grade diagnostic.
    """

    raw: "numpy.ndarray"
    normalized: "numpy.ndarray"
    omega: float
    norm_error: float


def omega_first_order(delta, phi, beta, theta, z) -> float:
    """Closed-form first-order norm factor of the perturbed squeezed state."""
    d2 = delta * delta
    r2 = 1 - d2
    b2 = beta * beta
    bracket = ((2 * d2 + b2 * (1 + d2) / r2) * math.cos(theta)
               - delta * (1 + d2 + 2 * b2 / r2) * math.cos(phi - theta)
               + d2 * b2 * (1 + 2 * d2 / (3 * r2)) * math.cos(2 * phi - 3 * theta)
               - (2 * delta * b2 / (3 * r2)) * math.cos(phi - 3 * theta))
    return 1 + z * beta / (2 * r2 * r2) * bracket


def merged_displacement(beta, theta, gamma, eta_phase):
    """Polar form (beta~, theta~) of lam - nu = beta e^{i theta} + gamma e^{i eta}."""
    w = beta * cmath.exp(1j * theta) + gamma * cmath.exp(1j * eta_phase)
    return abs(w), cmath.phase(w) if w != 0 else 0.0


def omega_two_param(delta, phi, beta, theta, gamma, eta_phase, z, p) -> float:
    """First-order norm factor of the two-parameter perturbed state, derived
    from the squeezed-displaced moments <(a+)^k>:

        Omega~ = 1 - Re[ z (mu G30/3 - lam G20/2)
                         + (p^2/4)(mu G20/4 - (lam/2 - nu/3) G10) ],

    with the moments taken at the merged displacement (beta~, theta~).
    Reduces to omega_first_order when gamma = 0 and p = 0.
    """
    bt, tt = merged_displacement(beta, theta, gamma, eta_phase)
    mu = delta * cmath.exp(1j * phi)
    lam = beta * cmath.exp(1j * theta)
    nu = -gamma * cmath.exp(1j * eta_phase)
    g10, g20, g30 = (row[0] for row in
                     _gaussian.gamma_kl(3, 0, delta, phi, bt, tt)[1:])
    corr = (z * (mu * g30 / 3 - lam * g20 / 2)
            + (p * p / 4) * (mu * g20 / 4 - (lam / 2 - nu / 3) * g10))
    return 1 - corr.real


def omega_two_param_printed(delta, phi, beta, theta, gamma, eta_phase, z, p) -> float:
    """The closed printed form of the two-parameter norm factor, kept verbatim
    for comparison.  Both its gamma-dependent z-block corrections and its p^2
    block disagree with the derivation at first order (omega_two_param tracks
    the numeric state norm to O(2nd order), this form does not; see the test
    suite); one typographically truncated factor is read minimally as a bare
    coefficient 3.
    """
    bt, tt = merged_displacement(beta, theta, gamma, eta_phase)
    d2 = delta * delta
    r2 = 1 - d2
    bt2 = bt * bt
    z_block = bt * ((2 * d2 + bt2 * (1 + d2) / r2) * math.cos(tt)
                    - delta * (1 + d2 + 2 * bt2 / r2) * math.cos(phi - tt)
                    + d2 * bt2 * (1 + 2 * d2 / (3 * r2)) * math.cos(2 * phi - 3 * tt)
                    - (2 * delta * bt2 / (3 * r2)) * math.cos(phi - 3 * tt))
    z_block -= gamma * (bt2 * math.cos(eta_phase - 2 * tt)
                        - delta * (2 * bt2 + r2) * math.cos(eta_phase - tt)
                        + d2 * bt2 * math.cos(2 * phi - eta_phase - 2 * tt))
    p_block = (delta * bt2 * 3 * math.cos(phi - 2 * tt)
               + (2 * gamma / 3) * bt * r2 * (math.cos(eta_phase - tt)
                                              + delta * math.cos(phi - eta_phase - tt))
               - 2 * bt2 - d2 + d2 * d2)
    return 1 + z / (2 * r2 * r2) * z_block - p * p / (16 * r2 * r2) * p_block


def perturbed_state_first_order(delta, phi, beta, theta, z,
                                cfg: TruncationConfig) -> PerturbedState:
    """First-order-in-z normalized deformed squeezed state

        Omega [1 + z(mu (a+)^3/3 - lam (a+)^2/2)] S(-artanh(delta) e^{i phi})
              D(lam / sqrt(1-delta^2)) |0>.
    """
    mu = delta * cmath.exp(1j * phi)
    lam = beta * cmath.exp(1j * theta)
    v = squeezed_displaced_vacuum(delta, phi, lam, cfg)
    T = series_operator([1.0, 0.0, -z * lam / 2, z * mu / 3], cfg)
    omega = omega_first_order(delta, phi, beta, theta, z)
    raw = omega * (T @ v)
    return PerturbedState(raw=raw, normalized=normalize(raw), omega=omega,
                          norm_error=abs(norm(raw) - 1.0))


def two_param_perturbed_state(delta, phi, beta, theta, gamma, eta_phase, z, p,
                              cfg: TruncationConfig) -> PerturbedState:
    """First order in z and p^2 normalized two-parameter state; the displacement
    carries the merged amplitude lam - nu while the bracket keeps lam, mu, nu."""
    mu = delta * cmath.exp(1j * phi)
    lam = beta * cmath.exp(1j * theta)
    nu = -gamma * cmath.exp(1j * eta_phase)
    bt, tt = merged_displacement(beta, theta, gamma, eta_phase)
    v = squeezed_displaced_vacuum(delta, phi, bt * cmath.exp(1j * tt), cfg)
    T = series_operator([1.0, -(p * p / 4) * (lam / 2 - nu / 3),
                         -z * lam / 2 + (p * p / 16) * mu, z * mu / 3], cfg)
    omega = omega_two_param(delta, phi, beta, theta, gamma, eta_phase, z, p)
    raw = omega * (T @ v)
    return PerturbedState(raw=raw, normalized=normalize(raw), omega=omega,
                          norm_error=abs(norm(raw) - 1.0))


# ---------------------------------------------------------------------------
# two-parameter Bargmann symbols
# ---------------------------------------------------------------------------

def _warn_branch(w, what):
    if w.real <= 0 and abs(w.imag) <= 1e-9 * max(abs(w), 1.0):
        warnings.warn(BranchCut(f"{what} evaluated on/near the branch cut at {w}"))


def two_param_log_symbol(params: DeformationParams, zeta: complex) -> complex:
    """log of the two-parameter symbol psi_{z,p} at zeta = e^{z xi}, C_0 = 1:

        sqrt(1 + p^2 zeta^2/4)/(z^2 zeta) ((1 + ln zeta) mu - lam z
            + (2 nu z/p) arcsinh(p zeta/2))
            - (mu p/(2 z^2)) arcsinh(p zeta/2) - (nu/z) ln zeta.

    Principal branches throughout.  The log form stays finite for tiny z
    where the symbol itself overflows (the exponent scales like 1/z^2).
    """
    z, p = params.z, params.p
    lam, mu, nu = params.lam, params.mu, params.nu
    if z == 0 or p == 0:
        raise BadParams("two_param_symbol needs z != 0 and p != 0")
    if zeta == 0:
        raise BadParams("zeta = e^{z xi} cannot vanish")
    zeta = complex(zeta)
    _warn_branch(zeta, "ln(zeta)")
    w = 1 + p * p * zeta * zeta / 4
    _warn_branch(w, "sqrt / arcsinh factor")
    root = cmath.sqrt(w)
    s_half = cmath.asinh(p * zeta / 2)
    log_zeta = cmath.log(zeta)
    return (root / (z * z * zeta) * ((1 + log_zeta) * mu - lam * z
                                     + (2 * nu * z / p) * s_half)
            - mu * p / (2 * z * z) * s_half
            - nu / z * log_zeta)


def two_param_symbol(params: DeformationParams, zeta: complex) -> complex:
    """The two-parameter symbol psi_{z,p}(zeta); see two_param_log_symbol."""
    return cmath.exp(two_param_log_symbol(params, zeta))


def standard_squeezed_symbol_zero_z(p, lam, mu, nu, xi) -> complex:
    """The z = 0 member of the two-parameter family, with C_0 = 1:

        exp( [ (lam - nu (2/p) arcsinh(p/2)) xi - mu xi^2/2 ] / sqrt(1 + p^2/4) ).

    The 1/sqrt(1+p^2/4) in the exponent makes the associated Fock state the
    exact eigenstate of  sqrt(1+p^2/4) a + mu a+ + nu (2/p) arcsinh(p/2) I
    with eigenvalue lam.
    """
    if p == 0:
        raise BadParams("need p != 0 (use the plain squeezed symbol at p = 0)")
    shift = nu * (2 / p) * math.asinh(p / 2)
    c = math.sqrt(1 + p * p / 4)
    return cmath.exp(((lam - shift) * xi - mu * xi * xi / 2) / c)
