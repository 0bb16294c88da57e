"""Algebra eigenstates of the deformed oscillator: series amplitudes and states.

The eigenstates of  e^{z a+} a + mu a+ + nu e^{z a+}  are built two independent
ways: (i) Fock amplitudes c_n from the row recurrence of the eigen-equation,
the production route for every z, z = 0 included (O(N^2), any dim), and
(ii) the operator route: exp(x(a+))|0> for an exponent series x, with the
exponential's coefficients from the recurrence of w' = x' w
(deformed_algebra.exp_coefficients).  Two more
routes only check (i): the exact-integer tables (upsilon_table,
amplitude_coefficients), which the tests hold it against, and the unsummed
double series that fock_coefficients evaluates as its cross-check (z != 0).
First-order perturbed squeezed/coherent states and the two-parameter Bargmann
symbol live here as well.
"""

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from . import _gaussian
from .deformed_algebra import DeformationParams, exp_coefficients
from .errors import BadParams, NonNormalizable, NotConverged, PhaseWindow, BranchCut
from .fock_core import (FockVector, TruncationConfig, annihilation,
                        check_tail, creation, norm, normalize, series_operator,
                        squeezed_displaced_vacuum)


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Convergence report for an adaptively truncated series."""

    terms_used: int
    tail_estimate: float
    converged: bool


# ---------------------------------------------------------------------------
# exact-integer tables (the reference) and the amplitude recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpsilonTable:
    """Exact integers upsilon[m][j] (0 <= m <= n, 0 <= j <= n-m) defined by

        k^{n-m}/(k-m)!  =  sum_j upsilon[m][j] / (k-m-j)!   for all k >= m,

    where 1/(negative)! = 0.
    """

    n: int
    rows: tuple

    def identity_residual(self, m: int, k: int) -> Fraction:
        """LHS - RHS of the defining identity at integer k >= m (exact rational)."""
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


def _amplitudes(params: DeformationParams, n_max: int) -> np.ndarray:
    """c_n for n = 0..n_max with C_0 = 1, from row n of the eigen-equation

        sqrt(n+1) c_{n+1} = lam c_n - mu sqrt(n) c_{n-1}
            - sum_{k=1}^{n} (z^k/k!) sqrt(n!/(n-k)!) sqrt(n-k+1) c_{n-k+1}:

    one dot product per row, weighted from one log-factorial table (no
    factorial, any n_max).  Any real z: at z = 0 every k-weight is
    exp(-inf) = 0 and the rows are those of the squeezed state of a + mu a+.
    Entries past the float range turn inf or nan.
    """
    lam, mu, z = params.lam, params.mu, params.z
    if z == 0 and abs(mu) >= 1:
        raise NonNormalizable(f"|mu| = {abs(mu)} >= 1 squeezed state has no norm")
    j = np.arange(n_max + 1)
    root, log_fact = np.sqrt(j), np.r_[0.0, np.cumsum(np.log(j[1:]))]
    c = np.r_[1.0 + 0j, np.zeros(n_max, dtype=complex)]
    # math.log, not np.log: the two differ in the last bit on a few inputs
    log_z = math.log(abs(z)) if z else -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        log_zk = j * log_z - log_fact                     # log |z^k / k!|
        for n in range(n_max):                            # root[0] = 0 drops c[-1]
            k = j[n:0:-1]                                 # pairs with c_1..c_n
            w = np.copysign(1.0, z) ** k * np.exp(
                log_zk[k] + 0.5 * (log_fact[n] - log_fact[n - k]))
            c[n + 1] = (lam * c[n] - mu * root[n] * c[n - 1]
                        - (w * root[1:n + 1]) @ c[1:n + 1]) / root[n + 1]
    return c


# ---------------------------------------------------------------------------
# the double-sum route (independent cross-check of the recurrence amplitudes)
# ---------------------------------------------------------------------------

# Float-route cap on |Y| = |mu/z^2 - lam/z|: past it the k-sum needs more
# terms than double precision can form (Y**k overflows once k ln|Y| > 709),
# so "auto" skips the check and cross_check=True goes to mpmath.  Below the
# cap the float route still loses digits to cancellation; it bounds that loss
# itself (_k_sum) and leaves out the amplitudes it cannot check.
_FLOAT_Y_MAX = 80.0
_EPS = float(np.finfo(float).eps)


def _phase_window_check(params: DeformationParams) -> None:
    if params.mu == 0 and params.lam != 0 and params.z != 0:
        theta = cmath.phase(params.lam)
        ok = math.cos(theta) >= -1e-12 if params.z > 0 else math.cos(theta) <= 1e-12
        if not ok:
            warnings.warn(PhaseWindow(
                f"mu=0 series phase arg(lam)={theta:.4f} outside the convergence "
                f"window for z={params.z}"))


def _double_sum_term(n, k, X, Y):
    """Term k of the double sum for c_n, and the sum of its summands' moduli."""
    # divide the X/Y value by the integer factorial, never int/int: the latter
    # goes through float and underflows to exact zero for k beyond ~280
    term, size = 0 * X, 0 * abs(X)
    for m in range(min(k, n) + 1):
        s = (X ** m * Y ** (k - m)) * (comb(n, m) * (-k) ** (n - m)) / factorial(k - m)
        term += s
        size += abs(s)
    return term, size


def _k_sum(n, X, Y, k_cutoff, tol, size_cap=math.inf):
    """Sum term k = 0, 1, ... of c_n's double sum until three terms in a row
    fall below tol relative to the partial sum; returns (total, terms, tail).

    Returns None once the first-order rounding bound of a float sum,
    8 eps (summands so far) sum |summand|, passes size_cap: each summand
    carries at most about 5k roundings (its powers) and the sum one more.
    """
    total, size, count, small = 0 * X, 0.0, 0, 0
    for k in range(k_cutoff + 1):
        t, s = _double_sum_term(n, k, X, Y)
        total += t
        size += s
        count += min(k, n) + 1
        if 8 * _EPS * count * size > size_cap:
            return None
        # compare in the arithmetic of the sum: float(|total|) can overflow
        tail = abs(t) / (abs(total) + 1e-300)
        small = small + 1 if tail < tol else 0
        if small == 3:
            return total, k + 1, float(tail)
    raise NotConverged(f"double sum for c_{n} not converged after {k_cutoff} "
                       f"terms (tail {float(tail):.2e})")


def _double_sum_amplitudes(params, n_max, k_cutoff, tol, use_mp, room):
    """c_n via the unsummed (k, m) double series; returns (array, terms, tail).

    In floats an entry is nan where the rounding bound of its sum passes
    room (absolute, in units of c_n), or where a summand overflows.
    """
    lam, mu, z = params.lam, params.mu, params.z
    out = np.full(n_max + 1, np.nan, dtype=complex)
    worst_tail, worst_k = 0.0, 0
    if use_mp:
        import mpmath as mp
        Y0 = mu / z ** 2 - lam / z
        # 0.434|Y| digits cancel in e^{-Y} sum_k Y^k/k!, up to ~0.87|Y| for
        # complex Y; the k^n and X^m growth adds ~n log10|Y| more
        dps = (40 + int(0.9 * abs(Y0))
               + int(n_max * max(2.0, math.log10(max(abs(Y0), 10.0)))))
        with mp.workdps(dps):
            X, Y = mp.mpc(mu) / z ** 2, mp.mpc(mu) / z ** 2 - mp.mpc(lam) / z
            pref = mp.e ** (-Y)
            for n in range(n_max + 1):
                total, k, tail = _k_sum(n, X, Y, k_cutoff, tol)
                worst_tail, worst_k = max(worst_tail, tail), max(worst_k, k)
                out[n] = complex(pref * z ** n * total / mp.sqrt(mp.factorial(n)))
        return out, worst_k, worst_tail
    X = mu / z ** 2
    Y = mu / z ** 2 - lam / z
    pref = cmath.exp(-Y)
    for n in range(n_max + 1):
        # c_n = pref z^n / sqrt(n!) (the k-sum), with |z^n / sqrt(n!)| = e^{log_w}
        log_w = n * math.log(abs(z)) - 0.5 * math.lgamma(n + 1)
        try:                        # a summand, or the cap, can pass the float range
            got = _k_sum(n, X, Y, k_cutoff, tol,
                         size_cap=room * math.exp(-log_w) / abs(pref))
        except OverflowError:
            continue
        if got is not None:
            total, k, tail = got
            worst_tail, worst_k = max(worst_tail, tail), max(worst_k, k)
            out[n] = pref * math.copysign(1.0, z) ** n * math.exp(log_w) * total
    return out, worst_k, worst_tail


def fock_coefficients(params: DeformationParams, n_max: int, k_cutoff=None,
                      tol: float = 1e-10, cross_check="auto", amps=None):
    """(c, SeriesDiagnostics): amplitudes c_n (C_0 = 1) of the deformed
    squeezed eigenstate, for any real z.

    The returned values come from the row recurrence of the eigen-equation
    (_amplitudes).  When the eigenvalue data allows it (|mu/z^2 - lam/z|
    small enough for floating point, or cross_check=True forcing
    high-precision arithmetic), the unsummed double series is evaluated
    independently and folded into the diagnostics: tail_estimate covers both
    the k-sum tail and the worst relative deviation between the two routes.
    The float double sum checks only the amplitudes whose rounding bound
    stays below a tenth of the convergence tolerance; terms_used is 0 when it
    checks none, and always where z^2 = 0 leaves no double sum to form.

    cross_check: "auto" | True | False.  amps: _amplitudes(params, m) for
    some m >= n_max, whose first n_max + 1 rows are those of a shorter run,
    reused instead of running the recurrence again.
    """
    _phase_window_check(params)
    c = _amplitudes(params, n_max) if amps is None else amps[:n_max + 1]
    if not np.isfinite(c).all():
        raise NotConverged("amplitudes leave the float range: no normalizable state")

    z2 = params.z ** 2                        # 0 once |z| < 1.5e-162
    Y = abs(params.mu / z2 - params.lam / params.z) if z2 else math.inf
    run = math.isfinite(Y) and (cross_check is True or
                                (cross_check == "auto" and Y <= _FLOAT_Y_MAX))
    if not run:
        return c, SeriesDiagnostics(terms_used=0, tail_estimate=0.0, converged=True)

    if k_cutoff is None:
        k_cutoff = max(300, int(4 * Y) + 40 * (n_max + 1))
    conv_tol = max(tol, 1e-9)
    other, terms, tail = _double_sum_amplitudes(params, n_max, k_cutoff, tol,
                                                use_mp=Y > _FLOAT_Y_MAX,
                                                room=conv_tol / 10)
    checked = ~np.isnan(other)
    dev = float(max(abs(other - c)[checked] / np.maximum(np.abs(c[checked]), 1.0),
                    default=0.0))
    if dev > max(100 * tol, 1e-6):
        raise NotConverged(f"route deviation {dev:.2e}: double sum mis-converged, "
                           f"raise k_cutoff or tighten tol")
    tail = max(tail, dev)
    return c, SeriesDiagnostics(terms_used=terms, tail_estimate=tail,
                                converged=tail < conv_tol)


def normalization_c0(params: DeformationParams, n_max: int = 96, tol: float = 1e-12,
                     amps=None):
    """Real positive C_0 with sum |c_n|^2 = 1, by adaptive partial sums.

    The sum stops after three terms in a row below tol of the running total;
    NotConverged is raised if it does not, or if the weights computed past
    the stop (up to n_max) exceed sqrt(tol) of the accepted total.  amps is
    reused as in fock_coefficients."""
    _phase_window_check(params)
    amps = _amplitudes(params, n_max) if amps is None else amps[:n_max + 1]
    with np.errstate(over="ignore", invalid="ignore"):   # inf or nan: not converged
        weights = np.abs(amps) ** 2
    total, small, used, w = 0.0, 0, 0, 0.0
    for w in weights:
        total += w
        used += 1
        if w < tol * max(total, 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    # the last term alone can be a zero of an odd amplitude or undercut the
    # terms already computed past the stop, so report their sum if larger
    with np.errstate(over="ignore"):
        rest = weights[used:].sum()
    tail = max(w, rest) / max(total, 1e-300)
    # a series that dips below tol and grows again is not converged; nan fails
    if small < 3 or not rest <= math.sqrt(tol) * total:
        raise NotConverged(
            f"norm series not converged by n_max={n_max} (tail {tail:.2e})")
    return 1.0 / math.sqrt(total), SeriesDiagnostics(terms_used=used,
                                                     tail_estimate=tail,
                                                     converged=True)


# ---------------------------------------------------------------------------
# operator-route state assembly
# ---------------------------------------------------------------------------

def _eigenstate(params: DeformationParams, nu: complex,
                cfg: TruncationConfig) -> FockVector:
    """Normalized exp(x(a+))|0> for the exponent
    x(s) = int_0^s ((lam - mu t) e^{-z t} - nu) dt, tail-guarded."""
    n = cfg.dim
    integrand = np.convolve([params.lam, -params.mu],
                            exp_coefficients([0.0, -params.z], n))
    integrand[0] -= nu
    x = np.r_[0.0, integrand[:n - 1] / np.arange(1, n)]
    v = normalize(series_operator(exp_coefficients(x, n), cfg)[:, 0])
    check_tail(v, cfg)
    return v


def deformed_squeezed_state(params: DeformationParams, cfg: TruncationConfig) -> FockVector:
    """Normalized eigenstate of e^{z a+} a + mu a+ with eigenvalue lam,
    assembled as the exact nilpotent exponential acting on the vacuum."""
    return _eigenstate(params, 0.0, cfg)


def aes_operator(params: DeformationParams, cfg: TruncationConfig) -> np.ndarray:
    """The eigenvalue operator  e^{z a+} a + mu a+ + nu e^{z a+}  (all sums
    finite by nilpotency of a+)."""
    ez = series_operator(exp_coefficients([0.0, params.z], cfg.dim), cfg)
    return ez @ annihilation(cfg) + params.mu * creation(cfg) + params.nu * ez


def deformed_coherent_state(params: DeformationParams, cfg: TruncationConfig) -> FockVector:
    """Normalized eigenstate of e^{z a+} a + mu a+ + nu e^{z a+} with eigenvalue
    lam: the nu-shifted state  exp(exponent) e^{-nu a+} |0>."""
    return _eigenstate(params, params.nu, cfg)


# ---------------------------------------------------------------------------
# first-order perturbed states and their norm factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbedState:
    """First-order state with its printed norm factor.

    raw is Omega * (bracket) S D |0> exactly as assembled (normalized only to
    first order); normalized is raw rescaled to unit norm; norm_error is
    | ||raw|| - 1 |, an O(z^2)-grade diagnostic.
    """

    raw: FockVector
    normalized: FockVector
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
    g10 = _gaussian.gamma_kl(1, 0, delta, phi, bt, tt)
    g20 = _gaussian.gamma_kl(2, 0, delta, phi, bt, tt)
    g30 = _gaussian.gamma_kl(3, 0, delta, phi, bt, tt)
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
