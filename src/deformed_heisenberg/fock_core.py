"""Truncated Fock-space linear algebra.

States are plain 1-d complex numpy arrays of amplitudes over |0>..|N-1>;
operators are dense N x N numpy matrices, float64 for the ladder operators
a, a+ and a+a and wherever the kernels below get real data.  Identity
checks always exclude the top ``guard`` levels because truncation breaks
the ladder relations there.

``series_operator`` builds f(a+) from a coefficient list in O(N^2), in one
vectorised pass with no Python loop over the orders (a cumprod of the scaled
roots and one product with the coefficients); the lists come from the
power-series recurrences of ``deformed_algebra``, and ``series_columns``
is its column-by-column reference.  The tests' dense residual route uses
``triangular_matrix_function``, a Taylor sum in matrix powers that
evaluates several functions of one matrix from one table of its powers, and
stops each sum where a norm bound on the rest falls below the unit roundoff.
Both kernels take their dtype from their inputs, as the coefficient kernels
of ``deformed_algebra`` (``exp_coefficients`` and the recurrences under it)
do: real data give a float64 matrix, at about a quarter of the complex
flops.

``guarded_norm`` is a residual's spectral norm on the guarded block, one
O(N^3) SVD.  A residual that is a series r(a+) needs none: ``series_bound``
bounds its norm on the kept block by sum_k |r_k| ||(a+)^k||, in O(N).

``bargmann_rows`` is the one kernel for the paper's states: the Fock
amplitudes of the solution of a first-order Bargmann ODE P(xi) w' = Q(xi) w
(V. Bargmann, Comm. Pure Appl. Math. 14 (1961) 187), row by row in O(N^2),
its weights running products of roots and ratios, each row's sum cut where a
bound on the rest cannot reach its last bit.  Its calls differ only in P and Q:
the row recurrence of the algebra eigenstates (P = e^{z xi}) and their
vacuum image exp(x(a+))|0> (P = 1, Q = x') in aes_series, e^{xi_bar a+}|0>
(``coherent_state``) and S D|0> (``squeezed_displaced_vacuum``, <0|S D|0>
times the image of x = w a+ - mu (a+)^2 / 2, the exact amplitudes of the
state).  It is plain Python: it returns a list of complex, ``dheis state``
runs on it without numpy, and the array callers wrap the list.

Every other kernel here is numpy, imported by the function that uses it, so
that importing this module loads no numpy; ``matrix_exponential`` imports
scipy the same way.  Only the dense references ``displacement_operator`` and
``squeeze_operator`` reach it, and no CLI command does, so none loads scipy.
scipy stays a runtime dependency all the same: the traced benchmark
(benchmarks/traced_cli.py) wraps ``matrix_exponential`` by name.
"""

import cmath
import math
import sys
from itertools import accumulate, count
from math import isqrt, sqrt
from operator import add, mul
from typing import NamedTuple

from .errors import (BadParams, NotConverged, NotNilpotent, TailTooHeavy,
                     ZeroNorm)


class TruncationConfig(NamedTuple("TruncationConfig",
                                  [("dim", int), ("guard", int),
                                   ("tail_tol", float)])):
    """Basis size, guard band and tail tolerance for a truncated Fock space.

    guard defaults to dim // 4; tail_tol is the maximum relative norm allowed
    in the top ``guard`` levels of any state accepted as converged.
    """

    __slots__ = ()

    def __new__(cls, dim: int, guard: int = -1, tail_tol: float = 1e-8):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if guard == -1:                 # -1 means "use dim // 4"
            guard = dim // 4
        if not (0 <= guard < dim):
            raise ValueError(f"need 0 <= guard < dim, got guard={guard}")
        if tail_tol < 0:
            raise ValueError("tail_tol must be >= 0")
        return super().__new__(cls, dim, guard, tail_tol)

    @property
    def kept(self) -> int:
        """Number of levels below the guard band."""
        return self.dim - self.guard


def annihilation(cfg: TruncationConfig):
    """Matrix of a, float64: entry (n-1, n) = sqrt(n)."""
    import numpy as np
    return np.diag(np.sqrt(np.arange(1, cfg.dim, dtype=float)), 1)


def creation(cfg: TruncationConfig):
    """Matrix of a^dagger, float64: entry (n+1, n) = sqrt(n+1). Strictly
    lower triangular, hence nilpotent in the truncation: (a^dagger)^N = 0."""
    return annihilation(cfg).T


def number_operator(cfg: TruncationConfig):
    """Matrix of a^dagger a, float64."""
    import numpy as np
    return np.diag(np.arange(cfg.dim, dtype=float))


def vacuum(cfg: TruncationConfig):
    import numpy as np
    v = np.zeros(cfg.dim, dtype=complex)
    v[0] = 1.0
    return v


def coherent_state(xi_bar: complex, cfg: TruncationConfig):
    """Unnormalized |xi_bar> = e^{xi_bar a^dagger}|0>: amps[n] = xi_bar^n / sqrt(n!)."""
    import numpy as np
    amps = np.array(bargmann_rows([complex(xi_bar)], [1.0], [], cfg.dim))
    check_tail(amps, cfg)
    return amps


def tail_fraction(v, cfg: TruncationConfig) -> float:
    """Relative norm carried by the top ``guard`` levels."""
    import numpy as np
    total = float(np.linalg.norm(v))
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(v[cfg.kept:])) / total     # guard 0: empty


def check_tail(v, cfg: TruncationConfig) -> None:
    if not math.isfinite(norm(v)):         # nan fails no tail comparison
        raise NotConverged("state norm leaves the float range")
    frac = tail_fraction(v, cfg)
    if frac > cfg.tail_tol:
        raise TailTooHeavy(
            f"top-{cfg.guard} levels hold {frac:.3e} of the norm "
            f"(tail_tol={cfg.tail_tol:.1e}); increase dim"
        )


def guarded_block(mat, cfg: TruncationConfig):
    """Leading (N-g) x (N-g) block, the only part where operator identities hold."""
    k = cfg.kept
    return mat[:k, :k]


def guarded_norm(mat, cfg: TruncationConfig) -> float:
    """Spectral norm of the guarded block."""
    import numpy as np
    return float(np.linalg.norm(guarded_block(mat, cfg), ord=2))


def series_bound(r, cfg: TruncationConfig) -> float:
    """sum_k |r_k| ||(a+)^k|| on the kept block, a bound on the spectral norm
    there of r(a+) (or of r(a)).  (a+)^k is a weighted shift, its norm the
    largest weight sqrt((kept-1)!/(kept-1-k)!), summed in logs so that kept
    past 170 works.  An inf or nan coefficient gives inf, never 0."""
    import numpy as np
    k = cfg.kept
    r = np.abs(np.asarray(r)[:k])
    if not np.isfinite(r).all():
        return math.inf
    log_w = np.r_[0.0, np.cumsum(np.log(np.arange(k - 1, k - len(r), -1.0)))]
    with np.errstate(divide="ignore", over="ignore"):   # log 0, a huge bound
        return float(np.exp(np.log(r) + log_w / 2).sum())


def series_columns(f, cols, n: int):
    """Columns cols of series_operator(f) at dim n, an (n, len(cols)) array:
    entry (j + k, j) is f_k sqrt((j+k)!/j!), the root a running product down
    the column with series_operator's exact scales 2^-e and 2^{ek}, so that
    a correct build matches it bit for bit."""
    import numpy as np
    e = (n.bit_length() + 1) // 2
    f = np.asarray(f)[:n]
    ek = e * np.arange(len(f))
    fk = np.ldexp(f.real, ek)
    if np.iscomplexobj(f):
        fk = fk + 1j * np.ldexp(f.imag, ek)
    root = np.ldexp(np.sqrt(np.arange(1, n, dtype=float)), -e)
    out = np.zeros((n, len(cols)), dtype=fk.dtype)
    for i, j in enumerate(cols):
        k = min(len(f), n - j)
        out[j:j + k, i] = fk[:k] * np.r_[1.0, np.cumprod(root[j:j + k - 1])]
    return out


# unit roundoff of float64
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2


def _taylor_terms_kept(c, norm_K: float):
    """Per coefficient row, the fewest leading terms M whose neglected tail
    sum_{m>=M} |c_m| ||K||_F^m falls below the unit roundoff times the whole
    sum, an upper bound on ||f(K)||_F.  The bounds are summed from their
    logs, scaled to the row's largest; a row whose bounds leave the float
    range, or hold an inf or nan coefficient, keeps every term."""
    import numpy as np
    n = c.shape[-1]
    m = np.arange(n)
    # log 0 = -inf for the zero Taylor terms of every cosh and sinh row
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_t = np.log(np.abs(c)) + np.where(m > 0, m * np.log(norm_K), 0.0)
        peak = log_t.max(axis=-1, keepdims=True)
        t = np.exp(log_t - peak)
    tail = np.cumsum(t[..., ::-1], axis=-1)[..., ::-1]
    kept = np.count_nonzero(tail >= _UNIT_ROUNDOFF * tail[..., :1], axis=-1)
    return np.where(np.isfinite(peak[..., 0]), np.maximum(kept, 1), n)


def triangular_matrix_function(series_coeffs, K):
    """f(alpha*I + K) for strictly triangular (nilpotent) N x N K: the Taylor
    sum sum_m coeffs[m] K^m, coeffs[m] = f^(m)(alpha)/m!, over its first
    n <= N terms (exact, as K^N = 0), cut where the rest cannot reach the
    last bit.  Paterson-Stockmeyer over the M terms kept, with
    s = ceil(sqrt(M)): K^2..K^s once, then Horner's rule in K^s over blocks
    of s coefficients.

    The cut: a row keeps its first M terms, the fewest whose neglected tail
    sum_{m>=M} |c_m| ||K||_F^m is below the unit roundoff times that sum's
    total (N. J. Higham, Functions of Matrices, SIAM 2008, sec. 4.4).  The
    block is sized from M, not n, since only M terms are summed: the dense
    matmuls are K^2..K^(s-1), K^s when there is more than one block, and
    ceil(M/s) - 1 Horner products, at most 2s - 2 in all.  Cut terms are
    slow as well as small: products of subnormal entries take a CPU assist
    per operand.

    Coefficients with leading axes give one function per row, stacked in the
    same leading axes of the result; the functions share K^2..K^s, so each
    one adds only its Horner products.  The stack runs to its largest M and
    is blocked by it, and a row cut below it gets zero coefficients there;
    every block is s wide, zero-padded past M, so a stacked row is
    bit-identical to a call with that row alone whenever the row's own M
    gives the same s.  The result is real when the coefficients and K are.
    """
    import numpy as np
    if np.any(np.abs(np.diag(K)) != 0):
        raise NotNilpotent("K has a nonzero diagonal entry")
    N = K.shape[0]
    c = np.asarray(series_coeffs)[..., :N]
    c = c.astype(np.result_type(c, K, float))
    n = c.shape[-1]
    kept = _taylor_terms_kept(c, float(np.linalg.norm(K)))
    M = int(kept.max())
    s = isqrt(M - 1) + 1
    width = -(-M // s) * s                        # whole blocks of s
    cut = np.zeros(c.shape[:-1] + (width,), dtype=c.dtype)
    w = min(width, n)
    cut[..., :w] = np.where(np.arange(w) < kept[..., None], c[..., :w], 0)
    top = s if width > s else s - 1               # K^s only for Horner
    P = np.empty_like(K, dtype=c.dtype, order="C", shape=(top + 1, N, N))
    P[0] = np.eye(N)                              # K^0..K^top
    for m in range(1, top + 1):
        P[m] = K if m == 1 else P[m - 1] @ K
    out = None
    for j in reversed(range(0, width, s)):
        # sum_i c[j+i] K^i, as one (1 x s)(s x N^2) product per function, so
        # that a stacked row is bit-identical to a call with that row alone
        block = np.matmul(cut[..., None, j:j + s], P[:s].reshape(s, -1))
        block = block.reshape(c.shape[:-1] + (N, N))
        out = block if out is None else out @ P[s] + block
    return out


def series_operator(f, cfg: TruncationConfig):
    """Matrix of f(a+) = sum_k f[k] (a+)^k: entry (n+k, n) = f[k] sqrt((n+k)!/n!).

    Running products of sqrt(j), with no integer factorials: O(N^2) in one
    vectorised pass.  Each root carries 2^-e (4^e >= N) and f[k] carries
    2^{ek}, which is exact and keeps the products finite past N ~ 340, where
    sqrt(n!) overflows.  The products are one cumprod along the rows of a
    Hankel view of the roots, multiplied left to right from sqrt(n+1), and
    the coefficients are a Toeplitz view, so every entry is the same
    sequence of roundings as a product built one subdiagonal at a time.  The
    one N x N temporary is the product table, laid out with row stride
    N + 1 so that its leading N x N block reads prod_{j=n+1}^{m} at (n, m),
    1 on the diagonal and exact zeros below it.  The transpose is f(a);
    column 0 is f(a+)|0>.  Real coefficients give a real matrix.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view
    N = cfg.dim
    e = (N.bit_length() + 1) // 2
    f = np.asarray(f)[:N]
    ek = e * np.arange(len(f))
    fk = np.ldexp(f.real, ek)
    if np.iscomplexobj(f):
        fk = fk + 1j * np.ldexp(f.imag, ek)
    # g[N - 1 + k] = fk[k], zero elsewhere, so F[m, n] = fk[m - n] or 0
    g = np.zeros(2 * N - 1, dtype=np.result_type(fk, float))
    g[N - 1:N - 1 + len(fk)] = fk
    F = sliding_window_view(g, N)[:, ::-1]
    # r[n + j] = sqrt(n + j + 1) 2^-e, then zeros: a product that runs past
    # sqrt(N - 1) is exactly 0
    r = np.zeros(2 * N - 1)
    r[:N - 1] = np.ldexp(np.sqrt(np.arange(1, N, dtype=float)), -e)
    buf = np.empty(N * (N + 1) + 1)
    buf[0] = 1.0
    rows = buf[1:].reshape(N, N + 1)
    rows[:, N] = 1.0
    np.cumprod(sliding_window_view(r, N), axis=1, out=rows[:, :N])
    S = buf[:N * N].reshape(N, N)     # S[n, m] = prod_{j=n+1}^{m} sqrt(j) 2^-e
    return np.multiply(F, S.T, out=np.empty((N, N), dtype=g.dtype))


def bargmann_rows(q, p, ratio, n: int) -> list:
    """Fock amplitudes psi_0..psi_{n-1} (psi_0 = 1) of the solution of the
    Bargmann ODE P(xi) w' = Q(xi) w, w(0) = 1, as a list of complex: with
    psi_m = sqrt(m!) w_m, the coefficient of xi^m gives the row

        P_0 sqrt(m+1) psi_{m+1}
            = sum_{j=0}^{m} (Q_j - (m-j) P_{j+1}) sqrt(m!/(m-j)!) psi_{m-j}.

    q, p and ratio are lists of Python numbers.  P_0 = p[0]; the orders j
    of P and Q share a scale s_j >= 0, Q_j = q[j] s_j and P_{j+1} =
    p[j+1] s_j (zero past the lists), given by its steps:
    s_0 = 1, s_{j+1} = s_j ratio[j], and no order past a zero or missing
    ratio.  The weight W_j = s_j sqrt(m!/(m-j)!) is the running product of
    r_j = ratio[j] sqrt(m-j), so s_j itself may lie below the float range.

    A row's sum stops after order k when the rest cannot reach its last bit.
    Past the order from which no ratio grows, r_j falls with j, and order
    k+i weighs at most r_k^i W_k.  Its amplitudes are bounded by an envelope,
    env[l] = max(|psi_l|, env[l-1] / 4), so |psi_{l-i}| <= 4^i env[l], and
    once r_k <= 1/8 the rest is at most 2 W_{k+1} env[m-k-1] times
    max_{j>k} |q[j]| + m max_{j>0} |p[j+1]|: the sum stops when that is
    below the unit roundoff of the partial sum.  The envelope forgets the
    early amplitudes that only the far orders reach, which a running max
    would not.  For the eigenstates of aes_series the weights fall like
    (|z| sqrt(m))^j / j!, so a row takes a few dozen orders, not m.

    Entries past the float range turn inf or nan, as Python's float
    arithmetic gives them; a modulus past it (abs raises OverflowError)
    makes that amplitude and every later one nan.  Callers check finiteness.
    """
    # the last order summed, the first past which a ratio is zero or missing
    top = (ratio[:min(max(len(q), len(p) - 1), n - 1) - 1] + [0]).index(0)
    ratio = ratio[:top] + [0.0]
    # the cut's bound on the coefficients past order j: cq[j] + m big_p
    cq = [*accumulate(map(abs, q[top:0:-1]), max)][::-1] + [0.0] * (top + 1)
    q = q[:top + 1] + [0.0] * (top + 1 - len(q))
    b = p[1:top + 2] + [0.0] * (top + 2 - len(p))
    big_p = max(map(abs, b[1:]), default=0.0)
    a = [*map(add, q, map(mul, count(), b))]   # order j: (a[j] - m b[j]) W_j
    # the cut is tried from the first order past which no ratio grows
    steady = next((j for j in range(top - 1, 0, -1)
                   if ratio[j - 1] < ratio[j]), 0)
    root = [*map(sqrt, range(n))]
    tol = _UNIT_ROUNDOFF / 2
    psi, env = [1.0 + 0j], [1.0]
    try:
        for m in range(n - 1):
            w, acc, mp = 1.0, 0j, m * big_p
            for j in range(min(m, top) + 1):
                acc += (a[j] - m * b[j]) * w * psi[m - j]
                r = ratio[j] * root[m - j]
                w *= r
                if j >= steady and r <= 0.125 and (
                        w * (cq[j] + mp) * env[m - j - 1] <= tol * abs(acc)):
                    break
            psi.append(acc / (p[0] * root[m + 1]))
            env.append(max(abs(psi[m + 1]), 0.25 * env[m]))
    except OverflowError:
        psi += [complex(math.nan, math.nan)] * (n - len(psi))
    return psi


def matrix_exponential(M):
    """expm via scipy's scaling-and-squaring (Pade) implementation: the dense
    reference for D(lam) and S(chi), which the tests compare the production
    ``squeezed_displaced_vacuum`` against.

    scipy is imported here, not at module level, so that no CLI command pays
    its import at start-up.
    """
    import numpy as np
    import scipy.linalg

    return scipy.linalg.expm(np.asarray(M, dtype=complex))


def displacement_operator(lam: complex, cfg: TruncationConfig):
    """D(lam) = exp(lam a^dagger - conj(lam) a), by dense expm."""
    a = annihilation(cfg)
    return matrix_exponential(lam * a.conj().T - complex(lam).conjugate() * a)


def squeeze_operator(chi: complex, cfg: TruncationConfig):
    """S(chi) = exp(chi (a^dagger)^2/2 - conj(chi) a^2/2), by dense expm, with
    a^2 set from its one diagonal, (n-2, n) = sqrt(n-1) sqrt(n).

    With chi = -artanh(delta) e^{i phi} this satisfies the Bogoliubov relation
    S^dagger a S = (a - delta e^{i phi} a^dagger) / sqrt(1 - delta^2)
    on the guarded subspace.
    """
    import numpy as np
    r = np.sqrt(np.arange(1, cfg.dim, dtype=float))
    a2 = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    a2[:-2, 2:] = np.diag(r[:-1] * r[1:])
    return matrix_exponential(chi * a2.T / 2 - np.conj(chi) * a2 / 2)


def squeezed_displaced_vacuum(delta: float, phi: float, w: complex,
                              cfg: TruncationConfig):
    """S(-artanh(delta) e^{i phi}) D(alpha) |0>, alpha = w / sqrt(1 - delta^2),
    the undeformed squeezed state of a + mu a+ (mu = delta e^{i phi}) with
    eigenvalue w.  Its Bargmann symbol c0 e^{w xi - mu xi^2 / 2} gives the
    exact amplitudes as c0 times a vacuum image, with c0 = <0|S D|0> =
    (1 - delta^2)^(1/4) exp(-|alpha|^2/2 + conj(mu) alpha^2/2).  NotConverged
    once c0 underflows or an amplitude leaves the float range (|alpha| ~ 38).
    """
    if not (0 <= delta < 1):
        raise BadParams("need 0 <= delta < 1")
    mu = delta * cmath.exp(1j * phi)
    alpha = w / sqrt(1 - delta * delta)
    # |c0| <= 1 (nan past |alpha| ~ 1e154), so c0 psi cannot overflow
    c0 = (1 - delta * delta) ** 0.25 * cmath.exp(
        -abs(alpha) * abs(alpha) / 2 + mu.conjugate() * alpha * alpha / 2)
    psi = bargmann_rows([complex(w), -mu], [1.0], [1.0], cfg.dim)
    if not abs(c0) >= sys.float_info.min or not all(map(cmath.isfinite, psi)):
        raise NotConverged(f"S D|0> at |alpha| = {abs(alpha):.4g} leaves the "
                           "float range")
    import numpy as np
    return c0 * np.array(psi)


def inner_product(u, v) -> complex:
    """<u|v> with the physicists' convention (antilinear in u)."""
    import numpy as np
    return complex(np.vdot(u, v))


def norm(v) -> float:
    import numpy as np
    return float(np.linalg.norm(v))


def normalize(v):
    n = norm(v)
    if not math.isfinite(n):
        raise NotConverged("state norm leaves the float range")
    if n < 1e-300:
        raise ZeroNorm("cannot normalize a zero vector")
    return v / n


def expectation(op, v) -> complex:
    """<v|op|v> for a normalized state v."""
    import numpy as np
    return complex(np.vdot(v, op @ v))
