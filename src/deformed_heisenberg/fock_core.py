"""Truncated Fock-space linear algebra.

States are plain 1-d complex numpy arrays of amplitudes over |0>..|N-1>
(FockVector); operators are dense N x N matrices (FockOperator), complex
except where the kernels below get real data.  Identity checks always exclude
the top ``guard`` levels because truncation breaks the ladder relations there.

``series_operator`` builds f(a+) from a coefficient list in O(N^2); the lists
come from the power-series recurrences of ``deformed_algebra``.  The residual
checks use ``triangular_matrix_function``, a Taylor sum in matrix powers that
evaluates several functions of one matrix from one table of its powers.  Both
kernels take their dtype from their inputs: real data give a float64 matrix,
at about a quarter of the complex flops.

Everything here is plain numpy except ``matrix_exponential``, which imports
scipy on its first call.  Only the dense references ``displacement_operator``
and ``squeeze_operator`` reach it; the production S D|0> applies the
generators to the vacuum with ``expm_action``, so no CLI command loads scipy.
"""

import cmath
from dataclasses import dataclass
from math import atanh, ceil, isqrt, sqrt

import numpy as np

from .errors import BadParams, NotNilpotent, TailTooHeavy, ZeroNorm

# semantic aliases
FockVector = np.ndarray
FockOperator = np.ndarray


@dataclass(frozen=True)
class TruncationConfig:
    """Basis size, guard band and tail tolerance for a truncated Fock space.

    guard defaults to dim // 4; tail_tol is the maximum relative norm allowed
    in the top ``guard`` levels of any state accepted as converged.
    """

    dim: int
    guard: int = -1  # -1 means "use dim // 4"
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.guard == -1:
            object.__setattr__(self, "guard", self.dim // 4)
        if not (0 <= self.guard < self.dim):
            raise ValueError(f"need 0 <= guard < dim, got guard={self.guard}")
        if self.tail_tol < 0:
            raise ValueError("tail_tol must be >= 0")

    @property
    def kept(self) -> int:
        """Number of levels below the guard band."""
        return self.dim - self.guard


def annihilation(cfg: TruncationConfig) -> FockOperator:
    """Matrix of a: entry (n-1, n) = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, cfg.dim, dtype=float)), 1).astype(complex)


def creation(cfg: TruncationConfig) -> FockOperator:
    """Matrix of a^dagger: entry (n+1, n) = sqrt(n+1). Strictly lower triangular,
    hence nilpotent in the truncation: (a^dagger)^N = 0."""
    return annihilation(cfg).conj().T


def number_operator(cfg: TruncationConfig) -> FockOperator:
    return np.diag(np.arange(cfg.dim, dtype=float)).astype(complex)


def vacuum(cfg: TruncationConfig) -> FockVector:
    v = np.zeros(cfg.dim, dtype=complex)
    v[0] = 1.0
    return v


def coherent_state(xi_bar: complex, cfg: TruncationConfig) -> FockVector:
    """Unnormalized |xi_bar> = e^{xi_bar a^dagger}|0>: amps[n] = xi_bar^n / sqrt(n!)."""
    amps = np.empty(cfg.dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, cfg.dim):
        amps[n] = amps[n - 1] * xi_bar / sqrt(n)
    check_tail(amps, cfg)
    return amps


def tail_fraction(v: FockVector, cfg: TruncationConfig) -> float:
    """Relative norm carried by the top ``guard`` levels."""
    total = float(np.linalg.norm(v))
    if total == 0.0:
        return 0.0
    if cfg.guard == 0:
        return 0.0
    return float(np.linalg.norm(v[cfg.kept:])) / total


def check_tail(v: FockVector, cfg: TruncationConfig) -> None:
    frac = tail_fraction(v, cfg)
    if frac > cfg.tail_tol:
        raise TailTooHeavy(
            f"top-{cfg.guard} levels hold {frac:.3e} of the norm "
            f"(tail_tol={cfg.tail_tol:.1e}); increase dim"
        )


def guarded_block(mat: FockOperator, cfg: TruncationConfig) -> FockOperator:
    """Leading (N-g) x (N-g) block, the only part where operator identities hold."""
    k = cfg.kept
    return mat[:k, :k]


def guarded_norm(mat: FockOperator, cfg: TruncationConfig) -> float:
    """Spectral norm of the guarded block."""
    return float(np.linalg.norm(guarded_block(mat, cfg), ord=2))


def triangular_matrix_function(series_coeffs, K: FockOperator) -> FockOperator:
    """f(alpha*I + K) for strictly triangular (nilpotent) N x N K: the Taylor
    sum sum_m coeffs[m] K^m, coeffs[m] = f^(m)(alpha)/m!, over its first
    n <= N terms (exact, as K^N = 0).  Paterson-Stockmeyer with
    s = ceil(sqrt(n)): K^2..K^s once, then Horner's rule in K^s over blocks
    of s coefficients, at most 2s - 2 dense matmuls.

    Coefficients with leading axes give one function per row, stacked in the
    same leading axes of the result; the functions share K^2..K^s, so each
    one adds only its s - 1 Horner products.  The result is real when the
    coefficients and K are.
    """
    if np.any(np.abs(np.diag(K)) != 0):
        raise NotNilpotent("K has a nonzero diagonal entry")
    N = K.shape[0]
    c = np.asarray(series_coeffs)[..., :N]
    c = c.astype(np.result_type(c, K, float))
    s = isqrt(c.shape[-1] - 1) + 1
    P = np.empty_like(K, dtype=c.dtype, order="C", shape=(s + 1, N, N))
    P[0], P[1] = np.eye(N), K                     # K^0..K^s
    for m in range(2, s + 1):
        P[m] = P[m - 1] @ K
    out = None
    for j in reversed(range(0, c.shape[-1], s)):
        # sum_i c[j+i] K^i, as one (1 x k)(k x N^2) product per function, so
        # that a stacked row is bit-identical to a call with that row alone
        cj = c[..., None, j:j + s]
        k = cj.shape[-1]
        block = np.matmul(cj, P[:k].reshape(k, -1)).reshape(c.shape[:-1] + (N, N))
        out = block if out is None else out @ P[s] + block
    return out


def series_operator(f, cfg: TruncationConfig) -> FockOperator:
    """Matrix of f(a+) = sum_k f[k] (a+)^k: entry (n+k, n) = f[k] sqrt((n+k)!/n!).

    One subdiagonal at a time from running products of sqrt(j): O(N^2), no
    integer factorials.  Each root carries 2^-e (4^e >= N) and f[k] carries
    2^{ek}, which is exact and keeps the products finite past N ~ 340, where
    sqrt(n!) overflows.  The transpose is f(a); column 0 is f(a+)|0>.  Real
    coefficients give a real matrix.
    """
    N = cfg.dim
    e = (N.bit_length() + 1) // 2
    f = np.asarray(f)
    cplx = np.iscomplexobj(f)
    roots = np.ldexp(np.sqrt(np.arange(1, N, dtype=float)), -e)
    out = np.zeros((N, N), dtype=complex if cplx else float)
    flat = out.reshape(-1)
    run = np.ones(N)
    for k in range(min(len(f), N)):
        if k:
            run = run[:-1] * roots[k - 1:]     # prod_{j=n+1}^{n+k} sqrt(j) 2^-e
        fk = np.ldexp(f[k].real, e * k)
        if cplx:
            fk = fk + 1j * np.ldexp(f[k].imag, e * k)
        flat[k * N::N + 1] = fk * run          # the k-th subdiagonal
    return out


def matrix_exponential(M: FockOperator) -> FockOperator:
    """expm via scipy's scaling-and-squaring (Pade) implementation: the dense
    reference for D(lam) and S(chi), which the tests compare the production
    ``expm_action`` route against.

    scipy is imported here, not at module level, so that no CLI command pays
    its import at start-up.
    """
    import scipy.linalg

    return scipy.linalg.expm(np.asarray(M, dtype=complex))


_TAYLOR_DEGREE, _THETA = 40, 6.0     # m and theta_m of expm_action
_UNIT_ROUNDOFF = 2.0 ** -53


def expm_action(M: FockOperator, v: FockVector) -> FockVector:
    """exp(M) v without forming exp(M) (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33 (2011) 488), one O(N^2) matvec per Taylor term.

    s = ceil(||M||_1 / 6.0) steps, each a Taylor sum of degree <= 40 in M/s;
    their Table 3.1 value theta_40 = 6.0 puts the backward error of a step
    below u = 2^-53.  A step stops early once two successive terms together
    fall below u times the partial sum (max-abs norms).  theta_55 = 9.9 would
    take fewer steps, but a step's terms then grow to ~1e3 times the result
    before they cancel: that put S D|0> 1.4e-13 off at delta = 0.95, N = 48,
    against 1.5e-14 here.  M = 0 returns a copy of v.
    """
    M = np.asarray(M, dtype=complex)
    F = np.array(v, dtype=complex)
    norm1 = float(np.abs(M).sum(axis=0).max())
    if norm1 == 0.0:
        return F
    s = ceil(norm1 / _THETA)
    A = M / s
    for _ in range(s):
        term = F
        c1 = np.abs(term).max()
        for k in range(1, _TAYLOR_DEGREE + 1):
            term = A @ term
            term /= k
            F += term
            c2 = np.abs(term).max()
            if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(F).max():
                break
            c1 = c2
    return F


def _displacement_generator(lam: complex, cfg: TruncationConfig) -> FockOperator:
    """lam a^dagger - conj(lam) a."""
    a = annihilation(cfg)
    return lam * a.conj().T - np.conj(lam) * a


def _squeeze_generator(chi: complex, cfg: TruncationConfig) -> FockOperator:
    """chi (a^dagger)^2/2 - conj(chi) a^2/2, with a^2 set from its one
    diagonal, (n-2, n) = sqrt(n-1) sqrt(n), instead of by a matmul."""
    r = np.sqrt(np.arange(1, cfg.dim, dtype=float))
    a2 = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    a2[:-2, 2:] = np.diag(r[:-1] * r[1:])
    return chi * a2.T / 2 - np.conj(chi) * a2 / 2


def displacement_operator(lam: complex, cfg: TruncationConfig) -> FockOperator:
    """D(lam) = exp(lam a^dagger - conj(lam) a), by dense expm."""
    return matrix_exponential(_displacement_generator(lam, cfg))


def squeeze_operator(chi: complex, cfg: TruncationConfig) -> FockOperator:
    """S(chi) = exp(chi (a^dagger)^2/2 - conj(chi) a^2/2), by dense expm.

    With chi = -artanh(delta) e^{i phi} this satisfies the Bogoliubov relation
    S^dagger a S = (a - delta e^{i phi} a^dagger) / sqrt(1 - delta^2)
    on the guarded subspace.
    """
    return matrix_exponential(_squeeze_generator(chi, cfg))


def squeezed_displaced_vacuum(delta: float, phi: float, w: complex,
                              cfg: TruncationConfig) -> FockVector:
    """S(-artanh(delta) e^{i phi}) D(w / sqrt(1 - delta^2)) |0>, the undeformed
    squeezed state of a + delta e^{i phi} a+ with eigenvalue w: D's generator
    and then S's act on the vacuum through ``expm_action``."""
    if not (0 <= delta < 1):
        raise BadParams("need 0 <= delta < 1")
    v = expm_action(_displacement_generator(w / sqrt(1 - delta * delta), cfg),
                    vacuum(cfg))
    return expm_action(_squeeze_generator(-atanh(delta) * cmath.exp(1j * phi),
                                          cfg), v)


def inner_product(u: FockVector, v: FockVector) -> complex:
    """<u|v> with the physicists' convention (antilinear in u)."""
    return complex(np.vdot(u, v))


def norm(v: FockVector) -> float:
    return float(np.linalg.norm(v))


def normalize(v: FockVector) -> FockVector:
    n = norm(v)
    if n < 1e-300:
        raise ZeroNorm("cannot normalize a zero vector")
    return v / n


def expectation(op: FockOperator, v: FockVector) -> complex:
    """<v|op|v> for a normalized state v."""
    return complex(np.vdot(v, op @ v))
