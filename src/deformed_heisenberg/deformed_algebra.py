"""Boson realizations of the deformed oscillator algebras and residual checks.

Two families are covered: the one-parameter algebra with relations

    [A, B] = 0,   [B, C] = -z B^2,      [A, C] = B        (tilde form)

and the two-parameter algebra with

    [A, B] = 0,   [B, C] = -(2z/p^2)(cosh(pB) - 1),   [A, C] = (1/p) sinh(pB).

The realizations are power series in a+ (or a, by transposition with z -> -z)
built by fock_core.series_operator.  Each coefficient list comes from one
O(N^2) recurrence on its series' own ODE, J. C. P. Miller's (_miller):
w' = u' w for e^{u(x)} and u w' = c u' w for u(x)^c, no series composition.
The linear exponent e^{zx}, most of the calls, runs the same recurrence in a
plain scalar loop with the same bits (_exp_linear): numpy's one-term dot
products cost more than the sums.  Each kernel computes in the arithmetic of
its input, as series_operator does: the complex exponent of the
pseudo-Hermitian G gives a complex series, and real z and p give float64
series, so every realization is a float64 triple; its ladder
factor a (or a+) scales columns (rows) in O(N^2) instead of a dense
product.

The residual checks need no matrix.  With A = -a+, B = b(a+), C = c(a+) a
and [a, f(a+)] = f'(a+) (W. H. Louisell, Quantum Statistical Properties of
Radiation, 1973), [A, B] = 0, [A, C] = c(a+) and [B, C] = -(c b')(a+):
each relation is an identity of power series, c = b and c b' = z b^2
(tilde_relations), c = sinh(pb)/p and c b' = (2z/p^2)(cosh(pb) - 1)
(uzp_relations), the same with z -> -z for the kinds built on a.
cosh(pb) and sinh(pb) come from e^{+-p(b - b_0)}, products are
convolutions, and commutator_residual_tilde and commutator_residual_uzp
return fock_core.series_bound of the residual series, the residual ``dheis
verify`` prints: O(N^2) in all.  tests/dense_residuals.py checks the same
relations on the matrices.

numpy is imported by each function that uses it, so that importing this
module loads no numpy: DeformationParams, which ``dheis state`` builds,
needs none.
"""

import cmath
import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import BadParams, NotNilpotent, SingularCosh
from .fock_core import TruncationConfig, series_bound, series_operator


class DeformationParams(NamedTuple("DeformationParams",
                                   [("z", float), ("p", float), ("lam", complex),
                                    ("mu", complex), ("nu", complex)])):
    """Deformation scalars z, p (real) and the linear-combination coefficients
    lam, mu, nu (complex); from_polar takes them as

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
    """Coefficients of e^{u(x)} to order n-1, for u(0) = 0, real for a real u
    and complex for a complex one.

    w = e^u solves w' = u' w: _miller with alpha 1, beta 0, d0 = w0 = 1.  A
    linear u = u_1 x, most calls, keeps _exp_linear's loop with the same bits,
    as one-term dot products cost numpy more than their arithmetic.  A huge u
    gives inf or nan, which numpy reports as its error state says and
    _exp_linear's Python scalars never do; callers check finiteness.
    """
    import numpy as np
    u = np.asarray(u)[:n]
    u = u.astype(np.result_type(u, float))
    if u[0] != 0:
        raise NotNilpotent(f"exponent series has a nonzero constant term {u[0]}")
    if len(u) == 2:                   # u_1 weighted as _miller weights it
        return _exp_linear((np.arange(2) * u)[1].item(), n)
    return _miller(u, n, 1, 0, 1, 1.0)


def _miller(u, n, alpha, beta, d0, w0):
    """w_0 .. w_{n-1} from w_0 = w0 and J. C. P. Miller's recurrence (Knuth,
    TAOCP vol. 2, 4.7), one dot product per order:

        m d0 w_m = sum_{k=1}^{min(m, len(u)-1)} (alpha k - beta m) u_k w_{m-k}.

    e^u (w' = u' w) takes alpha 1, beta 0, d0 = w0 = 1; u^c (u w' = c u' w)
    takes alpha c + 1, beta 1, d0 = u_0, w0 = u_0^c.  The arithmetic is that
    of u and w0; each sum is multiplied by 1/(m d0), as numpy's complex
    division does, so a real u gives the values of the complex route's real
    parts.
    """
    import numpy as np
    u = np.asarray(u)[:n]
    # the weights (alpha k - beta m) u_k of every order m, built once as one
    # table; one row if beta = 0, where they do not depend on m
    W = (alpha * np.arange(len(u))
         - beta * np.arange(n if beta else 1)[:, None]) * u
    w = np.zeros(n, dtype=np.result_type(u, w0))
    w[0] = w0
    for m in range(1, n):
        j = min(m, len(u) - 1)
        w[m] = W[m if beta else 0, 1:j + 1] @ w[m - 1::-1][:j] * (1 / (m * d0))
    return w


def _exp_linear(u1, n):
    """Coefficients of e^{u1 x} to order n-1, float or complex as u1 is:
    w_m = (0 + u1 w_{m-1}) (1/m) in plain Python scalars, several times
    faster than numpy's one-term dot products at n = 160, and rounded as
    _miller rounds them: the dot product's zero accumulator, then the
    reciprocal.  Python scalars never warn, and overflow to inf as numpy's
    do.
    """
    import numpy as np
    w = [1.0]
    for m in range(1, n):
        w.append((0.0 + u1 * w[-1]) * (1 / m))
    return np.array(w, dtype=type(u1))


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8, typed=True)
def _uzp_coefficients(z: float, p: float, n: int):
    """Coefficients of the two-parameter B = (2/p) arcsinh((p/2) e^{zx}) and of
    C = e^{zx} sqrt(1 + (p/2)^2 e^{2zx}) before its factor a (or a+), cached
    read-only: ``dheis verify`` checks a box's series, then their matrices.

    With q = 1 + (p/2)^2 e^{2zx}: C = e^{zx} q^{1/2}, and B' = z e^{zx} q^{-1/2},
    so B = (2/p) arcsinh(p/2) + int_0^x z e^{zt} q^{-1/2} dt.
    """
    import numpy as np
    e = exp_coefficients([0.0, z], n)
    q = (p / 2) ** 2 * exp_coefficients([0.0, 2 * z], n)
    q[0] += 1.0
    C = np.convolve(e, _miller(q, n, 1.5, 1, q[0], q[0] ** 0.5))[:n]
    dB = z * np.convolve(e, _miller(q, n, 0.5, 1, q[0], q[0] ** -0.5))[:n - 1]
    B = np.r_[(2 / p) * math.asinh(p / 2), dB / np.arange(1, n)]
    B.flags.writeable = C.flags.writeable = False
    return B, C


# the kinds built on a: transposes of their a+ series with z -> -z
ON_A = {RealizationKind.TildeZ0_Cas2, RealizationKind.Uzp_Two,
        RealizationKind.Celeghini_Two}


def _series_z(kind: RealizationKind, z: float) -> float:
    """The z of kind's series in x = a+ (a on a): 0 for the Celeghini kinds,
    -z on a, and +0.0 for a zero, the key of the cached series of z = 0."""
    if kind in (RealizationKind.Celeghini_One, RealizationKind.Celeghini_Two):
        z = 0.0
    return (-z if kind in ON_A else z) + 0.0


def realization_series(kind: RealizationKind, params: DeformationParams,
                       n: int):
    """(b, c), the coefficients to order n-1 of B = b(x) and of C before its
    ladder factor, c(x), x = a+ or a (b is c for the exponential kinds).
    BadParams for an unknown kind, or p = 0 for a p-dependent kind."""
    if not isinstance(kind, RealizationKind):
        raise BadParams(f"unknown realization kind {kind!r}")
    if kind in P_KINDS and params.p == 0:
        raise BadParams(f"{kind.name} needs p != 0")
    z = _series_z(kind, params.z)
    if kind in P_KINDS:
        return _uzp_coefficients(z, params.p, n)
    e = exp_coefficients([0.0, z], n)
    return e, e


def build_realization(kind: RealizationKind, params: DeformationParams,
                      cfg: TruncationConfig) -> AlgebraTriple:
    """Operator triple (A, B, C) for the requested realization: A = -a+,
    B = b(a+), C = c(a+) a, or for the kinds built on a, A = a, B = b(a),
    C = a+ c(a), from realization_series (which raises its BadParams)."""
    import numpy as np
    b, c = realization_series(kind, params, cfg.dim)
    B = series_operator(b, cfg)
    C = B.copy() if c is b else series_operator(c, cfg)
    root = np.sqrt(np.arange(1.0, cfg.dim))       # a's entries (n-1, n)
    # C(a+) a in O(N^2): column n is sqrt(n) times column n-1 of C(a+), one
    # product per entry as in the dense matmul; a+ C(a) is its transpose
    C[:, 1:] = C[:, :-1] * root
    C[:, 0] = 0.0
    a = np.diag(root, 1)
    if kind in ON_A:
        return AlgebraTriple(A=a, B=B.T, C=C.T, kind=kind)
    return AlgebraTriple(A=-a.T, B=B, C=C, kind=kind)


# ---------------------------------------------------------------------------
# the defining relations as identities of the coefficient series
# ---------------------------------------------------------------------------

def _c_db(b, c):
    """Coefficients of c b', one order fewer than b; [B, C] = -(c b')(x)."""
    import numpy as np
    return np.convolve(c, b[1:] * np.arange(1, len(b)))[:len(b) - 1]


def _cosh_sinh(b, p):
    """Coefficients of cosh(pb) and sinh(pb): e^{+-p b_0} times the series
    e^{+-p(b - b_0)} of exp_coefficients."""
    import numpy as np
    u = p * np.asarray(b)
    u0, u[0] = u[0], 0.0
    ep = np.exp(u0) * exp_coefficients(u, len(u))
    em = np.exp(-u0) * exp_coefficients(-u, len(u))
    return (ep + em) / 2, (ep - em) / 2


def tilde_relations(b, c, z):
    """Residual series of [A, C] = B and [B, C] = -z B^2: c - b and
    c b' - z b^2, to one order fewer than b.  [A, B] = 0 holds identically."""
    import numpy as np
    n = len(b) - 1
    return c[:n] - b[:n], _c_db(b, c) - z * np.convolve(b, b)[:n]


def uzp_relations(b, c, z, p):
    """Residual series of [A, C] = (1/p) sinh(pB) and [B, C] =
    -(2z/p^2)(cosh(pB) - 1): c - sinh(pb)/p and c b' - (2z/p^2)(cosh(pb) -
    1), to one order fewer than b.  [A, B] = 0 holds identically."""
    ch, sh = _cosh_sinh(b[:-1], p)
    ch[0] -= 1.0
    return c[:-1] - sh / p, _c_db(b, c) - (2 * z / p ** 2) * ch


def commutator_residual_tilde(kind: RealizationKind, params: DeformationParams,
                              cfg: TruncationConfig) -> float:
    """Largest series_bound of the tilde_relations of kind's series."""
    b, c = realization_series(kind, params, cfg.kept + 1)
    z = _series_z(kind, params.z)
    return max(series_bound(r, cfg) for r in tilde_relations(b, c, z))


def commutator_residual_uzp(kind: RealizationKind, params: DeformationParams,
                            cfg: TruncationConfig) -> float:
    """Largest series_bound of the uzp_relations of kind's series."""
    b, c = realization_series(kind, params, cfg.kept + 1)
    z = _series_z(kind, params.z)
    return max(series_bound(r, cfg) for r in uzp_relations(b, c, z, params.p))


def tilde_basis_change(b, c, p: float):
    """Map two-parameter series (b, c) to the one-parameter (tilde) basis,
    b -> (2/p) sinh(pb/2) and c -> c / cosh(pb/2), under which uzp_relations
    turn into tilde_relations.  1/u for u = cosh(pb/2) is _miller's u^-1;
    SingularCosh if its constant term vanishes numerically."""
    import numpy as np
    n = len(b)
    ch, sh = _cosh_sinh(b, p / 2)
    if abs(ch[0]) < 1e-12:
        raise SingularCosh(f"cosh(p b_0/2) = {ch[0]} ~ 0")
    return (2 / p) * sh, np.convolve(c, _miller(ch, n, 0, 1, ch[0],
                                                1 / ch[0]))[:n]
