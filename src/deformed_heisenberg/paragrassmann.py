"""Exact calculus over C[xi] (x) C[z]/(z^k0) and the nilpotent eigenvalue ODE.

Solves, with z a paragrassmann generator (z^k0 = 0),

    [ d/dxi + (mu xi + nu) sum_{l=0}^{k0-1} (-z)^l/l! d^l/dxi^l ] phi = lam phi

by the grade-by-grade integral recursion: phi = sum_k z^k (C_k + A_k(xi)) e^g,
g = (lam - nu) xi - mu xi^2/2, with the integration convention A_k(0) = 0.
The arithmetic is exact (complex rationals), so residuals are literal zeros.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import _gaussian
from .errors import BadParams
from .fock_core import (TruncationConfig, series_operator,
                        squeezed_displaced_vacuum)


# ---------------------------------------------------------------------------
# complex rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QC:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other):
        o = as_scalar(other)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-as_scalar(other))

    def __rsub__(self, other):
        return as_scalar(other) + (-self)

    def __mul__(self, other):
        o = as_scalar(other)
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_scalar(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero complex rational")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            o = as_scalar(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


def as_scalar(x) -> QC:
    """Coerce x into the complex rationals."""
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC(Fraction(x))
    if isinstance(x, float):
        return QC(Fraction(x))              # exact binary value of the float
    if isinstance(x, complex):
        return QC(Fraction(x.real), Fraction(x.imag))
    if isinstance(x, tuple) and len(x) == 2:
        return QC(Fraction(x[0]), Fraction(x[1]))
    raise TypeError(f"cannot coerce {x!r} to a complex rational")


# ---------------------------------------------------------------------------
# polynomials in xi: plain coefficient lists, ascending powers
# ---------------------------------------------------------------------------

def ptrim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def padd(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        out.append(a + b)
    return ptrim(out)


def pscale(s, p):
    return ptrim([s * c for c in p])


def pmul(p, q):
    if not p or not q:
        return []
    out = [0 * p[0]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return ptrim(out)


def pdiff(p):
    return ptrim([p[i] * i for i in range(1, len(p))])


def pint(p):
    """Antiderivative with zero constant term."""
    return ptrim([0 * p[0] if p else 0] + [p[i] / (i + 1) for i in range(len(p))])


def peval(p, x):
    out = 0 * x
    for c in reversed(p):
        out = out * x + c
    return out


# ---------------------------------------------------------------------------
# the nilpotent ring C[xi][z]/(z^k0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NilpotentPoly:
    """Element sum_k z^k P_k(xi) of C[xi][z]/(z^k0); coeffs[k] is P_k."""

    k0: int
    coeffs: tuple

    @classmethod
    def from_polys(cls, polys, k0):
        polys = list(polys)[:k0]
        polys += [[] for _ in range(k0 - len(polys))]
        return cls(k0=k0, coeffs=tuple(tuple(ptrim(list(p))) for p in polys))

    def __add__(self, other):
        assert self.k0 == other.k0
        return NilpotentPoly.from_polys(
            [padd(list(a), list(b)) for a, b in zip(self.coeffs, other.coeffs)],
            self.k0)

    def __mul__(self, other):
        assert self.k0 == other.k0
        out = [[] for _ in range(self.k0)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= self.k0:
                    break               # z^{k0} = 0: overflow grades drop exactly
                if b:
                    out[i + j] = padd(out[i + j], pmul(list(a), list(b)))
        return NilpotentPoly.from_polys(out, self.k0)

    def scale(self, s):
        return NilpotentPoly.from_polys([pscale(s, list(p)) for p in self.coeffs],
                                        self.k0)

    def diff_xi(self):
        return NilpotentPoly.from_polys([pdiff(list(p)) for p in self.coeffs],
                                        self.k0)

    def is_zero(self) -> bool:
        return all(not c for p in self.coeffs for c in p)


# ---------------------------------------------------------------------------
# Hermite polynomials, paper-style convention
# ---------------------------------------------------------------------------

def hermite_polynomial(m: int):
    """Integer coefficients (ascending) of H_m(x) = e^{x^2} d^m/dx^m e^{-x^2};
    H_1 = -2x, i.e. (-1)^m times the physicists' polynomials."""
    if m < 0:
        raise BadParams("m must be >= 0")
    H = [1]
    for _ in range(m):
        # H_{m+1} = H_m' - 2 x H_m
        H = padd(pdiff(H), pscale(-2, [0] + H[:]))
        H = [int(c) for c in H]
    return H


# ---------------------------------------------------------------------------
# the grade-by-grade ODE solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrassmannODESpec:
    lam: object
    mu: object
    nu: object
    k0: int

    def __post_init__(self):
        if self.k0 < 1:
            raise BadParams("k0 must be >= 1")


@dataclass(frozen=True)
class ParagrassmannSolution:
    """phi = sum_k z^k (C_k + A_k(xi)) exp((lam-nu) xi - mu xi^2/2)."""

    k0: int
    Ak: tuple                 # A_k as coefficient tuples, A_0 = ()
    constants: tuple          # the C_k
    exponent: tuple           # (lam - nu, mu)
    normalizable: bool = True

    def polynomial_part(self) -> NilpotentPoly:
        """The NilpotentPoly sum_k z^k (C_k + A_k)."""
        polys = [padd([self.constants[k]], list(self.Ak[k])) for k in range(self.k0)]
        return NilpotentPoly.from_polys(polys, self.k0)


def _leibniz_ladder(p, g1, l):
    """e^{-g} d^l [p e^g] as a polynomial: iterate  L := L' + g' L."""
    L = list(p)
    for _ in range(l):
        L = padd(pdiff(L), pmul(g1, L))
    return L


def _solve_single(lam, mu, nu, k0, constants):
    g1 = ptrim([lam - nu, -mu])                # g' = (lam - nu) - mu xi
    weight = ptrim([nu, mu])                   # mu xi + nu
    Ak = [[]]                                  # A_0 = 0
    for k in range(1, k0):
        rhs = []
        for l in range(1, k + 1):
            base = padd([constants[k - l]], list(Ak[k - l]))
            contrib = _leibniz_ladder(base, g1, l)
            coeff = as_scalar(Fraction((-1) ** (l + 1), factorial(l)))
            rhs = padd(rhs, pscale(coeff, contrib))
        Ak.append(pint(pmul(weight, rhs)))
    return ParagrassmannSolution(
        k0=k0, Ak=tuple(tuple(p) for p in Ak), constants=tuple(constants),
        exponent=(lam - nu, mu))


def solve_appendix_a(spec: GrassmannODESpec):
    """One independent solution per free constant: solution j has C_j = 1 and
    all other C_i = 0.  Every antiderivative carries A_k(0) = 0."""
    lam = as_scalar(spec.lam)
    mu = as_scalar(spec.mu)
    nu = as_scalar(spec.nu)
    zero, one = as_scalar(0), as_scalar(1)
    out = []
    for j in range(spec.k0):
        constants = [one if i == j else zero for i in range(spec.k0)]
        sol = _solve_single(lam, mu, nu, spec.k0, constants)
        out.append(sol)
    return out


def residual_check(solution: ParagrassmannSolution, spec: GrassmannODESpec) -> NilpotentPoly:
    """Substitute phi into the full ODE; returns the residual divided by e^g
    (zero iff phi solves the equation, since e^g never vanishes)."""
    lam = as_scalar(spec.lam)
    mu = as_scalar(spec.mu)
    nu = as_scalar(spec.nu)
    k0 = spec.k0
    g1 = ptrim([lam - nu, -mu])
    weight = ptrim([nu, mu])
    P = solution.polynomial_part()

    # phi' / e^g, grade by grade
    dphi = NilpotentPoly.from_polys(
        [_leibniz_ladder(list(p), g1, 1) for p in P.coeffs], k0)

    # (mu xi + nu) sum_l (-z)^l / l! d^l phi / e^g
    shift = [[] for _ in range(k0)]
    for l in range(k0):
        coeff = as_scalar(Fraction((-1) ** l, factorial(l)))
        for k in range(k0 - l):
            term = pscale(coeff, _leibniz_ladder(list(P.coeffs[k]), g1, l))
            shift[l + k] = padd(shift[l + k], pmul(weight, term))
    shifted = NilpotentPoly.from_polys(shift, k0)

    minus_lam_phi = P.scale(-lam)
    return dphi + shifted + minus_lam_phi


# ---------------------------------------------------------------------------
# printed closed forms
# ---------------------------------------------------------------------------

def deformed_coherent_symbols_mu0(nu, lam, k0: int) -> ParagrassmannSolution:
    """Closed-form mu = 0 coherent symbols for k0 in {1, 2, 3} (the first,
    normalizable solution branch; higher k0 delegates to solve_appendix_a).

    The xi-coefficient at grade z^2 is -lam^2 nu/2 + 2 lam nu^2 - 3 nu^3/2;
    the sign of its first term is forced by the ODE (see the test suite for
    the rejected sign variant).
    """
    lam = as_scalar(lam)
    nu = as_scalar(nu)
    zero, one = as_scalar(0), as_scalar(1)
    half = as_scalar(Fraction(1, 2))
    if k0 > 3:
        return solve_appendix_a(GrassmannODESpec(lam=lam, mu=zero, nu=nu,
                                                 k0=k0))[0]
    if k0 == 1:
        Ak = ([],)
    elif k0 == 2:
        Ak = ([], [zero, (lam - nu) * nu])
    else:
        c1 = (-(lam * lam * nu) * half + 2 * (lam * (nu * nu))
              - 3 * (nu * nu * nu) * half)
        c2 = ((lam * lam) * (nu * nu) * half - lam * (nu * nu * nu)
              + (nu * nu) * (nu * nu) * half)
        Ak = ([], [zero, (lam - nu) * nu], [zero, c1, c2])
    constants = tuple(one if i == 0 else zero for i in range(k0))
    return ParagrassmannSolution(k0=k0, Ak=tuple(tuple(p) for p in Ak),
                                 constants=constants,
                                 exponent=(lam - nu, zero))


def grassmann_squeezed_symbol(lam, mu):
    """k0 = 2 squeezed symbols (nu = 0): the normalizable branch

        [1 + z mu (lam xi^2/2 - mu xi^3/3)] e^{lam xi - mu xi^2/2}

    and the z-proportional partner, flagged non-normalizable (z is not an
    invertible paragrassmann number, so the z e^g branch has no unit-norm
    representative).  Returns (normalizable, partner)."""
    lam = as_scalar(lam)
    mu = as_scalar(mu)
    zero, one = as_scalar(0), as_scalar(1)
    half = as_scalar(Fraction(1, 2))
    third = as_scalar(Fraction(1, 3))
    A1 = ptrim([zero, zero, mu * lam * half, -(mu * mu) * third])
    primary = ParagrassmannSolution(k0=2, Ak=((), tuple(A1)),
                                    constants=(one, zero),
                                    exponent=(lam, mu))
    partner = ParagrassmannSolution(k0=2, Ak=((), ()),
                                    constants=(zero, one),
                                    exponent=(lam, mu), normalizable=False)
    return primary, partner


# ---------------------------------------------------------------------------
# Fock-space assembly of the k0 = 2 squeezed state (z-graded)
# ---------------------------------------------------------------------------

def omega_pg_slope(delta, phi, beta, theta) -> float:
    """d(Omega)/dz at z = 0 for the k0 = 2 normalized squeezed state: the
    grade-1 norm correction  +delta Re[delta e^{2i phi} G30/3
    - beta e^{i(phi+theta)} G20/2]."""
    g20 = _gaussian.gamma_kl(2, 0, delta, phi, beta, theta)
    g30 = _gaussian.gamma_kl(3, 0, delta, phi, beta, theta)
    val = (delta * cmath.exp(2j * phi) * g30 / 3
           - beta * cmath.exp(1j * (phi + theta)) * g20 / 2)
    return delta * val.real


def omega_pg_slope_printed(delta, phi, beta, theta) -> float:
    """The printed closed form of the same slope, kept for comparison.  It
    agrees with the symbol-derived omega_pg_slope: the sign defect of the
    printed Fock-state bracket does not propagate into the printed norm
    factor."""
    d2 = delta * delta
    r2 = 1 - d2
    b2 = beta * beta
    bracket = ((2 * d2 + b2 * (1 + d2) / r2) * math.cos(theta - phi)
               - delta * (1 + d2 + 2 * b2 / r2) * math.cos(theta)
               + d2 * b2 * (1 + 2 * d2 / (3 * r2)) * math.cos(phi - 3 * theta)
               - (2 * delta * b2 / (3 * r2)) * math.cos(2 * phi - 3 * theta))
    return -delta * beta / (2 * r2 * r2) * bracket


def grassmann_squeezed_fock_state(delta, phi, beta, theta, cfg: TruncationConfig):
    """The k0 = 2 normalized squeezed state as a z-graded pair (v0, v1),
    state = v0 + z v1, built from the symbol-derived bracket

        1 + z (mu lam (a+)^2/2 - mu^2 (a+)^3/3)

    and the matching norm factor.  In nilpotent arithmetic the squared norm is
    exactly 1: <v0|v0> = 1 and the grade-1 component 2 Re<v0|v1> vanishes.
    """
    mu = delta * cmath.exp(1j * phi)
    lam = beta * cmath.exp(1j * theta)
    v0 = squeezed_displaced_vacuum(delta, phi, lam, cfg)
    Q = series_operator([omega_pg_slope(delta, phi, beta, theta), 0.0,
                         mu * lam / 2, -mu * mu / 3], cfg)
    return v0, Q @ v0
