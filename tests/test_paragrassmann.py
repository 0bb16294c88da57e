"""Exact nilpotent calculus, the graded ODE solver, and the printed symbols."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from deformed_heisenberg import paragrassmann as pg
from deformed_heisenberg.errors import BadParams
from deformed_heisenberg.fock_core import TruncationConfig, creation
from deformed_heisenberg.paragrassmann import (
    GrassmannODESpec, NilpotentPoly, QC, as_scalar, deformed_coherent_symbols_mu0,
    grassmann_squeezed_fock_state, grassmann_squeezed_symbol,
    hermite_polynomial, omega_pg_slope, omega_pg_slope_printed, padd, pdiff,
    peval, pint, pmul, pscale, residual_check, solve_appendix_a)


# ---------------------------------------------------------------------------
# scalar ring and polynomial helpers
# ---------------------------------------------------------------------------

def test_complex_rational_arithmetic():
    a = QC(F(1, 3), F(2))
    b = QC(F(-1, 2), F(1, 4))
    assert (a + b) == QC(F(-1, 6), F(9, 4))
    assert (a - b) == QC(F(5, 6), F(7, 4))
    # (1/3 + 2i)(-1/2 + i/4) = -1/6 - 1/2 + i(1/12 - 1)
    assert (a * b) == QC(F(-2, 3), F(-11, 12))
    assert (a * b / b) == a
    assert a.to_complex() == pytest.approx(1 / 3 + 2j)
    with pytest.raises(ZeroDivisionError):
        a / QC(F(0))
    with pytest.raises(ZeroDivisionError):
        a / 0
    assert bool(QC(F(0))) is False
    # the parts read back as Fractions, in lowest terms whatever the route
    assert (a.re, a.im) == (F(1, 3), F(2)) and type(a.re) is F
    assert QC(F(2, 4), 0.5) == QC(F(1, 2), F(1, 2))
    assert (a + 1, 1 + a, a * -3, a / -4) == (
        QC(F(4, 3), F(2)), QC(F(4, 3), F(2)), QC(F(-1), F(-6)),
        QC(F(-1, 12), F(-1, 2)))
    assert (a - a) == 0 and (a - a).re == 0 and (a - a).im == 0
    with pytest.raises(TypeError):      # equal values, no hash
        hash(a)


def test_as_scalar_coercions():
    assert as_scalar(3) == QC(F(3))
    assert as_scalar(F(2, 7)) == QC(F(2, 7))
    assert as_scalar(0.5) == QC(F(1, 2))
    assert as_scalar(1 + 2j) == QC(F(1), F(2))
    assert as_scalar((F(1, 3), F(1, 5))) == QC(F(1, 3), F(1, 5))
    q = QC(F(1), F(1))
    assert as_scalar(q) is q
    with pytest.raises(TypeError):
        as_scalar("nope")


def test_polynomial_helpers():
    p, q = [1, 2], [0, 1, 3]
    assert padd(p, q) == [1, 3, 3]
    assert pmul(p, q) == [0, 1, 5, 6]
    assert pdiff([5, 1, 4]) == [1, 8]
    assert pint([1, 2]) == [0, 1.0, 1.0]      # constant of integration is zero
    assert peval([1, 0, 2], 3) == 19
    assert padd([1, 2], [0, -2]) == [1]       # trailing zeros are trimmed


def test_nilpotent_poly_truncates_grades():
    x = NilpotentPoly.from_polys([[0, 1], [1]], 2)    # xi + z
    sq = x * x                                         # xi^2 + 2 z xi (z^2 = 0)
    assert sq.coeffs[0] == (0, 0, 1)
    assert sq.coeffs[1] == (0, 2)
    assert (x + x).coeffs[0] == (0, 2)
    assert x.diff_xi().coeffs[0] == (1,)
    assert not x.is_zero()
    assert NilpotentPoly.from_polys([[], []], 2).is_zero()
    # a ring element, not a sequence: equal by value, and no tuple
    # repetition or concatenation standing in for ring arithmetic
    assert x == NilpotentPoly.from_polys([[0, 1], [1]], 2)
    with pytest.raises(TypeError):      # unhashable, like the QC it holds
        hash(x)
    assert x != (2, x.coeffs)
    with pytest.raises(TypeError):
        2 * x
    with pytest.raises(TypeError):
        (2,) + x


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def test_hermite_convention_and_recurrence():
    assert hermite_polynomial(0) == [1]
    assert hermite_polynomial(1) == [0, -2]
    assert hermite_polynomial(2) == [-2, 0, 4]
    for m in range(10):
        H = hermite_polynomial(m)
        step = padd(pdiff(H), pscale(-2, [0] + list(H)))
        assert hermite_polynomial(m + 1) == step
    # (-1)^m times the physicists' polynomials
    for m in range(7):
        phys = np.polynomial.hermite.herm2poly([0] * m + [1])
        np.testing.assert_allclose((-1) ** m * np.array(hermite_polynomial(m),
                                                        dtype=float),
                                   phys, atol=0)
    with pytest.raises(BadParams):
        hermite_polynomial(-1)


def test_hermite_ladder_cross_check():
    # d^l/dxi^l e^g = (mu/2)^{l/2} H_l(u) e^g at u = sqrt(mu/2) xi - a/sqrt(2 mu)
    # for g = a xi - mu xi^2/2: the Leibniz route must reproduce it
    a, mu = 0.9, 0.5
    g1 = [a, -mu]
    for l in range(1, 6):
        lead = pg._leibniz_ladder([1], g1, l)
        for xi in (0.0, 0.7, -1.3):
            u = math.sqrt(mu / 2) * xi - a / math.sqrt(2 * mu)
            want = (mu / 2) ** (l / 2) * peval(hermite_polynomial(l), u)
            assert peval(lead, xi) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# the graded solver
# ---------------------------------------------------------------------------

def test_solver_residuals_are_literal_zero():
    cases = [
        GrassmannODESpec(lam=1, mu=F(1, 2), nu=0, k0=2),
        GrassmannODESpec(lam=F(2, 3), mu=F(-1, 5), nu=F(1, 7), k0=3),
        GrassmannODESpec(lam=(F(1, 2), F(1, 3)), mu=F(1, 4), nu=2, k0=4),
        GrassmannODESpec(lam=3, mu=(F(0), F(1, 2)), nu=(F(1), F(-1, 3)), k0=5),
    ]
    for spec in cases:
        for sol in solve_appendix_a(spec):
            assert residual_check(sol, spec).is_zero(), spec


def test_solver_residuals_random_rationals():
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        def q():
            return F(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
        spec = GrassmannODESpec(lam=(q(), q()), mu=(q(), q()), nu=(q(), q()),
                                k0=int(rng.integers(2, 6)))
        for sol in solve_appendix_a(spec):
            assert residual_check(sol, spec).is_zero(), spec


def test_solutions_are_independent_and_integrate_from_zero():
    spec = GrassmannODESpec(lam=2, mu=3, nu=1, k0=4)
    sols = solve_appendix_a(spec)
    one = as_scalar(1)
    for j, sol in enumerate(sols):
        P = sol.polynomial_part()
        for i in range(j):
            assert P.coeffs[i] == ()           # grades below j vanish
        assert P.coeffs[j] == (one,)           # leading block is the constant
        for A in sol.Ak:
            if A:
                assert not A[0]                # A_k(0) = 0
    assert GrassmannODESpec(lam=1, mu=0, nu=0, k0=1).k0 == 1
    with pytest.raises(BadParams):
        GrassmannODESpec(lam=1, mu=0, nu=0, k0=0)


def test_k0_one_is_plain_gaussian():
    spec = GrassmannODESpec(lam=F(3, 2), mu=F(1, 3), nu=F(1, 2), k0=1)
    (sol,) = solve_appendix_a(spec)
    assert sol.Ak == ((),)
    assert sol.exponent[0] == as_scalar(F(3, 2) - F(1, 2))
    assert residual_check(sol, spec).is_zero()


def test_general_first_correction():
    # A_1 = (lam-nu) nu xi + mu (lam-2nu) xi^2/2 - mu^2 xi^3/3
    lam, mu, nu = F(2), F(3), F(1)
    spec = GrassmannODESpec(lam=lam, mu=mu, nu=nu, k0=2)
    sol = solve_appendix_a(spec)[0]
    want = [0, (lam - nu) * nu, mu * (lam - 2 * nu) / 2, -mu * mu / 3]
    assert list(sol.Ak[1]) == [as_scalar(w) for w in want]


def test_second_correction_frozen_values():
    spec = GrassmannODESpec(lam=2, mu=3, nu=1, k0=3)
    sol = solve_appendix_a(spec)[0]
    want = [F(0), F(2), F(5), F(-3, 2), F(-105, 8), F(0), F(9, 2)]
    assert list(sol.Ak[2]) == [as_scalar(w) for w in want]


# ---------------------------------------------------------------------------
# printed closed forms
# ---------------------------------------------------------------------------

def test_coherent_symbols_mu0_match_solver():
    lam, nu = F(2), F(1)
    for k0 in (1, 2, 3, 4):
        closed = deformed_coherent_symbols_mu0(nu, lam, k0)
        spec = GrassmannODESpec(lam=lam, mu=0, nu=nu, k0=k0)
        assert residual_check(closed, spec).is_zero(), k0
        solver = solve_appendix_a(spec)[0]
        assert closed.Ak == solver.Ak
    two = deformed_coherent_symbols_mu0(nu, lam, 2)
    assert list(two.Ak[1]) == [as_scalar(0),
                               as_scalar((lam - nu) * nu)]


def test_coherent_symbols_mu0_sign_variant_rejected():
    # the xi coefficient of A_2 must be -lam^2 nu/2 + 2 lam nu^2 - 3 nu^3/2;
    # flipping the first sign (the other printed variant) shifts it by exactly
    # lam^2 nu and breaks the ODE
    lam, nu = F(2), F(1)
    spec = GrassmannODESpec(lam=lam, mu=0, nu=nu, k0=3)
    good = deformed_coherent_symbols_mu0(nu, lam, 3)
    assert good.Ak[2][1] == as_scalar(-lam * lam * nu / 2 + 2 * lam * nu * nu
                                      - 3 * nu ** 3 / 2)
    flipped_c1 = good.Ak[2][1] + as_scalar(lam * lam * nu)
    bad = pg.ParagrassmannSolution(
        k0=3, Ak=(good.Ak[0], good.Ak[1],
                  (good.Ak[2][0], flipped_c1) + good.Ak[2][2:]),
        constants=good.constants, exponent=good.exponent)
    assert residual_check(good, spec).is_zero()
    assert not residual_check(bad, spec).is_zero()


def test_squeezed_symbol_matches_solver_and_mu0_limit():
    lam, mu = F(5, 4), F(1, 2)
    primary, partner = grassmann_squeezed_symbol(lam, mu)
    spec = GrassmannODESpec(lam=lam, mu=mu, nu=0, k0=2)
    assert residual_check(primary, spec).is_zero()
    assert residual_check(partner, spec).is_zero()
    assert primary.normalizable and not partner.normalizable
    solver = solve_appendix_a(spec)
    assert primary.Ak == solver[0].Ak
    assert list(primary.Ak[1]) == [as_scalar(c)
                                   for c in (0, 0, mu * lam / 2, -mu * mu / 3)]
    # mu = 0 collapses onto the nu = 0 coherent symbol (no correction at all)
    prim0, _ = grassmann_squeezed_symbol(lam, 0)
    assert prim0.Ak == ((), ())


def test_squeezed_k0_three_exponent_form():
    # the z^2 grade in exponent form: f = A_2 - A_1^2/2 reproduces
    # mu (mu - lam^2) xi^2/4 + (2/3) mu^2 lam xi^3 - 3 mu^3 xi^4/8
    lam, mu = F(2), F(3)
    spec = GrassmannODESpec(lam=lam, mu=mu, nu=0, k0=3)
    sol = solve_appendix_a(spec)[0]
    A1, A2 = list(sol.Ak[1]), list(sol.Ak[2])
    half = as_scalar(F(1, 2))
    f = padd(A2, pscale(-1 * half, pmul(A1, A1)))
    want = [0, 0, mu * (mu - lam * lam) / 4, F(2, 3) * mu * mu * lam,
            F(-3, 8) * mu ** 3]
    assert f == [as_scalar(w) for w in want]


# ---------------------------------------------------------------------------
# Fock-space assembly of the graded squeezed state
# ---------------------------------------------------------------------------

def test_graded_state_norm_and_slope():
    cfg = TruncationConfig(64)
    for (d, p, b, t) in ((0.4, 0.9, 1.1, 0.5), (0.25, -0.6, 0.8, 2.0)):
        v0, v1 = grassmann_squeezed_fock_state(d, p, b, t, cfg)
        assert abs(np.vdot(v0, v0).real - 1) < 1e-12
        # grade-1 part of the squared norm: 2 Re<v0|v1> must cancel exactly
        assert abs(2 * np.vdot(v0, v1).real) < 1e-10
        # slope equals -Re<v0|Q v0> (matrix oracle for the Gaussian moments)
        mu = d * cmath.exp(1j * p)
        lam = b * cmath.exp(1j * t)
        ad = creation(cfg)
        Q = mu * lam * (ad @ ad) / 2 - mu * mu * (ad @ ad @ ad) / 3
        assert omega_pg_slope(d, p, b, t) == pytest.approx(
            -np.vdot(v0, Q @ v0).real, abs=1e-12)
    with pytest.raises(BadParams):
        grassmann_squeezed_fock_state(1.0, 0.0, 1.0, 0.0, cfg)


def test_printed_slope_agrees_with_derivation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = rng.uniform(0, 0.8)
        p, t = rng.uniform(-math.pi, math.pi, size=2)
        b = rng.uniform(0, 2.5)
        assert omega_pg_slope_printed(d, p, b, t) == pytest.approx(
            omega_pg_slope(d, p, b, t), abs=1e-11)
