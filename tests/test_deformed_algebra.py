"""Boson realizations: parameter handling, series data, defining relations."""

import cmath
import contextlib
import inspect
import math

import mpmath as mp
import numpy as np
import pytest

from deformed_heisenberg.deformed_algebra import (
    AlgebraTriple, DeformationParams, P_KINDS, RealizationKind, _miller,
    _uzp_coefficients, build_realization, commutator_residual_tilde,
    commutator_residual_uzp, exp_coefficients, realization_series,
    tilde_basis_change, tilde_relations, uzp_relations)
from deformed_heisenberg.errors import BadParams, SingularCosh
from deformed_heisenberg.fock_core import (
    TruncationConfig, annihilation, creation, guarded_norm,
    matrix_exponential, series_bound, series_operator)
from deformed_heisenberg.pseudo_hermitian import _g_coefficients
from dense_residuals import (cosh_series, ladder_commutator, nilpotent_part,
                             recip_series, residual_tilde, residual_uzp,
                             sinh_series, tilde_residual_blocks,
                             uzp_residual_blocks)

CFG = TruncationConfig(64)


def test_params_reject_complex_deformation_scalars():
    with pytest.raises(BadParams):
        DeformationParams(z=0.1 + 0.2j)
    with pytest.raises(BadParams):
        DeformationParams(p=1j)
    # a complex with zero imaginary part is fine and is coerced to float
    prm = DeformationParams(z=complex(0.5, 0.0))
    assert prm.z == 0.5 and isinstance(prm.z, float)


def test_value_types_keep_signature_validation_and_equality():
    # the two public value types are NamedTuple subclasses with a checking
    # __new__: the constructors, checks, immutability and value equality of
    # a frozen dataclass, without its code generation at import
    def params(cls):
        return [(q.name, q.default)
                for q in inspect.signature(cls).parameters.values()]

    assert params(TruncationConfig) == [("dim", inspect.Parameter.empty),
                                        ("guard", -1), ("tail_tol", 1e-8)]
    assert params(DeformationParams) == [("z", 0.0), ("p", 0.0), ("lam", 0.0),
                                         ("mu", 0.0), ("nu", 0.0)]
    with pytest.raises(BadParams):
        DeformationParams(z=1j)
    with pytest.raises(ValueError):
        TruncationConfig(0)
    with pytest.raises(ValueError):
        TruncationConfig(8, guard=8)
    with pytest.raises(ValueError):
        TruncationConfig(8, tail_tol=-1.0)
    assert TruncationConfig(64).guard == 16
    assert TruncationConfig(64).kept == 48
    pairs = [(TruncationConfig(64), TruncationConfig(dim=64, guard=16)),
             (DeformationParams(z=1, lam=2 + 1j, mu=0.3),
              DeformationParams(z=1.0, p=0j, lam=2 + 1j, mu=0.3, nu=0.0))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.z = 0.5
    assert TruncationConfig(64) != TruncationConfig(64, tail_tol=1e-6)
    assert DeformationParams(z=0.1) != DeformationParams(z=0.2)
    assert repr(TruncationConfig(8)) == ("TruncationConfig(dim=8, guard=2, "
                                         "tail_tol=1e-08)")


def test_params_polar_round_trip():
    prm = DeformationParams.from_polar(delta=0.4, phi=0.9, beta=1.2,
                                       theta=-0.3, gamma=0.7, eta_phase=2.1,
                                       z=0.01, p=0.2)
    assert prm.mu == pytest.approx(0.4 * cmath.exp(0.9j))
    assert prm.lam == pytest.approx(1.2 * cmath.exp(-0.3j))
    # nu carries the opposite sign of its polar modulus
    assert prm.nu == pytest.approx(-0.7 * cmath.exp(2.1j))
    with pytest.raises(BadParams):
        DeformationParams.from_polar(delta=-0.1)


def _poly_eval(coeffs, x):
    return sum(c * x ** m for m, c in enumerate(coeffs))


def test_series_coefficients_reproduce_functions():
    # partial Taylor sums around alpha evaluated at alpha + t
    alpha, t, n = 0.3, 0.12, 30
    assert _poly_eval(cosh_series(alpha, n), t) == pytest.approx(
        math.cosh(alpha + t), rel=1e-13)
    assert _poly_eval(sinh_series(alpha, n), t) == pytest.approx(
        math.sinh(alpha + t), rel=1e-13)
    assert _poly_eval(recip_series(alpha, n), t) == pytest.approx(
        1 / (alpha + t), rel=1e-10)
    # the recurrences' series at 0, evaluated at x = t
    z, p = 0.3, 0.4
    assert _poly_eval(exp_coefficients([0.0, z], n), t) == pytest.approx(
        math.exp(z * t), rel=1e-13)
    B, C = _uzp_coefficients(z, p, n)
    assert _poly_eval(B, t) == pytest.approx(
        (2 / p) * math.asinh((p / 2) * math.exp(z * t)), rel=1e-13)
    assert _poly_eval(C, t) == pytest.approx(
        math.exp(z * t) * math.sqrt(1 + (p / 2) ** 2 * math.exp(2 * z * t)),
        rel=1e-13)


def test_uzp_residuals_past_factorial_overflow():
    # dim 200: the cosh/sinh generators used to divide by math.factorial(m),
    # which cannot be converted to a float past m = 170
    cfg = TruncationConfig(200)
    for fn in (cosh_series, sinh_series):
        c = np.array(fn(0.3, cfg.dim))
        assert np.isfinite(c).all()
        want = [(math.cosh(0.3), math.sinh(0.3))[(m + (fn is sinh_series)) % 2]
                / math.factorial(m) for m in range(170)]
        np.testing.assert_allclose(c[:170], want, rtol=1e-13, atol=0)
    prm = DeformationParams(z=0.02, p=0.4)
    tri = build_realization(RealizationKind.Uzp_One, prm, cfg)
    assert residual_uzp(tri, prm, cfg) < 1e-12


def _pow_series(u, c, n):
    """Coefficients of u(x)^c to order n-1, u_0 != 0: the Miller recurrence
    with alpha = c + 1, beta = 1, d0 = u_0 and w0 = u_0^c, in the arithmetic
    of u and w0 (Python's power makes w0 complex for u_0 < 0 and a
    fractional c)."""
    u = np.asarray(u)
    return _miller(u, n, c + 1, 1, u[0], u[0].item() ** c)


def test_pow_series_matches_binomial_expansion():
    # (1 + x)^{1/2} and (1 + x^2)^{-1/2}
    np.testing.assert_allclose(_pow_series([1.0, 1.0], 0.5, 5),
                               [1, 1 / 2, -1 / 8, 1 / 16, -5 / 128],
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(_pow_series([1.0, 0.0, 1.0], -0.5, 6),
                               [1, 0, -1 / 2, 0, 3 / 8, 0], rtol=1e-15, atol=0)


# The two numpy loops that the Miller recurrence replaced, kept verbatim as
# references for its bits

def _old_exp_loop(u, n):
    u = np.asarray(u, dtype=complex)[:n]
    ku = np.arange(len(u)) * u
    w = np.zeros(n, dtype=complex)
    w[0] = 1.0
    for m in range(1, n):
        k = min(m, len(u) - 1)
        w[m] = ku[1:k + 1] @ w[m - 1::-1][:k] / m
    return w


def _old_pow_loop(u, c, n):
    u = np.asarray(u, dtype=complex)[:n]
    k = np.arange(len(u))
    w = np.zeros(n, dtype=complex)
    w[0] = complex(u[0]) ** c
    for m in range(1, n):
        j = min(m, len(u) - 1)
        w[m] = ((((c + 1) * k[1:j + 1] - m) * u[1:j + 1])
                @ w[m - 1::-1][:j]) / (m * u[0])
    return w


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _same_real_bits(a, b):
    # a real series against the old complex loops: the bits of their real
    # parts, with imaginary parts that are exactly zero
    return _same_bits(a, b.real.copy()) and not b.imag.any()


@pytest.mark.parametrize("c", [0.5, -0.5, 1 / 3, 2])
def test_miller_recurrence_is_the_old_loops_bit_for_bit(c):
    # complex and real u of lengths 3-40, u_0 off 0 and 1 for the power and
    # 0 for the exponential, orders up to 200: each order takes the old
    # loops' dot product and divisor.  A complex u, or a real u whose u_0^c
    # is complex, keeps complex arithmetic and the old bits; a real series
    # is float64 and takes the bits of the old real parts
    rng = np.random.default_rng(33)
    for case in range(60):
        length, n = int(rng.integers(3, 41)), int(rng.integers(1, 201))
        u = rng.normal(size=length) * 0.5 ** np.arange(length)
        if case % 2:
            u = u + 1j * rng.normal(size=length) * 0.5 ** np.arange(length)
        u[0] = rng.uniform(0.5, 2.0) * (1 if case % 4 < 2 else -1)
        got, ref = _pow_series(u, c, n), _old_pow_loop(u, c, n)
        if case % 2 or (u[0] < 0 and c != 2):
            assert got.dtype == complex and _same_bits(got, ref), case
        else:
            assert got.dtype == np.float64 and _same_real_bits(got, ref), case
        u[0] = 0.0
        got, ref = exp_coefficients(u, n), _old_exp_loop(u, n)
        if case % 2:
            assert got.dtype == complex and _same_bits(got, ref), case
        else:
            assert got.dtype == np.float64 and _same_real_bits(got, ref), case


def test_miller_recurrence_overflows_as_the_old_loops():
    # past the float range both routes make the same inf and nan, and numpy
    # reports the overflow
    u = [0.0, 1e300, -3e299j, 1e300]
    with pytest.warns(RuntimeWarning):
        got, ref = exp_coefficients(u, 40), _old_exp_loop(u, 40)
        got_pow = _pow_series([1e-300, *u[1:]], 0.5, 40)
        ref_pow = _old_pow_loop([1e-300, *u[1:]], 0.5, 40)
    assert not np.isfinite(got).all() and not np.isfinite(got_pow).all()
    assert _same_bits(got, ref) and _same_bits(got_pow, ref_pow)


def _miller_per_order(u, n, alpha, beta, d0, w0):
    """_miller with the weights (alpha k - beta m) u_k formed at each order."""
    u = np.asarray(u)[:n]
    ak = alpha * np.arange(len(u))
    w = np.zeros(n, dtype=np.result_type(u, w0))
    w[0] = w0
    for m in range(1, n):
        j = min(m, len(u) - 1)
        a = (ak[1:j + 1] - beta * m) * u[1:j + 1]
        w[m] = a @ w[m - 1::-1][:j] * (1 / (m * d0))
    return w


def test_miller_weight_table_keeps_the_per_order_bits():
    # the weights of every order come from one table built once; each order
    # reads the bits the two per-order temporaries gave, for real and
    # complex u, series shorter and longer than n, integer and float beta
    rng = np.random.default_rng(91)
    for case in range(200):
        n, length = int(rng.integers(2, 200)), int(rng.integers(2, 220))
        u = rng.normal(size=length) * 10.0 ** rng.uniform(-3, 1)
        if case % 2:
            u = u + 1j * rng.normal(size=length)
        u[0] = rng.uniform(0.5, 2.0)
        c, beta = float(rng.uniform(-2.0, 2.0)), (1, 1.0, 0.5, 2)[case % 4]
        args = (u, n, c + 1, beta, u[0], u[0] ** c)
        got, ref = _miller(*args), _miller_per_order(*args)
        assert got.dtype == ref.dtype and _same_bits(got, ref), case


# The power-series kernels against 60-digit mpmath references.  The bound is
# on max_k |got_k - ref_k| / |ref_k| over the entries above 1e-290.

def _max_rel_err(got, ref):
    ref = np.array([complex(r) for r in ref])
    keep = np.abs(ref) > 1e-290
    return np.max(np.abs(np.asarray(got)[keep] - ref[keep]) / np.abs(ref[keep]))


@pytest.mark.parametrize("z, p, n", [(0.02, 0.1, 24), (-0.02, 0.4, 24),
                                     (0.02, 0.4, 64), (0.0, 0.4, 40)])
def test_uzp_coefficients_match_mpmath_taylor(z, p, n):
    # composing B and C from Taylor tables put the (0.02, 0.4, 64) case at
    # 2.1e-11 / 5.0e-11
    B, C = _uzp_coefficients(z, p, n)
    with mp.workdps(60):
        Z, P = mp.mpf(z), mp.mpf(p)
        ref_B = mp.taylor(lambda x: 2 / P * mp.asinh(P / 2 * mp.exp(Z * x)),
                          0, n - 1)
        ref_C = mp.taylor(lambda x: mp.exp(Z * x)
                          * mp.sqrt(1 + (P / 2) ** 2 * mp.exp(2 * Z * x)),
                          0, n - 1)
    assert _max_rel_err(B, ref_B) < 1e-12
    assert _max_rel_err(C, ref_C) < 1e-12


@pytest.mark.parametrize("c", [0.5, -0.5])
def test_pow_series_matches_mpmath_taylor(c):
    u = [1.04, 0.3, -0.1j, 0.05]
    with mp.workdps(60):
        um = [mp.mpc(v) for v in reversed(u)]
        ref = mp.taylor(lambda x: mp.polyval(um, x) ** c, 0, 39)
    assert _max_rel_err(_pow_series(u, c, 40), ref) < 1e-12


def _cauchy_taylor(f, n, r, m=512):
    """First n Taylor coefficients at 0 of an entire f, by the trapezoidal
    rule for the Cauchy integral on |x| = r with m nodes:
    c_k = mean_j f(x_j) x_j^{-k}, off by the aliased c_{k+lm} r^{lm} and by
    rounding, about 10^-dps max|f| r^-k.  Entries below 10^(10-dps) max|f|
    r^-k are returned as 0: an exact zero (c_1 of exp(x^2 h(x))) reads as
    rounding noise there."""
    xs = [r * mp.expjpi(mp.mpf(2 * j) / m) for j in range(m)]
    terms = [f(x) for x in xs]
    floor = mp.mpf(10) ** (10 - mp.mp.dps) * max(abs(t) for t in terms)
    inv = [1 / x for x in xs]
    out = []
    for k in range(n):
        c = mp.fsum(terms) / m
        out.append(c if abs(c) > floor / mp.mpf(r) ** k else 0)
        terms = [t * i for t, i in zip(terms, inv)]
    return out


def test_exp_coefficients_match_mpmath_cauchy_integral():
    # the exponent of G in the pseudo-Hermitian system.  mp.taylor would
    # differentiate at (prec + 20)(n + 1) ~ 57 000 bits and take about 30 s
    # for 256 orders; on |x| = 30 every |c_k| r^k above the 1e-290 cut lies
    # within 1e18 of the largest, so 60 digits leave ~1e-40 relative
    n = 256
    g = _g_coefficients(0.05 * cmath.exp(2j), 0.01, n)
    with mp.workdps(60):
        gm = [mp.mpc(v.real, v.imag) for v in reversed(g)]
        ref = _cauchy_taylor(lambda x: mp.exp(mp.polyval(gm, x)), n, r=30)
    assert _max_rel_err(exp_coefficients(g, n), ref) < 1e-12


def test_tilde_case_one_matrices():
    prm = DeformationParams(z=0.3)
    tri = build_realization(RealizationKind.TildeZ0_Cas1, prm,
                            TruncationConfig(4, 1))
    a, ad = annihilation(TruncationConfig(4, 1)), creation(TruncationConfig(4, 1))
    np.testing.assert_allclose(tri.A, -ad, atol=0)
    assert tri.B[0, 0] == pytest.approx(1.0)
    assert tri.B[1, 0] == pytest.approx(0.3)
    assert tri.B[2, 0] == pytest.approx(0.3 ** 2 * math.sqrt(2) / 2)
    np.testing.assert_allclose(tri.C, tri.B @ a, atol=0)


def test_tilde_case_two_matrices():
    prm = DeformationParams(z=0.3)
    cfg = TruncationConfig(6, 1)
    tri = build_realization(RealizationKind.TildeZ0_Cas2, prm, cfg)
    a, ad = annihilation(cfg), creation(cfg)
    np.testing.assert_allclose(tri.A, a, atol=0)
    np.testing.assert_allclose(tri.B, matrix_exponential(-0.3 * a), atol=1e-13)
    np.testing.assert_allclose(tri.C, ad @ tri.B, atol=0)


_ON_A = {RealizationKind.TildeZ0_Cas2, RealizationKind.Uzp_Two,
         RealizationKind.Celeghini_Two}
_CELEGHINI = {RealizationKind.Celeghini_One, RealizationKind.Celeghini_Two}


def _realization_series(kind, z, p, n):
    # the coefficient lists of B(x) and C(x), x = a+ or a, as
    # build_realization makes them; complex for a complex z
    z = 0 * z if kind in _CELEGHINI else z
    z = -z if kind in _ON_A else z
    if kind in P_KINDS:
        return _uzp_coefficients(z, p, n)
    e = exp_coefficients([0.0, z], n)
    return e, e


@pytest.mark.parametrize("dim", [8, 64, 200])
@pytest.mark.parametrize("kind", list(RealizationKind), ids=lambda k: k.name)
def test_realizations_are_real_and_match_complex_construction(kind, dim):
    # the complex-arithmetic construction: the series of a complex z = 0.02
    # + 0j, their complex matrices and dense products with the complex
    # ladder matrices.  The exponential kinds are its real parts exactly.
    # The Uzp kinds part from it, with the same zeros, in two places: numpy's
    # real convolutions round otherwise than its complex ones, and B divides
    # by 1..n-1 where the complex route multiplies by reciprocals.  At dim
    # 200 that is 2.3e-14 relative per entry of C, all from the
    # convolutions, and 2.8e-15 of B, 2.2e-16 of it from the division
    cfg = TruncationConfig(dim)
    prm = DeformationParams(z=0.02, p=0.4)
    b, c = _realization_series(kind, complex(prm.z), prm.p, dim)
    assert b.dtype == c.dtype == complex
    B, C = series_operator(b, cfg), series_operator(c, cfg)
    a, ad = annihilation(cfg), creation(cfg)
    if kind in _ON_A:
        want = (a, B.T, ad @ C.T)
    else:
        want = (-ad, B, C @ a)
    tri = build_realization(kind, prm, cfg)
    for got, ref in zip((tri.A, tri.B, tri.C), want):
        assert got.dtype == np.float64
        if kind in P_KINDS - _CELEGHINI:
            assert np.array_equal(got == 0, ref == 0)
            nz = ref != 0
            assert np.max(np.abs(got[nz] - ref[nz]) / np.abs(ref[nz])) < 5e-14
        else:
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("z, p", [(0.02, 0.4), (-0.02, 0.1), (0.0, 0.4)])
def test_real_deformations_build_real_series(z, p):
    # real z and p keep every coefficient kernel in float64 (the
    # realizations' dtype is held in the test above); a complex exponent
    # keeps complex128
    n = 40
    assert exp_coefficients([0.0, z], n).dtype == np.float64
    assert exp_coefficients([0.0, z, 0.1], n).dtype == np.float64
    assert exp_coefficients([0, 1], n).dtype == np.float64
    assert exp_coefficients([0.0, z + 0j], n).dtype == complex
    assert exp_coefficients([0.0, z, 0.1j], n).dtype == complex
    assert _miller(np.array([1.0, z]), n, 1.5, 1, 1.0, 1.0).dtype == np.float64
    assert _miller(np.array([1.0, z * 1j]), n, 1.5, 1, 1.0,
                   1.0).dtype == complex
    assert all(s.dtype == np.float64 for s in _uzp_coefficients(z, p, n))
    assert all(s.dtype == complex for s in _uzp_coefficients(z + 0j, p, n))


@pytest.mark.parametrize("dim", [8, 64, 200])
@pytest.mark.parametrize("kind", list(RealizationKind), ids=lambda k: k.name)
def test_ladder_factor_is_exact_dense_product(kind, dim):
    # C(a+) a and a+ C(a) are set by scaling columns (rows) of C(a+) (C(a));
    # each entry of the dense product is that one product plus exact zeros
    cfg = TruncationConfig(dim)
    prm = DeformationParams(z=-0.02, p=0.1)
    _, c = _realization_series(kind, prm.z, prm.p, dim)
    C = series_operator(c, cfg)
    a = annihilation(cfg).real
    want = a.T @ C.T if kind in _ON_A else C @ a
    assert np.array_equal(build_realization(kind, prm, cfg).C, want)


@pytest.mark.parametrize("dim", [8, 64, 200])
@pytest.mark.parametrize("kind", list(RealizationKind), ids=lambda k: k.name)
def test_ladder_commutator_is_exact_dense_commutator(kind, dim):
    # the residual checks take [A, B] and [A, C] by scaling rows and columns
    # with A's one nonzero diagonal; each entry of the dense A X and X A is
    # that one product plus exact zeros
    cfg = TruncationConfig(dim)
    for z in (0.0, 0.02, -0.02):
        for p in (0.1, 0.4):
            tri = build_realization(kind, DeformationParams(z=z, p=p), cfg)
            A = tri.A
            for X in (tri.B, tri.C):
                assert np.array_equal(ladder_commutator(A, X), A @ X - X @ A)


def test_ladder_commutator_takes_dense_products_for_other_operators():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((16, 16))
    a = annihilation(TruncationConfig(16)).real
    for A in (a + a.T, a + np.eye(16), rng.standard_normal((16, 16))):
        assert np.array_equal(ladder_commutator(A, X), A @ X - X @ A)


def test_uzp_series_are_cached_read_only():
    # verify checks a box's series and then the matrices built from them:
    # one computation, shared, so no caller may write to it; a complex z
    # with zero imaginary part keeps its own complex entry
    prm = DeformationParams(z=0.02, p=0.4)
    b, c = realization_series(RealizationKind.Uzp_One, prm, 40)
    assert realization_series(RealizationKind.Uzp_One, prm, 40)[0] is b
    for x in (b, c):
        with pytest.raises(ValueError):
            x[1] = 0.0
    assert _uzp_coefficients(0.02 + 0j, 0.4, 40)[0].dtype == complex
    # the z = 0 series of Celeghini_Two (z -> -0.0 on a) is that of
    # Celeghini_One, with +0.0 zeros
    one, two = (realization_series(kind, prm, 40) for kind in (
        RealizationKind.Celeghini_One, RealizationKind.Celeghini_Two))
    assert one[0] is two[0] and not np.signbit(one[0]).any()


def test_p_kinds_reject_zero_p():
    for kind in P_KINDS:
        with pytest.raises(BadParams):
            build_realization(kind, DeformationParams(z=0.01), CFG)
    with pytest.raises(BadParams):
        build_realization("x", DeformationParams(), CFG)


def test_uzp_one_at_z_zero_collapses_to_scalar_forms():
    p = 0.4
    prm = DeformationParams(z=0.0, p=p)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    cel = build_realization(RealizationKind.Celeghini_One, prm, CFG)
    np.testing.assert_allclose(tri.A, cel.A, atol=0)
    np.testing.assert_allclose(tri.B, cel.B, atol=1e-14)
    np.testing.assert_allclose(tri.C, cel.C, atol=1e-14)
    assert tri.B[0, 0] == pytest.approx((2 / p) * math.asinh(p / 2))
    assert tri.C[0, 1] == pytest.approx(math.sqrt(1 + p * p / 4))


def test_uzp_two_small_p_recovers_creation_operator():
    prm = DeformationParams(z=0.0, p=1e-8)
    tri = build_realization(RealizationKind.Uzp_Two, prm, CFG)
    ad = creation(CFG)
    assert np.max(np.abs(tri.C - ad)) < 1e-7
    np.testing.assert_allclose(tri.B, np.eye(64), atol=1e-7)


def test_uzp_defining_relations_spot_checks():
    for z in (0.0, 0.01, -0.05):
        for p in (0.1, 0.5):
            prm = DeformationParams(z=z, p=p)
            for kind in (RealizationKind.Uzp_One, RealizationKind.Uzp_Two):
                tri = build_realization(kind, prm, CFG)
                r = residual_uzp(tri, prm, CFG)
                assert r < 1e-7, (kind, z, p, r)


def test_uzp_relations_exact_at_z_zero():
    prm = DeformationParams(z=0.0, p=0.3)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    # B is a scalar there, so [A,B] and [B,C] vanish identically
    r1, r2, r3 = (guarded_norm(R, CFG) for R in uzp_residual_blocks(tri, prm))
    assert r1 == 0.0
    assert r2 == 0.0
    assert r3 < 1e-13


def test_tilde_defining_relations():
    prm = DeformationParams(z=0.05)
    for kind in (RealizationKind.TildeZ0_Cas1, RealizationKind.TildeZ0_Cas2):
        tri = build_realization(kind, prm, CFG)
        r = residual_tilde(tri, prm, CFG)
        assert r < 1e-9, (kind, r)


def _verify_boxes():
    # verify's 8 algebra rows: (kind, params, series row, dense route)
    boxes = [(kind, DeformationParams(z=z), commutator_residual_tilde,
              residual_tilde)
             for z in (0.0, 0.02, -0.02)
             for kind in (RealizationKind.TildeZ0_Cas1,
                          RealizationKind.TildeZ0_Cas2)]
    return boxes + [(RealizationKind.Uzp_One, DeformationParams(z=0.02, p=p),
                     commutator_residual_uzp, residual_uzp)
                    for p in (0.1, 0.4)]


@pytest.mark.parametrize("dim", [64, 128, 160])
def test_verify_rows_and_the_dense_route_agree_on_verify_boxes(dim):
    # verify prints the series bounds, at the rounding of the coefficient
    # lists (<= 4.4e-16); the dense route reads the same relations on the
    # built matrices, at the rounding of their products (<= 4.1e-14 here)
    cfg = TruncationConfig(dim)
    for kind, prm, series, dense in _verify_boxes():
        assert series(kind, prm, cfg) < 1e-15, (kind, prm)
        tri = build_realization(kind, prm, cfg)
        assert dense(tri, prm, cfg) < 1e-13, (kind, prm)


@pytest.mark.parametrize("dim", [16, 64, 200])
@pytest.mark.parametrize("k", [0, 1, 7])
@pytest.mark.parametrize("kind", [RealizationKind.TildeZ0_Cas1,
                                  RealizationKind.TildeZ0_Cas2,
                                  RealizationKind.Uzp_One,
                                  RealizationKind.Uzp_Two],
                         ids=lambda k: k.name)
def test_series_bound_is_the_dense_norm_of_a_one_term_residual(kind, k, dim):
    # an error d planted in c_k makes the residual series of [A, C] d x^k
    # plus rounding, and the dense [A, C] - B (or - sinh(pB)/p) the operator
    # d (a+)^k (d a^k on a), whose spectral norm on the kept block is its
    # largest weight: the series bound, to the planted error's digits
    cfg = TruncationConfig(dim)
    prm = DeformationParams(z=0.02, p=0.3)
    b, c = realization_series(kind, prm, dim)
    c = c.copy()
    c[k] += 1e-6
    A, B, C = -creation(cfg), series_operator(b, cfg), series_operator(c, cfg)
    C = C @ annihilation(cfg)
    if kind in (RealizationKind.TildeZ0_Cas2, RealizationKind.Uzp_Two):
        A, B, C = -A.T, B.T, C.T
    tri = AlgebraTriple(A=A, B=B, C=C, kind=kind)
    z = -prm.z if kind is RealizationKind.Uzp_Two else prm.z
    if kind in P_KINDS:
        dense = guarded_norm(uzp_residual_blocks(tri, prm)[2], cfg)
        series = series_bound(uzp_relations(b, c, z, prm.p)[0], cfg)
    else:
        dense = guarded_norm(tilde_residual_blocks(tri, prm)[2], cfg)
        series = series_bound(tilde_relations(b, c, z)[0], cfg)
    assert dense == pytest.approx(series, rel=1e-7)


@pytest.mark.parametrize("z", [0.02, -0.02, 1.0, -3.7, 5e-324, 1e150, -1e300,
                               1e300, 0.3 - 0.7j, -2.5 + 1e-3j, 1e300j,
                               -1e300 + 1e300j, 1e-300 + 2j])
def test_linear_exponent_loop_is_the_dot_product_loop_bit_for_bit(z):
    # e^{zx} runs a scalar loop; _miller runs the same recurrence in one-term
    # dot products, and for a complex z the trailing zero sends [0, z, 0]
    # through two-term ones.  Bit for bit, in the arithmetic of z: signed
    # zeros, the inf of a real z past the float range, and the nan that the
    # complex product with 1/m makes of an inf part, where numpy reports
    # the overflow.  For a real z, [0, z, 0] turns inf into nan by its 0 inf
    # term, so only the one-term loop is its reference
    past = abs(z) >= 1e150
    dtype = complex if isinstance(z, complex) else np.float64
    with pytest.warns(RuntimeWarning) if past else contextlib.nullcontext():
        for n in (1, 2, 3, 17, 160, 400):
            fast = exp_coefficients([0.0, z], n)
            refs = [_miller(np.array([0.0, z]), n, 1, 0, 1, 1.0)]
            if dtype is complex:
                refs.append(exp_coefficients([0.0, z, 0.0], n))
            for ref in refs:
                assert fast.dtype == ref.dtype == dtype, n
                assert np.array_equal(fast, ref, equal_nan=True), n
                assert np.array_equal(fast.view(np.uint64),
                                      ref.view(np.uint64)), n


@pytest.mark.parametrize("z", [0.0, 0.02, -0.05])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_tilde_basis_change_satisfies_one_parameter_relations(z, p):
    # the mapped series of Uzp_One satisfy the tilde identities c = b and
    # c b' = z b^2 under the series bound, at the rounding of the lists
    prm = DeformationParams(z=z, p=p)
    b, c = realization_series(RealizationKind.Uzp_One, prm, CFG.kept + 1)
    bt, ct = tilde_basis_change(b, c, p)
    r = max(series_bound(x, CFG) for x in tilde_relations(bt, ct, z))
    assert r < 1e-14, r


def test_tilde_basis_change_against_expm_route():
    # the mapped series built into matrices, against scipy's expm of the
    # built B: B_t = (e^{pB/2} - e^{-pB/2})/p and cosh(pB/2) C_t = C
    prm = DeformationParams(z=0.02, p=0.3)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    b, c = realization_series(RealizationKind.Uzp_One, prm, CFG.dim)
    bt, ct = tilde_basis_change(b, c, prm.p)
    B_t = series_operator(bt, CFG)
    C_t = series_operator(ct, CFG) @ annihilation(CFG)
    Ep = matrix_exponential(prm.p * tri.B / 2)
    Em = matrix_exponential(-prm.p * tri.B / 2)
    assert guarded_norm(B_t - (Ep - Em) / prm.p, CFG) < 1e-10
    assert guarded_norm((Ep + Em) / 2 @ C_t - tri.C, CFG) < 1e-8


def test_tilde_basis_change_small_p_is_near_identity():
    prm = DeformationParams(z=0.02, p=1e-3)
    b, c = realization_series(RealizationKind.Uzp_One, prm, CFG.dim)
    bt, ct = tilde_basis_change(b, c, prm.p)
    # b -> b + O(p^2 b^3)
    assert series_bound(bt - b, CFG) < 1e-5
    assert series_bound(ct - c, CFG) < 1e-5


def test_matrix_functions_refuse_what_they_cannot_evaluate():
    # alpha I + K needs a constant diagonal
    with pytest.raises(BadParams):
        nilpotent_part(np.diag([1.0, 2.0]))
    # b = i pi/p: the constant term of cosh(pb/2) is cos(pi/2) ~ 6e-17
    p = 0.3
    with pytest.raises(SingularCosh):
        tilde_basis_change(np.array([1j * math.pi / p, 0, 0]), np.ones(3), p)


def test_limit_chain_z_then_p():
    # z -> 0 followed by p -> 0 lands on the undeformed ladder pair; the
    # deviation of C is ~ z * n on level n, hence the z*N-scaled bound
    prm = DeformationParams(z=1e-7, p=1e-7)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    a, ad = annihilation(CFG), creation(CFG)
    assert guarded_norm(tri.A + ad, CFG) == 0.0
    assert guarded_norm(tri.B - np.eye(64), CFG) < 1e-6
    assert guarded_norm(tri.C - a, CFG) < 1e-7 * CFG.dim


def test_triple_is_plain_container():
    prm = DeformationParams(z=0.1)
    tri = build_realization(RealizationKind.TildeZ0_Cas1, prm, CFG)
    assert isinstance(tri, AlgebraTriple)
    assert tri.kind is RealizationKind.TildeZ0_Cas1
