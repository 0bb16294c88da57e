"""Boson realizations: parameter handling, series data, defining relations."""

import cmath
import contextlib
import inspect
import math

import mpmath as mp
import numpy as np
import pytest

from deformed_heisenberg.deformed_algebra import (
    AlgebraTriple, DeformationParams, P_KINDS, RealizationKind,
    _ladder_commutator, _miller, _nilpotent_part, _uzp_coefficients,
    build_realization, commutator_residual_tilde,
    commutator_residual_uzp, cosh_series, exp_coefficients, recip_series,
    sinh_series, tilde_basis_change, tilde_residual_blocks,
    uzp_residual_blocks)
from deformed_heisenberg.errors import BadParams, SingularCosh
from deformed_heisenberg.fock_core import (
    TruncationConfig, annihilation, creation, guarded_norm,
    matrix_exponential, series_operator)
from deformed_heisenberg.pseudo_hermitian import _g_coefficients

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
    assert prm.delta == pytest.approx(0.4)
    assert prm.phi == pytest.approx(0.9)
    assert prm.beta == pytest.approx(1.2)
    assert prm.theta == pytest.approx(-0.3)
    assert prm.gamma == pytest.approx(0.7)
    assert prm.eta_phase == pytest.approx(2.1)
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
    assert commutator_residual_uzp(tri, prm, cfg) < 1e-12


def _pow_series(u, c, n):
    """Coefficients of u(x)^c to order n-1, u_0 != 0: the Miller recurrence
    with alpha = c + 1, beta = 1, d0 = u_0 and w0 = u_0^c."""
    u = np.asarray(u, dtype=complex)
    return _miller(u, n, c + 1, 1, u[0], complex(u[0]) ** c)


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


@pytest.mark.parametrize("c", [0.5, -0.5, 1 / 3, 2])
def test_miller_recurrence_is_the_old_loops_bit_for_bit(c):
    # complex and real u of lengths 3-40, u_0 off 0 and 1 for the power and
    # 0 for the exponential, orders up to 200: each order takes the old
    # loops' dot product and divisor
    rng = np.random.default_rng(33)
    for case in range(60):
        length, n = int(rng.integers(3, 41)), int(rng.integers(1, 201))
        u = rng.normal(size=length) * 0.5 ** np.arange(length)
        if case % 2:
            u = u + 1j * rng.normal(size=length) * 0.5 ** np.arange(length)
        u[0] = rng.uniform(0.5, 2.0) * (1 if case % 4 < 2 else -1)
        assert _same_bits(_pow_series(u, c, n), _old_pow_loop(u, c, n)), case
        u[0] = 0.0
        assert _same_bits(exp_coefficients(u, n), _old_exp_loop(u, n)), case


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
    # the complex coefficient lists of B(x) and C(x), x = a+ or a
    z = 0.0 if kind in _CELEGHINI else z
    z = -z if kind in _ON_A else z
    if kind in P_KINDS:
        return _uzp_coefficients(z, p, n)
    e = exp_coefficients([0.0, z], n)
    return e, e


@pytest.mark.parametrize("dim", [8, 64, 200])
@pytest.mark.parametrize("kind", list(RealizationKind), ids=lambda k: k.name)
def test_realizations_are_real_and_match_complex_construction(kind, dim):
    # the complex-arithmetic construction: complex series matrices and dense
    # products with the complex ladder matrices
    cfg = TruncationConfig(dim)
    prm = DeformationParams(z=0.02, p=0.4)
    b, c = _realization_series(kind, prm.z, prm.p, dim)
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
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("dim", [8, 64, 200])
@pytest.mark.parametrize("kind", list(RealizationKind), ids=lambda k: k.name)
def test_ladder_factor_is_exact_dense_product(kind, dim):
    # C(a+) a and a+ C(a) are set by scaling columns (rows) of C(a+) (C(a));
    # each entry of the dense product is that one product plus exact zeros
    cfg = TruncationConfig(dim)
    prm = DeformationParams(z=-0.02, p=0.1)
    _, c = _realization_series(kind, prm.z, prm.p, dim)
    C = series_operator(c.real, cfg)
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
                assert np.array_equal(_ladder_commutator(A, X), A @ X - X @ A)


def test_ladder_commutator_takes_dense_products_for_other_operators():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((16, 16))
    a = annihilation(TruncationConfig(16)).real
    for A in (a + a.T, a + np.eye(16), rng.standard_normal((16, 16))):
        assert np.array_equal(_ladder_commutator(A, X), A @ X - X @ A)


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
                r = commutator_residual_uzp(tri, prm, CFG)
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
        r = commutator_residual_tilde(tri, prm, CFG)
        assert r < 1e-9, (kind, r)


@pytest.mark.parametrize("dim", [64, 128, 160])
def test_verify_rows_print_the_largest_residual_norm(dim):
    # verify's 8 algebra rows call the commutator_residual_* functions,
    # whose max_guarded_norm takes an SVD only for the blocks that can win;
    # the printed number is the largest of the three norms, exactly
    cfg = TruncationConfig(dim)
    boxes = [(kind, DeformationParams(z=z), tilde_residual_blocks,
              commutator_residual_tilde)
             for z in (0.0, 0.02, -0.02)
             for kind in (RealizationKind.TildeZ0_Cas1,
                          RealizationKind.TildeZ0_Cas2)]
    boxes += [(RealizationKind.Uzp_One, DeformationParams(z=0.02, p=p),
               uzp_residual_blocks, commutator_residual_uzp)
              for p in (0.1, 0.4)]
    for kind, prm, blocks, residual in boxes:
        tri = build_realization(kind, prm, cfg)
        assert residual(tri, prm, cfg) == \
            max(guarded_norm(R, cfg) for R in blocks(tri, prm)), (kind, prm)


@pytest.mark.parametrize("z", [0.02, -0.02, 1.0, -3.7, 5e-324, 1e150, -1e300,
                               1e300, 0.3 - 0.7j, -2.5 + 1e-3j, 1e300j,
                               -1e300 + 1e300j, 1e-300 + 2j])
def test_linear_exponent_loop_is_the_dot_product_loop_bit_for_bit(z):
    # e^{zx} runs a scalar loop; the trailing zero sends [0, z, 0] through
    # the dot products.  Bit for bit: signed zeros, and the inf and nan
    # that numpy's complex division by m makes past the float range, where
    # numpy reports the overflow
    past = abs(z) >= 1e150
    with pytest.warns(RuntimeWarning) if past else contextlib.nullcontext():
        for n in (1, 2, 3, 17, 160, 400):
            fast = exp_coefficients([0.0, z], n)
            ref = exp_coefficients([0.0, z, 0.0], n)
            assert np.array_equal(fast, ref, equal_nan=True), n
            assert np.array_equal(fast.view(np.uint64),
                                  ref.view(np.uint64)), n


def test_tilde_basis_change_satisfies_one_parameter_relations():
    prm = DeformationParams(z=0.02, p=0.3)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    mapped = tilde_basis_change(tri, prm.p, CFG)
    r = commutator_residual_tilde(mapped, prm, CFG)
    assert r < 1e-7, r


def test_tilde_basis_change_against_expm_route():
    # cross-check the exact Taylor evaluation against scipy's expm:
    # B_t = (e^{pB/2} - e^{-pB/2})/p  and  cosh(pB/2) @ C_t = C
    prm = DeformationParams(z=0.02, p=0.3)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    mapped = tilde_basis_change(tri, prm.p, CFG)
    Ep = matrix_exponential(prm.p * tri.B / 2)
    Em = matrix_exponential(-prm.p * tri.B / 2)
    assert guarded_norm(mapped.B - (Ep - Em) / prm.p, CFG) < 1e-10
    assert guarded_norm((Ep + Em) / 2 @ mapped.C - tri.C, CFG) < 1e-8


def test_tilde_basis_change_small_p_is_near_identity():
    prm = DeformationParams(z=0.02, p=1e-3)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    mapped = tilde_basis_change(tri, prm.p, CFG)
    # B -> B + O(p^2 B^3)
    assert guarded_norm(mapped.B - tri.B, CFG) < 1e-5
    assert guarded_norm(mapped.C - tri.C, CFG) < 1e-5


def test_matrix_functions_refuse_what_they_cannot_evaluate():
    # alpha I + K needs a constant diagonal
    with pytest.raises(BadParams):
        _nilpotent_part(np.diag([1.0, 2.0]))
    # B = (i pi/p) I: the scalar part of cosh(pB/2) is cos(pi/2) ~ 6e-17
    p, eye = 0.3, np.eye(CFG.dim)
    tri = AlgebraTriple(A=eye, B=(1j * math.pi / p) * eye, C=eye,
                        kind=RealizationKind.Uzp_One)
    with pytest.raises(SingularCosh):
        tilde_basis_change(tri, p, CFG)


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
