"""Boson realizations: parameter handling, series data, defining relations."""

import cmath
import math

import numpy as np
import pytest

from deformed_heisenberg.deformed_algebra import (
    AlgebraTriple, DeformationParams, P_KINDS, RealizationKind, asinh_series,
    build_realization, commutator_residual_tilde, commutator_residual_uzp,
    cosh_series, exp_series, recip_series, sinh_series,
    sqrt_one_plus_sq_series, tilde_basis_change)
from deformed_heisenberg.errors import BadParams
from deformed_heisenberg.fock_core import (
    TruncationConfig, annihilation, creation, guarded_norm,
    matrix_exponential)

CFG = TruncationConfig(64)


def test_params_reject_complex_deformation_scalars():
    with pytest.raises(BadParams):
        DeformationParams(z=0.1 + 0.2j)
    with pytest.raises(BadParams):
        DeformationParams(p=1j)
    # a complex with zero imaginary part is fine and is coerced to float
    prm = DeformationParams(z=complex(0.5, 0.0))
    assert prm.z == 0.5 and isinstance(prm.z, float)


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
    assert _poly_eval(exp_series(alpha, n), t) == pytest.approx(
        math.exp(alpha + t), rel=1e-13)
    assert _poly_eval(cosh_series(alpha, n), t) == pytest.approx(
        math.cosh(alpha + t), rel=1e-13)
    assert _poly_eval(sinh_series(alpha, n), t) == pytest.approx(
        math.sinh(alpha + t), rel=1e-13)
    assert _poly_eval(asinh_series(alpha, n), t) == pytest.approx(
        math.asinh(alpha + t), rel=1e-13)
    assert _poly_eval(sqrt_one_plus_sq_series(alpha, n), t) == pytest.approx(
        math.sqrt(1 + (alpha + t) ** 2), rel=1e-13)
    assert _poly_eval(recip_series(alpha, n), t) == pytest.approx(
        1 / (alpha + t), rel=1e-10)


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
    assert max(commutator_residual_uzp(tri, prm, cfg)) < 1e-12


def test_asinh_series_at_origin_matches_textbook_expansion():
    c = asinh_series(0.0, 6)
    expected = [0.0, 1.0, 0.0, -1 / 6, 0.0, 3 / 40]
    np.testing.assert_allclose(np.real(c), expected, atol=1e-15)


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


def test_p_kinds_reject_zero_p():
    for kind in P_KINDS:
        with pytest.raises(BadParams):
            build_realization(kind, DeformationParams(z=0.01), CFG)


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
                r1, r2, r3 = commutator_residual_uzp(tri, prm, CFG)
                assert max(r1, r2, r3) < 1e-7, (kind, z, p, r1, r2, r3)


def test_uzp_relations_exact_at_z_zero():
    prm = DeformationParams(z=0.0, p=0.3)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    # B is a scalar there, so [A,B] and [B,C] vanish identically
    r1, r2, r3 = commutator_residual_uzp(tri, prm, CFG)
    assert r1 == 0.0
    assert r2 == 0.0
    assert r3 < 1e-13


def test_tilde_defining_relations():
    prm = DeformationParams(z=0.05)
    for kind in (RealizationKind.TildeZ0_Cas1, RealizationKind.TildeZ0_Cas2):
        tri = build_realization(kind, prm, CFG)
        r1, r2, r3 = commutator_residual_tilde(tri, prm, CFG)
        assert max(r1, r2, r3) < 1e-9, (kind, r1, r2, r3)


def test_tilde_basis_change_satisfies_one_parameter_relations():
    prm = DeformationParams(z=0.02, p=0.3)
    tri = build_realization(RealizationKind.Uzp_One, prm, CFG)
    mapped = tilde_basis_change(tri, prm.p, CFG)
    r1, r2, r3 = commutator_residual_tilde(mapped, prm, CFG)
    assert max(r1, r2, r3) < 1e-7, (r1, r2, r3)


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
