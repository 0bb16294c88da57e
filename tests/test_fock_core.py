"""Truncated Fock space: ladder operators, states, matrix functions."""

import math

import numpy as np
import pytest

import scipy.linalg

from deformed_heisenberg.deformed_algebra import (
    DeformationParams, RealizationKind, _apply_series, _nilpotent_part,
    build_realization, cosh_series, exp_coefficients, sinh_series)
from deformed_heisenberg.errors import NotNilpotent, TailTooHeavy
from deformed_heisenberg.fock_core import (
    TruncationConfig, annihilation, check_tail, coherent_state,
    creation, displacement_operator, expectation,
    inner_product, matrix_exponential, norm, normalize, number_operator,
    series_operator, squeeze_operator, tail_fraction,
    triangular_matrix_function, vacuum)

CFG64 = TruncationConfig(64)


def basis(n, cfg):
    v = np.zeros(cfg.dim, dtype=complex)
    v[n] = 1.0
    return v


def test_truncation_config_guard_sentinel():
    assert TruncationConfig(64).guard == 16
    assert TruncationConfig(64).kept == 48
    assert TruncationConfig(48, 12).kept == 36


def test_annihilation_entries():
    a = annihilation(TruncationConfig(3, 1))
    expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
    np.testing.assert_allclose(a, expected, atol=0)
    assert np.all(annihilation(TruncationConfig(1, 0)) == 0)


def test_creation_entries():
    ad = creation(TruncationConfig(3, 1))
    assert ad[1, 0] == 1.0
    assert ad[2, 1] == pytest.approx(math.sqrt(2))
    # strict lower triangularity: the dim-th power vanishes identically
    acc = np.eye(3)
    for _ in range(3):
        acc = acc @ ad
    assert np.all(acc == 0)


def test_canonical_commutator_on_interior_levels():
    a, ad = annihilation(CFG64), creation(CFG64)
    comm = a @ ad - ad @ a
    # exact identity on levels 0..N-2; the corner picks up -(N-1)
    np.testing.assert_allclose(comm[:-1, :-1], np.eye(63), atol=1e-14)
    assert comm[-1, -1] == pytest.approx(-(64 - 1))


def test_coherent_state_amplitudes():
    np.testing.assert_allclose(coherent_state(0.0, CFG64), basis(0, CFG64))
    v = coherent_state(1.0, TruncationConfig(4, 1, tail_tol=1.0))
    np.testing.assert_allclose(
        v, [1, 1, 1 / math.sqrt(2), 1 / math.sqrt(6)], atol=1e-15)


def test_coherent_state_is_annihilation_eigenvector():
    a = annihilation(CFG64)
    for xi in (0.5, -1.3, 2.0, 1.1 + 0.7j):
        v = coherent_state(xi, CFG64)
        resid = (a @ v - xi * v)[:CFG64.kept]
        assert np.linalg.norm(resid) / np.linalg.norm(v) < 1e-10


def test_number_expectation_on_coherent_state():
    for xi in (0.7, 1.5, 1.0 - 0.8j):
        v = normalize(coherent_state(xi, CFG64))
        assert expectation(number_operator(CFG64), v) == pytest.approx(
            abs(xi) ** 2, abs=1e-8)


def test_inner_product_orthonormal_basis():
    for n in (0, 3, 17):
        for m in (0, 3, 17):
            got = inner_product(basis(n, CFG64), basis(m, CFG64))
            assert got == (1.0 if n == m else 0.0)
    v = normalize(coherent_state(0.9, CFG64))
    assert expectation(np.eye(64), v) == pytest.approx(1.0, abs=1e-14)


def test_triangular_matrix_function_exponential():
    cfg = TruncationConfig(4, 1)
    z = 0.3
    K = z * creation(cfg)
    coeffs = [1 / math.factorial(m) for m in range(cfg.dim)]
    M = triangular_matrix_function(coeffs, K)
    assert M[1, 0] == pytest.approx(z)
    assert M[2, 0] == pytest.approx(z * z * math.sqrt(2) / 2)
    # identity map: coeffs (alpha, 1, 0...) reproduce alpha I + K
    ident = triangular_matrix_function([0.7, 1.0, 0, 0], K)
    np.testing.assert_allclose(ident, 0.7 * np.eye(4) + K, atol=1e-15)


def test_triangular_matrix_function_asinh_at_z_zero():
    # B = (2/p) arcsinh((p/2) e^{z a+}) collapses to a scalar when z = 0, and
    # the matrix route's sinh(p B / 2) gives back (p/2) I
    cfg = TruncationConfig(8, 2)
    p = 0.4
    B = build_realization(RealizationKind.Uzp_One, DeformationParams(p=p),
                          cfg).B
    np.testing.assert_array_equal(B, B[0, 0] * np.eye(cfg.dim))
    np.testing.assert_allclose(_apply_series(sinh_series, (p / 2) * B),
                               (p / 2) * np.eye(8), rtol=0, atol=1e-15)


def _term_by_term(coeffs, K, cfg):
    # the reference evaluation: one dense matmul per Taylor term
    out = complex(coeffs[0]) * np.eye(cfg.dim, dtype=complex)
    term = np.eye(cfg.dim, dtype=complex)
    for m in range(1, min(len(coeffs), cfg.dim)):
        term = term @ K
        if not term.any():
            break
        out += complex(coeffs[m]) * term
    return out


def _taylor_like(n, seed):
    # random complex coefficients damped like f^(m)(alpha)/m!
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return c / np.array([math.factorial(m) for m in range(n)], dtype=float)


@pytest.mark.parametrize("n", [1, 2, 25, 26, 64, 100],
                         ids=["one", "two", "s_squared", "s_squared_plus_1",
                              "N", "past_N"])
def test_paterson_stockmeyer_matches_term_by_term_on_creation(n):
    cfg = TruncationConfig(64)
    coeffs = _taylor_like(n, seed=n)
    got = triangular_matrix_function(coeffs, creation(cfg))
    # K = a+ puts term m on subdiagonal m alone, so every entry is one product
    np.testing.assert_allclose(got, _term_by_term(coeffs, creation(cfg), cfg),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("series_fn", [cosh_series, sinh_series])
def test_paterson_stockmeyer_matches_term_by_term_on_uzp_b(series_fn):
    # the operand of the two-parameter residual check: K = p B - alpha I
    cfg = TruncationConfig(160)
    params = DeformationParams(z=0.02, p=0.4)
    B = build_realization(RealizationKind.Uzp_One, params, cfg).B
    alpha, K = _nilpotent_part(params.p * B)
    coeffs = series_fn(alpha, cfg.dim)
    ref = _term_by_term(coeffs, K, cfg)
    got = triangular_matrix_function(coeffs, K)
    assert np.abs(got - ref).max() < 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("offsets", [(1, 2), (40, 41)],
                         ids=["adjacent", "square_vanishes"])
def test_paterson_stockmeyer_matches_term_by_term_on_two_subdiagonals(offsets):
    cfg = TruncationConfig(64)
    rng = np.random.default_rng(7)
    K = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for k in offsets:
        K += np.diag(0.3 * (rng.normal(size=cfg.dim - k)
                            + 1j * rng.normal(size=cfg.dim - k)), -k)
    coeffs = _taylor_like(cfg.dim, seed=3)
    ref = _term_by_term(coeffs, K, cfg)
    got = triangular_matrix_function(coeffs, K)
    assert np.abs(got - ref).max() < 1e-14 * np.abs(ref).max()
    zero = np.zeros_like(K)
    np.testing.assert_array_equal(
        triangular_matrix_function(coeffs, zero),
        coeffs[0] * np.eye(cfg.dim))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 26, 64, 80])
def test_stacked_coefficients_match_separate_calls(n, dtype):
    # one power table for several functions changes no bit of any of them
    cfg = TruncationConfig(64)
    rng = np.random.default_rng(n)
    coeffs = np.stack([_taylor_like(n, seed=n + i) for i in range(3)])
    K = np.tril(rng.normal(size=(cfg.dim, cfg.dim))
                + 1j * rng.normal(size=(cfg.dim, cfg.dim)), -1)
    if dtype is float:
        coeffs, K = coeffs.real, K.real
    got = triangular_matrix_function(coeffs, 0.1 * K)
    assert got.shape == (3, cfg.dim, cfg.dim)
    assert got.dtype == dtype
    for row, fn in zip(coeffs, got):
        assert np.array_equal(fn, triangular_matrix_function(row, 0.1 * K))


def test_real_data_give_a_real_function():
    cfg = TruncationConfig(16)
    K = 0.2 * creation(cfg).real
    coeffs = [1 / math.factorial(m) for m in range(cfg.dim)]
    got = triangular_matrix_function(coeffs, K)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, scipy.linalg.expm(K), rtol=0, atol=1e-15)
    assert triangular_matrix_function(coeffs, K + 0j).dtype == complex
    assert series_operator([0.5, 1.0], cfg).dtype == np.float64
    assert series_operator([0.5, 1.0j], cfg).dtype == complex


class _CountingMatrix(np.ndarray):
    """ndarray that counts the dense N x N products it takes part in; a
    product of stacked matrices counts one per matrix in the stack."""

    products = 0

    def __matmul__(self, other):
        out = super().__matmul__(other)
        _CountingMatrix.products += math.prod(np.shape(out)[:-2])
        return out

    def __rmatmul__(self, other):
        out = super().__rmatmul__(other)
        _CountingMatrix.products += math.prod(np.shape(out)[:-2])
        return out


def test_paterson_stockmeyer_matmul_count(monkeypatch):
    # term by term this is 255 products; Paterson-Stockmeyer needs at most
    # 2 ceil(sqrt(N)) - 2
    cfg = TruncationConfig(256)
    monkeypatch.setattr(_CountingMatrix, "products", 0)
    K = creation(cfg).view(_CountingMatrix)
    triangular_matrix_function(exp_coefficients([0.0, 1.0], cfg.dim), K)
    bound = 2 * math.ceil(math.sqrt(cfg.dim))
    assert 0 < _CountingMatrix.products <= bound


def test_cosh_and_sinh_share_one_power_table(monkeypatch):
    # separately, cosh and sinh of a+ take up to 2 (2 ceil(sqrt(N)) - 2)
    # products; with one table of powers the second adds only its Horner steps
    cfg = TruncationConfig(256)
    monkeypatch.setattr(_CountingMatrix, "products", 0)
    coeffs = [cosh_series(0.0, cfg.dim), sinh_series(0.0, cfg.dim)]
    K = creation(cfg).real.view(_CountingMatrix)
    both = triangular_matrix_function(coeffs, K)
    bound = 3 * math.ceil(math.sqrt(cfg.dim))
    assert 0 < _CountingMatrix.products <= bound
    for row, fn in zip(coeffs, both):
        ref = _term_by_term(row, creation(cfg), cfg)
        assert np.abs(fn - ref).max() < 1e-15 * np.abs(ref).max()


# coefficient lists with a nonzero constant term, complex entries and a tail
# that runs past the box, so every subdiagonal is populated
F = [0.7 - 0.2j, 1.1, 0.3j, -0.25, 0.05 + 0.05j, -0.01, 0.002j]
G = [1.0, -0.4j, 0.2, 0.0, 0.08 - 0.01j]


def test_series_operator_of_x_is_creation():
    for dim in (1, 2, 16):
        cfg = TruncationConfig(dim, 0)
        np.testing.assert_array_equal(series_operator([0, 1], cfg),
                                      creation(cfg))


def test_exp_coefficients_match_expm_of_creation():
    cfg = TruncationConfig(24, 6)
    for z in (0.3, -1.2, 0.5 - 0.4j):
        coeffs = exp_coefficients([0, z], cfg.dim)
        k = np.arange(cfg.dim)
        want = np.array([z ** m / math.factorial(m) for m in k])
        np.testing.assert_allclose(coeffs, want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(series_operator(coeffs, cfg),
                                   scipy.linalg.expm(z * creation(cfg)),
                                   rtol=0, atol=1e-13)


def test_series_product_is_operator_product():
    cfg = TruncationConfig(12, 3)
    prod = np.convolve(F, G)[:cfg.dim]
    np.testing.assert_allclose(series_operator(prod, cfg),
                               series_operator(F, cfg) @ series_operator(G, cfg),
                               rtol=0, atol=1e-14)


def test_series_operator_transpose_is_function_of_a():
    cfg = TruncationConfig(10, 2)
    a = annihilation(cfg)
    f_of_a = sum(c * np.linalg.matrix_power(a, k) for k, c in enumerate(F))
    np.testing.assert_allclose(series_operator(F, cfg).T, f_of_a,
                               rtol=0, atol=1e-14)


def test_series_operator_column_zero_is_vacuum_image():
    cfg = TruncationConfig(7, 1)
    want = np.array([F[n] * math.sqrt(math.factorial(n)) for n in range(7)])
    np.testing.assert_allclose(series_operator(F, cfg)[:, 0], want,
                               rtol=1e-15, atol=0)


def test_series_kernel_stays_finite_past_factorial_overflow():
    # sqrt(n!) overflows a double near n = 340; the kernel's entries do not.
    # 1/n! itself is subnormal past n ~ 170, so the far tail (~1e-160 here)
    # is only good in absolute terms
    cfg = TruncationConfig(400)
    coeffs = exp_coefficients([0, 1.0], cfg.dim)
    np.testing.assert_allclose(series_operator(coeffs, cfg)[:, 0],
                               coherent_state(1.0, cfg), rtol=1e-13, atol=1e-15)
    E = series_operator(exp_coefficients([0, 0.02], cfg.dim), cfg)
    assert np.isfinite(E).all()
    np.testing.assert_allclose(E, scipy.linalg.expm(0.02 * creation(cfg)),
                               rtol=0, atol=1e-12)


def test_exp_coefficients_match_matrix_route_and_need_u0_zero():
    cfg = TruncationConfig(16, 4)
    u = np.array([0.0, 0.3, -0.1j, 0.05])
    coeffs = exp_coefficients(u, cfg.dim)
    K = series_operator(u, cfg)
    np.testing.assert_allclose(
        series_operator(coeffs, cfg),
        triangular_matrix_function(exp_coefficients([0, 1.0], cfg.dim), K),
        rtol=0, atol=1e-14)
    with pytest.raises(NotNilpotent):
        exp_coefficients([0.1, 1.0], 4)


def test_matrix_exponential_basics():
    rng = np.random.default_rng(42)
    np.testing.assert_allclose(matrix_exponential(np.zeros((5, 5))), np.eye(5),
                               atol=1e-15)
    cfg = TruncationConfig(16, 4)
    K = 0.2 * creation(cfg)
    coeffs = [1 / math.factorial(m) for m in range(cfg.dim)]
    np.testing.assert_allclose(matrix_exponential(K),
                               triangular_matrix_function(coeffs, K),
                               atol=1e-13)
    for _ in range(5):
        M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        M *= 5.0 / np.linalg.norm(M, 2)
        resid = matrix_exponential(M) @ matrix_exponential(-M) - np.eye(12)
        assert np.linalg.norm(resid, 2) < 1e-10


def test_displacement_operator():
    np.testing.assert_allclose(displacement_operator(0.0, CFG64), np.eye(64),
                               atol=0)
    lam = 0.8 + 0.5j
    D = displacement_operator(lam, CFG64)
    v = D @ vacuum(CFG64)
    n = np.arange(64)
    fact = np.array([math.factorial(k) for k in n], dtype=float)
    expected = math.exp(-abs(lam) ** 2 / 2) * lam ** n / np.sqrt(fact)
    np.testing.assert_allclose(v, expected, atol=1e-12)
    a = annihilation(CFG64)
    # D is dense; the shift identity survives truncation only on a window
    # whose Poissonian tail dies before the corner (see the squeeze test)
    shifted = D.conj().T @ a @ D - (a + lam * np.eye(64))
    assert np.linalg.norm(shifted[:32, :32], 2) < 1e-12


def test_squeeze_operator_linear_action():
    np.testing.assert_allclose(squeeze_operator(0.0, CFG64), np.eye(64),
                               atol=0)
    # the tanh-parameterized magnitude makes the Bogoliubov action exact:
    # S+ a S = (a - delta e^{i phi} a+)/sqrt(1 - delta^2).
    # S is dense, so corner corruption leaks inward; compare on a low-level
    # window sized so the squeezed tail cannot reach the corner and back.
    a, ad = annihilation(CFG64), creation(CFG64)
    for delta, phi, win, tol in ((0.2, 0.9, 16, 1e-12), (0.5, 0.9, 8, 1e-8)):
        chi = -math.atanh(delta) * np.exp(1j * phi)
        S = squeeze_operator(chi, CFG64)
        lhs = S.conj().T @ a @ S
        rhs = (a - delta * np.exp(1j * phi) * ad) / math.sqrt(1 - delta ** 2)
        assert np.linalg.norm((lhs - rhs)[:win, :win], 2) < tol
    # equivalent state-level form, stable at full depth:
    # (a + delta e^{i phi} a+) S|0> = 0
    delta, phi = 0.5, 0.9
    S = squeeze_operator(-math.atanh(delta) * np.exp(1j * phi), CFG64)
    v = S @ vacuum(CFG64)
    w = (a + delta * np.exp(1j * phi) * ad) @ v
    assert np.linalg.norm(w[:CFG64.kept]) < 1e-10


def test_squeeze_vacuum_variance_matches_closed_form():
    from deformed_heisenberg.dispersion import mus_dispersions, position_operator
    delta = 0.5
    S = squeeze_operator(-math.atanh(delta), CFG64)
    v = S @ vacuum(CFG64)
    X = position_operator(CFG64)
    var_x = (expectation(X @ X, v) - expectation(X, v) ** 2).real
    assert var_x == pytest.approx(mus_dispersions(delta, 0.0)[0], abs=1e-10)


def test_tail_guard():
    v = np.zeros(64, dtype=complex)
    v[0] = 1.0
    assert tail_fraction(v, CFG64) == 0.0
    check_tail(v, CFG64)  # must not raise
    v[-1] = 1.0
    # fraction is measured in norm, not probability: 1/sqrt(2) of the weight
    assert tail_fraction(v, CFG64) == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(TailTooHeavy):
        check_tail(v, CFG64)


def test_norms():
    v = np.array([3.0, 4.0], dtype=complex)
    assert norm(v) == pytest.approx(5.0)
    assert norm(normalize(v)) == pytest.approx(1.0)
