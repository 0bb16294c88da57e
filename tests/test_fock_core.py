"""Truncated Fock space: ladder operators, states, matrix functions."""

import cmath
import functools
import math

import numpy as np
import pytest

import scipy.linalg

from deformed_heisenberg import fock_core
from deformed_heisenberg.aes_series import deformed_squeezed_state
from deformed_heisenberg.deformed_algebra import (
    DeformationParams, RealizationKind, build_realization, exp_coefficients)
from deformed_heisenberg.errors import (BadParams, NotConverged, NotNilpotent,
                                       TailTooHeavy, ZeroNorm)
from deformed_heisenberg.fock_core import (
    TruncationConfig, annihilation, check_tail, coherent_state,
    creation, displacement_operator, expectation, guarded_norm,
    inner_product, matrix_exponential, norm, normalize, number_operator,
    series_bound, series_columns, series_operator, squeeze_operator,
    squeezed_displaced_vacuum, tail_fraction, triangular_matrix_function,
    vacuum)
from dense_residuals import (apply_series, cosh_series, max_guarded_norm,
                             nilpotent_part, sinh_series)

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


def test_ladder_operators_are_real():
    # a, a+ and a+a are float64, so the operators built from them with real
    # data stay real; momentum's factor i makes P complex
    from deformed_heisenberg.dispersion import (momentum_operator,
                                                position_operator)
    cfg = TruncationConfig(16)
    for op in (annihilation, creation, number_operator, position_operator):
        assert op(cfg).dtype == np.float64, op.__name__
    assert momentum_operator(cfg).dtype == complex
    np.testing.assert_allclose(number_operator(cfg),
                               creation(cfg) @ annihilation(cfg),
                               rtol=1e-15, atol=0)


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
    np.testing.assert_allclose(apply_series(sinh_series, (p / 2) * B),
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
    alpha, K = nilpotent_part(params.p * B)
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


def _shared_term_by_term(rows, K):
    # the reference in K's own dtype: one dense matmul per Taylor term, each
    # power shared by every row
    out = [row[0] * np.eye(len(K)) for row in rows]
    term = np.eye(len(K))
    for m in range(1, len(K)):
        term = term @ K
        for f, row in zip(out, rows):
            f += row[m] * term
    return out


@pytest.mark.parametrize("dim", [160, 256])
@pytest.mark.parametrize("p", [0.1, 0.4])
def test_cut_taylor_sum_matches_term_by_term_on_uzp_boxes(p, dim,
                                                          monkeypatch):
    # verify's uzp operands, ||K||_F <= 1.5: the sum stops at roundoff after
    # 12-21 terms, so a function takes at most s - 1 + 2 products (the full
    # sum takes 2s - 2), and it keeps every digit of the full sum
    cfg = TruncationConfig(dim)
    params = DeformationParams(z=0.02, p=p)
    B = build_realization(RealizationKind.Uzp_One, params, cfg).B
    alpha, K = nilpotent_part(p * B)
    rows = [cosh_series(alpha, dim), sinh_series(alpha, dim)]
    s = math.isqrt(dim - 1) + 1
    for row, ref in zip(rows, _shared_term_by_term(rows, K)):
        monkeypatch.setattr(_CountingMatrix, "products", 0)
        got = triangular_matrix_function(row, K.view(_CountingMatrix))
        assert _CountingMatrix.products <= s - 1 + 2
        assert np.abs(got - ref).max() < 1e-15 * np.abs(ref).max()


def _kept_by_fsum(row, norm):
    # the cut rule term by term: the fewest M with
    # sum_{m>=M} |c_m| norm^m < u sum_m |c_m| norm^m, u = 2^-53
    t = [abs(c) * norm ** m for m, c in enumerate(row)]
    total = math.fsum(t)
    return next(M for M in range(1, len(t) + 1)
                if math.fsum(t[M:]) < 2.0 ** -53 * total)


@pytest.mark.parametrize("norm", [0.09, 0.9, 1.43, 7.0, 45.0])
def test_taylor_cut_keeps_the_terms_above_roundoff(norm):
    rng = np.random.default_rng(int(norm * 100))
    rows = np.stack([cosh_series(0.3, 160), sinh_series(-0.2, 160),
                     _taylor_like(160, seed=4).real,
                     rng.normal(size=160) * 0.5 ** np.arange(160)])
    kept = fock_core._taylor_terms_kept(rows, norm)
    assert list(kept) == [_kept_by_fsum(row, norm) for row in rows]
    # no bound to sum: a zero K keeps the constant term, a nonfinite
    # coefficient every term
    assert list(fock_core._taylor_terms_kept(rows, 0.0)) == [1] * 4
    rows[1, 7] = np.inf
    assert fock_core._taylor_terms_kept(rows, norm)[1] == 160


@pytest.mark.parametrize("dim", [8, 64, 240, 600])
def test_series_bound_of_one_power_is_its_dense_norm(dim):
    # (a+)^k on the kept block is a weighted shift: its spectral norm is its
    # largest weight, sqrt((kept-1)!/(kept-1-k)!), which the bound sums in
    # logs, so that kept past 170 gives finite weights
    cfg = TruncationConfig(dim)
    ad = creation(TruncationConfig(cfg.kept))
    power = np.eye(cfg.kept)
    for k in range(min(cfg.kept, 12)):
        r = np.zeros(k + 1)
        r[k] = -0.5
        want = 0.5 * np.linalg.norm(power, 2)
        assert series_bound(r, cfg) == pytest.approx(want, rel=1e-12), k
        power = ad @ power
    assert math.isfinite(series_bound(np.full(cfg.kept, 1e-300), cfg))
    # orders past the kept block do not act on it
    assert series_bound(np.r_[np.zeros(cfg.kept), 1.0], cfg) == 0.0


def test_series_bound_reads_a_broken_series_as_inf():
    cfg = TruncationConfig(16)
    assert series_bound(np.zeros(12), cfg) == 0.0
    for bad in (math.inf, -math.inf, math.nan, complex(0, math.nan)):
        r = np.zeros(12, dtype=complex)
        r[3] = bad
        assert series_bound(r, cfg) == math.inf, bad


@pytest.mark.parametrize("dim", [8, 64, 200, 512])
def test_series_columns_are_series_operator_bit_for_bit(dim):
    # the column reference takes each column's running product of roots,
    # series_operator one cumprod over a Hankel view: the same roundings,
    # real and complex, past the n ~ 340 where sqrt(n!) overflows
    cfg = TruncationConfig(dim, guard=1)
    rng = np.random.default_rng(dim)
    cols = [0, 1, dim // 2, dim - 2, dim - 1]
    for f in (exp_coefficients([0.0, 0.3], dim),
              exp_coefficients([0.0, 0.1 - 0.2j, 0.05j], dim),
              rng.normal(size=7), [0.5]):
        got, want = series_columns(f, cols, dim), series_operator(f, cfg)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want[:, cols])


def _count_svds(monkeypatch):
    # max_guarded_norm (dense_residuals) takes each SVD through
    # fock_core.guarded_norm
    calls = []

    def counted(mat, cfg):
        calls.append(1)
        return guarded_norm(mat, cfg)

    monkeypatch.setattr(fock_core, "guarded_norm", counted)
    return calls


def test_max_guarded_norm_skips_only_blocks_that_cannot_win(monkeypatch):
    cfg = TruncationConfig(40, 10)
    rng = np.random.default_rng(11)
    big, small = rng.normal(size=(2, 40, 40)) * [[[1.0]], [[1e-3]]]
    # a column of norm 1 (spectral norm 1) beside a flat block whose
    # columns are shorter but whose spectral norm is 3: the largest column
    # norm is a bound, not the winner
    spike = np.zeros((40, 40))
    spike[:30, 0] = 30 ** -0.5
    flat = np.full((40, 40), 0.1)
    cases = [([big, small, small], 1),          # the largest block first
             ([small, small, big], 1),          # last
             ([big, small, big.copy()], 2),     # two blocks tie
             ([spike, flat, small], 2)]
    for mats, svds in cases:
        calls = _count_svds(monkeypatch)
        got = max_guarded_norm(mats, cfg)
        assert got == max(guarded_norm(M, cfg) for M in mats)
        assert len(calls) == svds
    assert max_guarded_norm([spike, flat], cfg) == guarded_norm(flat, cfg)


def test_max_guarded_norm_outside_the_bounds_range_takes_every_svd(
        monkeypatch):
    cfg = TruncationConfig(16, 4)
    rng = np.random.default_rng(2)
    tiny = 1e-120 * rng.normal(size=(16, 16))
    calls = _count_svds(monkeypatch)
    assert max_guarded_norm([tiny, tiny / 2], cfg) == guarded_norm(tiny, cfg)
    assert len(calls) == 2
    # an inf entry makes its SVD nan, and the nan is the result wherever the
    # block stands, where max() would keep it only in first place
    inf = np.ones((16, 16))
    inf[1, 1] = np.inf
    for mats in ([inf, np.eye(16)], [np.eye(16), inf]):
        assert math.isnan(max_guarded_norm(mats, cfg))


# coefficient lists with a nonzero constant term, complex entries and a tail
# that runs past the box, so every subdiagonal is populated
F = [0.7 - 0.2j, 1.1, 0.3j, -0.25, 0.05 + 0.05j, -0.01, 0.002j]
G = [1.0, -0.4j, 0.2, 0.0, 0.08 - 0.01j]


def test_series_operator_of_x_is_creation():
    for dim in (1, 2, 16):
        cfg = TruncationConfig(dim, 0)
        np.testing.assert_array_equal(series_operator([0, 1], cfg),
                                      creation(cfg))


def _series_operator_by_subdiagonal(f, cfg):
    # the kernel one subdiagonal per iteration, from running products of
    # the 2^-e scaled roots: the reference for the vectorised pass
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
            run = run[:-1] * roots[k - 1:]
        fk = np.ldexp(f[k].real, e * k)
        if cplx:
            fk = fk + 1j * np.ldexp(f[k].imag, e * k)
        flat[k * N::N + 1] = fk * run
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 64, 160, 256, 400])
def test_series_operator_matches_subdiagonal_loop(dim):
    # N = 400 is past the point where the 2^-e scaling keeps sqrt(n!) finite
    cfg = TruncationConfig(dim)
    rng = np.random.default_rng(dim)
    for length in sorted({1, max(1, dim // 2), dim, dim + 5}):
        # about 0.3^k / sqrt(k!), the size of a Bargmann coefficient
        decay = np.exp([k * math.log(0.3) - math.lgamma(k + 1) / 2
                        for k in range(length)])
        re = rng.standard_normal(length) * decay
        im = rng.standard_normal(length) * decay
        for f in (re, re + 1j * im, exp_coefficients([0, 0.02], length)):
            got = series_operator(f, cfg)
            want = _series_operator_by_subdiagonal(f, cfg)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert np.array_equal(got, want), (dim, length, f.dtype)


def test_exp_coefficients_match_expm_of_creation():
    cfg = TruncationConfig(24, 6)
    for z in (0.3, -1.2, 0.5 - 0.4j):
        coeffs = exp_coefficients([0, z], cfg.dim)
        k = np.arange(cfg.dim)
        want = np.array([z ** m / math.factorial(m) for m in k])
        np.testing.assert_allclose(coeffs, want, rtol=1e-14, atol=0)
        # matrix_exponential takes scipy's complex expm, for real z too:
        # its real one rounds z a+ = -1.2 a+ to 7.3e-13 here
        np.testing.assert_allclose(series_operator(coeffs, cfg),
                                   matrix_exponential(z * creation(cfg)),
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
    with pytest.raises(NotNilpotent):
        triangular_matrix_function([1.0, 1.0], np.eye(2))


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


# S D|0> boxes (delta, phi, w, N): the (0.5, 0.9, 2 e^{0.4i}) box of the
# perturbed-state tests, and the boxes of the phi = 1.3, arg w = 1.5 grid over
# delta in {0, 0.3, 0.9, 0.95} and |w| in {0.36, 1, 2} where the dense
# reference converges; at delta >= 0.9 it holds 6.7e-8 to 0.64 of the norm in
# the guard band of its 2N levels
SD_BOXES = [(0.5, 0.9, 2 * cmath.exp(0.4j), 64)] + [
    (delta, 1.3, r * cmath.exp(1.5j), dim)
    for dim in (48, 160, 256) for delta in (0.0, 0.3) for r in (0.36, 1.0, 2.0)]


@functools.lru_cache
def _dense_squeeze(delta, phi, dim):
    return squeeze_operator(-math.atanh(delta) * cmath.exp(1j * phi),
                            TruncationConfig(dim))


@pytest.mark.parametrize("box", SD_BOXES,
                         ids=lambda b: f"{b[0]}-{abs(b[2]):.2g}-{b[3]}")
def test_squeezed_displaced_vacuum_matches_dense_expm(box):
    # the dense reference is built at 2N and cut to N: at N itself it is a
    # truncated exponential, 1e-10 off the amplitudes of the state at the top
    # levels of the (0.5, 0.9, 2 e^{0.4i}, 64) box
    delta, phi, w, dim = box
    big = TruncationConfig(2 * dim)
    D = displacement_operator(w / math.sqrt(1 - delta * delta), big)
    ref = _dense_squeeze(delta, phi, big.dim) @ (D @ vacuum(big))
    assert tail_fraction(ref, big) <= big.tail_tol      # the reference fits
    got = squeezed_displaced_vacuum(delta, phi, w, TruncationConfig(dim))
    assert np.abs(got - ref[:dim]).max() <= 1e-13


def test_squeezed_displaced_vacuum_outside_float_range_raises():
    # c0 = e^{-|w|^2/2} underflows at |w| = 40, and at |w| = 1e200 too, where
    # the plain-Python vacuum image overflows without a warning
    with pytest.raises(NotConverged, match="float range"):
        squeezed_displaced_vacuum(0.0, 0.0, 40.0, CFG64)
    with pytest.raises(NotConverged, match="float range"):
        squeezed_displaced_vacuum(0.0, 0.0, 1e200, CFG64)
    with pytest.raises(BadParams):
        squeezed_displaced_vacuum(1.0, 0.0, 1.0, CFG64)


def test_tail_guard():
    v = np.zeros(64, dtype=complex)
    assert tail_fraction(v, CFG64) == 0.0
    v[0] = 1.0
    assert tail_fraction(v, CFG64) == 0.0
    check_tail(v, CFG64)  # must not raise
    v[-1] = 1.0
    # fraction is measured in norm, not probability: 1/sqrt(2) of the weight
    assert tail_fraction(v, CFG64) == pytest.approx(1 / math.sqrt(2))
    assert tail_fraction(v, TruncationConfig(64, guard=0)) == 0.0
    with pytest.raises(TailTooHeavy):
        check_tail(v, CFG64)
    # a nan or inf norm fails every tail comparison: the guard names it
    v[-1] = math.nan
    with pytest.raises(NotConverged, match="float range"):
        check_tail(v, CFG64)
    # states whose amplitudes overflow (numpy reports it on the way) are
    # refused, not returned as nan or inf
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NotConverged, match="float range"):
        coherent_state(1e200, CFG64)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NotConverged, match="float range"):
        deformed_squeezed_state(DeformationParams(z=0.01, lam=1e150, mu=0.3),
                                CFG64)


def test_norms():
    v = np.array([3.0, 4.0], dtype=complex)
    assert norm(v) == pytest.approx(5.0)
    assert norm(normalize(v)) == pytest.approx(1.0)
    with pytest.raises(ZeroNorm):
        normalize(np.zeros(4))
    for bad in ([np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(NotConverged, match="float range"):
            normalize(np.array(bad))
