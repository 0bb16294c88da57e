"""Quadrature statistics: closed forms vs matrix numerics on truncated Fock space."""

import cmath
import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformed_heisenberg import cli, dispersion
from deformed_heisenberg.aes_series import (deformed_squeezed_state,
                                            fock_coefficients,
                                            perturbed_state_first_order,
                                            two_param_perturbed_state)
from deformed_heisenberg.deformed_algebra import DeformationParams
from deformed_heisenberg.dispersion import (VALIDITY_EPSILON_THRESHOLD,
                                            gamma_element,
                                            gamma_matrix_table,
                                            general_dispersion,
                                            lambda_element,
                                            momentum_operator,
                                            mus_dispersions, perturbed_moments,
                                            perturbed_quadrature_stats,
                                            position_operator,
                                            quadrature_stats, sweep_table)
from deformed_heisenberg.errors import BadParams, NotConverged, TailTooHeavy
from deformed_heisenberg.fock_core import (TruncationConfig, coherent_state,
                                           displacement_operator,
                                           squeeze_operator, vacuum)
from moment_references import (moments_from_tables, mp_sweep_point,
                               perturbed_moments_literal)

CFG48 = TruncationConfig(48)


def _sandwich_state(delta, phi, beta, theta, cfg):
    # the matrix-element convention: S(-artanh(delta) e^{i phi}) applied to the
    # displaced vacuum with the enlarged amplitude beta e^{i theta}/sqrt(1-d^2)
    r = math.sqrt(1.0 - delta * delta)
    D = displacement_operator(beta * cmath.exp(1j * theta) / r, cfg)
    S = squeeze_operator(-math.atanh(delta) * cmath.exp(1j * phi), cfg)
    return S @ (D @ vacuum(cfg))


def test_quadrature_operators():
    X = position_operator(CFG48)
    P = momentum_operator(CFG48)
    assert np.abs(X - X.conj().T).max() == 0.0
    assert np.abs(P - P.conj().T).max() == 0.0
    comm = X @ P - P @ X - 1j * np.eye(CFG48.dim)
    assert np.linalg.norm(comm[:CFG48.kept, :CFG48.kept], 2) < 1e-12
    v = vacuum(CFG48)
    assert (v.conj() @ (X @ (X @ v))).real == pytest.approx(0.5, abs=1e-14)


def test_quadrature_stats_vacuum_and_coherent():
    qs = quadrature_stats(vacuum(CFG48), CFG48)
    assert qs.mean_x == 0.0 and qs.mean_p == 0.0
    assert qs.var_x == pytest.approx(0.5, abs=1e-14)
    assert qs.var_p == pytest.approx(0.5, abs=1e-14)
    assert qs.corr_f == 0.0
    assert qs.product == pytest.approx(qs.srur_bound, abs=1e-14)

    qc = quadrature_stats(coherent_state(0.7 - 0.4j, CFG48), CFG48)
    assert qc.mean_x == pytest.approx(math.sqrt(2) * 0.7, abs=1e-12)
    assert qc.mean_p == pytest.approx(-math.sqrt(2) * 0.4, abs=1e-12)
    assert abs(qc.product - 0.25) < 1e-12
    assert abs(qc.corr_f) < 1e-12


def test_quadrature_stats_squeezed_five_sixths():
    # delta = 0.5, phi = pi/2: both dispersions equal 5/6; the correlation is
    # -4/3, so the state is still minimum-uncertainty for the generalized bound
    cfg = TruncationConfig(96)
    prm = DeformationParams(z=0.0, lam=0.0, mu=0.5 * cmath.exp(0.5j * math.pi))
    qs = quadrature_stats(deformed_squeezed_state(prm, cfg), cfg)
    assert qs.var_x == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert qs.var_p == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert qs.corr_f == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert qs.product == pytest.approx(qs.srur_bound, abs=1e-12)


def test_quadrature_stats_rejects_heavy_tail():
    v = np.zeros(CFG48.dim, dtype=complex)
    v[CFG48.dim - 1] = 1.0
    with pytest.raises(TailTooHeavy):
        quadrature_stats(v, CFG48)


def test_srur_holds_on_random_states():
    rng = np.random.default_rng(42)
    for _ in range(500):
        v = rng.standard_normal(CFG48.dim) + 1j * rng.standard_normal(CFG48.dim)
        v[CFG48.kept:] = 0.0
        q = quadrature_stats(v, CFG48)
        assert q.var_x > 0.0 and q.var_p > 0.0
        assert q.product >= q.srur_bound - 1e-9


def test_mus_dispersions_values():
    assert mus_dispersions(0.0, 1.234) == (0.5, 0.5)
    vx, vp = mus_dispersions(0.5, math.pi / 2)
    assert vx == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert vp == pytest.approx(5.0 / 6.0, abs=1e-15)
    # X is squeezed where cos(phi) > delta, anti-squeezed on the other side
    assert mus_dispersions(0.3, 0.0)[0] < 0.5 < mus_dispersions(0.3, 0.0)[1]
    assert mus_dispersions(0.3, math.pi)[1] < 0.5 < mus_dispersions(0.3, math.pi)[0]
    for bad in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(BadParams):
            mus_dispersions(bad, 0.0)
        with pytest.raises(BadParams):
            sweep_table(delta=None, phi=0.0, beta=1.0, theta=0.1,
                        varying="delta", grid=[0.2, bad, 0.5], z=0.001,
                        p=0.0)
    # a sweep's columns and the scalar calls give, element by element, the
    # doubles of the scalar formula with libm's cos: a phi sweep of the
    # benchmark, and the delta sweep of the seed-1 request whose first-order
    # variances go negative (phi 2.69375)
    for delta, phi, var, grid in (
            (0.242733, None, "phi", np.linspace(-math.pi, math.pi, 2000)),
            (None, 2.69375, "delta", np.linspace(0.0, 0.9, 1000))):
        t = sweep_table(delta=delta, phi=phi, beta=2.0, theta=0.8 * math.pi,
                        varying=var, grid=grid, z=0.0025, p=0.01)
        for i, x in enumerate(grid.tolist()):
            dl, ph = (delta, x) if var == "phi" else (x, phi)
            r2 = 2 * (1 - dl * dl)
            base = 1 + dl * dl
            ref = ((base - 2 * dl * math.cos(ph)) / r2,
                   (base + 2 * dl * math.cos(ph)) / r2)
            assert ((t.var_x_mus[i], t.var_p_mus[i]) == ref
                    == mus_dispersions(dl, ph)), (dl, ph)


def test_mus_dispersions_match_matrix_and_minimize():
    cfg = TruncationConfig(128, tail_tol=1e-6)
    rng = np.random.default_rng(7)
    for _ in range(6):
        d = rng.uniform(0.0, 0.6)
        f = rng.uniform(-math.pi, math.pi)
        b = rng.uniform(0.0, 1.2)
        t = rng.uniform(-math.pi, math.pi)
        prm = DeformationParams(z=0.0, lam=b * cmath.exp(1j * t),
                                mu=d * cmath.exp(1j * f))
        q = quadrature_stats(deformed_squeezed_state(prm, cfg), cfg)
        vx, vp = mus_dispersions(d, f)
        assert abs(q.var_x - vx) < 1e-12
        assert abs(q.var_p - vp) < 1e-12
        # equality case of the uncertainty product, independent of b and t
        assert abs(q.product - q.srur_bound) < 1e-12


def test_gamma_lambda_closed_values():
    delta, phi, beta, theta = 0.4, 1.1, 1.3, 0.3
    r2 = 1.0 - delta * delta
    assert gamma_element(0, 0, delta, phi, beta, theta) == 1.0
    assert lambda_element(0, 0, delta, phi, beta, theta) == 1.0
    g01 = (beta * cmath.exp(1j * theta)
           - beta * delta * cmath.exp(1j * (phi - theta))) / r2
    assert abs(gamma_element(0, 1, delta, phi, beta, theta) - g01) < 1e-14
    assert abs(gamma_element(0, 1, 0.0, phi, beta, theta)
               - beta * cmath.exp(1j * theta)) < 1e-14
    # the (1,1) element carries cos(phi - 2 theta) in its displacement part
    g11 = (delta * delta + beta * beta
           * (1 + delta * delta - 2 * delta * math.cos(phi - 2 * theta)) / r2) / r2
    assert abs(gamma_element(1, 1, delta, phi, beta, theta) - g11) < 1e-12


def test_gamma_lambda_against_matrix_sandwich():
    cfg = TruncationConfig(64)
    a = np.diag(np.sqrt(np.arange(1, cfg.dim, dtype=float)), 1).astype(complex)
    ad = a.conj().T
    for delta, beta, tol in ((0.4, 1.3, 1e-11), (0.0, 1.0, 1e-12)):
        st = _sandwich_state(delta, 1.1, beta, 0.3, cfg)
        for k in range(5):
            for l in range(5):
                mg = st.conj() @ (np.linalg.matrix_power(ad, k)
                                  @ (np.linalg.matrix_power(a, l) @ st))
                ml = st.conj() @ (np.linalg.matrix_power(a, k)
                                  @ (np.linalg.matrix_power(ad, l) @ st))
                assert abs(mg - gamma_element(k, l, delta, 1.1, beta, 0.3)) < tol
                assert abs(ml - lambda_element(k, l, delta, 1.1, beta, 0.3)) < tol


def test_gamma_matrix_table_matches_per_element_sandwich():
    # the old per-element route: S D|0> and (a+)^k a^l by matrix_power.  The
    # dense S D|0> is built at 2N and cut to N: at N it is a truncated
    # exponential, and its entries are 1.2e-12 off the table's exact ones
    cfg = TruncationConfig(32)
    a = np.diag(np.sqrt(np.arange(1, cfg.dim, dtype=float)), 1).astype(complex)
    ad = a.conj().T
    args = (0.3, 0.7, 1.0, 0.2)
    v = _sandwich_state(*args, TruncationConfig(2 * cfg.dim))[:cfg.dim]
    table = gamma_matrix_table(*args, 3, cfg)
    assert table.shape == (4, 4)
    for k in range(4):
        for l in range(4):
            ref = v.conj() @ (np.linalg.matrix_power(ad, k)
                              @ np.linalg.matrix_power(a, l) @ v)
            assert abs(table[k, l] - ref) < 1e-14 * max(1.0, abs(ref))


def test_gamma_lambda_element_symmetries():
    args = (0.45, 1.1, 1.4, 0.3)
    g = np.array([[gamma_element(k, l, *args) for l in range(7)]
                  for k in range(7)])
    lm = np.array([[lambda_element(k, l, *args) for l in range(7)]
                   for k in range(7)])
    assert g[0, 0] == 1.0 and lm[0, 0] == 1.0
    # the first row/column identities come out of one shared code path: exact
    assert np.abs(g[0, :] - lm[:, 0]).max() == 0.0
    assert np.abs(g[0, :] - g[:, 0].conj()).max() == 0.0
    assert np.abs(g[0, :] - lm[0, :].conj()).max() == 0.0
    # hermitian symmetry only up to summation-order roundoff, so scale it
    big = max(np.abs(g).max(), np.abs(lm).max())
    assert np.abs(g - g.conj().T).max() < 1e-12 * big
    assert np.abs(lm - lm.conj().T).max() < 1e-12 * big


def test_perturbed_moments_reduce_at_zero():
    pm = perturbed_moments(0.45, 0.7, 1.3, -0.4, 0.0, 0.0)
    vx, vp = mus_dispersions(0.45, 0.7)
    assert pm.epsilon == 0.0
    assert pm.var_x == pytest.approx(vx, abs=1e-14)
    assert pm.var_p == pytest.approx(vp, abs=1e-14)


def test_perturbed_moments_two_assemblies_agree():
    for args in ((0.5, 1.0, 2.0, 0.8 * math.pi, 0.001, 0.0),
                 (0.35, -0.7, 1.1, 2.1, 0.004, 0.09)):
        pm = perturbed_moments(*args)
        lit = perturbed_moments_literal(*args)
        assert abs(pm.mean_x_sq - lit[0]) < 1e-12
        assert abs(pm.x2_mean - lit[1]) < 1e-12
        assert abs(pm.mean_p_sq - lit[2]) < 1e-12
        assert abs(pm.p2_mean - lit[3]) < 1e-12


def _grid_cases():
    # a delta grid beside a fixed phi, or the reverse, as a sweep's point
    # lists, at p = 0 and p = 0.01
    n = 61
    for p in (0.0, 0.01):
        for b, t, z in ((1.4, -2.0, 0.003), (0.5, 0.3, 0.0005),
                        (2.0, 0.8 * math.pi, 0.005)):
            yield np.linspace(0.0, 0.9, n).tolist(), [0.7] * n, b, t, z, p
            yield ([0.45] * n, np.linspace(-math.pi, math.pi, n).tolist(),
                   b, t, z, p)


def test_moment_pass_matches_literal_assembly():
    # the sweep's moment pass against the scalar literal transcription,
    # point by point, within 1e-12 of each moment's cancellation scale
    # (measured 3.8e-15)
    for ds, fs, b, t, z, p in _grid_cases():
        for (mx, x2m, mp, p2m, *_), d, f in zip(
                dispersion._moments(ds, fs, b, t, z, p), ds, fs):
            mxs, x2, mps, p2 = perturbed_moments_literal(d, f, b, t, z, p)
            sx = 1 + abs(x2) + abs(mxs)
            sp = 1 + abs(p2) + abs(mps)
            assert abs(mx - mxs) < 1e-12 * sx
            assert abs(x2m - x2) < 1e-12 * sx
            assert abs(mp - mps) < 1e-12 * sp
            assert abs(p2m - p2) < 1e-12 * sp


def test_moment_pass_matches_scalar_calls():
    # a point of a sweep and a number alone take the same arithmetic: bit
    # for bit, n_bar included
    for ds, fs, b, t, z, p in _grid_cases():
        moments = list(dispersion._moments(ds, fs, b, t, z, p))
        assert len(moments) == len(ds)
        for (*m, norm, h, nq, nr), d, f in zip(moments, ds, fs):
            n_bar = norm * h + 2 * (z * nq + p * p / 4.0 * nr).real
            assert (*m, n_bar) == perturbed_moments(d, f, b, t, z, p)


def test_gaussian_elements_reject_delta_one_anywhere_in_grid():
    # the rule and message of mus_dispersions, an error cli.EXIT_CODES maps,
    # for a single element and at any point of the moment pass
    with pytest.raises(BadParams, match="need 0 <= delta < 1"):
        gamma_element(1, 1, 1.0, 0.3, 1.0, 0.1)
    with pytest.raises(BadParams, match="need 0 <= delta < 1"):
        lambda_element(1, 1, 1.0, 0.3, 1.0, 0.1)
    with pytest.raises(BadParams, match="need 0 <= delta < 1"):
        list(dispersion._moments([0.2, 1.0], [0.3, 0.3], 1.0, 0.1, 0.003,
                                 0.01))


def test_perturbed_moments_track_matrix_amplitudes():
    # the leftover is second order; at beta = 2 the prefactor is ~1e3, so the
    # phi-wide bound is 5e-4 only once z drops to 5e-4 (measured 989 z^2)
    cfg = TruncationConfig(160, tail_tol=1e-6)
    d, b, t = 0.5, 2.0, 0.8 * math.pi
    worst = {}
    for z in (0.0005, 0.001):
        w = 0.0
        for f in np.linspace(-math.pi, math.pi, 13):
            pm = perturbed_moments(d, f, b, t, z, 0.0)
            ps = perturbed_state_first_order(d, f, b, t, z, cfg)
            qm = quadrature_stats(ps.normalized, cfg)
            w = max(w, abs(pm.var_x - qm.var_x), abs(pm.var_p - qm.var_p))
        worst[z] = w
    assert worst[0.0005] < 5e-4
    assert worst[0.001] < 1.2e-3
    assert 3.5 < worst[0.001] / worst[0.0005] < 4.5


def test_perturbed_moments_with_p_track_matrix():
    cfg = TruncationConfig(160, tail_tol=1e-6)
    d, f, b, t, z, p = 0.5, 1.0, 2.0, 0.8 * math.pi, 0.0005, 0.08
    pm = perturbed_moments(d, f, b, t, z, p)
    ps = two_param_perturbed_state(d, f, b, t, 0.0, 0.0, z, p, cfg)
    qm = quadrature_stats(ps.normalized, cfg)
    assert abs(pm.var_x - qm.var_x) < 5e-4
    assert abs(pm.var_p - qm.var_p) < 5e-4


def test_perturbed_quadrature_stats_view():
    d, f, b, t, z, p = 0.4, 0.9, 1.2, -0.6, 0.002, 0.05
    pm = perturbed_moments(d, f, b, t, z, p)
    qs = perturbed_quadrature_stats(d, f, b, t, z, p)
    assert qs.var_x == pm.var_x
    assert qs.var_p == pm.var_p
    assert qs.mean_x == pytest.approx(math.sqrt(2) * pm.mean_a.real, abs=1e-14)
    assert qs.mean_p == pytest.approx(math.sqrt(2) * pm.mean_a.imag, abs=1e-14)


def test_general_dispersion_small_z_limit():
    prm = DeformationParams(z=1e-6, lam=2 * cmath.exp(0.8j * math.pi),
                            mu=0.3 * cmath.exp(1j * math.pi / 6))
    qs = general_dispersion(prm, n_max=64, tol=1e-10)
    vx, vp = mus_dispersions(0.3, math.pi / 6)
    assert abs(qs.var_x - vx) < 1e-4
    assert abs(qs.var_p - vp) < 1e-4


def test_general_dispersion_matches_matrix_state():
    prm = DeformationParams(z=0.002, lam=1.2 * cmath.exp(0.8j * math.pi),
                            mu=0.4 * cmath.exp(1j))
    qs = general_dispersion(prm, n_max=64, tol=1e-10)
    cfg = TruncationConfig(128, tail_tol=1e-6)
    qm = quadrature_stats(deformed_squeezed_state(prm, cfg), cfg)
    assert abs(qs.var_x - qm.var_x) < 1e-12
    assert abs(qs.var_p - qm.var_p) < 1e-12
    assert abs(qs.mean_x - qm.mean_x) < 1e-12
    assert abs(qs.mean_p - qm.mean_p) < 1e-12
    assert abs(qs.corr_f - qm.corr_f) < 1e-12


def test_general_dispersion_matches_first_order():
    # leftover is O(z^2): measured 15.4 z^2 and 8.0 z^2 on the two variances
    z = 0.001
    prm = DeformationParams(z=z, lam=1.2 * cmath.exp(0.8j * math.pi),
                            mu=0.4 * cmath.exp(1j))
    qs = general_dispersion(prm, n_max=64, tol=1e-10)
    q1 = perturbed_quadrature_stats(0.4, 1.0, 1.2, 0.8 * math.pi, z, 0.0)
    assert abs(qs.var_x - q1.var_x) < 30 * z * z
    assert abs(qs.var_p - q1.var_p) < 30 * z * z


def test_general_dispersion_sums_match_per_n_reference():
    # the array sums against per-n terms: C'_n(0) = sqrt(n/2) c_{n-1} and
    # C''_n(0) = sqrt(n(n-1))/2 c_{n-2}, both zero below their first index
    prm = DeformationParams(z=0.004, lam=1.3 * cmath.exp(0.6j),
                            mu=0.35 * cmath.exp(-1.2j))
    n_max = 64
    c, _ = fock_coefficients(prm, n_max)
    cp = [0j] + [math.sqrt(n / 2.0) * c[n - 1] for n in range(1, n_max + 1)]
    cpp = [0j, 0j] + [math.sqrt(n * (n - 1)) / 2.0 * c[n - 2]
                      for n in range(2, n_max + 1)]
    s0 = float(np.sum(np.abs(c) ** 2))
    s_cp = sum(c[n].conjugate() * cp[n] for n in range(n_max + 1))
    s_cpp = sum(c[n].conjugate() * cpp[n] for n in range(n_max + 1))
    s_pp = sum(abs(cp[n]) ** 2 for n in range(n_max + 1))
    mean_x, mean_p = 2 * s_cp.real / s0, -2 * s_cp.imag / s0
    x2 = -0.5 + (2 * s_cpp.real + 2 * s_pp) / s0
    p2 = -0.5 + (-2 * s_cpp.real + 2 * s_pp) / s0
    qs = general_dispersion(prm, n_max=n_max, tol=1e-12)
    assert qs.mean_x == pytest.approx(mean_x, abs=1e-13)
    assert qs.mean_p == pytest.approx(mean_p, abs=1e-13)
    assert qs.var_x == pytest.approx(x2 - mean_x ** 2, abs=1e-13)
    assert qs.var_p == pytest.approx(p2 - mean_p ** 2, abs=1e-13)
    corr_f = -2 * (2 * s_cpp / s0).imag - 2 * mean_x * mean_p
    assert qs.corr_f == pytest.approx(corr_f, abs=1e-13)


def test_general_dispersion_zero_z_route():
    prm = DeformationParams(z=0.0, lam=cmath.exp(0.4j),
                            mu=0.45 * cmath.exp(-0.9j))
    qs = general_dispersion(prm, n_max=128, tol=1e-12)
    vx, vp = mus_dispersions(0.45, -0.9)
    assert abs(qs.var_x - vx) < 1e-12
    assert abs(qs.var_p - vp) < 1e-12
    assert abs(qs.product - qs.srur_bound) < 1e-12


def test_general_dispersion_error_paths():
    with pytest.raises(BadParams):
        general_dispersion(DeformationParams(z=0.002, lam=2.0, mu=0.3, nu=0.1))
    with pytest.raises(NotConverged):
        general_dispersion(DeformationParams(z=0.01,
                                             lam=2 * cmath.exp(0.8j * math.pi),
                                             mu=0.5), n_max=24)


def test_sweep_rows_structure_and_bands():
    grid = np.linspace(-math.pi, math.pi, 41)
    t = sweep_table(delta=0.5, phi=None, beta=2.0, theta=0.8 * math.pi,
                    varying="phi", grid=grid, z=0.001, p=0.0)
    assert [len(col) for col in t] == [41] * len(t)
    # plain Python values: the CSV writer picks %d or %.17g by type
    assert all(type(v) is float for col in t[:-1] for v in col)
    assert all(type(v) is bool for v in t.validity_flag)
    assert t.grid_value == pytest.approx(list(grid))
    for phi, vx_mus, vp_mus, vx, vp, product, bound, _ in zip(*t):
        vx_ref, vp_ref = mus_dispersions(0.5, phi)
        assert vx_mus == pytest.approx(vx_ref, abs=1e-14)
        assert vp_mus == pytest.approx(vp_ref, abs=1e-14)
        # the relative squeezing swaps quadratures at cos(phi) = 0
        c = math.cos(phi)
        if c > 0.1:
            assert vx < vp
        elif c < -0.1:
            assert vp < vx
        # first-order rows may undershoot the bound by their own O(z^2) error
        assert product >= bound - 1e-4
    with pytest.raises(BadParams):
        sweep_table(delta=0.5, phi=0.0, beta=2.0, theta=0.8 * math.pi,
                    varying="x", grid=[0.1], z=0.001, p=0.0)
    # an empty grid is an empty table
    assert sweep_table(delta=0.5, phi=0.0, beta=2.0, theta=0.8 * math.pi,
                       varying="delta", grid=[], z=0.001,
                       p=0.0) == ([],) * len(t)


def test_sweep_rows_p_trend():
    grid = np.linspace(-math.pi, math.pi, 41)
    prod = {p: np.array(sweep_table(
        delta=0.5, phi=None, beta=2.0, theta=0.8 * math.pi, varying="phi",
        grid=grid, z=0.003, p=p).product_def) for p in (0.0, 0.06, 0.11)}
    # increasing p lowers the product over most of the circle; the slack
    # absorbs the O(p^4) spots where it creeps up by a few 1e-5
    for lo, hi in ((0.0, 0.06), (0.06, 0.11)):
        diff = prod[hi] - prod[lo]
        assert diff.max() < 1e-4
        assert np.median(diff) < 0.0


def test_sweep_rows_validity_flag():
    # delta sweep at the settings that calibrated the threshold: the flag
    # drops between 0.75 (|eps| = 0.0744) and 0.76 (|eps| = 0.0827)
    flags = sweep_table(delta=None, phi=math.pi / 6, beta=2.0,
                        theta=0.8 * math.pi, varying="delta",
                        grid=[0.5, 0.7, 0.75, 0.76, 0.8], z=0.0025,
                        p=0.01).validity_flag
    assert flags == [True, True, True, False, False]
    eps75 = perturbed_moments(0.75, math.pi / 6, 2.0, 0.8 * math.pi,
                              0.0025, 0.01).epsilon
    assert abs(eps75) == pytest.approx(0.0744, abs=5e-4)
    assert abs(eps75) < VALIDITY_EPSILON_THRESHOLD


def _golden_sweep_argvs(seeds):
    """The sweep_table argvs of the golden corpus for these seeds."""
    path = Path(__file__).resolve().parent / "golden" / "generate.py"
    spec = importlib.util.spec_from_file_location("generate", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    workloads = gen._workloads()
    for seed in seeds:
        blocks = workloads.blocks("sweep_table", seed)
        for _ in range(gen.BLOCKS_PER_SEED):
            yield from next(blocks)


# criterion 08a's box: a phi sweep of 161 rows at z = 0.0025, p = 0.01
CRITERION_08A_ARGV = ["sweep-dispersion", "--delta", "0.5", "--beta", "2",
                      "--theta", repr(0.8 * math.pi), "--z", "0.0025",
                      "--p", "0.01", "--steps", "161"]
# worst error of a printed column relative to max(|ref|, 1), measured: 7.2e-13
# over 30 points of each of the 24 sweep_table argvs of seeds 1-3 (a
# product_def at delta 0.9, where the first-order moments cancel), 9.9e-15
# on criterion 08a's 161 rows.  numpy's route read 9.3e-13 and 1.5e-14
SWEEP_REFERENCE_TOL = 2e-12
POINTS_PER_SWEEP = 30


def test_sweep_columns_match_50_digit_reference():
    argvs = [*_golden_sweep_argvs((1, 2, 3)), CRITERION_08A_ARGV]
    assert len(argvs) == 25
    worst = 0.0
    for argv in argvs:
        a = cli._build_parser().parse_args(argv)
        grid = cli._linspace(a.min, a.max, a.steps)
        d, f = (a.delta, grid) if a.var == "phi" else (grid, a.phi)
        t = sweep_table(delta=d, phi=f, beta=a.beta, theta=a.theta,
                        varying=a.var, grid=grid, z=a.z, p=a.p)
        picks = (range(a.steps) if argv is CRITERION_08A_ARGV else
                 {round(i * (a.steps - 1) / (POINTS_PER_SWEEP - 1))
                  for i in range(POINTS_PER_SWEEP)})
        for i in picks:
            point = (a.delta, grid[i]) if a.var == "phi" else (grid[i], a.phi)
            ref = mp_sweep_point(*point, a.beta, a.theta, a.z, a.p)
            got = [col[i] for col in t[1:7]]
            worst = max(worst, *(abs(g - r) / max(abs(r), 1.0)
                                 for g, r in zip(got, ref)))
            assert t.validity_flag[i] == (abs(ref[6])
                                          <= VALIDITY_EPSILON_THRESHOLD)
    assert worst < SWEEP_REFERENCE_TOL


def test_sweep_columns_are_the_pointwise_stats():
    # the sweep's inline per-point view is perturbed_quadrature_stats and
    # mus_dispersions at each point, bit for bit
    grid = np.linspace(0.0, 0.9, 37).tolist()
    t = sweep_table(delta=None, phi=0.4, beta=1.7, theta=-2.2,
                    varying="delta", grid=grid, z=0.004, p=0.05)
    for i, d in enumerate(grid):
        st = perturbed_quadrature_stats(d, 0.4, 1.7, -2.2, 0.004, 0.05)
        assert (t.var_x_mus[i], t.var_p_mus[i]) == mus_dispersions(d, 0.4)
        assert (t.var_x_def[i], t.var_p_def[i], t.product_def[i],
                t.srur_bound[i]) == (st.var_x, st.var_p, st.product,
                                     st.srur_bound)


def _hex(v):
    return v if isinstance(v, bool) else v.hex()


@st.composite
def _sweeps(draw):
    """sweep_table's keywords: a phi or a delta grid of 3 to 400 points, p 0
    or not, beta up to 1e3."""
    var = draw(st.sampled_from(["phi", "delta"]))
    lo, hi = ((-4.0, 4.0) if var == "phi" else (0.0, 0.95))
    a = draw(st.floats(lo, hi))
    b = draw(st.floats(lo, hi).filter(lambda x: x != a))
    fixed = {"phi": draw(st.floats(-4.0, 4.0)),
             "delta": draw(st.floats(0.0, 0.95))}
    fixed[var] = None
    return dict(fixed, varying=var,
                grid=cli._linspace(min(a, b), max(a, b),
                                   draw(st.integers(3, 400))),
                beta=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3))),
                theta=draw(st.floats(-4.0, 4.0)),
                z=draw(st.floats(-0.01, 0.01)),
                p=draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kw=_sweeps())
def test_one_pass_sweep_is_the_pointwise_moments_bit_for_bit(kw):
    # every column of the one-pass table, -0.0 and nan included, is what
    # mus_dispersions and perturbed_moments(...).stats give at each point
    t = sweep_table(**kw)
    for i, x in enumerate(kw["grid"]):
        d, f = ((kw["delta"], x) if kw["varying"] == "phi"
                else (x, kw["phi"]))
        pm = perturbed_moments(d, f, kw["beta"], kw["theta"], kw["z"],
                               kw["p"])
        s = pm.stats
        want = (x, *mus_dispersions(d, f), s.var_x, s.var_p, s.product,
                s.srur_bound, abs(pm.epsilon) <= VALIDITY_EPSILON_THRESHOLD)
        assert [_hex(col[i]) for col in t] == [_hex(v) for v in want], i


# beta 0, 1e-300 ... 1e300 and 1.7e308: past about 1e40 the moments cancel to
# noise, past about 1e60 they overflow to inf and nan, and at 1.7e308 the
# displacement coefficient itself does
TABLE_BETAS = (0.0, *(10.0 ** e for e in range(-300, 301, 50)), 1.3, 1e40,
               1.7e308)


def _moment_case(rng):
    """_moments' arguments: the point lists of a phi or a delta grid of 1 to
    400 points, delta 0 at some points or for the whole grid, z and p 0 or
    not."""
    n = rng.choice((1, 2, rng.randint(1, 400)))
    if rng.random() < 0.5:
        d = [rng.choice((0.0, rng.uniform(0.0, 0.95)))] * n
        f = [rng.uniform(-4.0, 4.0) for _ in range(n)]
    else:
        d = [rng.choice((0.0, rng.uniform(0.0, 0.95))) for _ in range(n)]
        f = [rng.uniform(-4.0, 4.0)] * n
    b = rng.choice((*TABLE_BETAS, rng.uniform(0.0, 1e3)))
    return (d, f, b, rng.uniform(-4.0, 4.0),
            rng.choice((0.0, rng.uniform(-0.01, 0.01))),
            rng.choice((0.0, rng.uniform(1e-3, 0.5))))


def _bits(values):
    # -0.0, inf and nan by float.hex, a complex's parts apart
    return [(v.real.hex(), v.imag.hex()) if isinstance(v, complex)
            else v.hex() for v in values]


def _moment_bits(args):
    """The hex of every value _moments yields on the point lists, and of
    every perturbed_moments field at their first and last points; an
    exception by its type and message."""
    d, f, *rest = args
    points = [(d[i], f[i]) for i in (0, -1)]
    try:
        return ([_bits(m) for m in dispersion._moments(*args)],
                [_bits(perturbed_moments(*pt, *rest)) for pt in points])
    except Exception as e:
        return type(e), str(e)


def test_moments_are_the_grid_tables_entries_bit_for_bit(monkeypatch):
    # each point's coefficients and Gamma and Lambda entries, formed in the
    # moment pass, give every moment the bits it has from gamma_kl(5, 1) and
    # lambda_kl(2, 3) at that point; the path of perturbed_moments too
    rng = random.Random(39)
    cases = [_moment_case(rng) for _ in range(150)]
    cases.append(([0.2, 1.0], [0.3, 0.3], 1.0, 0.1, 0.003, 0.01))
    got = [_moment_bits(args) for args in cases]
    monkeypatch.setattr(dispersion, "_moments", moments_from_tables)
    for args, bits in zip(cases, got):
        assert bits == _moment_bits(args), args[2:]
    assert got[-1] == (BadParams, "need 0 <= delta < 1")
    assert any("nan" in str(bits) for bits in got)
    assert any("inf" in str(bits) for bits in got)
