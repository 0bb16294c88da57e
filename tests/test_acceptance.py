"""Acceptance gate: the ten headline behaviours, one test per criterion.

Each test prints a single summary line with the measured figure next to its
bound, so a -v run reads as a checklist.  Criterion 8a is asserted as stated
even though the measured deficit shows the first-order product genuinely
dips below the undeformed minimum-uncertainty product on part of the circle;
see the failure message for the measured value.
"""

import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import deformed_heisenberg.paragrassmann as pg
from deformed_heisenberg.aes_series import (aes_operator,
                                            deformed_squeezed_state,
                                            fock_coefficients,
                                            normalization_c0)
from deformed_heisenberg.deformed_algebra import (DeformationParams,
                                                  RealizationKind,
                                                  build_realization)
from deformed_heisenberg.dispersion import (gamma_element,
                                            general_dispersion,
                                            lambda_element, mus_dispersions,
                                            perturbed_quadrature_stats,
                                            quadrature_stats, sweep_table)
from deformed_heisenberg.fock_core import (TruncationConfig, annihilation,
                                           creation, displacement_operator,
                                           squeeze_operator, vacuum)
from deformed_heisenberg.paragrassmann import (GrassmannODESpec, as_scalar,
                                               deformed_coherent_symbols_mu0,
                                               grassmann_squeezed_symbol,
                                               residual_check,
                                               solve_appendix_a)
from deformed_heisenberg.pseudo_hermitian import (build_system,
                                                  commutator_checks,
                                                  pseudo_hermiticity_residual,
                                                  unitarity_check)
from dense_residuals import residual_tilde, residual_uzp


def _squeezed_displaced(delta, phi, beta, theta, cfg):
    # matrix-element convention: the displacement amplitude carries the
    # 1/sqrt(1-delta^2) enlargement
    r = math.sqrt(1.0 - delta * delta)
    D = displacement_operator(beta * cmath.exp(1j * theta) / r, cfg)
    S = squeeze_operator(-math.atanh(delta) * cmath.exp(1j * phi), cfg)
    return S @ (D @ vacuum(cfg))


def test_criterion_01_mus_coherent_point():
    worst_closed = worst_matrix = 0.0
    cfg = TruncationConfig(64, tail_tol=1e-6)
    for phi in (math.pi / 2, -math.pi / 2):
        vx, vp = mus_dispersions(0.5, phi)
        worst_closed = max(worst_closed, abs(vx - 5 / 6), abs(vp - 5 / 6))
        st = _squeezed_displaced(0.5, phi, 0.0, 0.0, cfg)
        qs = quadrature_stats(st, cfg)
        worst_matrix = max(worst_matrix, abs(qs.var_x - 5 / 6),
                           abs(qs.var_p - 5 / 6))
    print(f"criterion 01: closed-form dev {worst_closed:.3e} (bound 1e-15), "
          f"matrix dev {worst_matrix:.3e} (bound 1e-6)")
    assert worst_closed < 1e-15
    assert worst_matrix < 1e-6


def test_criterion_02_srur_on_random_states():
    cfg = TruncationConfig(64)
    rng = np.random.default_rng(42)
    worst = math.inf
    for _ in range(500):
        v = rng.standard_normal(cfg.dim) + 1j * rng.standard_normal(cfg.dim)
        v[cfg.kept:] = 0.0
        v /= np.linalg.norm(v)
        qs = quadrature_stats(v, cfg)
        worst = min(worst, qs.product - qs.srur_bound)
    print(f"criterion 02: smallest product-bound margin {worst:.3e} "
          f"(bound -1e-9)")
    assert worst >= -1e-9


def test_criterion_03_commutation_residuals():
    # the tests' dense route (dense_residuals): the relations on the built
    # matrices, independent of the series identities that verify prints
    cfg = TruncationConfig(64)
    worst = 0.0
    for z in (0.0, 0.01, -0.01, 0.05, -0.05):
        for p in (0.1, 0.3, 0.5):
            prm = DeformationParams(z=z, p=p)
            for kind in (RealizationKind.Uzp_One, RealizationKind.Uzp_Two):
                tri = build_realization(kind, prm, cfg)
                worst = max(worst, residual_uzp(tri, prm, cfg))
        prm = DeformationParams(z=z)
        for kind in (RealizationKind.TildeZ0_Cas1,
                     RealizationKind.TildeZ0_Cas2):
            tri = build_realization(kind, prm, cfg)
            worst = max(worst, residual_tilde(tri, prm, cfg))
    print(f"criterion 03: worst commutation residual {worst:.3e} (bound 1e-7)")
    assert worst < 1e-7


def _45_grid():
    for z in (0.005, 0.01, 0.02):
        for d in (0.2, 0.4, 0.6):
            for b in (0.5, 1.2, 2.0):
                yield DeformationParams.from_polar(
                    z=z, p=0.0, delta=d, phi=0.9, beta=b, theta=0.4,
                    gamma=0.0, eta_phase=0.0)


def test_criterion_04_squeezed_eigen_residual():
    cfg = TruncationConfig(64, 16, tail_tol=1e-5)
    worst = 0.0
    for prm in _45_grid():
        v = deformed_squeezed_state(prm, cfg)
        op = aes_operator(prm, cfg)
        worst = max(worst,
                    np.linalg.norm((op @ v - prm.lam * v)[:cfg.kept]))
    print(f"criterion 04: worst eigen residual {worst:.3e} (bound 1e-7)")
    assert worst < 1e-7


def test_criterion_05_dual_route_amplitudes():
    cfg = TruncationConfig(64, 16, tail_tol=1e-5)
    worst = 0.0
    for prm in _45_grid():
        v_op = deformed_squeezed_state(prm, cfg)
        c0, _ = normalization_c0(prm)
        c = np.array(fock_coefficients(prm, cfg.dim - 1)[0])
        worst = max(worst, np.max(np.abs(v_op - c0 * c)))
    print(f"criterion 05: worst amplitude gap {worst:.3e} (bound 1e-9)")
    assert worst < 1e-9


def test_criterion_06_paragrassmann_exactness():
    rng = random.Random(99)

    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 9))

    checked = 0
    for k0 in (2, 3, 4, 5):
        for _ in range(10):
            spec = GrassmannODESpec(lam=(q(), q()), mu=(q(), q()),
                                    nu=(q(), q()), k0=k0)
            for sol in solve_appendix_a(spec):
                assert residual_check(sol, spec).is_zero(), spec
                checked += 1
    # first correction, general coefficients
    lam, mu, nu = F(2), F(3), F(1)
    sol = solve_appendix_a(GrassmannODESpec(lam=lam, mu=mu, nu=nu, k0=2))[0]
    want = [0, (lam - nu) * nu, mu * (lam - 2 * nu) / 2, -mu * mu / 3]
    assert list(sol.Ak[1]) == [as_scalar(w) for w in want]
    # first correction, nu = 0 family
    lam, mu = F(5, 4), F(1, 2)
    primary, _ = grassmann_squeezed_symbol(lam, mu)
    assert list(primary.Ak[1]) == [as_scalar(w)
                                   for w in (0, 0, mu * lam / 2,
                                             -mu * mu / 3)]
    # second correction, mu = 0 family: the xi coefficient must carry
    # -lam^2 nu/2; the sign-flipped variant misses the ODE by lam^2 nu xi
    lam, nu = F(2), F(1)
    spec = GrassmannODESpec(lam=lam, mu=0, nu=nu, k0=3)
    good = deformed_coherent_symbols_mu0(nu, lam, 3)
    assert good.Ak[2][1] == as_scalar(
        -lam * lam * nu / 2 + 2 * lam * nu * nu - 3 * nu ** 3 / 2)
    assert residual_check(good, spec).is_zero()
    flipped = pg.ParagrassmannSolution(
        k0=3, Ak=(good.Ak[0], good.Ak[1],
                  (good.Ak[2][0],
                   good.Ak[2][1] + as_scalar(lam * lam * nu))
                  + good.Ak[2][2:]),
        constants=good.constants, exponent=good.exponent)
    assert not residual_check(flipped, spec).is_zero()
    print(f"criterion 06: {checked} exact ODE residuals identically zero; "
          f"printed corrections reproduced")


def test_criterion_07_gamma_lambda_closed_forms():
    cfg = TruncationConfig(160, tail_tol=1e-6)
    a, ad = annihilation(cfg), creation(cfg)
    phi, theta = 1.1, 0.3
    worst = 0.0
    for d in (0.0, 0.3, 0.6):
        for b in (0.0, 1.0, 2.0):
            st = _squeezed_displaced(d, phi, b, theta, cfg)
            av, adv = [st], [st]
            for _ in range(8):
                av.append(a @ av[-1])
                adv.append(ad @ adv[-1])
            g = np.array([[gamma_element(k, l, d, phi, b, theta)
                           for l in range(9)] for k in range(9)])
            lm = np.array([[lambda_element(k, l, d, phi, b, theta)
                            for l in range(9)] for k in range(9)])
            assert g[0, 0] == 1.0 and lm[0, 0] == 1.0
            for k in range(9):
                for l in range(9 - k):
                    worst = max(worst,
                                abs(np.vdot(av[k], av[l]) - g[k, l]),
                                abs(np.vdot(adv[k], adv[l]) - lm[k, l]))
            # symmetry identities are shared code paths, hence exact
            for l in range(9):
                assert g[0, l] == lm[l, 0]
                assert g[0, l] == g[l, 0].conjugate()
                assert g[0, l] == lm[0, l].conjugate()
            # first-moment closed form
            want01 = (b * cmath.exp(1j * theta)
                      - b * d * cmath.exp(1j * (phi - theta))) / (1 - d * d)
            assert abs(g[0, 1] - want01) < 1e-12
            assert abs(gamma_element(0, 1, d, phi, b, theta) - want01) < 1e-12
    print(f"criterion 07: worst closed-vs-matrix deviation {worst:.3e} "
          f"(bound 1e-8)")
    assert worst < 1e-8


def test_criterion_08a_deformed_product_dominates_mus():
    grid = np.linspace(-math.pi, math.pi, 161)
    t = sweep_table(delta=0.5, phi=None, beta=2.0, theta=0.8 * math.pi,
                    varying="phi", grid=grid, z=0.0025, p=0.01)
    deficit = min(product - vx * vp for product, vx, vp in
                  zip(t.product_def, t.var_x_mus, t.var_p_mus))
    print(f"criterion 08a: smallest product margin over the undeformed "
          f"minimum {deficit:.3e} (bound -1e-9)")
    assert deficit >= -1e-9, (
        f"deformed product dips {deficit:.3e} below the undeformed "
        f"minimum-uncertainty product near phi = -0.24 pi; the dip scales "
        f"linearly in z, so it is a property of the states, not roundoff")


def test_criterion_08b_product_decreases_with_p():
    grid = np.linspace(-math.pi, math.pi, 41)
    prod = {p: np.array(sweep_table(
        delta=0.5, phi=None, beta=2.0, theta=0.8 * math.pi, varying="phi",
        grid=grid, z=0.003, p=p).product_def) for p in (0.0, 0.06, 0.11)}
    worst_creep = -math.inf
    for lo, hi in ((0.0, 0.06), (0.06, 0.11)):
        diff = prod[hi] - prod[lo]
        worst_creep = max(worst_creep, float(diff.max()))
        assert np.median(diff) < 0.0
    print(f"criterion 08b: product falls with p; largest pointwise creep "
          f"{worst_creep:.3e} (slack 1e-4)")
    assert worst_creep < 1e-4


def test_criterion_08c_validity_flag_trips_past_075():
    t = sweep_table(delta=None, phi=math.pi / 6, beta=2.0,
                    theta=0.8 * math.pi, varying="delta",
                    grid=[0.1, 0.3, 0.5, 0.7, 0.75, 0.76, 0.8],
                    z=0.0025, p=0.01)
    flags = t.validity_flag
    assert flags == [True, True, True, True, True, False, False]
    margin = min(product - vx * vp for product, vx, vp, ok in
                 zip(t.product_def, t.var_x_mus, t.var_p_mus, flags) if ok)
    print(f"criterion 08c: flag pattern {flags}; smallest deformed-product "
          f"excess in the valid region {margin:.3e} (must be > 0)")
    assert margin > 0.0


def test_criterion_09_pseudo_hermitian_suite():
    cfg = TruncationConfig(48, 12)
    sys_ = build_system(0.2, 0.02, cfg)
    spec_dev = float(np.max(np.abs(
        np.sort(np.linalg.eigvals(sys_.H).real) - np.arange(cfg.dim))))
    comm = commutator_checks(sys_)
    ph = pseudo_hermiticity_residual(sys_)
    un = unitarity_check(sys_)
    print(f"criterion 09: spectrum dev {spec_dev:.3e} (1e-12), commutators "
          f"{comm:.3e} (1e-8), pseudo-hermiticity {ph:.3e} "
          f"(1e-7), unitarity {un:.3e} (1e-6)")
    assert spec_dev < 1e-12
    assert comm < 1e-8
    assert ph < 1e-7
    assert un < 1e-6


def test_criterion_10_all_order_dispersion_consistency():
    z = 0.001
    cfg = TruncationConfig(128, tail_tol=1e-6)
    w_first = w_matrix = 0.0
    for d in (0.1, 0.2):
        for b in (0.5, 1.0):
            for f, t in ((0.3, 0.8), (-1.2, 2.5), (2.0, -0.7)):
                prm = DeformationParams.from_polar(
                    z=z, p=0.0, delta=d, phi=f, beta=b, theta=t,
                    gamma=0.0, eta_phase=0.0)
                qs = general_dispersion(prm, n_max=64, tol=1e-10)
                q1 = perturbed_quadrature_stats(d, f, b, t, z, 0.0)
                w_first = max(w_first, abs(qs.var_x - q1.var_x),
                              abs(qs.var_p - q1.var_p))
                qm = quadrature_stats(deformed_squeezed_state(prm, cfg), cfg)
                w_matrix = max(w_matrix, abs(qs.var_x - qm.var_x),
                               abs(qs.var_p - qm.var_p))
    print(f"criterion 10: first-order gap {w_first:.3e} (bound 10 z^2 = "
          f"{10 * z * z:.1e}), matrix gap {w_matrix:.3e} (bound 1e-5)")
    assert w_first < 10 * z * z
    assert w_matrix < 1e-5
