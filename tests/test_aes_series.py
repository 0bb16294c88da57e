"""Eigenstate amplitudes, operator-route states, norm factors, symbols."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from deformed_heisenberg import aes_series as aes
from deformed_heisenberg.aes_series import (
    amplitude_coefficients, aes_operator, deformed_coherent_state,
    deformed_squeezed_state, fock_coefficients, merged_displacement,
    normalization_c0, omega_first_order, omega_two_param,
    omega_two_param_printed, perturbed_state_first_order,
    standard_squeezed_symbol_zero_z,
    two_param_log_symbol, two_param_perturbed_state, two_param_symbol,
    upsilon_table)
from deformed_heisenberg.deformed_algebra import DeformationParams
from deformed_heisenberg.errors import (BadParams, NonNormalizable,
                                        NotConverged, PhaseWindow)
from deformed_heisenberg.fock_core import (
    TruncationConfig, annihilation, coherent_state, creation,
    displacement_operator, norm, normalize, squeeze_operator, vacuum)

CFG = TruncationConfig(64)


def _squeezed(lam, mu, n_max):
    """z = 0 amplitudes (C_0 = 1): the squeezed state of a + mu a+."""
    return fock_coefficients(DeformationParams(z=0.0, lam=lam, mu=mu), n_max)[0]


# ---------------------------------------------------------------------------
# upsilon table and amplitude polynomials
# ---------------------------------------------------------------------------

def test_upsilon_row_endpoints():
    for n in range(0, 7):
        tab = upsilon_table(n)
        # n = m row: k^0/(k-m)! needs a single unit entry
        assert tab.rows[n] == (1,)
        if n >= 1:
            # n - m = 1: k/(k-m)! = m/(k-m)! + 1/(k-m-1)!
            assert tab.rows[n - 1] == (n - 1, 1)


def test_upsilon_identity_exact_beyond_solve_points():
    for n in (1, 3, 5, 8):
        tab = upsilon_table(n)
        for m in range(n + 1):
            for k in range(m, n + 11):
                assert tab.identity_residual(m, k) == 0, (n, m, k)


def test_amplitude_polynomial_degree():
    # z-degree of c_n/C_0 is exactly n-1 (the pure-z monomial cancels)
    for n in range(2, 9):
        degs = [n - 2 * s - t for (s, t), _ in amplitude_coefficients(n)]
        assert max(degs) == n - 1
        assert min(degs) >= 0


def _mp_recurrence(prm, n_max, dps=60):
    """The row recurrence of the eigen-equation in dps-digit arithmetic."""
    import mpmath as mp
    with mp.workdps(dps):
        lam, mu, z = mp.mpc(prm.lam), mp.mpc(prm.mu), mp.mpf(prm.z)
        sqrt_fact = [mp.sqrt(mp.factorial(j)) for j in range(n_max + 1)]
        zk = [z ** k / mp.factorial(k) for k in range(n_max + 1)]
        c = [mp.mpc(1)]
        for n in range(n_max):
            rhs = lam * c[n] - (mu * mp.sqrt(n) * c[n - 1] if n else 0)
            for k in range(1, n + 1):
                rhs -= (zk[k] * sqrt_fact[n] / sqrt_fact[n - k]
                        * mp.sqrt(n - k + 1) * c[n - k + 1])
            c.append(rhs / mp.sqrt(n + 1))
        return np.array([complex(x) for x in c])


def _exact_power(w, t):
    """w^t for w = (re, im) in Fractions."""
    re, im = Fraction(1), Fraction(0)
    for _ in range(t):
        re, im = re * w[0] - im * w[1], re * w[1] + im * w[0]
    return re, im


def test_recurrence_matches_exact_integer_tables():
    # the tables' polynomial sum K lam^t mu^s z^(n-2s-t), in exact Fractions
    # and rounded once, is the reference for the float recurrence
    lam = (Fraction(7, 10), Fraction(1, 5))               # 0.7 + 0.2i
    mu = (Fraction(3, 10), Fraction(-1, 10))              # 0.3 - 0.1i
    z = Fraction(1, 2)
    prm = DeformationParams(z=float(z), lam=complex(*map(float, lam)),
                            mu=complex(*map(float, mu)))
    c = fock_coefficients(prm, 12, cross_check=False)[0]
    for n in range(13):
        re = im = Fraction(0)
        for (s, t), K in amplitude_coefficients(n):
            lr, li = _exact_power(lam, t)
            mr, mi = _exact_power(mu, s)
            w = K * z ** (n - 2 * s - t)
            re, im = re + w * (lr * mr - li * mi), im + w * (lr * mi + li * mr)
        want = complex(float(re), float(im)) / math.sqrt(math.factorial(n))
        assert abs(c[n] - want) <= 1e-15 * max(abs(want), 1.0), n


@pytest.mark.parametrize("prm,dim", [
    (DeformationParams(z=0.001, lam=cmath.exp(0.3j), mu=0.5 * cmath.exp(0.9j)),
     128),
    (DeformationParams(z=0.02, lam=1.0, mu=0.5), 256),
], ids=["dim128", "dim256"])
def test_recurrence_matches_mpmath(prm, dim):
    c = fock_coefficients(prm, dim - 1, cross_check=False)[0]
    ref = _mp_recurrence(prm, dim - 1)
    assert np.max(np.abs(c - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-14


def test_recurrence_eigen_residual_at_dim_256():
    cfg = TruncationConfig(256)
    prm = DeformationParams(z=0.02, lam=cmath.exp(0.4j), mu=0.5 * cmath.exp(-1j))
    c0, _ = normalization_c0(prm, n_max=cfg.dim - 1)
    psi = c0 * fock_coefficients(prm, cfg.dim - 1)[0]
    r = (aes_operator(prm, cfg) @ psi - prm.lam * psi)[:cfg.kept]
    assert np.linalg.norm(r) < 1e-12


def test_amplitude_degree_by_polynomial_fit():
    lam, mu = 0.7 + 0.2j, 0.3 - 0.1j
    n = 6
    zs = np.linspace(0.1, 1.2, n + 4)
    vals = np.array([fock_coefficients(DeformationParams(z=z, lam=lam, mu=mu),
                                       n)[0][n] * math.sqrt(math.factorial(n))
                     for z in zs])
    coef = np.polynomial.polynomial.polyfit(zs, vals, n - 1)
    recon = np.polynomial.polynomial.polyval(zs, coef)
    assert max(abs(recon - vals)) < 1e-10
    # degree n fit adds nothing: top coefficient collapses to zero
    coef_up = np.polynomial.polynomial.polyfit(zs, vals, n)
    assert abs(coef_up[-1]) < 1e-8


def test_first_two_amplitudes_closed_forms():
    lam, mu, z = 0.7 + 0.2j, 0.3 - 0.1j, 0.5
    c, _ = fock_coefficients(DeformationParams(z=z, lam=lam, mu=mu), 2)
    assert c[0] == 1.0
    assert c[1] == pytest.approx(lam, abs=1e-15)
    want = math.sqrt(2) * ((lam ** 2 / 2 - mu / 2) - (lam / 2) * z)
    assert c[2] == pytest.approx(want, abs=1e-15)


def test_fock_coefficients_match_zero_z_symbol_for_tiny_z():
    c, _ = fock_coefficients(DeformationParams(z=1e-6, lam=0.7, mu=0.3), 10)
    assert max(abs(c - _squeezed(0.7, 0.3, 10))) < 1e-4


def test_fock_coefficients_dual_route_agreement():
    prm = DeformationParams(z=0.5, lam=0.7 + 0.2j, mu=0.3 - 0.1j)
    _, diag = fock_coefficients(prm, 12)
    assert diag.converged
    assert diag.tail_estimate < 1e-9
    assert diag.terms_used > 0          # the float cross-check actually ran


def test_fock_coefficients_high_precision_route():
    # |mu/z^2 - lam/z| = 470 forces the arbitrary-precision branch
    prm = DeformationParams(z=0.01, lam=0.3, mu=0.05)
    c, diag = fock_coefficients(prm, 5, cross_check=True)
    assert diag.converged
    assert diag.tail_estimate < 1e-9
    assert c[1] == pytest.approx(0.3, abs=1e-12)


def test_route_check_catches_planted_error(monkeypatch):
    # the parameters of the verify route check: the float double sum checks
    # every amplitude there, so a 1e-6 error in c_3 cannot pass
    prm = DeformationParams(z=0.5, lam=0.7 + 0.2j, mu=0.3 - 0.1j)
    exact = aes._amplitudes

    def planted(params, n_max):
        c = exact(params, n_max)
        c[3] += 1e-6 * (1 + 1j)
        return c

    monkeypatch.setattr(aes, "_amplitudes", planted)
    with pytest.raises(NotConverged, match="route deviation"):
        fock_coefficients(prm, 10, cross_check=True)


def test_float_cross_check_skips_what_it_cannot_resolve():
    # |Y| = 30.3: the float double sum cancels away every digit of c_n (off
    # by up to 1e14 at n = 31); its rounding bound says so and the check is
    # left out, where it used to fail correct amplitudes
    prm = DeformationParams.from_polar(z=0.115156, delta=0.401904,
                                       phi=-1.87563, beta=0.548369,
                                       theta=-0.388594)
    _, diag = fock_coefficients(prm, 31)
    assert diag.terms_used == 0 and diag.converged
    # |Y| = 0.82: the check covers at least c_0..c_10, and agrees where it runs
    prm = DeformationParams(z=0.5, lam=0.7 + 0.2j, mu=0.3 - 0.1j)
    other, terms, _ = aes._double_sum_amplitudes(prm, 31, 2000, 1e-10,
                                                 use_mp=False, room=1e-10)
    c = _mp_recurrence(prm, 31)
    checked = ~np.isnan(other)
    assert checked[:11].all() and terms > 0
    assert np.max(np.abs(other - c)[checked]) < 1e-10


def test_float_cross_check_stops_before_summand_overflow():
    # |Y| = 55.5: Y**k would pass the float range before the k-sum converges;
    # the rounding bound stops each sum first
    prm = DeformationParams.from_polar(z=0.0136372, delta=0.0158662,
                                       phi=-2.07702, beta=1.11137,
                                       theta=-1.39953)
    c, diag = fock_coefficients(prm, 47)
    assert diag.converged
    np.testing.assert_allclose(c, _mp_recurrence(prm, 47), rtol=0,
                               atol=1e-14)


def test_fock_coefficients_error_paths():
    with pytest.raises(NotConverged):
        fock_coefficients(DeformationParams(z=0.5, lam=0.7, mu=0.3), 8,
                          k_cutoff=2, cross_check=True)


def test_phase_window_warning():
    # mu = 0 series with z > 0 converges only for cos(arg lam) >= 0
    with pytest.warns(PhaseWindow):
        fock_coefficients(DeformationParams(z=0.1, lam=-1.0, mu=0.0), 3)


# ---------------------------------------------------------------------------
# z = 0 symbols and normalization
# ---------------------------------------------------------------------------

def test_squeezed_symbol_coherent_and_even_cases():
    c = _squeezed(0.8, 0.0, 8)
    want = np.array([0.8 ** n / math.sqrt(math.factorial(n)) for n in range(9)])
    np.testing.assert_allclose(c, want, atol=1e-14)
    c = _squeezed(0.0, 0.5, 9)
    assert max(abs(c[1::2])) == 0.0
    with pytest.raises(NonNormalizable):
        _squeezed(0.3, 1.0, 4)


def test_squeezed_symbol_state_is_eigenvector():
    lam, mu = 0.7, 0.3
    v = normalize(_squeezed(lam, mu, 63))
    a, ad = annihilation(CFG), creation(CFG)
    r = (a + mu * ad) @ v - lam * v
    assert np.linalg.norm(r[:CFG.kept]) < 1e-9


def test_zero_z_amplitudes_past_bargmann_underflow():
    # N = 700: 1/sqrt(n!) underflows long before these amplitudes do, which
    # used to zero or skew the tail past n ~ 304; the reference is the Taylor
    # recurrence of the symbol exp(lam xi - mu xi^2/2), c_n = g_n sqrt(n!)
    import mpmath as mp
    lam, mu, n_max = 1.5 * cmath.exp(-2j), 0.9 * cmath.exp(1j), 699
    c, diag = fock_coefficients(DeformationParams(z=0.0, lam=lam, mu=mu),
                                n_max, cross_check=True)
    assert diag.terms_used == 0          # no double sum exists at z = 0
    with mp.workdps(80):
        g = [mp.mpc(1), mp.mpc(lam)]
        for n in range(2, n_max + 1):
            g.append((lam * g[-1] - mu * g[-2]) / n)
        ref = np.array([complex(x * mp.sqrt(mp.factorial(n)))
                        for n, x in enumerate(g)])
    assert np.max(np.abs(c - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-14


def test_normalization_c0_limits_and_sum():
    c0, _ = normalization_c0(DeformationParams(z=1e-6, lam=1.2, mu=0.0))
    assert c0 == pytest.approx(math.exp(-1.2 ** 2 / 2), abs=1e-5)
    c0, _ = normalization_c0(DeformationParams(z=1e-6, lam=0.0, mu=0.5))
    assert c0 == pytest.approx((1 - 0.5 ** 2) ** 0.25, abs=1e-9)
    prm = DeformationParams(z=0.003, lam=2 * cmath.exp(0.8j * math.pi), mu=0.5)
    c0, diag = normalization_c0(prm)
    c = fock_coefficients(prm, diag.terms_used - 1, cross_check=False)[0]
    assert abs(np.sum(np.abs(c0 * c) ** 2) - 1.0) < 1e-11
    assert diag.converged


def test_normalization_c0_not_converged():
    # delta close to 1 needs far more than a handful of terms
    with pytest.raises(NotConverged):
        normalization_c0(DeformationParams(z=0.0, lam=0.0, mu=0.95), n_max=12)


# ---------------------------------------------------------------------------
# operator-route states
# ---------------------------------------------------------------------------

def test_deformed_squeezed_state_matches_series_route():
    prm = DeformationParams(z=0.01, lam=1.0, mu=0.3)
    v_op = deformed_squeezed_state(prm, CFG)
    c0, _ = normalization_c0(prm)
    c = fock_coefficients(prm, CFG.dim - 1, cross_check=False)[0]
    assert max(abs(v_op - c0 * c)) < 1e-9


def test_deformed_squeezed_state_zero_z_is_symbol_state():
    prm = DeformationParams(z=0.0, lam=0.7, mu=0.3)
    v = deformed_squeezed_state(prm, CFG)
    ref = normalize(_squeezed(0.7, 0.3, 63))
    assert max(abs(v - ref)) < 1e-12


def test_deformed_squeezed_state_eigen_residual():
    prm = DeformationParams(z=0.01, lam=1.0, mu=0.3)
    v = deformed_squeezed_state(prm, CFG)
    ad = creation(CFG)
    op = aes_operator(prm, CFG)          # nu = 0 leaves e^{z a+} a + mu a+
    r = (op @ v - prm.lam * v)[:CFG.kept]
    assert np.linalg.norm(r) < 1e-8


def test_deformed_coherent_state_cases():
    # nu = 0 collapses onto the squeezed state
    prm = DeformationParams(z=0.01, lam=1.0, mu=0.3)
    np.testing.assert_allclose(deformed_coherent_state(prm, CFG),
                               deformed_squeezed_state(prm, CFG), atol=1e-13)
    # z = 0, mu = 0: displaced coherent state with eigenvalue lam - nu
    prm = DeformationParams(z=0.0, lam=0.9, mu=0.0, nu=0.4)
    v = deformed_coherent_state(prm, CFG)
    a = annihilation(CFG)
    r = (a @ v - (prm.lam - prm.nu) * v)[:CFG.kept]
    assert np.linalg.norm(r) < 1e-8
    # full operator residual with all three coefficients active
    prm = DeformationParams(z=0.01, lam=0.9, mu=0.3, nu=0.2)
    v = deformed_coherent_state(prm, CFG)
    r = (aes_operator(prm, CFG) @ v - prm.lam * v)[:CFG.kept]
    assert np.linalg.norm(r) < 1e-8


def test_states_past_factorial_overflow():
    # dim 200: sqrt(n!) and 1/(k+1)! used to pass through math.factorial,
    # which cannot be converted to a float past 170
    cfg = TruncationConfig(200)
    c = _squeezed(0.0, 0.5, cfg.dim - 1)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(1 / math.sqrt(0.75),
                                                       rel=1e-13)
    c0, _ = normalization_c0(DeformationParams(z=0.0, lam=0.0, mu=0.5),
                             n_max=cfg.dim - 1)
    assert c0 == pytest.approx(0.75 ** 0.25, rel=1e-12)
    for prm in (DeformationParams(z=0.01, lam=1.0, mu=0.3),
                DeformationParams(z=0.01, lam=0.9, mu=0.3, nu=0.2)):
        v = deformed_coherent_state(prm, cfg)
        r = (aes_operator(prm, cfg) @ v - prm.lam * v)[:cfg.kept]
        assert np.linalg.norm(r) < 1e-8
    prm = DeformationParams(z=0.01, lam=1.0, mu=0.3)
    np.testing.assert_allclose(deformed_squeezed_state(prm, cfg)[:CFG.dim],
                               deformed_squeezed_state(prm, CFG), atol=1e-12)


# ---------------------------------------------------------------------------
# first-order perturbed states and Omega factors
# ---------------------------------------------------------------------------

def test_perturbed_state_z_zero_reduces_to_squeezed_displaced():
    st = perturbed_state_first_order(0.5, 0.9, 2.0, 0.4, 0.0, CFG)
    assert st.omega == 1.0
    assert st.norm_error < 1e-12
    S = squeeze_operator(-math.atanh(0.5) * cmath.exp(0.9j), CFG)
    D = displacement_operator(2.0 * cmath.exp(0.4j) / math.sqrt(0.75), CFG)
    np.testing.assert_allclose(st.raw, S @ (D @ vacuum(CFG)), atol=1e-12)


def test_omega_is_one_when_beta_vanishes():
    assert omega_first_order(0.5, 0.9, 0.0, 0.4, 0.01) == 1.0


def test_perturbed_state_norm_error_is_second_order():
    for z in (0.002, 0.005, 0.01):
        st = perturbed_state_first_order(0.5, 0.9, 2.0, 0.4, z, CFG)
        assert st.norm_error < 10 * z * z, (z, st.norm_error)
    with pytest.raises(BadParams):
        perturbed_state_first_order(1.1, 0.0, 1.0, 0.0, 0.01, CFG)


def test_merged_displacement():
    assert merged_displacement(3.0, 0.3, 0.0, 1.7) == (pytest.approx(3.0),
                                                       pytest.approx(0.3))
    bt, tt = merged_displacement(1.0, 0.0, 1.0, math.pi)
    assert bt == pytest.approx(0.0, abs=1e-15)
    bt, tt = merged_displacement(1.2, 0.5, 0.3, 1.0)
    w = 1.2 * cmath.exp(0.5j) + 0.3 * cmath.exp(1.0j)
    assert bt == pytest.approx(abs(w))
    assert tt == pytest.approx(cmath.phase(w))


def test_two_param_state_reduces_to_one_param():
    one = perturbed_state_first_order(0.4, 0.9, 1.1, 0.5, 0.004, CFG)
    two = two_param_perturbed_state(0.4, 0.9, 1.1, 0.5, 0.0, 0.0, 0.004, 0.0,
                                    CFG)
    assert max(abs(one.raw - two.raw)) < 1e-12
    assert one.omega == pytest.approx(two.omega, abs=1e-14)


def test_two_param_state_norm_error_orders():
    st = two_param_perturbed_state(0.4, 0.9, 1.1, 0.5, 0.6, 1.3, 0.0, 0.0, CFG)
    assert st.omega == pytest.approx(1.0)
    assert st.norm_error < 1e-12
    st = two_param_perturbed_state(0.4, 0.9, 1.1, 0.5, 0.6, 1.3, 0.003, 0.06,
                                   CFG)
    # second order: z^2, z p^2, p^4 all below ~2e-5 here
    assert st.norm_error < 5e-5


def test_omega_two_param_tracks_numeric_norm():
    # the derived form errs at second order; the printed closed form already
    # deviates at first order through its gamma-dependent z-block
    args = (0.4, 0.9, 1.1, 0.5, 0.6, 1.3)
    for z in (0.002, 0.004, 0.008):
        st = two_param_perturbed_state(*args, z, 0.0, CFG)
        truth = st.omega / norm(st.raw)   # = 1/||T S D vac||
        assert abs(st.omega - truth) < 3 * z * z
        assert abs(omega_two_param_printed(*args, z, 0.0) - truth) > 0.04 * z


def test_limit_chain_recovers_squeezed_then_coherent():
    bt, tt = merged_displacement(1.2, 0.5, 0.3, 1.0)
    st = two_param_perturbed_state(0.4, 0.9, 1.2, 0.5, 0.3, 1.0, 1e-7, 1e-7,
                                   CFG)
    S = squeeze_operator(-math.atanh(0.4) * cmath.exp(0.9j), CFG)
    D = displacement_operator(bt * cmath.exp(1j * tt) / math.sqrt(1 - 0.16),
                              CFG)
    ref = normalize(S @ (D @ vacuum(CFG)))
    assert max(abs(st.normalized - ref)) < 1e-6
    st = two_param_perturbed_state(0.0, 0.0, 1.2, 0.5, 0.3, 1.0, 1e-7, 1e-7,
                                   CFG)
    ref = normalize(coherent_state(bt * cmath.exp(1j * tt), CFG))
    assert max(abs(st.normalized - ref)) < 1e-6


# ---------------------------------------------------------------------------
# two-parameter Bargmann symbols
# ---------------------------------------------------------------------------

def _ode_relative_residual(params, xi):
    """Residual of the defining first-order equation for the log symbol,
    via a centered difference with a z-adapted step (the exponent scales
    like 1/z^2, so the step must grow as z^{-2/3} to beat roundoff)."""
    z, p = params.z, params.p
    lam, mu, nu = params.lam, params.mu, params.nu
    h = 1.0e-4 * z ** (-2.0 / 3.0)
    L = lambda x: two_param_log_symbol(params, cmath.exp(z * x))
    dL = (L(xi + h) - L(xi - h)) / (2 * h)
    zeta = cmath.exp(z * xi)
    pref = zeta * cmath.sqrt(1 + (p * zeta / 2) ** 2)
    terms = (pref * dL, mu * xi, (2 * nu / p) * cmath.asinh(p * zeta / 2),
             -lam)
    return abs(sum(terms)) / max(abs(t) for t in terms)


def test_two_param_symbol_satisfies_defining_equation():
    for z, tol in ((1e-6, 1e-4), (0.01, 1e-7), (0.05, 1e-7)):
        prm = DeformationParams(z=z, p=0.15, lam=1.1 + 0.3j, mu=0.25 - 0.1j,
                                nu=-0.2 + 0.05j)
        for xi in (0.3, 1.0 + 0.4j):
            assert _ode_relative_residual(prm, xi) < tol, (z, xi)


def test_two_param_symbol_mu_nu_zero_case():
    prm = DeformationParams(z=0.02, p=0.2, lam=0.9, mu=0.0, nu=0.0)
    assert _ode_relative_residual(prm, 0.6) < 1e-7


def test_two_param_symbol_small_p_limit():
    z, lam, mu = 0.2, 1.1 + 0.3j, 0.25 - 0.1j
    prm = DeformationParams(z=z, p=1e-6, lam=lam, mu=mu, nu=0.0)
    for xi in (0.8, 0.3 - 0.5j):
        got = two_param_log_symbol(prm, cmath.exp(z * xi))
        want = cmath.exp(-z * xi) * (mu - lam * z + mu * z * xi) / z ** 2
        assert abs(got - want) / abs(want) < 1e-5


def test_two_param_symbol_guards():
    prm = DeformationParams(z=0.02, p=0.2, lam=0.9)
    assert two_param_symbol(prm, 1.0) == pytest.approx(
        cmath.exp(two_param_log_symbol(prm, 1.0)))
    with pytest.raises(BadParams):
        two_param_log_symbol(DeformationParams(z=0.0, p=0.2, lam=1.0), 1.0)
    with pytest.raises(BadParams):
        two_param_log_symbol(DeformationParams(z=0.1, p=0.0, lam=1.0), 1.0)
    with pytest.raises(BadParams):
        two_param_log_symbol(prm, 0.0)


def test_zero_z_symbol_state_is_exact_eigenstate():
    p, lam, mu, nu = 0.3, 0.8 + 0.2j, 0.35 * cmath.exp(0.7j), -0.25
    shift = nu * (2 / p) * math.asinh(p / 2)
    c = math.sqrt(1 + p * p / 4)
    # Taylor amplitudes of the symbol are those of a plain squeezed symbol
    # with both coefficients divided by sqrt(1 + p^2/4)
    xi = 0.37 - 0.21j
    got = standard_squeezed_symbol_zero_z(p, lam, mu, nu, xi)
    assert got == pytest.approx(
        cmath.exp(((lam - shift) * xi - mu * xi * xi / 2) / c))
    v = normalize(_squeezed((lam - shift) / c, mu / c, 63))
    a, ad = annihilation(CFG), creation(CFG)
    op = c * a + mu * ad + (nu * (2 / p) * math.asinh(p / 2)) * np.eye(64)
    r = (op @ v - lam * v)[:CFG.kept]
    assert np.linalg.norm(r) < 1e-9


def test_zero_z_symbol_small_p_shift():
    # p -> 0 turns the nu shift into plain subtraction: exponent (lam-nu)xi - ...
    lam, mu, nu, xi = 0.9, 0.2, 0.3, 0.5
    got = standard_squeezed_symbol_zero_z(1e-8, lam, mu, nu, xi)
    want = cmath.exp((lam - nu) * xi - mu * xi * xi / 2)
    assert abs(got - want) < 1e-7
    with pytest.raises(BadParams):
        standard_squeezed_symbol_zero_z(0.0, lam, mu, nu, xi)
