"""Eigenstate amplitudes, operator-route states, norm factors, symbols."""

import cmath
import math
import random
import warnings
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
from deformed_heisenberg.deformed_algebra import (DeformationParams,
                                                  exp_coefficients)
from deformed_heisenberg.errors import (BadParams, BranchCut,
                                        NonNormalizable, NotConverged,
                                        PhaseWindow)
from deformed_heisenberg.fock_core import (
    TruncationConfig, annihilation, bargmann_rows, coherent_state, creation,
    displacement_operator, norm, normalize, series_operator,
    squeeze_operator, vacuum)

CFG = TruncationConfig(64)


def _coefficients(prm, n_max):
    """fock_coefficients' amplitudes as an array (the kernel returns a list)."""
    return np.array(fock_coefficients(prm, n_max)[0])


def _squeezed(lam, mu, n_max):
    """z = 0 amplitudes (C_0 = 1): the squeezed state of a + mu a+."""
    return _coefficients(DeformationParams(z=0.0, lam=lam, mu=mu), n_max)


# ---------------------------------------------------------------------------
# upsilon table and amplitude polynomials
# ---------------------------------------------------------------------------

def test_upsilon_row_endpoints():
    with pytest.raises(BadParams):
        upsilon_table(-1)
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


def _mp_rows(prm, n_max):
    """c_0..c_{n_max} (c_0 = 1) by the row recurrence of the eigen-equation
    at mpmath's working precision, with the term -nu e^{z a+} of prm.nu when
    it is nonzero."""
    import mpmath as mp
    lam, mu, z = mp.mpc(prm.lam), mp.mpc(prm.mu), mp.mpf(prm.z)
    nu = mp.mpc(prm.nu)
    sqrt_fact = [mp.sqrt(mp.factorial(j)) for j in range(n_max + 1)]
    zk = [z ** k / mp.factorial(k) for k in range(n_max + 1)]
    c = [mp.mpc(1)]
    for n in range(n_max):
        rhs = lam * c[n] - (mu * mp.sqrt(n) * c[n - 1] if n else 0)
        for k in range(1, n + 1):
            rhs -= (zk[k] * sqrt_fact[n] / sqrt_fact[n - k]
                    * mp.sqrt(n - k + 1) * c[n - k + 1])
        if nu:
            rhs -= nu * mp.fsum(zk[k] * sqrt_fact[n] / sqrt_fact[n - k]
                                * c[n - k] for k in range(n + 1))
        c.append(rhs / mp.sqrt(n + 1))
    return c


def _mp_recurrence(prm, n_max, dps=60):
    """_mp_rows in dps-digit arithmetic, rounded to complex."""
    import mpmath as mp
    with mp.workdps(dps):
        return np.array([complex(x) for x in _mp_rows(prm, n_max)])


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
    c = fock_coefficients(prm, 12)[0]
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
    # |mu/z^2 - lam/z| = 55.5, where the float double sum used to overflow
    (DeformationParams.from_polar(z=0.0136372, delta=0.0158662, phi=-2.07702,
                                  beta=1.11137, theta=-1.39953), 48),
    # verify's route box: amplitudes that peak at n = 177, rows cut early
    (DeformationParams.from_polar(z=0.001, delta=0.3, phi=0.7, beta=12.0,
                                  theta=-0.4), 200),
], ids=["dim128", "dim256", "Y55", "route_box"])
def test_recurrence_matches_mpmath(prm, dim):
    c = fock_coefficients(prm, dim - 1)[0]
    ref = _mp_recurrence(prm, dim - 1)
    assert np.max(np.abs(c - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-14


def test_recurrence_eigen_residual_at_dim_256():
    cfg = TruncationConfig(256)
    prm = DeformationParams(z=0.02, lam=cmath.exp(0.4j), mu=0.5 * cmath.exp(-1j))
    c0, _ = normalization_c0(prm, n_max=cfg.dim - 1)
    psi = c0 * _coefficients(prm, cfg.dim - 1)
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
    c = _coefficients(DeformationParams(z=1e-6, lam=0.7, mu=0.3), 10)
    assert max(abs(c - _squeezed(0.7, 0.3, 10))) < 1e-4


def _mp_double_sum(prm, n_max, tol=1e-30):
    """The paper's unsummed double series for c_n (C_0 = 1), in mpmath:

        c_n = e^{-Y} z^n / sqrt(n!) sum_k sum_{m <= min(k, n)}
              C(n, m) (-k)^{n-m} X^m Y^{k-m} / (k-m)!,

    X = mu/z^2, Y = mu/z^2 - lam/z, each k-sum stopped after three terms in
    a row below tol of its partial sum."""
    import mpmath as mp
    y = abs(prm.mu / prm.z ** 2 - prm.lam / prm.z)
    # 0.434|Y| digits cancel in e^{-Y} sum_k Y^k/k!, up to ~0.87|Y| for
    # complex Y; the k^n and X^m growth adds ~n log10|Y| more
    dps = 40 + int(0.9 * y) + int(n_max * max(2.0, math.log10(max(y, 10.0))))
    with mp.workdps(dps):
        z = mp.mpf(prm.z)
        X = mp.mpc(prm.mu) / z ** 2
        Y = X - mp.mpc(prm.lam) / z
        out = []
        for n in range(n_max + 1):
            total, small = mp.mpc(0), 0
            for k in range(int(4 * y) + 40 * (n_max + 1) + 300):
                term = mp.fsum(math.comb(n, m) * (-k) ** (n - m) * X ** m
                               * Y ** (k - m) / mp.factorial(k - m)
                               for m in range(min(k, n) + 1))
                total += term
                small = small + 1 if abs(term) < tol * abs(total) else 0
                if small == 3:
                    break
            assert small == 3, f"double sum for c_{n} not converged"
            out.append(complex(mp.exp(-Y) * z ** n * total
                               / mp.sqrt(mp.factorial(n))))
    return np.array(out)


@pytest.mark.parametrize("prm,n_max", [
    # |mu/z^2 - lam/z| = 0.82 and 470: the double sum cancels about 0.4|Y|
    # digits, so the second box needs some 480 of them
    (DeformationParams(z=0.5, lam=0.7 + 0.2j, mu=0.3 - 0.1j), 12),
    (DeformationParams(z=0.01, lam=0.3, mu=0.05), 5),
], ids=["Y0.82", "Y470"])
def test_recurrence_matches_paper_double_sum(prm, n_max):
    c, diag = fock_coefficients(prm, n_max)
    ref = _mp_double_sum(prm, n_max)
    assert np.max(np.abs(c - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-14
    assert diag.terms_used == n_max + 1 and diag.tail_estimate < 1e-15


def _amplitudes_reference(params, n_max):
    """The row recurrence with each row's weights built from a fancy-indexed
    k and an array power, every term of every row summed in numpy."""
    lam, mu, z = params.lam, params.mu, params.z
    j = np.arange(n_max + 1)
    root = np.sqrt(j)
    log_fact = np.r_[0.0, np.cumsum(np.log(j[1:]))]       # log j!
    c = np.r_[1.0 + 0j, np.zeros(n_max, dtype=complex)]
    log_z = math.log(abs(z)) if z else -math.inf
    log_zk = j * log_z - log_fact
    for n in range(n_max):
        k = j[n:0:-1]
        w = np.copysign(1.0, z) ** k * np.exp(
            log_zk[k] + 0.5 * (log_fact[n] - log_fact[n - k]))
        c[n + 1] = (lam * c[n] - mu * root[n] * c[n - 1]
                    - (w * root[1:n + 1]) @ c[1:n + 1]) / root[n + 1]
    return c


def _random_boxes(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        z = (0.0, 1.0, -1.0)[i % 3] * rng.uniform(1e-4, 0.05)
        lam = complex(*rng.uniform(-1, 1, 2))
        mu = complex(*rng.uniform(-0.6, 0.6, 2))      # |mu| < 1 for z = 0
        yield DeformationParams(z=z, lam=lam, mu=mu), int(rng.integers(8, 1024))


@pytest.mark.parametrize("prm,n_max", list(_random_boxes(36, seed=2705)))
def test_amplitudes_match_the_uncut_reference_loop(prm, n_max):
    # both calls of the row kernel, the recurrence (_amplitudes) and the
    # vacuum image, stop each row where the rest cannot reach its last bit
    # and sum in plain Python; the reference sums every term with numpy.
    # Over the 36 boxes the gaps read <= 4.6e-16 and 5.3e-16 of the largest
    # amplitude, about a quarter of the bound
    with np.errstate(invalid="ignore"):       # 0 * -inf at z = 0, unread
        want = _amplitudes_reference(prm, n_max)
    for got in (aes._amplitudes(prm, n_max),
                aes.eigenstate_image(prm, 0.0, n_max + 1)):
        assert (np.max(np.abs(np.array(got) - want))
                <= 2e-15 * np.max(np.abs(want)))


def _coherent_recurrence(prm, n_max):
    """The nu != 0 eigenstate in recurrence form, a row-kernel call with P and
    Q both long: e^{z xi} w' = (lam - mu xi - nu e^{z xi}) w, with order j on
    the scale |z|^j / j!, so P_{j+1} = z^{j+1}/(j+1)! reads sign^{j+1}
    |z|/(j+1) and Q_j = -nu z^j/j! (j >= 2) reads -nu sign^j.  z != 0."""
    lam, mu, nu, z = prm.lam, prm.mu, prm.nu, prm.z
    sign = math.copysign(1.0, z)
    q = [lam - nu, (-mu - nu * z) / abs(z)] + [-nu * sign ** j
                                               for j in range(2, n_max + 1)]
    p = [1.0] + [sign ** (j + 1) * abs(z) / (j + 1) for j in range(n_max + 1)]
    ratio = [abs(z) / (j + 1) for j in range(n_max + 1)]
    return np.array(bargmann_rows(q, p, ratio, n_max + 1))


@pytest.mark.parametrize("prm,n_max,bound", [
    (DeformationParams(z=0.02, lam=1.0, mu=0.5, nu=0.3 - 0.2j), 127, 5e-16),
    (DeformationParams(z=-0.01, lam=0.7 * cmath.exp(0.3j),
                       mu=0.4 * cmath.exp(-1j), nu=0.5j), 199, 5e-16),
    # verify's route box with gamma 0.8: one ulp of lam moves the amplitudes
    # by 2.6e-14 of the largest, so both routes sit at its conditioning
    (DeformationParams.from_polar(z=0.001, delta=0.3, phi=0.7, beta=12.0,
                                  theta=-0.4, gamma=0.8, eta_phase=1.1),
     199, 4e-14),
], ids=["z0.02", "z-0.01", "route_box_nu"])
def test_rows_with_p_and_q_both_long(prm, n_max, bound):
    # the nu != 0 deformed coherent state: in recurrence form both P and Q
    # are long, as in no production call.  The references are its vacuum
    # image (P = 1, Q = (lam - mu xi) e^{-z xi} - nu) and the 60-digit
    # recurrence with the nu term.  Measured, in units of the largest
    # amplitude: 7.4e-17, 2.9e-17 and 1.4e-15 for the recurrence form,
    # 7.4e-17, 3.0e-17 and 1.0e-14 for the vacuum image
    rec = _coherent_recurrence(prm, n_max)
    img = np.array(aes.eigenstate_image(prm, prm.nu, n_max + 1))
    ref = _mp_recurrence(prm, n_max)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(rec - ref)) <= bound * scale
    assert np.max(np.abs(img - ref)) <= bound * scale
    assert np.max(np.abs(rec - img)) <= bound * scale


def test_route_check_catches_planted_error(monkeypatch):
    # the vacuum-image route checks every amplitude, so a 1e-6 error in c_3
    # cannot pass
    prm = DeformationParams(z=0.5, lam=0.7 + 0.2j, mu=0.3 - 0.1j)
    exact = aes._amplitudes

    def planted(params, n_max):
        c = exact(params, n_max)
        c[3] += 1e-6 * (1 + 1j)
        return c

    monkeypatch.setattr(aes, "_amplitudes", planted)
    with pytest.raises(NotConverged,
                       match="row recurrence and the vacuum-image route"):
        fock_coefficients(prm, 10)


@pytest.mark.parametrize("prm", [
    DeformationParams(z=0.5, lam=1e200, mu=0.3),        # a product is inf
    DeformationParams(z=1e308, lam=1.0, mu=0.3),        # math.exp raises
], ids=["product", "exp"])
def test_fock_coefficients_error_paths(prm):
    # Python floats overflow to inf without a warning, and a weight whose
    # math.exp overflows makes the rest nan: the finiteness check reports both
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConverged, match="leave the float range"):
            fock_coefficients(prm, 8)


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
                                n_max)
    assert diag.terms_used == n_max + 1  # the vacuum image checks z = 0 too
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
    c = _coefficients(prm, diag.terms_used - 1)
    assert abs(np.sum(np.abs(c0 * c) ** 2) - 1.0) < 1e-11


def _audit_box(rng, sizes, z_max, delta_max, beta_max):
    """A seeded box of the audits below: a size from sizes, |z| log-uniform
    over [3e-4, z_max] with either sign, delta up to delta_max, beta from
    0.1 to beta_max and uniform phases."""
    z = math.copysign(10 ** rng.uniform(math.log10(3e-4), math.log10(z_max)),
                      rng.choice((-1, 1)))
    return rng.choice(sizes), DeformationParams.from_polar(
        z=z, delta=rng.uniform(0.0, delta_max),
        phi=rng.uniform(-math.pi, math.pi), beta=rng.uniform(0.1, beta_max),
        theta=rng.uniform(-math.pi, math.pi))


def test_amplitudes_keep_parity_and_conjugation_symmetry():
    # (z, lam, mu) -> (-z, -lam, mu) gives (-1)^n psi_n and conjugating lam
    # and mu gives conj(psi_n), bit for bit (up to the sign of zero), on
    # both routes at dims no mpmath reference reaches; an entry past the
    # float range is nan on all three boxes.  Both routes are sign
    # symmetric, so this catches a broken kernel, not a wrong route
    rng = random.Random(20)
    for _ in range(30):
        dim, prm = _audit_box(rng, (256, 512, 1024, 1536), 0.2, 0.9, 16.0)
        parity = prm._replace(z=-prm.z, lam=-prm.lam)
        conj = prm._replace(lam=prm.lam.conjugate(), mu=prm.mu.conjugate())
        for route in (lambda q: aes._amplitudes(q, dim - 1),
                      lambda q: aes.eigenstate_image(q, 0.0, dim)):
            psi, par, con = route(prm), route(parity), route(conj)
            assert len(psi) == len(par) == len(con) == dim
            for n, (a, b, c) in enumerate(zip(psi, par, con)):
                if cmath.isnan(a):
                    assert cmath.isnan(b) and cmath.isnan(c), (prm, n)
                    continue
                assert b == (-a if n % 2 else a), (prm, n)
                assert c == a.conjugate(), (prm, n)


# c0's relative error in units of tail_estimate + u, u = 2^-53: 0.501 at
# most on the 18 accepted of the first 25 boxes of the audit's seed (c0's
# relative error is half its norm sum's), so the bound keeps 2x headroom
C0_AUDIT_FACTOR = 1.0


def test_normalization_c0_error_within_its_tail_estimate():
    # c0 against 1/sqrt of the 60-digit norm sum over n <= n_max, on 12
    # seeded boxes with |z| up to 0.05, delta up to 0.8 and beta up to 6; a
    # box whose series the sum refuses is skipped
    import mpmath as mp
    rng = random.Random(20)
    accepted = 0
    for _ in range(12):
        n_max, prm = _audit_box(rng, (96, 128, 192, 256), 0.05, 0.8, 6.0)
        try:
            c0, diag = normalization_c0(prm, n_max)
        except NotConverged:
            continue
        accepted += 1
        with mp.workdps(60):
            ref = 1 / mp.sqrt(mp.fsum(abs(c) ** 2
                                      for c in _mp_rows(prm, n_max)))
            err = float(abs(c0 - ref) / ref)
        assert err <= C0_AUDIT_FACTOR * (diag.tail_estimate + 2.0 ** -53), (
            prm, n_max, err, diag)
    assert accepted >= 6


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
    c = _coefficients(prm, CFG.dim - 1)
    assert max(abs(v_op - c0 * c)) < 1e-9


def test_deformed_squeezed_state_zero_z_is_symbol_state():
    prm = DeformationParams(z=0.0, lam=0.7, mu=0.3)
    v = deformed_squeezed_state(prm, CFG)
    ref = normalize(_squeezed(0.7, 0.3, 63))
    assert max(abs(v - ref)) < 1e-12


@pytest.mark.parametrize("delta,beta,dim", [(0.3, 12.0, 400),
                                             (0.1, 17.0, 600)])
def test_deformed_squeezed_state_past_coefficient_underflow(delta, beta, dim):
    # the amplitudes peak at n = 177 and 285, past the n ~ 170 where the
    # Bargmann coefficients of exp(x(a+)) and z^n/n! underflow; the state
    # built from those coefficients was 1.4e-8 and 1.6e-3 off.  The first
    # state holds 7e-6 of its norm in the top quarter, 1e-9 in the top eighth
    prm = DeformationParams.from_polar(z=0.001, delta=delta, phi=0.7,
                                       beta=beta, theta=-0.4)
    ref = _mp_recurrence(prm, dim - 1)
    v = deformed_squeezed_state(prm, TruncationConfig(dim, dim // 8))
    assert np.max(np.abs(v - ref / np.linalg.norm(ref))) < 1e-13


def test_aes_operator_matches_dense_product():
    # the realization's O(N^2) C(a+) a against the dense product, entry for
    # entry
    for dim in (8, 64, 160, 256):
        cfg = TruncationConfig(dim)
        for z in (0.0, 0.01, -0.02):
            prm = DeformationParams(z=z, lam=0.9, mu=0.3 - 0.1j, nu=0.2 + 0.5j)
            ez = series_operator(exp_coefficients([0.0, z], dim), cfg)
            dense = (ez @ annihilation(cfg) + prm.mu * creation(cfg)
                     + prm.nu * ez)
            assert np.array_equal(aes_operator(prm, cfg), dense), (dim, z)


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
    # the dense reference is built at 2N and cut to N: at N it is a truncated
    # exponential, 1e-10 off the exact amplitudes at the top levels
    big = TruncationConfig(2 * CFG.dim)
    S = squeeze_operator(-math.atanh(0.5) * cmath.exp(0.9j), big)
    D = displacement_operator(2.0 * cmath.exp(0.4j) / math.sqrt(0.75), big)
    np.testing.assert_allclose(st.raw, (S @ (D @ vacuum(big)))[:CFG.dim],
                               atol=1e-12)


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
    with pytest.warns(BranchCut):
        two_param_log_symbol(
            DeformationParams(z=0.1, p=0.1, lam=1, mu=0.2), -1.0)


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
