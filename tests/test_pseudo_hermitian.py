"""The lower-triangular ladder system: G, H, the metric and its square root."""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from deformed_heisenberg import cli, pseudo_hermitian
from deformed_heisenberg.aes_series import deformed_squeezed_state
from deformed_heisenberg.deformed_algebra import DeformationParams
from deformed_heisenberg.errors import IllConditioned
from deformed_heisenberg.fock_core import (TruncationConfig, annihilation,
                                           creation, displacement_operator,
                                           guarded_norm, matrix_exponential,
                                           normalize, vacuum)
from deformed_heisenberg.pseudo_hermitian import (ETA_CONDITION_LIMIT,
                                                  build_G, build_H,
                                                  build_system,
                                                  coherent_eigenstate,
                                                  commutator_checks,
                                                  generalized_coherent_state,
                                                  ground_state,
                                                  hermitian_hamiltonian, metric,
                                                  pseudo_hermiticity_residual,
                                                  rho_hat, spectrum_report,
                                                  unitarity_check)
from dense_residuals import pseudo_commutator_blocks

CFG = TruncationConfig(48, 12)
MU, Z = 0.2, 0.02


def test_build_g_zero_z_is_plain_gaussian():
    # matrix_exponential takes scipy's complex expm of the real a+ a+: its
    # real one rounds this G to 1.7e-12
    ad = creation(CFG)
    ref = matrix_exponential(-0.5 * MU * (ad @ ad))
    assert np.abs(build_G(MU, 0.0, CFG) - ref).max() < 1e-12


def _spectrum_argvs():
    # the default box and the spectrum requests of the first operator_checks
    # block of seeds 1-3 (workloads.py is loaded by path: benchmarks/ is not
    # a package, and its top-level imports are stdlib only)
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    w = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(w)
    argvs = [["spectrum"]]
    for seed in (1, 2, 3):
        argvs += [a for a in next(w.blocks("operator_checks", seed))
                  if a[0] == "spectrum"]
    return argvs


@pytest.mark.parametrize("argv", _spectrum_argvs(), ids=" ".join)
def test_pseudo_spectrum_is_what_eigvals_returns(argv):
    # H is triangular: eigvals balances first, which isolates every
    # eigenvalue, so it returns diag(H) exactly
    args = cli._build_parser().parse_args(argv)
    sys = build_system(args.delta * cmath.exp(1j * args.phi), args.z,
                       TruncationConfig(args.dim))
    want = np.sort_complex(np.linalg.eigvals(sys.H))
    assert not want.imag.any()
    got = spectrum_report(sys, "pseudo").eigenvalues
    assert got.dtype == np.float64 and np.array_equal(got, want.real)


@pytest.mark.parametrize("mu, dtype", [(MU, np.float64), (MU + 0j, complex),
                                       (MU * cmath.exp(0.3j), complex)])
def test_system_takes_the_arithmetic_of_mu(mu, dtype):
    # a real mu gives real G, G^-1, H, A and SVD factors, a complex one
    # complex ones; both spectra are real
    sys = build_system(mu, Z, CFG)
    assert sys.G.dtype == sys.Ginv.dtype == sys.Vh.dtype == dtype
    assert sys.H.dtype == sys.A_op.dtype == dtype
    assert sys.sigma.dtype == np.float64
    for which in ("pseudo", "hermitian"):
        assert spectrum_report(sys, which).eigenvalues.dtype == np.float64


def test_g_similarity_maps_ladder_operators():
    sys = build_system(MU, Z, CFG)
    ad = creation(CFG)
    a = annihilation(CFG)
    # G is unit lower triangular, so the inverse is numerically exact
    Ginv = np.linalg.inv(sys.G)
    assert np.abs(sys.G @ ad @ Ginv - ad).max() < 1e-12
    assert guarded_norm(sys.G @ a @ Ginv - sys.A_op, CFG) < 1e-10


def test_build_h_structure_and_spectrum():
    # diagonal entries come out as sqrt(n)*sqrt(n), so only near-integer
    assert np.abs(build_H(0.0, 0.0, CFG)
                  - np.diag(np.arange(CFG.dim, dtype=complex))).max() < 1e-12
    H = build_H(MU, Z, CFG)
    # nothing above the a+a band, so the spectrum is the diagonal
    assert np.abs(np.triu(H, 2)).max() == 0.0
    rep = spectrum_report(build_system(MU, Z, CFG), "pseudo")
    assert rep.max_deviation_from_integers < 1e-12
    with pytest.raises(ValueError):
        spectrum_report(build_system(MU, Z, CFG), "both")


def test_h_is_dressed_number_operator():
    sys = build_system(MU, Z, CFG)
    ad = creation(CFG)
    a = annihilation(CFG)
    n_op = ad @ a
    assert guarded_norm(sys.H @ sys.G - sys.G @ n_op, CFG) < 1e-9
    Ginv = np.linalg.inv(sys.G)
    assert guarded_norm(sys.H - sys.G @ n_op @ Ginv, CFG) < 1e-9


def _commutator_norms(sys_):
    return [guarded_norm(R, sys_.cfg) for R in pseudo_commutator_blocks(sys_)]


def test_commutator_checks():
    # the dense route (dense_residuals) on the matrices
    r1, r2, r3 = _commutator_norms(build_system(0.0, 0.0, CFG))
    assert max(r1, r2, r3) < 1e-12
    r1, r2, r3 = _commutator_norms(build_system(0.3, 0.05, CFG))
    assert r1 < 1e-8 and r2 < 1e-8
    assert r3 < 1e-10
    # commutator_checks, which verify prints, is the series bound of
    # x alpha' + alpha - h', at the rounding of the coefficient lists, on
    # verify's own box too and for a complex mu
    for sys_ in (build_system(0.0, 0.0, CFG), build_system(0.3, 0.05, CFG),
                 build_system(0.2, 0.02, TruncationConfig(48, 12)),
                 build_system(0.3 * cmath.exp(2j), -0.05, CFG)):
        assert commutator_checks(sys_) < 1e-15


def test_commutator_checks_trip_on_a_wrong_coefficient(monkeypatch):
    # an error planted in one coefficient of alpha (A's series) leaves
    # x alpha' + alpha - h' = d (k + 1) x^k, whose bound is that times the
    # largest weight of (a+)^k on the kept block
    sys_ = build_system(MU, Z, CFG)
    real = pseudo_hermitian._scaled_exp_coefficients
    for k, rel in ((1, 1e-12), (3, -2.0)):
        def planted(c, z, shift, n):
            out = real(c, z, shift, n)
            if shift == 1:
                out[k] *= 1 + rel
            return out

        monkeypatch.setattr(pseudo_hermitian, "_scaled_exp_coefficients",
                            planted)
        d = abs(rel * real(MU, Z, 1, CFG.dim)[k])
        weight = math.sqrt(math.prod(range(CFG.kept - k, CFG.kept)))
        assert commutator_checks(sys_) == pytest.approx((k + 1) * d * weight,
                                                        rel=1e-3)
        assert commutator_checks(sys_) > 1e-14


def test_pseudo_hermiticity_residual():
    assert pseudo_hermiticity_residual(build_system(0.0, 0.0, CFG)) == 0.0
    assert pseudo_hermiticity_residual(build_system(MU, Z, CFG)) < 1e-7
    # the float floor is the metric's condition number times machine epsilon,
    # which reaches ~3e-6 at mu = 0.3 (cond 2.7e10); measured 6.3e-6
    assert pseudo_hermiticity_residual(build_system(0.3, 0.05, CFG)) < 1e-5
    resids = [pseudo_hermiticity_residual(build_system(m, 0.05, CFG))
              for m in (0.1, 0.2, 0.3)]
    assert resids[0] < resids[1] < resids[2]


def test_ground_state():
    sys = build_system(MU, Z, CFG)
    e0 = ground_state(sys)
    assert np.linalg.norm(sys.H @ e0) < 1e-9
    assert np.linalg.norm(sys.A_op @ e0) < 1e-9
    st = deformed_squeezed_state(DeformationParams(z=Z, lam=0.0, mu=MU), CFG)
    assert np.linalg.norm(e0 - st) < 1e-12
    assert np.linalg.norm(ground_state(build_system(0.0, 0.0, CFG))
                          - vacuum(CFG)) == 0.0


def test_coherent_eigenstate():
    sys = build_system(MU, Z, CFG)
    nu = 0.5
    psi = coherent_eigenstate(nu, sys)
    assert np.linalg.norm(sys.A_op @ psi + nu * psi) < 1e-12
    nu = 0.4 - 0.3j
    psi = coherent_eigenstate(nu, sys)
    assert np.linalg.norm(sys.A_op @ psi + nu * psi) < 1e-12


@pytest.mark.parametrize("mu,z,nu,dim", [
    (0.2, 0.02, 0.3 - 0.1j, 48),
    (0.3 * cmath.exp(0.7j), -0.05, 0.5j, 64),
    (0.1, 0.1, 1.0, 96),
])
def test_ladder_states_are_the_lam_zero_algebra_eigenstates(mu, z, nu, dim):
    # A = a + mu a+ e^{-z a+} is G a G^-1, so G|0> and G e^{-nu a+}|0> are
    # the lam = 0 algebra eigenstates, which ground_state and
    # coherent_eigenstate take as vacuum images; the dense G route is the
    # reference.  Measured: <= 2.8e-17 and
    # 4.2e-17 over the three boxes (2.8e-17 and 6.2e-17 when the two states
    # were built from G and compared with the vacuum image); the bounds
    # leave about 3.5 times that
    cfg = TruncationConfig(dim)
    sys = build_system(mu, z, cfg)
    G = build_G(mu, z, cfg)
    glauber = np.cumprod(np.r_[1.0, -nu / np.sqrt(np.arange(1.0, dim))])
    assert np.max(np.abs(ground_state(sys) - normalize(G @ vacuum(cfg)))) \
        <= 1e-16
    assert np.max(np.abs(coherent_eigenstate(nu, sys)
                         - normalize(G @ glauber))) <= 2e-16


def test_ladder_states_build_no_g(monkeypatch):
    def no_g(*args):
        raise AssertionError("build_G called")

    monkeypatch.setattr(pseudo_hermitian, "build_G", no_g)
    sys = build_system(MU, Z, CFG)
    ground_state(sys)
    coherent_eigenstate(0.4 - 0.3j, sys)


def test_metric_positive_on_parameter_box():
    for mu, z in ((0.3, 0.1), (0.3, -0.1), (-0.3, 0.1),
                  (0.3 * cmath.exp(1.2j), 0.05), (0.3j, -0.07), (0.25, 0.0)):
        sys = build_system(mu, z, CFG)
        assert sys.eta_eigs.min() > 0.0
        assert sys.eta_condition < ETA_CONDITION_LIMIT
        eta = metric(sys)
        assert guarded_norm(eta - eta.conj().T, CFG) == 0.0


def test_rho_and_hermitian_hamiltonian():
    sys = build_system(MU, Z, CFG)
    rho = rho_hat(sys)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.abs(rho @ rho - metric(sys)).max() < 1e-10 * sys.eta_eigs.max()
    # rho^2 = eta to the SVD's backward error keeps rho G unitary near
    # machine precision on this box (`dheis verify`'s pseudo suite)
    assert unitarity_check(sys) < 1e-11
    Ht = hermitian_hamiltonian(sys)
    assert guarded_norm(Ht - Ht.conj().T, CFG) < 1e-7
    rep = spectrum_report(sys, "hermitian")
    assert rep.max_deviation_from_integers < 1e-5

    sys0 = build_system(0.0, 0.0, CFG)
    assert np.abs(rho_hat(sys0) - np.eye(CFG.dim)).max() == 0.0
    assert np.abs(hermitian_hamiltonian(sys0)
                  - np.diag(np.arange(CFG.dim, dtype=complex))).max() < 1e-12


def test_hermitian_spectrum_at_large_eta_condition():
    # `spectrum --dim 256 --delta 0.0451898 --phi -1.11168 --z 0.002322`,
    # cond(eta) = 2.6e9: eigvalsh of Sigma (V+ H V) Sigma^-1 reads 7.1e-11,
    # where forming rho, rho^-1 and rho H rho^-1 read 3.2e-10
    sys = build_system(0.0451898 * cmath.exp(-1.11168j), 0.002322,
                       TruncationConfig(256))
    assert 2.5e9 < sys.eta_condition < 2.7e9
    rep = spectrum_report(sys, "hermitian")
    assert rep.max_deviation_from_integers <= 1.5e-10


def test_rho_matches_independent_square_root():
    # eta formed from G^-1 and rooted by scipy's Schur-based sqrtm, instead
    # of our route through the SVD of G^-1
    sys = build_system(0.25, 0.0, CFG)
    other = scipy.linalg.sqrtm(metric(sys))
    assert guarded_norm(sys.rho_hat - other, CFG) < 1e-9


def test_zero_z_metric_is_gaussian_product():
    mu = 0.25
    sys = build_system(mu, 0.0, CFG)
    a = annihilation(CFG)
    ad = creation(CFG)
    route = matrix_exponential(0.5 * np.conj(mu) * (a @ a)) \
        @ matrix_exponential(0.5 * mu * (ad @ ad))
    assert guarded_norm(metric(sys) - route, CFG) < 1e-10


def test_zero_z_hermitian_form_is_two_photon():
    # at z = 0 the dressed Hamiltonian is a+a + mu (a+)^2, still isospectral
    # to the oscillator after the metric rotation
    sys = build_system(MU, 0.0, CFG)
    ad = creation(CFG)
    a = annihilation(CFG)
    assert np.abs(sys.H - (ad @ a + MU * (ad @ ad))).max() < 1e-12
    rep = spectrum_report(sys, "hermitian")
    assert rep.max_deviation_from_integers < 1e-5


def test_generalized_coherent_state():
    sys = build_system(MU, Z, CFG)
    nu = 0.5
    psi = generalized_coherent_state(nu, sys)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    A_t = sys.rho_hat @ sys.A_op @ sys.rho_inv
    resid = np.linalg.norm((A_t @ psi - nu * psi)[:CFG.kept])
    assert resid < 1e-7

    sys0 = build_system(0.0, 0.0, CFG)
    assert np.linalg.norm(generalized_coherent_state(0.0, sys0)
                          - vacuum(CFG)) == 0.0
    # D(nu)|0> is an exponential action on the vacuum; the dense expm of D
    # agrees with it to rounding (1.7e-16 here)
    ref = normalize(displacement_operator(0.3 + 0.2j, CFG) @ vacuum(CFG))
    assert np.linalg.norm(generalized_coherent_state(0.3 + 0.2j, sys0)
                          - ref) < 4 * np.finfo(float).eps


def test_error_paths():
    ill = build_system(0.4, 0.05, CFG)
    assert ill.eta_eigs.min() > 0.0          # still PD, just badly conditioned
    with pytest.raises(IllConditioned):
        rho_hat(ill)
    with pytest.raises(IllConditioned):
        pseudo_hermiticity_residual(ill)
    # singular values are never negative: what fails here is cond(eta)
    steep = build_system(0.8, 0.0, TruncationConfig(64))
    assert steep.eta_eigs.min() >= 0.0
    with pytest.raises(IllConditioned):
        rho_hat(steep)


def test_n128_metric_fails_on_conditioning_not_sign():
    # sigma_min(G^-1) = 1.7e-5 > 0, so eta is positive definite; the fault
    # is cond(eta) = 1.4e20, and the error has to say so
    sys = build_system(MU, Z, TruncationConfig(128))
    assert sys.eta_eigs.min() > 0.0
    assert sys.eta_condition > 1e19
    with pytest.raises(IllConditioned, match="eta condition number"):
        hermitian_hamiltonian(sys)


def test_non_finite_inverse_is_ill_conditioned():
    # numpy reports each overflow that the checks turn into the error
    with pytest.warns(RuntimeWarning), \
            pytest.raises(IllConditioned, match="float range"):
        build_system(1e300, 0.001, TruncationConfig(8))
    # G^-1 finite, sigma_max^2 past the float range: rejected on use
    with pytest.warns(RuntimeWarning):
        sys = build_system(0.5, 12509968845.0, TruncationConfig(19))
    assert sys.eta_condition == math.inf
    with pytest.raises(IllConditioned, match="eta condition number inf"):
        rho_hat(sys)
