"""exp(M) v by Taylor steps (fock_core.expm_action) against scipy's dense expm.

The production S D|0> never forms exp(M); these tests hold it to the dense
reference.  The bound is 1e-13 in max-abs over the N-vector: the states have
unit norm, and the worst distance seen on this grid, and at four other
phases, is 1.5e-14 (delta = 0.95, N = 48).
"""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from deformed_heisenberg.fock_core import (TruncationConfig, annihilation,
                                           expm_action,
                                           squeezed_displaced_vacuum, vacuum)

ACTION_BOUND = 1e-13          # max-abs distance from scipy.linalg.expm(M) @ v
DELTAS = (0.0, 0.3, 0.9, 0.95)
W_MODULI = (0.36, 1.0, 2.0)
PHI, W_ARG = 1.3, 1.5         # theta_55 steps read 1.4e-13 here at N = 48


def _squeeze_generator(delta, cfg):
    a = annihilation(cfg)
    ad = a.conj().T
    chi = -math.atanh(delta) * cmath.exp(1j * PHI)
    return chi * (ad @ ad) / 2 - np.conj(chi) * (a @ a) / 2


def _displacement_generator(delta, w, cfg):
    a = annihilation(cfg)
    lam = w / math.sqrt(1 - delta * delta)
    return lam * a.conj().T - np.conj(lam) * a


@pytest.mark.parametrize("dim", [8, 48, 160, 256])
def test_expm_action_matches_dense_expm_on_s_d_vacuum(dim):
    # the two generators of squeezed_displaced_vacuum(delta, PHI, w)
    cfg = TruncationConfig(dim)
    v0 = vacuum(cfg)
    worst = 0.0
    for delta in DELTAS:
        GS = _squeeze_generator(delta, cfg)
        ES = scipy.linalg.expm(GS)
        for r in W_MODULI:
            w = r * cmath.exp(1j * W_ARG)
            GD = _displacement_generator(delta, w, cfg)
            d_ref = scipy.linalg.expm(GD) @ v0
            ref = ES @ d_ref
            errs = (np.abs(expm_action(GD, v0) - d_ref).max(),
                    np.abs(expm_action(GS, d_ref) - ref).max(),
                    np.abs(squeezed_displaced_vacuum(delta, PHI, w, cfg)
                           - ref).max())
            assert max(errs) <= ACTION_BOUND, (delta, r, errs)
            worst = max(worst, *errs)
    assert np.array_equal(v0, vacuum(cfg))      # the input is not written
    print(f"dim {dim}: worst max-abs distance from dense expm {worst:.1e}")


@pytest.mark.parametrize("dim", [48, 160])
@pytest.mark.parametrize("z", [0.7 + 0.3j, -2.5j])
def test_expm_action_non_normal_generator(dim, z):
    # z a+ is nilpotent, not normal: e^{z a+}|0> has amplitudes z^n / sqrt(n!)
    cfg = TruncationConfig(dim)
    M = z * annihilation(cfg).T
    got = expm_action(M, vacuum(cfg))
    n = np.arange(dim)
    exact = np.array([z ** k / math.sqrt(math.factorial(k)) for k in n])
    scale = np.abs(exact).max()               # about 9 at |z| = 2.5
    for ref in (scipy.linalg.expm(M) @ vacuum(cfg), exact):
        assert np.abs(got - ref).max() <= ACTION_BOUND * scale


def test_expm_action_of_zero_returns_v():
    rng = np.random.default_rng(7)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    out = expm_action(np.zeros((16, 16)), v)
    assert np.array_equal(out, v)
    assert out is not v
