"""Gaussian derivative tables against a 50-digit evaluation of the triple sum."""

import math

import mpmath
import numpy as np
import pytest

from deformed_heisenberg import _gaussian

K = 5
# worst error relative to max(|ref|, 1) on the boxes below, measured with
# the plain-Python Hermite recurrence: 4.4e-15 for the kernel, 2.0e-15 for
# the Gamma and Lambda boxes and 1.7e-15 on the grid (numpy's recurrence,
# which divided the table by r^(i + j), read 4.1e-15, 3.4e-15 and 2.7e-15; a
# per-element float triple sum reads 8.2e-15, 3.6e-15 and 3.0e-15)
KERNEL_TOL = 1e-14
ELEMENT_TOL = 8e-15

_RNG = np.random.default_rng(20260503)


def _complex(scale):
    return complex(*(scale * _RNG.uniform(-1, 1, 2)))


KERNEL_BOXES = [(_complex(0.5), _complex(0.5), _complex(1.0), _complex(2.0),
                 _complex(2.0)) for _ in range(24)]
ELEMENT_BOXES = [(_RNG.uniform(0, 0.9), _RNG.uniform(-math.pi, math.pi),
                  _RNG.uniform(0, 3), _RNG.uniform(-math.pi, math.pi))
                 for _ in range(16)]


def _mp_derivative(k, l, A, B, C, D, E):
    """The derivative as the exact expansion of the exponential: a sum over
    the powers (na, nb, nc) of A s^2, B t^2 and C s t."""
    f = mpmath.factorial
    tot = mpmath.mpc(0)
    for na in range(k // 2 + 1):
        for nb in range(l // 2 + 1):
            for nc in range(min(k - 2 * na, l - 2 * nb) + 1):
                i = k - 2 * na - nc
                j = l - 2 * nb - nc
                tot += (A ** na * B ** nb * C ** nc * D ** i * E ** j
                        / (f(na) * f(nb) * f(nc) * f(i) * f(j)))
    return tot * f(k) * f(l)


def _mp_table(A, B, C, D, E):
    with mpmath.workdps(50):
        args = [mpmath.mpc(x) for x in (A, B, C, D, E)]
        return [[_mp_derivative(k, l, *args) for l in range(K + 1)]
                for k in range(K + 1)]


def _mp_elements(delta, phi, beta, theta):
    """Gamma and Lambda tables at 50 digits from the same coefficients."""
    with mpmath.workdps(50):
        delta, phi, beta, theta = map(mpmath.mpf, (delta, phi, beta, theta))
        r = mpmath.sqrt(1 - delta ** 2)
        a = -delta * mpmath.expj(-phi) / 2
        d = (beta * mpmath.expj(-theta)
             - delta * beta * mpmath.expj(theta - phi)) / r
        ac, dc = mpmath.conj(a), mpmath.conj(d)
        g = _mp_table(a, ac, delta ** 2, d, dc)
        lm = _mp_table(ac, a, 1, dc, d)
        return [[[t[k][l] / r ** (k + l) for l in range(K + 1)]
                 for k in range(K + 1)] for t in (g, lm)]


def _worst(got, ref):
    return max(float(abs(got[k][l] - ref[k][l]) / max(abs(ref[k][l]), 1))
               for k in range(K + 1) for l in range(K + 1))


def test_kernel_matches_triple_sum():
    worst = max(_worst(_gaussian.quadratic_exponential_derivative(K, K, *box),
                       _mp_table(*box)) for box in KERNEL_BOXES)
    assert worst < KERNEL_TOL


def test_gamma_lambda_tables_match_triple_sum():
    worst = 0.0
    for box in ELEMENT_BOXES:
        ref_g, ref_l = _mp_elements(*box)
        worst = max(worst, _worst(_gaussian.gamma_kl(K, K, *box), ref_g),
                    _worst(_gaussian.lambda_kl(K, K, *box), ref_l))
    assert worst < ELEMENT_TOL


@pytest.mark.parametrize("table, which", [(_gaussian.gamma_kl, 0),
                                          (_gaussian.lambda_kl, 1)])
def test_grid_table_matches_triple_sum_pointwise(table, which):
    # one table per point of a delta grid, as a sweep's points take them
    for d in np.linspace(0.0, 0.9, 7).tolist():
        got = table(K, K, d, 0.7, 1.8, -2.1)
        assert _worst(got, _mp_elements(d, 0.7, 1.8, -2.1)[which]) < ELEMENT_TOL
