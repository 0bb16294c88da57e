"""Internal: derivatives of Gaussian generating functions at the origin.

Everything here evaluates

    d^k/dsigma^k d^l/dtau^l  exp(A sigma^2 + B tau^2 + C sigma tau + D sigma + E tau) |_0

by exact combinatorial expansion (no numeric differencing).  Shared by the
squeezed-displaced matrix-element closed forms and the first-order norm
factors of the perturbed states.  The parameters may be scalars or numpy
arrays of one shape: the expansion runs once per (k, l) and numpy evaluates
it over the whole array, so a sweep grid costs one call, not one per point.
"""

from math import factorial

import numpy as np


def quadratic_exponential_derivative(k: int, l: int, A, B, C, D, E):
    """Mixed derivative of exp(A s^2 + B t^2 + C s t + D s + E t) at s = t = 0."""
    tot = 0j
    for na in range(k // 2 + 1):
        for nb in range(l // 2 + 1):
            for nc in range(min(k - 2 * na, l - 2 * nb) + 1):
                i = k - 2 * na - nc
                j = l - 2 * nb - nc
                tot += (A ** na * B ** nb * C ** nc * D ** i * E ** j /
                        (factorial(na) * factorial(nb) * factorial(nc)
                         * factorial(i) * factorial(j)))
    return tot * factorial(k) * factorial(l)


def _coefficients(delta, phi, beta, theta):
    """r = sqrt(1 - delta^2), the s^2 coefficient -delta e^{-i phi}/2 and the
    displacement coefficient of S D|0>'s generating function; for real
    parameters the t^2 and second linear coefficients are their conjugates."""
    if np.any(np.asarray(delta) >= 1):
        raise ValueError("need delta < 1")
    r = np.sqrt(1 - delta * delta)
    d = (beta * np.exp(-1j * theta)
         - delta * beta * np.exp(1j * (theta - phi))) / r
    return r, -delta * np.exp(-1j * phi) / 2, d


def gamma_kl(k: int, l: int, delta, phi, beta, theta):
    """<0|D+ S+ (a+)^k a^l S D|0> for the squeezed-displaced vacuum."""
    r, a, d = _coefficients(delta, phi, beta, theta)
    return quadratic_exponential_derivative(
        k, l, a, a.conjugate(), delta * delta, d, d.conjugate()) / r ** (k + l)


def lambda_kl(k: int, l: int, delta, phi, beta, theta):
    """<0|D+ S+ a^k (a+)^l S D|0> (anti-normal ordering)."""
    r, a, d = _coefficients(delta, phi, beta, theta)
    # sigma couples to a^k, tau to (a+)^l: every coefficient swaps vs gamma_kl
    return quadratic_exponential_derivative(
        k, l, a.conjugate(), a, 1.0, d.conjugate(), d) / r ** (k + l)
