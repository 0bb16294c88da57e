"""Internal: derivatives of Gaussian generating functions at the origin.

Everything here evaluates the table, i <= k and j <= l, of

    H[i][j] = d^i/dsigma^i d^j/dtau^j
              exp(A sigma^2 + B tau^2 + C sigma tau + D sigma + E tau) |_0

by the two-variable Hermite recurrences (Appell and Kampe de Feriet 1926),
for the squeezed-displaced matrix elements and the first-order norm factors
of the perturbed states.  Plain Python on numbers: each parameter is one
number and each entry H[i][j] one number.  A sweep builds no such table:
dispersion._moments takes each point's coefficients from _coefficients and
forms the entries it reads by these recurrences within its one pass.
"""

import cmath

from .errors import BadParams


def quadratic_exponential_derivative(k: int, l: int, A, B, C, D, E):
    """The table H[i][j], i <= k, j <= l, from H[0][0] = 1 and

        H[0][j+1] = E H[0][j] + 2j B H[0][j-1]
        H[i+1][j] = D H[i][j] + 2i A H[i-1][j] + j C H[i][j-1],

    each recurrence term dropped where its factor 2j, 2i or j is zero."""
    top = [1 + 0j]
    for j in range(l):
        top.append(E * top[j] + 2.0 * j * B * top[j - 1] if j else E * top[j])
    H = [top]
    for i in range(k):
        up, m = H[i], 2.0 * i
        # summed in the recurrence's order: the D and A terms, then C's
        row = [D * x + m * A * y if i else D * x for x, y in zip(up, H[i - 1])]
        H.append([h + float(j) * C * up[j - 1] if j else h
                  for j, h in enumerate(row)])
    return H


def _coefficients(delta, phi, beta, theta):
    """w = 1/(1 - delta^2) and, scaled by w, delta^2, the sigma^2 coefficient
    -delta e^{-i phi}/2 and the displacement beta e^{-i theta} -
    delta beta e^{i(theta - phi)} of S D|0>'s generating function, whose
    conjugates are the tau^2 and tau coefficients.  w is the tables'
    1/r^(i + j), r = sqrt(1 - delta^2), moved into their variables: each
    quadratic coefficient carries 1/r^2 and each linear one 1/r on top of
    the 1/r already in the displacement.  e^{i(theta - phi)} is
    e^{i theta} e^{-i phi}, so that no phase difference leaves the float
    range."""
    if not 0 <= delta < 1:
        raise BadParams("need 0 <= delta < 1")
    w = 1 / (1 - delta * delta)
    ef = cmath.exp(-1j * phi)
    et = cmath.exp(-1j * theta)
    a = -delta * w / 2 * ef
    d = beta * w * (et - delta * et.conjugate() * ef)
    return w, delta * delta * w, a, d


def gamma_kl(k: int, l: int, delta, phi, beta, theta):
    """Table of <0|D+ S+ (a+)^i a^j S D|0>, i <= k, j <= l, for the
    squeezed-displaced vacuum, indexed [i][j]."""
    _, c, a, d = _coefficients(delta, phi, beta, theta)
    return quadratic_exponential_derivative(
        k, l, a, a.conjugate(), c, d, d.conjugate())


def lambda_kl(k: int, l: int, delta, phi, beta, theta):
    """Table of <0|D+ S+ a^i (a+)^j S D|0> (anti-normal order), as gamma_kl."""
    w, _, a, d = _coefficients(delta, phi, beta, theta)
    # sigma couples to a^i, tau to (a+)^j: every coefficient swaps vs gamma_kl
    return quadratic_exponential_derivative(
        k, l, a.conjugate(), a, w, d.conjugate(), d)
