"""Internal: derivatives of Gaussian generating functions at the origin.

Everything here evaluates the table, i <= k and j <= l, of

    H[..., i, j] = d^i/dsigma^i d^j/dtau^j
                   exp(A sigma^2 + B tau^2 + C sigma tau + D sigma + E tau) |_0

by the two-variable Hermite recurrences (Appell and Kampe de Feriet 1926),
for the squeezed-displaced matrix elements and the first-order norm factors
of the perturbed states.  The parameters may be scalars or numpy arrays of
one shape, which the table carries in front of its (i, j) axes: a sweep grid
costs one table, not one per point or element.  numpy is imported by each
function that uses it, so that importing this module loads no numpy.
"""

from .errors import BadParams


def quadratic_exponential_derivative(k: int, l: int, A, B, C, D, E):
    """The table H[..., i, j], i <= k, j <= l, from H[0, 0] = 1 and

        H[0, j+1] = E H[0, j] + 2j B H[0, j-1]
        H[i+1, j] = D H[i, j] + 2i A H[i-1, j] + j C H[i, j-1]."""
    import numpy as np
    H = np.zeros(np.broadcast(A, B, C, D, E).shape + (k + 1, l + 1), complex)
    H[..., 0, 0] = 1.0
    # at j = 0 (i = 0) the index -1 reads the last column (row): still zero
    for j in range(l):
        H[..., 0, j + 1] = E * H[..., 0, j] + 2 * j * B * H[..., 0, j - 1]
    A, C, D = (np.asarray(x)[..., None] for x in (A, C, D))
    for i in range(k):
        H[..., i + 1, :] = D * H[..., i, :] + 2 * i * A * H[..., i - 1, :]
        H[..., i + 1, 1:] += np.arange(1, l + 1) * C * H[..., i, :-1]
    return H


def _coefficients(k: int, l: int, delta, phi, beta, theta):
    """r^(i + j) over the (k, l) table, r = sqrt(1 - delta^2), then the s^2
    coefficient -delta e^{-i phi}/2 and the displacement of S D|0>'s
    generating function, whose conjugates are the t^2 and t coefficients."""
    import numpy as np
    if not np.all((0 <= delta) & (delta < 1)):
        raise BadParams("need 0 <= delta < 1")
    r = np.sqrt(1 - delta * delta)
    d = (beta * np.exp(-1j * theta)
         - delta * beta * np.exp(1j * (theta - phi))) / r
    i, j = np.ogrid[:k + 1, :l + 1]
    return r[..., None, None] ** (i + j), -delta * np.exp(-1j * phi) / 2, d


def gamma_kl(k: int, l: int, delta, phi, beta, theta):
    """Table of <0|D+ S+ (a+)^i a^j S D|0>, i <= k, j <= l, for the
    squeezed-displaced vacuum, indexed [..., i, j]."""
    scale, a, d = _coefficients(k, l, delta, phi, beta, theta)
    return quadratic_exponential_derivative(
        k, l, a, a.conjugate(), delta * delta, d, d.conjugate()) / scale


def lambda_kl(k: int, l: int, delta, phi, beta, theta):
    """Table of <0|D+ S+ a^i (a+)^j S D|0> (anti-normal order), as gamma_kl."""
    scale, a, d = _coefficients(k, l, delta, phi, beta, theta)
    # sigma couples to a^i, tau to (a+)^j: every coefficient swaps vs gamma_kl
    return quadratic_exponential_derivative(
        k, l, a.conjugate(), a, 1.0, d.conjugate(), d) / scale
