"""Internal: derivatives of Gaussian generating functions at the origin.

Everything here evaluates the table, i <= k and j <= l, of

    H[i][j] = d^i/dsigma^i d^j/dtau^j
              exp(A sigma^2 + B tau^2 + C sigma tau + D sigma + E tau) |_0

by the two-variable Hermite recurrences (Appell and Kampe de Feriet 1926),
for the squeezed-displaced matrix elements and the first-order norm factors
of the perturbed states.  Plain Python: a parameter is a number or a list
over a grid, all lists of one length, a number standing for itself at every
grid point.  With a list among them, each entry H[i][j] is one list over the
grid, filled by one list comprehension; with numbers alone, each entry is a
number.  A sweep builds no such table: it takes _coefficients once for its
grid, and dispersion._moments forms each point's entries by these
recurrences within its one pass.  A coefficient that depends on numbers
alone is evaluated once (each), in the order a point rounds it: on a sweep
e^{-i theta}, and w, delta^2 w, -delta w/2, beta w and delta conj(e^{-i
theta}) on a phi grid or e^{-i phi} on a delta grid.
"""

import cmath
from operator import mul

from .errors import BadParams


def columns(params):
    """The parameters as lists of one length, a number repeated over it, and
    whether every parameter was a number (then the lists hold one point)."""
    sizes = {len(x) for x in params if isinstance(x, list)}
    if len(sizes) > 1:
        raise ValueError(f"grid lists of different lengths {sorted(sizes)}")
    n = max(sizes, default=1)
    return [x if isinstance(x, list) else [x] * n for x in params], not sizes


def each(f, *params):
    """f(*params) once if all are numbers, else the list of f at each point."""
    if any(isinstance(x, list) for x in params):
        return list(map(f, *columns(params)[0]))
    return f(*params)


def quadratic_exponential_derivative(k: int, l: int, A, B, C, D, E):
    """The table H[i][j], i <= k, j <= l, from H[0][0] = 1 and

        H[0][j+1] = E H[0][j] + 2j B H[0][j-1]
        H[i+1][j] = D H[i][j] + 2i A H[i-1][j] + j C H[i][j-1],

    each recurrence term dropped where its factor 2j, 2i or j is zero."""
    (A, B, C, D, E), scalar = columns((A, B, C, D, E))
    top = [[1 + 0j] * len(A)]
    for j in range(l):
        h, g, m = top[j], top[j - 1], 2.0 * j
        top.append([e * x for e, x in zip(E, h)] if j == 0 else
                   [e * x + m * b * y for e, x, b, y in zip(E, h, B, g)])
    H = [top]
    for i in range(k):
        up, prev, m = H[i], H[i - 1], 2.0 * i
        row = []
        for j in range(l + 1):
            h, g, f, n = up[j], prev[j], up[j - 1], float(j)
            if i and j:
                col = [d * x + m * a * y + n * c * u for d, x, a, y, c, u
                       in zip(D, h, A, g, C, f)]
            elif i:
                col = [d * x + m * a * y for d, x, a, y in zip(D, h, A, g)]
            elif j:
                col = [d * x + n * c * u for d, x, c, u in zip(D, h, C, f)]
            else:
                col = [d * x for d, x in zip(D, h)]
            row.append(col)
        H.append(row)
    return [[col[0] for col in row] for row in H] if scalar else H


def _coefficients(delta, phi, beta, theta):
    """w = 1/(1 - delta^2) and, scaled by w, delta^2, the sigma^2 coefficient
    -delta e^{-i phi}/2 and the displacement beta e^{-i theta} -
    delta beta e^{i(theta - phi)} of S D|0>'s generating function, whose
    conjugates are the tau^2 and tau coefficients; each a number or a list
    over the grid as its parameters are (each).  w is the tables'
    1/r^(i + j), r = sqrt(1 - delta^2), moved into their variables: each
    quadratic coefficient carries 1/r^2 and each linear one 1/r on top of
    the 1/r already in the displacement.  e^{i(theta - phi)} is
    e^{i theta} e^{-i phi}, so that no phase difference leaves the float
    range."""
    if not all(0 <= x < 1 for x in columns((delta,))[0][0]):
        raise BadParams("need 0 <= delta < 1")
    w = each(lambda x: 1 / (1 - x * x), delta)
    ef = each(lambda f: cmath.exp(-1j * f), phi)
    et = each(lambda t: cmath.exp(-1j * t), theta)
    xc = each(lambda x, e: x * e.conjugate(), delta, et)
    bw = each(mul, beta, w)
    a = each(mul, each(lambda x, w: -x * w / 2, delta, w), ef)
    d = each(lambda bw, et, xc, ef: bw * (et - xc * ef), bw, et, xc, ef)
    return w, each(lambda x, w: x * x * w, delta, w), a, d


def gamma_kl(k: int, l: int, delta, phi, beta, theta):
    """Table of <0|D+ S+ (a+)^i a^j S D|0>, i <= k, j <= l, for the
    squeezed-displaced vacuum, indexed [i][j]."""
    _, c, a, d = _coefficients(delta, phi, beta, theta)
    return quadratic_exponential_derivative(
        k, l, a, each(complex.conjugate, a), c, d, each(complex.conjugate, d))


def lambda_kl(k: int, l: int, delta, phi, beta, theta):
    """Table of <0|D+ S+ a^i (a+)^j S D|0> (anti-normal order), as gamma_kl."""
    w, _, a, d = _coefficients(delta, phi, beta, theta)
    # sigma couples to a^i, tau to (a+)^j: every coefficient swaps vs gamma_kl
    return quadratic_exponential_derivative(
        k, l, each(complex.conjugate, a), a, w, each(complex.conjugate, d), d)
