"""Independent assemblies of the first-order perturbed moments.

perturbed_moments_literal transcribes the grouped Gamma/Lambda presentation
term for term, in floats.  moments_from_tables is dispersion._moments as it
read its Gamma/Lambda entries from gamma_kl and lambda_kl tables, one pair
per point, the reference the moment pass's own entries are held to bit for
bit.  Every function here takes numbers, moments_from_tables a point list
of them as _moments does.
mp_sweep_point transcribes the tables and the moments of
dispersion.perturbed_moments at 50 digits: the Hermite recurrence on
S D|0>'s generating function, divided by r^(i + j) as its derivatives are,
and the moments from the Q and R blocks, one by one.
"""

import cmath

import mpmath

from deformed_heisenberg import _gaussian


def perturbed_moments_literal(delta, phi, beta, theta, z, p):
    """<X>^2, <X^2>, <P>^2 and <P^2> at one point, transcribed from the
    grouped presentation (the one that mixes Lambda_41 - Gamma_03 style
    differences)."""
    mu = delta * cmath.exp(1j * phi)
    lam = beta * cmath.exp(1j * theta)
    mub, lamb = mu.conjugate(), lam.conjugate()
    G = _gaussian.gamma_kl(3, 5, delta, phi, beta, theta)
    L = _gaussian.lambda_kl(4, 4, delta, phi, beta, theta)

    eps = -(z * (mu * G[3][0] / 3 - lam * G[2][0] / 2)
            + p * p / 4 * (mu * G[2][0] / 4 - lam / 2 * G[1][0])).real

    inner = ((1 + 4 * eps) * G[0][1]
             + 2 * z * (mub / 3 * G[0][4] - lamb / 2 * G[0][3]
                        + mu / 3 * L[1][3] - lam / 2 * L[1][2])
             + p * p / 2 * (mub / 4 * G[0][3] - lamb / 2 * G[0][2]
                            + mu / 4 * L[1][2] - lam / 2 * L[1][1]))
    mean_x_sq = 2 * G[0][1].real * inner.real
    mean_p_sq = 2 * G[0][1].imag * inner.imag

    re_blocks = (z * (mub / 3 * G[0][5] - lamb / 2 * G[0][4]
                      + mu / 3 * L[2][3] - lam / 2 * L[2][2])
                 + p * p / 4 * (mub / 4 * G[0][4] - lamb / 2 * G[0][3]
                                + mu / 4 * L[2][2] - lam / 2 * L[2][1]))
    plain_blocks = (z * (mub / 3 * (L[4][1] - G[0][3])
                         - lamb / 2 * (L[3][1] - G[0][2])
                         + mu / 3 * (L[1][4] - L[0][3])
                         - lam / 2 * (L[1][3] - L[0][2]))
                    + p * p / 4 * (mub / 4 * (L[3][1] - G[0][2])
                                   - lamb / 2 * (L[2][1] - G[0][1])
                                   + mu / 4 * (L[1][3] - L[0][2])
                                   - lam / 2 * (L[1][2] - L[0][1])))
    base = (1 + 2 * eps) * (G[1][1] + G[0][2]).real
    base_p = (1 + 2 * eps) * (G[1][1] - G[0][2]).real
    x2_mean = 0.5 + base + re_blocks.real + plain_blocks.real
    p2_mean = 0.5 + base_p - re_blocks.real + plain_blocks.real
    return mean_x_sq, x2_mean, mean_p_sq, p2_mean


def moments_from_tables(deltas, phis, beta, theta, z, p):
    """dispersion._moments read from tables: for each point of the
    equal-length lists deltas and phis, its first seven PerturbedMoments
    fields, then the norm, h, nq and nr of its n_bar, with the Gamma and
    Lambda entries taken from gamma_kl(5, 1) and lambda_kl(2, 3) at that
    point."""
    q = p * p / 4.0
    lam = beta * cmath.exp(1j * theta)
    half = lam / 2
    for x, f in zip(deltas, phis):
        G = _gaussian.gamma_kl(5, 1, x, f, beta, theta)
        L = _gaussian.lambda_kl(2, 3, x, f, beta, theta)
        mu = x * cmath.exp(1j * f)
        g10, g20, g30, g40, g50 = (G[i][0] for i in range(1, 6))
        g11, g21, g31, g41 = (G[i][1] for i in range(1, 5))
        l11, l12, l13 = L[1][1:]
        l21, l22, l23 = L[2][1:]
        # the Q and R blocks against the element e(m) that carries (a+)^m,
        # Q = mu e(3)/3 - lam e(2)/2 and R = mu e(2)/4 - (lam/2) e(1), kept
        # apart.  Past |beta| ~ 1e40 a moment's terms cancel beyond a
        # float's digits: summed in this order, their rounding leaves the
        # float range, as the exact first-order product does, and a sweep
        # exits 3; summed as one polynomial in a+, they cancelled to a
        # finite table with no correct digit (beta 1e60)
        m3, m4 = mu * g30, mu * g40
        mean_q = m3 / 3 - lam * g20 / 2
        mean_r = mu * g20 / 4 - half * g10
        eps = -(z * mean_q + q * mean_r).real
        norm = 1 + 2 * eps
        # <a^j (.)> + <(a+)^j (.)>^*: Lambda's row j, Gamma's (a+)^(m + j)
        q1 = (mu * l13 / 3 - lam * l12 / 2
              + (m4 / 3 - lam * g30 / 2).conjugate())
        r1 = mu * l12 / 4 - half * l11 + (m3 / 4 - half * g20).conjugate()
        q2 = (mu * l23 / 3 - lam * l22 / 2
              + (mu * g50 / 3 - lam * g40 / 2).conjugate())
        r2 = mu * l22 / 4 - half * l21 + (m4 / 4 - half * g30).conjugate()
        # a+ a against (a+)^m: a (a+)^m = (a+)^m a + m (a+)^{m-1}
        n2 = g31 + 2 * g20
        nq = mu * (g41 + 3 * g30) / 3 - lam * n2 / 2
        nr = mu * n2 / 4 - half * (g21 + g10)

        g01, g02 = g10.conjugate(), g20.conjugate()
        corr = z * q1 + q * r1
        gx, gp, h = g01.real, g01.imag, g11.real
        yield (2 * (gx * gx * (1 + 4 * eps) + 2 * gx * corr.real),
               0.5 + norm * (h + g02.real)
               + (z * (q2 + 2 * nq) + q * (r2 + 2 * nr)).real,
               2 * (gp * gp * (1 + 4 * eps) + 2 * gp * corr.imag),
               0.5 + norm * (h - g02.real)
               + (z * (-q2 + 2 * nq) + q * (-r2 + 2 * nr)).real,
               eps,
               norm * g01 + z * q1 + q * r1,
               norm * g02 + z * q2 + q * r2,
               norm, h, nq, nr)


def _mp_table(k, l, A, B, C, D, E):
    H = [[mpmath.mpc(0)] * (l + 1) for _ in range(k + 1)]
    H[0][0] = mpmath.mpc(1)
    for j in range(l):
        H[0][j + 1] = E * H[0][j] + (2 * j * B * H[0][j - 1] if j else 0)
    for i in range(k):
        for j in range(l + 1):
            H[i + 1][j] = (D * H[i][j] + (2 * i * A * H[i - 1][j] if i else 0)
                           + (j * C * H[i][j - 1] if j else 0))
    return H


def mp_sweep_point(delta, phi, beta, theta, z, p):
    """(var_x_mus, var_p_mus, var_x_def, var_p_def, product_def, srur_bound,
    epsilon) at one grid point, at 50 digits, as floats."""
    with mpmath.workdps(50):
        delta, phi, beta, theta, z, p = map(mpmath.mpf,
                                            (delta, phi, beta, theta, z, p))
        r = mpmath.sqrt(1 - delta ** 2)
        a = -delta * mpmath.expj(-phi) / 2
        d = (beta * mpmath.expj(-theta)
             - delta * beta * mpmath.expj(theta - phi)) / r
        ac, dc = mpmath.conj(a), mpmath.conj(d)
        G = _mp_table(5, 2, a, ac, delta ** 2, d, dc)
        L = _mp_table(2, 3, ac, a, 1, dc, d)
        G = [[v / r ** (i + j) for j, v in enumerate(row)]
             for i, row in enumerate(G)]
        L = [[v / r ** (i + j) for j, v in enumerate(row)]
             for i, row in enumerate(L)]
        mu = delta * mpmath.expj(phi)
        lam = beta * mpmath.expj(theta)
        q = p ** 2 / 4

        def blocks(e):
            return (mu * e(3) / 3 - lam * e(2) / 2,
                    mu * e(2) / 4 - lam / 2 * e(1))

        def a_power(j):
            aq, ar = blocks(lambda m: L[j][m])
            gq, gr = blocks(lambda m: G[m + j][0])
            return aq + mpmath.conj(gq), ar + mpmath.conj(gr)

        mean_q, mean_r = blocks(lambda m: G[m][0])
        eps = -mpmath.re(z * mean_q + q * mean_r)
        norm = 1 + 2 * eps
        q1, r1 = a_power(1)
        q2, r2 = a_power(2)
        nq, nr = blocks(lambda m: G[m + 1][1] + m * G[m][0])
        g01 = G[0][1]
        mean_a = norm * g01 + z * q1 + q * r1
        a_sq = norm * G[0][2] + z * q2 + q * r2
        corr = z * q1 + q * r1
        gx, gp = mpmath.re(g01), mpmath.im(g01)
        mean_x_sq = 2 * (gx ** 2 * (1 + 4 * eps) + 2 * gx * mpmath.re(corr))
        mean_p_sq = 2 * (gp ** 2 * (1 + 4 * eps) + 2 * gp * mpmath.im(corr))
        h, g02 = mpmath.re(G[1][1]), mpmath.re(G[0][2])
        x2_mean = (mpmath.mpf(0.5) + norm * (h + g02)
                   + mpmath.re(z * (q2 + 2 * nq) + q * (r2 + 2 * nr)))
        p2_mean = (mpmath.mpf(0.5) + norm * (h - g02)
                   + mpmath.re(z * (-q2 + 2 * nq) + q * (-r2 + 2 * nr)))
        var_x, var_p = x2_mean - mean_x_sq, p2_mean - mean_p_sq
        mean_x = mpmath.sqrt(2) * mpmath.re(mean_a)
        mean_p = mpmath.sqrt(2) * mpmath.im(mean_a)
        corr_f = 2 * mpmath.im(a_sq) - 2 * mean_x * mean_p
        r2_mus, base = 2 * (1 - delta ** 2), 1 + delta ** 2
        c = 2 * delta * mpmath.cos(phi)
        return tuple(float(v) for v in (
            (base - c) / r2_mus, (base + c) / r2_mus, var_x, var_p,
            var_x * var_p, (1 + corr_f ** 2) / 4, eps))
