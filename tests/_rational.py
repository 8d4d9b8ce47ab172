"""Exact-rational reference implementations used as test oracles.

Everything here runs over `fractions.Fraction`, so results are exact and
independent of the floating-point code under test.
"""

from fractions import Fraction


def cheb_coeffs_exact(degree: int) -> list[Fraction]:
    """Monomial coefficients of T_degree, lowest degree first."""
    prev = [Fraction(1)]
    if degree == 0:
        return prev
    cur = [Fraction(0), Fraction(1)]
    for _ in range(degree - 1):
        nxt = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def poly_eval_exact(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def compose_affine_exact(coeffs, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """Coefficients of p(alpha + beta*x) given coefficients of p."""
    out = [Fraction(0)]
    power = [Fraction(1)]  # (alpha + beta x)^j
    for j, c in enumerate(coeffs):
        if len(out) < len(power):
            out.extend([Fraction(0)] * (len(power) - len(out)))
        for i, pc in enumerate(power):
            out[i] += c * pc
        nxt = [Fraction(0)] * (len(power) + 1)
        for i, pc in enumerate(power):
            nxt[i] += alpha * pc
            nxt[i + 1] += beta * pc
        power = nxt
    return out


def shifted_cheb_exact(degree: int, lo: Fraction, r: Fraction) -> list[Fraction]:
    """Exact coefficients of -T_L((2x-r-lo)/(r-lo)) / T_L((-r-lo)/(r-lo))."""
    base = cheb_coeffs_exact(degree)
    alpha = Fraction(-(r + lo), r - lo)
    beta = Fraction(2, 1) / (r - lo)
    comp = compose_affine_exact(base, alpha, beta)
    denom = comp[0]
    return [-c / denom for c in comp]


def apply_estimator_exact(h: dict, coeffs) -> Fraction:
    """Sum of h_j * (a_j * j! + 1) with tail value 1, over exact rationals."""
    degree = len(coeffs) - 1
    total = Fraction(0)
    for j, hj in h.items():
        if j <= degree:
            fact = 1
            for i in range(2, j + 1):
                fact *= i
            total += hj * (Fraction(coeffs[j]) * fact + 1)
        else:
            total += hj
    return total


def good_turing_exact(h: dict, n: int) -> Fraction:
    s_c = sum(h.values())
    h1 = h.get(1, 0)
    return Fraction(s_c) / (1 - Fraction(h1, n))


def variance_sum_exact(coeffs, lam: Fraction) -> Fraction:
    """sum_l a_l^2 lam^l l!: the variance term without its reg * exp(-lam) factor."""
    total, power, fact = Fraction(0), Fraction(1), 1
    for ell, a in enumerate(coeffs):
        if ell:
            power *= lam
            fact *= ell
        total += Fraction(a) ** 2 * power * fact
    return total


def _common_denominator(values):
    """Integers n_i and one D with values[i] == n_i / D.

    Every float is a dyadic rational, so D is a power of two and the sums
    below run over plain integers instead of reduced fractions.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def dual_value_exact(V, v0, M, m0, w) -> Fraction:
    """q(w) = min_b sum_i w_i [(V_i b - v0_i)^2 + M_i . b^2 + m0_i], exactly.

    The float inputs are read as the exact rationals they represent; b solves
    the normal equations G b = c, G = V^T W V + diag(M^T w), c = V^T W v0, by
    Gaussian elimination over fractions, and q = w.(v0^2 + m0) - c.b.
    """
    s, degree = len(w), len(V[0])
    wn, dw = _common_denominator(w)
    vn, dv = _common_denominator([x for row in V for x in row])
    mn, dm = _common_denominator([x for row in M for x in row])
    v0n, dv0 = _common_denominator(v0)
    m0n, dm0 = _common_denominator(m0)
    rows = [vn[i * degree : (i + 1) * degree] for i in range(s)]
    g = [[Fraction(0)] * degree for _ in range(degree)]
    c = [Fraction(0)] * degree
    for l in range(degree):
        for j in range(l, degree):
            total = sum(wn[i] * rows[i][l] * rows[i][j] for i in range(s))
            g[l][j] = g[j][l] = Fraction(total, dw * dv * dv)
        g[l][l] += Fraction(sum(wn[i] * mn[i * degree + l] for i in range(s)), dw * dm)
        c[l] = Fraction(sum(wn[i] * rows[i][l] * v0n[i] for i in range(s)), dw * dv * dv0)
    const = Fraction(sum(wn[i] * v0n[i] * v0n[i] for i in range(s)), dw * dv0 * dv0)
    const += Fraction(sum(wn[i] * m0n[i] for i in range(s)), dw * dm0)
    # elimination on [G | c]; G is positive definite, so no pivoting is needed
    aug = [g[l][:] + [c[l]] for l in range(degree)]
    for col in range(degree):
        for row in range(col + 1, degree):
            factor = aug[row][col] / aug[col][col]
            for j in range(col, degree + 1):
                aug[row][j] -= factor * aug[col][j]
    b = [Fraction(0)] * degree
    for row in reversed(range(degree)):
        acc = aug[row][degree] - sum(aug[row][j] * b[j] for j in range(row + 1, degree))
        b[row] = acc / aug[row][row]
    return const - sum(cl * bl for cl, bl in zip(c, b))
