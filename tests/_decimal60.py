"""60-digit decimal references used as test oracles.

`decimal` has exp, so quantities that float64 cannot hold, such as e^1000 or
e^-1000, are computed directly; at 60 digits their rounding lies far below
every tolerance the tests check.  Float inputs are read as the exact binary
values they are.
"""

from decimal import Decimal, localcontext


def one_rate_exact(lam: float, reg_weight: float, degree: int) -> tuple[list[Decimal], Decimal]:
    """The minimizer a_1..a_L and the minimum q of the problem at one rate.

    With variance weight w, the minimum over a (a_0 = -1) of
    w e^-lam sum_l a_l^2 lam^l l! + (e^-lam sum_l a_l lam^l)^2 is a ridge
    regression on one point: a_l = 1 / (l! D) with
    D = w e^lam + sum_{l=1..L} lam^l / l!, and q = w e^-lam (1 + 1/D).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        lam, w = Decimal(lam), Decimal(reg_weight)
        d, term = w * lam.exp(), Decimal(1)
        for ell in range(1, degree + 1):
            term = term * lam / ell  # lam^l / l!
            d += term
        coeffs, factorial = [], Decimal(1)
        for ell in range(1, degree + 1):
            factorial *= ell
            coeffs.append(1 / (factorial * d))
        q = w * (-lam).exp() * (1 + 1 / d)
    return coeffs, q
