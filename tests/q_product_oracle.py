"""Reference q-Pochhammer products, built from scratch with no table.

`binomial_product` multiplies out (1 + c q^e) over any exponents, negative ones
included, so it also gives the Laurent polynomials that `pochhammer_finite`
refuses (a negative shift).  `pochhammer` has `pochhammer_finite`'s signature
and is the product its row tables are tested against.
"""

from operator import add, sub

from ggkit.series import LaurentSeries


def _axpy(x, y, f):
    """[x_j + f * y_j]."""
    if f == 1:
        return list(map(add, x, y))
    if f == -1:
        return list(map(sub, x, y))
    return [a + f * b for a, b in zip(x, y)]


def binomial_product(exponents, factor_coeff, truncation):
    """Product of (1 + factor_coeff * q**e) over the given exponents, to `truncation`.

    Intermediate arrays are kept no wider than the final answer needs: the cap
    starts at truncation plus the total negative shift still to be applied and
    shrinks as negative-exponent factors are absorbed.
    """
    exps = list(exponents)
    neg = sum(-e for e in exps if e < 0)
    lo = 0
    cap = truncation + neg
    if cap < 0:
        return LaurentSeries.zero(truncation)
    arr = [0] * (cap - lo + 1)
    arr[0] = 1
    for e in exps:
        if e == 0:
            if factor_coeff == -1:
                return LaurentSeries.zero(truncation)
            arr = [(1 + factor_coeff) * c for c in arr]
        elif e > 0:
            # window [lo, cap] unchanged: arr[x] += f * arr[x - e]
            arr[e:] = _axpy(arr[e:], arr[:-e], factor_coeff)
        else:
            # window moves down by -e: new[x] = arr[x] + f * arr[x - e]
            arr = _axpy([0] * -e + arr[:e], arr, factor_coeff)
            lo, cap = lo + e, cap + e
    if truncation < lo:
        return LaurentSeries.zero(truncation)
    return LaurentSeries(lo, arr[: truncation - lo + 1], truncation)


def pochhammer(sign, shift, base, n, truncation):
    """(sign*q**shift; q**base)_n to `truncation`, for any shift."""
    return binomial_product((shift + t * base for t in range(n)), -sign, truncation)
