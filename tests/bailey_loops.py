"""Reference sums for the Bailey-lemma convolution in ggkit.bailey.

Each function is the plain loop: one multiply by 1/(q^g; q^g)_{n-m} per term,
with no saturated terms folded into one multiply.  `inv_poch_sum` has the
signature of `bailey._inv_poch_sum`; `iterate_beta` and `base_change_beta` give
beta_n of `transform_iterate(pair)` and `transform_base_change(pair)`.  Each
inverse Pochhammer is a series inverse of the finite product, so the loops share
no table with `series.inverse_pochhammer`, which the code they check reads.
"""

from functools import lru_cache

from ggkit.series import LaurentSeries, pochhammer_finite


@lru_cache(maxsize=None)
def _inv_poch(step, m, trunc):
    """1/(q^step; q^step)_m, truncated at trunc."""
    return pochhammer_finite(1, step, step, m, trunc).inverse()


def inv_poch_sum(step, terms, n, trunc):
    acc = LaurentSeries.zero(trunc)
    for m, t in terms:
        acc = acc + t.truncated(trunc) * _inv_poch(step, n - m, trunc)
    return acc


def iterate_beta(pair, n):
    g, trunc = pair.grid, pair.trunc
    acc = LaurentSeries.zero(trunc)
    for j in range(n + 1):
        e = g * j * j
        if e > trunc:
            break
        term = pair.beta(j) * _inv_poch(g, n - j, trunc)
        acc = acc + term.shift(e).truncated(trunc)
    return acc


@lru_cache(maxsize=None)
def _minus_one_poch(length, trunc):
    return pochhammer_finite(-1, 0, 2, length, trunc)


def base_change_beta(pair, n):
    trunc = pair.trunc
    acc = LaurentSeries.zero(trunc)
    for k in range(n + 1):
        if 2 * k > trunc:
            break
        summand = _minus_one_poch(2 * k, trunc) * pair.beta(k).substitute_power(2).truncated(trunc)
        term = summand * _inv_poch(4, n - k, trunc)
        acc = acc + term.shift(2 * k).truncated(trunc)
    return acc.project_even()
