"""Reference summed sides for the nested evaluator in ggkit.verify.

`tuple_multisum_lhs` adds the closed form's term over every nonincreasing
tuple (N_1, ..., N_{k-1}) whose lowest exponent is at most T, one bracket,
shift and k - 1 multiplies per tuple.  It has the signature and return types
of `verify.multisum_lhs`, which evaluates the same sum level by level.
`collapse_x` sets x = 1 in a bivariate series.
"""

from ggkit.series import BivariateSeries, LaurentSeries
from ggkit.verify import _profile_term, _tuple_increment


def iter_tuples(tag: str, k: int, i: int, T: int):
    """Nonincreasing tuples (N_1..N_{k-1}) whose minimal term order is <= T."""
    vals: list[int] = []

    def rec(j: int, cap: int | None, rem: int):
        n = 0
        while (cap is None or n <= cap):
            inc = _tuple_increment(tag, i, j, n)
            if inc > rem:
                break
            vals.append(n)
            if j == k - 1:
                yield tuple(vals)
            else:
                yield from rec(j + 1, n, rem - inc)
            vals.pop()
            n += 1

    yield from rec(1, None, T)


def tuple_multisum_lhs(tag: str, k: int, i: int, T: int, x_tracking: bool = False):
    skip_zero = tag in ("F-GF", "H-GF")
    zero = LaurentSeries.zero(T)
    rows: dict[int, LaurentSeries] = {}  # the sum of each x-degree's terms
    for tup in iter_tuples(tag, k, i, T):
        if tup[0] == 0:
            if skip_zero:
                continue
            term = LaurentSeries.one(T)
        else:
            term = _profile_term(tag, tup, i, T)
        d = sum(tup) if x_tracking else 0
        rows[d] = rows.get(d, zero) + term
    if x_tracking:
        return BivariateSeries.from_rows(rows, T)
    return rows.get(0, zero)


def collapse_x(bs: BivariateSeries) -> LaurentSeries:
    """The series in q that bs is at x = 1."""
    return LaurentSeries.from_terms({e: sum(row.values()) for e, row in bs.table.items()},
                                    bs.truncation)
