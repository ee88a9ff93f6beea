import random
from fractions import Fraction

import pytest
from tuple_multisum import collapse_x

from ggkit.partitions import enumerate_overpartitions
from ggkit.series import (
    BivariateSeries,
    DivergentProductError,
    LaurentSeries,
    NotInvertibleError,
    TruncationError,
    inverse_euler_product,
    pochhammer_finite,
    pochhammer_infinite,
    product_triple,
    substitute_power,
    theta_bressoud_sum,
    theta_term,
    triple_product,
)


def poly(terms, T):
    return LaurentSeries.from_terms(terms, T)


def is_zero(s: LaurentSeries) -> bool:
    """Every coefficient up to the truncation is 0 (items() yields only nonzero ones)."""
    return next(s.items(), None) is None


def test_mul_direct_expansion():
    a = poly({0: 1, 1: -1}, 10)
    b = poly({0: 1, 2: -1}, 10)
    assert a * b == poly({0: 1, 1: -1, 2: -1, 3: 1}, 8)


def test_mul_identity_and_monomial_shift():
    s = poly({-1: 2, 3: Fraction(1, 2)}, 7)
    assert s * LaurentSeries.one(7) == s
    m = poly({-1: 1, 0: 1}, 9)
    assert m * LaurentSeries.monomial(2, 9) == poly({1: 1, 2: 1}, 9)


def test_inverse_geometric():
    inv = poly({0: 1, 1: -1}, 12).inverse()
    assert all(inv.coefficient(e) == 1 for e in range(13))
    assert LaurentSeries.one(9).inverse() == LaurentSeries.one(9)


def test_inverse_times_original_is_one():
    p = pochhammer_finite(1, 1, 1, 2, 20)
    prod = p * p.inverse()
    assert prod == LaurentSeries.one(prod.truncation)
    assert prod.truncation >= 18


def test_inverse_rejects_zero_lead():
    with pytest.raises(NotInvertibleError):
        LaurentSeries.zero(5).inverse()


def test_strict_truncation_read():
    s = poly({0: 1}, 4)
    assert s.coefficient(4) == 0
    with pytest.raises(TruncationError):
        s.coefficient(5)
    with pytest.raises(TruncationError):
        s.truncated(9)


def test_pochhammer_single_negative_factor():
    # one factor with exponent -1
    assert pochhammer_finite(-1, -1, 2, 1, 5) == poly({-1: 1, 0: 1}, 5)


def test_pochhammer_two_factors():
    assert pochhammer_finite(1, 1, 1, 2, 6) == poly({0: 1, 1: -1, 2: -1, 3: 1}, 6)


@pytest.mark.parametrize("n1", range(1, 11))
def test_negative_shift_rewrite_identity(n1):
    # (-q^{2-2a};q^2)_{a-1} (-q^{1-2a};q^2)_a q^{2a^2} equals (-q;q)_{2a-1} q^a,
    # exactly, as Laurent polynomials
    T = 2 * n1 * n1
    lhs = pochhammer_finite(-1, 2 - 2 * n1, 2, n1 - 1, T)
    lhs = lhs * pochhammer_finite(-1, 1 - 2 * n1, 2, n1, T - 0)
    lhs = lhs.shift(2 * n1 * n1).truncated(T)
    rhs = pochhammer_finite(-1, 1, 1, 2 * n1 - 1, T - n1).shift(n1)
    assert lhs == rhs
    assert lhs.effective_min() == n1


def test_pochhammer_infinite_euler_pattern():
    s = pochhammer_infinite(1, 1, 1, 6)
    assert [s.coefficient(e) for e in range(7)] == [1, -1, -1, 0, 0, 1, 0]
    d = pochhammer_infinite(1, 1, 1, 12)
    direct = LaurentSeries.one(12)
    for t in range(1, 13):
        direct = direct * poly({0: 1, t: -1}, 12)
    assert d == direct.truncated(12)


def test_pochhammer_infinite_beyond_truncation_is_one():
    assert pochhammer_infinite(1, 10, 10, 5) == LaurentSeries.one(5)


def test_pochhammer_infinite_divergent():
    with pytest.raises(DivergentProductError):
        pochhammer_infinite(1, 0, 1, 5)


def test_overpartition_generating_function_matches_enumeration():
    T = 12
    gf = pochhammer_infinite(-1, 1, 1, T) * inverse_euler_product(T)
    for n in range(T + 1):
        assert gf.coefficient(n) == sum(1 for _ in enumerate_overpartitions(n))


def test_substitute_power():
    s = poly({0: 1, 1: 1}, 5)
    assert s.substitute_power(2) == poly({0: 1, 2: 1}, 11)
    assert s.substitute_power(1) is s
    inv3 = pochhammer_finite(1, 1, 1, 3, 15).inverse()
    target = pochhammer_finite(1, 2, 2, 3, 12).inverse()
    assert substitute_power(inv3, 2).first_difference(target) is None


def test_theta_sum_collapses_at_equal_parameters():
    s = theta_bressoud_sum(3, 3, 100)
    for e in range(101):
        c = s.coefficient(e)
        if e == 0:
            assert c == 1
        elif c:
            n = round((e / 5) ** 0.5)
            assert e == 5 * n * n and c == 2 * (-1) ** n


def test_theta_sum_small():
    assert theta_bressoud_sum(2, 1, 3) == poly({0: 1, 1: -1}, 3)


@pytest.mark.parametrize("k,i", [(2, 1), (3, 2), (4, 4)])
def test_theta_equals_triple_product(k, i):
    assert theta_bressoud_sum(k, i, 200) == product_triple(k, i, 200)


@pytest.mark.parametrize("a,b,n,terms", [
    (3, 2, 0, {0: 1}),
    (3, 2, 1, {1: -1, 5: -1}),
    (3, 2, 2, {8: 1, 16: 1}),
    (5, 0, 1, {5: -2}),  # b = 0: the two exponents coincide
    (1, 3, 1, {-2: -1, 4: -1}),
])
def test_theta_term_values(a, b, n, terms):
    assert theta_term(a, b, n, 20) == poly(terms, 20)


@pytest.mark.parametrize("a,base", [(1, 2), (2, 5), (3, 7), (3, 8)])
def test_triple_product_matches_its_theta_series(a, base):
    # Jacobi: (q^a, q^{base-a}, q^base; q^base)_oo = sum_n (-1)^n q^{base n(n-1)/2 + a n}
    T = 60
    terms: dict[int, int] = {}
    for n in range(-T, T + 1):
        e = base * n * (n - 1) // 2 + a * n
        terms[e] = terms.get(e, 0) + (-1) ** n
    assert triple_product(a, base, T) == poly(terms, T)


def test_product_triple_small_values():
    assert product_triple(1, 1, 0) == LaurentSeries.one(0)
    # direct expansion of (q;q^2)_oo^2 (q^2;q^2)_oo
    direct = LaurentSeries.one(3)
    for e in (1, 3):
        f = poly({0: 1, e: -1}, 3)
        direct = direct * f * f
    direct = direct * poly({0: 1, 2: -1}, 3)
    got = product_triple(1, 1, 3)
    assert got == direct.truncated(3)
    assert [got.coefficient(e) for e in range(4)] == [1, -2, 0, 0]


def _random_series(rng, T=50):
    lo = rng.randint(-5, 5)
    coeffs = []
    for _ in range(T - lo + 1):
        c = rng.randint(-3, 3)
        if rng.random() < 0.2:
            c = Fraction(c, rng.randint(1, 4))
        coeffs.append(c)
    return LaurentSeries(lo, coeffs, T)


def test_ring_laws_random():
    rng = random.Random(20250810)
    for _ in range(25):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_two_sided_inverse_random():
    rng = random.Random(7)
    for _ in range(15):
        a = _random_series(rng, T=30)
        if is_zero(a):
            continue
        inv = a.inverse()
        left = a * inv
        right = inv * a
        assert left == LaurentSeries.one(left.truncation)
        assert right == LaurentSeries.one(right.truncation)


def test_pochhammer_telescoping_random():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(0, 10), rng.randint(0, 10)
        sign = rng.choice((1, -1))
        j, b = rng.randint(-3, 4), rng.randint(1, 3)
        T = 25
        whole = pochhammer_finite(sign, j, b, m + n, T)
        split = pochhammer_finite(sign, j, b, m, T) * pochhammer_finite(sign, j + m * b, b, n, T)
        assert whole.first_difference(split) is None


def test_json_roundtrip():
    s = poly({-2: Fraction(1, 2), 0: -3, 5: 7}, 8)
    data = s.to_json()
    assert data["coeffs"][0] == "1/2"
    back = LaurentSeries.from_json(data)
    assert back == s and back.min_exponent == s.min_exponent
    assert isinstance(back.coefficient(0), int)


def test_equality_is_on_common_range():
    a = poly({0: 1, 1: 5}, 10)
    b = poly({0: 1, 1: 5}, 3)
    assert a == b
    c = poly({0: 1, 1: 4}, 3)
    assert a != c
    assert a.first_difference(c) == 1


def test_bivariate_collapse_and_counts():
    bs = BivariateSeries.from_rows({1: poly({1: 1, 3: 2}, 6), 2: poly({2: 1}, 6)}, 6)
    flat = collapse_x(bs)
    assert flat == poly({1: 1, 2: 1, 3: 2}, 6)
    other = BivariateSeries.from_counts({(1, 1): 1, (2, 2): 1, (1, 3): 2}, 6)
    assert bs == other
    other = BivariateSeries.from_counts({(1, 1): 1, (2, 2): 1, (1, 3): 3}, 6)
    assert bs.first_difference(other) == (3, 1)


def test_bivariate_first_difference_reports_lowest_exponent():
    a = BivariateSeries.from_rows({0: poly({-2: 1}, 6), 1: poly({3: 1}, 6)}, 6)
    b = BivariateSeries(6)
    assert a.first_difference(b) == (-2, 0)
    assert b.first_difference(a) == (-2, 0)


def test_bivariate_needs_enough_truncation():
    with pytest.raises(TruncationError):
        BivariateSeries.from_rows({0: poly({0: 1}, 5)}, 10)


def test_from_rows_refuses_a_short_row_and_stores_no_zeros():
    T = 6
    with pytest.raises(TruncationError, match="truncated at 5 cannot feed a table valid to 6"):
        BivariateSeries.from_rows({0: poly({0: 1}, T), 3: poly({4: 1}, 5)}, T)
    rows = {
        0: poly({0: 1, 2: 0, 7: 5}, 9),  # q^7 lies past T
        1: LaurentSeries(1, [0, Fraction(1, 2), 0, -3, 0, 0], T),
        2: poly({0: 1}, T) - poly({0: 1}, T),  # a row of zero numerators
        4: poly({-1: 2}, T).shift(T + 2),  # starts past T
    }
    bs = BivariateSeries.from_rows(rows, T)
    assert bs.table == {0: {0: 1}, 2: {1: Fraction(1, 2)}, 4: {1: -3}}
    assert all(c for row in bs.table.values() for c in row.values())


def test_bivariate_first_difference_of_equal_and_unequal_tables():
    counts = {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1, (1, 3): 1}
    short = BivariateSeries.from_counts(counts, 3)
    long_ = BivariateSeries.from_counts(counts, 9)
    assert short.first_difference(long_) is None and long_.first_difference(short) is None
    # a zero count and a count past the truncation are not stored
    assert BivariateSeries.from_counts({**counts, (3, 1): 0, (1, 10): 4}, 9).table == long_.table
    # the two disagree at q^2 (x^1 against x^3) and at q^3; the lowest (q, x) is named
    other = BivariateSeries.from_counts({(0, 0): 1, (1, 1): 1, (3, 2): 1, (2, 3): 2}, 9)
    assert long_.first_difference(other) == (2, 1)
    assert other.first_difference(short) == (2, 1)
    # unequal only past the lower truncation
    past = BivariateSeries.from_counts({**counts, (4, 5): 1}, 9)
    assert short.first_difference(past) is None and long_.first_difference(past) == (5, 4)
