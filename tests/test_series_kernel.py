"""Property tests for the integer LaurentSeries kernel.

Products are compared with a plain Fraction schoolbook written here, on
inputs that reach both the schoolbook and the Kronecker branch of the
multiply: dense and sparse operands on both sides of the crossover, wide
coefficients, mixed denominators, negative exponents, unequal truncations,
leading zeros and the zero series.  ``sum_of_products`` is compared, to the
stored numerators, with one multiply and one add per pair on the same inputs.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggkit.series import (
    _KRONECKER_MIN_TERMS,
    LaurentSeries,
    TruncationError,
    sum_of_products,
)

WIDE = 2 ** 200

small_ints = st.integers(-3, 3)
wide_ints = st.integers(-WIDE, WIDE)
fractions = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 9, 35]))
coefficients = st.one_of(st.just(0), small_ints, wide_ints, fractions)


@st.composite
def series(draw, max_len=3 * _KRONECKER_MIN_TERMS):
    lo = draw(st.integers(-6, 6))
    lead_zeros = draw(st.integers(0, 3))
    body = draw(st.lists(coefficients, max_size=max_len))
    coeffs = [0] * lead_zeros + body
    return LaurentSeries(lo, coeffs, lo + len(coeffs) - 1)


def reference_product(a: LaurentSeries, b: LaurentSeries) -> dict:
    """Exponent -> Fraction for the product, on the range the product is valid."""
    fa = {e: Fraction(c) for e, c in a.items()}
    fb = {e: Fraction(c) for e, c in b.items()}
    am = min(fa, default=a.truncation + 1)
    bm = min(fb, default=b.truncation + 1)
    trunc = min(a.truncation + bm, b.truncation + am)
    out = {e: Fraction(0) for e in range(am + bm, trunc + 1)}
    for ea, ca in fa.items():
        for eb, cb in fb.items():
            if ea + eb <= trunc:
                out[ea + eb] += ca * cb
    return {"truncation": trunc, "coeffs": out}


def dense(n, c=1):
    return LaurentSeries(0, [c * (j % 5 - 2 or 1) for j in range(n)], n - 1)


@settings(max_examples=300, deadline=None)
@given(series(), series())
@example(dense(3), dense(40))
@example(dense(40, WIDE), dense(30, -WIDE))
@example(dense(_KRONECKER_MIN_TERMS - 1), dense(_KRONECKER_MIN_TERMS - 1))
@example(dense(_KRONECKER_MIN_TERMS), dense(_KRONECKER_MIN_TERMS).scale(Fraction(-2, 3)))
@example(LaurentSeries.zero(5), dense(20))
def test_mul_matches_fraction_schoolbook(a, b):
    ref = reference_product(a, b)
    got = a * b
    assert got.truncation == ref["truncation"]
    for e in range(min(got.min_exponent, ref["truncation"] + 1) - 2, ref["truncation"] + 1):
        assert got.coefficient(e) == ref["coeffs"].get(e, 0), e
    assert b * a == got


def test_mul_fills_the_slot_width_exactly():
    # all coefficients at +-M make the kept coefficient j equal (j+1) * M^2,
    # so the last one meets the slot-width bound with equality
    for n in (_KRONECKER_MIN_TERMS, 2 * _KRONECKER_MIN_TERMS + 1):
        for bits in range(1, 80):
            m = 2 ** bits - 1
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a = LaurentSeries(0, [sa * m] * n, n - 1)
                b = LaurentSeries(-1, [sb * m] * n, n - 2)
                got = a * b
                assert got.min_exponent == -1 and got.truncation == n - 2
                assert got.coeffs == tuple((j + 1) * sa * sb * m * m for j in range(n))

@settings(max_examples=200, deadline=None)
@given(series(), series(), st.integers(0, 5))
def test_results_are_stored_in_lowest_terms(a, b, cut):
    t = a.truncation - cut
    for s in (a, a + b, a - b, a * b, a.scale(Fraction(3, 4)), a.truncated(t)):
        assert s._den >= 1
        assert gcd(s._den, *s._num) == 1
        assert isinstance(s._num, tuple) and all(type(c) is int for c in s._num)


@settings(max_examples=200, deadline=None)
@given(series())
def test_json_roundtrip(s):
    data = s.to_json()
    assert data["coeffs"] == [f"{Fraction(c).numerator}/{Fraction(c).denominator}"
                              for c in s.coeffs]
    back = LaurentSeries.from_json(data)
    assert back == s
    assert (back.min_exponent, back.truncation) == (s.min_exponent, s.truncation)
    assert back.to_json() == data


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, -1, Fraction(2, 3)]), st.integers(-4, 4),
       st.lists(st.one_of(small_ints, fractions), max_size=3 * _KRONECKER_MIN_TERMS))
def test_unit_times_inverse_is_one(lead, lo, tail):
    a = LaurentSeries(lo, [lead] + tail, lo + len(tail))
    inv = a.inverse()
    for prod in (a * inv, inv * a):
        assert prod == LaurentSeries.one(prod.truncation)
        assert prod.truncation == a.truncation - lo


def folded(pairs, T):
    """sum a * b over the pairs, one multiply and one add per pair."""
    acc = LaurentSeries.zero(T)
    for a, b in pairs:
        acc = acc + (a * b).truncated(T)
    return acc


def stored(s):
    return s._lo, s._num, s._den, s._trunc


@st.composite
def product_sums(draw):
    """1-20 pairs mixing dense and sparse operands, cut at or below every
    product's own truncation."""
    pairs = draw(st.lists(st.tuples(series(), series()), min_size=1, max_size=20))
    top = min((a * b).truncation for a, b in pairs)
    return pairs, top - draw(st.integers(0, 6))


def tight(n, m, extra):
    """Two equal dense products whose kept coefficient j is 2 (j + 1) m^2, and a
    sparse one adding `extra` at the last, so the last coefficient of the sum is
    the kernel's summed slot bound 2 n m^2 + extra, exactly."""
    a = LaurentSeries(0, [m] * n, n - 1)
    spike = LaurentSeries(0, [0] * (n - 1) + [extra], n - 1)
    return [(a, a), (a, a), (LaurentSeries.one(n - 1), spike)], n - 1


@settings(max_examples=300, deadline=None)
@given(product_sums())
@example(([(dense(3), dense(40))], 2))
@example(([(LaurentSeries.zero(5), dense(20)), (dense(20), dense(9))], 5))
@example(([(dense(40, WIDE), dense(30, -WIDE)), (dense(30), dense(9)),
           (dense(12).scale(Fraction(1, 6)), dense(30, WIDE).shift(-3))], 6))
@example(tight(_KRONECKER_MIN_TERMS, 2 ** 26 - 1, 2 ** 20))  # 8-byte slots
@example(tight(_KRONECKER_MIN_TERMS + 3, -(2 ** 40), 1))  # 11-byte slots, bytes path
def test_sum_of_products_matches_the_per_term_fold(case):
    pairs, T = case
    want = folded(pairs, T)
    got = sum_of_products(pairs, T)
    assert got.to_json() == want.to_json()
    assert got.min_exponent == want.min_exponent
    assert stored(got) == stored(want)


@settings(max_examples=100, deadline=None)
@given(product_sums(), st.integers(1, 4))
def test_sum_of_products_refuses_a_product_valid_below_the_truncation(case, past):
    pairs, _ = case
    T = min((a * b).truncation for a, b in pairs) + past
    with pytest.raises(TruncationError):
        folded(pairs, T)
    with pytest.raises(TruncationError):
        sum_of_products(pairs, T)
