"""Each q-product built once: the memoized Pochhammers and their row tables, the
inverse-Pochhammer table and the saturated level sums of the multisums, each
against the route it replaced."""

import itertools

import pytest
from tuple_multisum import tuple_multisum_lhs

from ggkit import bailey, series, verify
from ggkit.series import (
    LaurentSeries,
    _binomial_product,
    inverse_pochhammer,
    pochhammer_finite,
    pochhammer_infinite,
)
from ggkit.verify import SUMMED_TAGS, _tuple_increment, multisum_lhs, verify_bailey


def _visited(tag, k, i, T):
    """{level j: the (N, inner(N)) pairs multisum_lhs walks at level j}."""
    out = {}
    for j in range(k - 1, 0, -1):
        pairs = set()
        n = 1 if j == 1 else 0
        while (inner := T - sum(_tuple_increment(tag, i, lv, n) for lv in range(1, j + 1))) >= 0:
            pairs.add((n, inner))
            n += 1
        out[j] = pairs
    return out


@pytest.mark.parametrize("tag", SUMMED_TAGS)
def test_multisum_equals_the_tuple_sum_through_saturated_levels(tag, monkeypatch):
    # each case's levels are told apart by the (N, inner) pairs _saturated sees:
    # for N >= 1 inner(N) differs from level to level, and N = 0 is an inner level's
    saturated = set()
    real = verify._saturated

    def recorded(g, low, n, inner):
        out = real(g, low, n, inner)
        if out:
            levels = [j for j, pairs in visited.items() if (n, inner) in pairs]
            saturated.update((j == 1, x_tracking) for j in levels)
        return out

    monkeypatch.setattr(verify, "_saturated", recorded)
    for x_tracking in (False, True):
        for k in range(2, 5):
            for i in range(1, k + 1):
                for T in (0, 1, 7, 60):
                    visited = _visited(tag, k, i, T)
                    got = multisum_lhs(tag, k, i, T, x_tracking=x_tracking)
                    want = tuple_multisum_lhs(tag, k, i, T, x_tracking=x_tracking)
                    case = (k, i, T, x_tracking)
                    assert got.first_difference(want) is None, case
                    assert got.truncation == want.truncation == T, case
                    if not x_tracking:
                        assert got.min_exponent == want.min_exponent, case
    # level 1 and an inner level reach saturation, with and without x_tracking
    assert saturated == {(True, False), (True, True), (False, False), (False, True)}


@pytest.mark.parametrize("x_tracking", [False, True])
def test_saturated_level_one_makes_no_more_beta_sums(x_tracking, monkeypatch):
    # OGG at k = 2 walks N = 1..T at level 1 and saturates near T / 3: past it no
    # beta sum is taken, and without x_tracking one multiply serves every N past it
    calls, muls = [], []
    real_sum, real_mul = bailey._inv_poch_sum, LaurentSeries.__mul__

    def summed(step, terms, n, trunc):
        calls.append(n)
        return real_sum(step, terms, n, trunc)

    def multiplied(a, b):
        muls.append(1)
        return real_mul(a, b)

    T = 90
    monkeypatch.setattr(bailey, "_inv_poch_sum", summed)
    monkeypatch.setattr(LaurentSeries, "__mul__", multiplied)
    got = multisum_lhs("OGG", 2, 1, T, x_tracking=x_tracking)
    monkeypatch.undo()
    walked = len(_visited("OGG", 2, 1, T)[1])
    assert walked == T and calls == list(range(1, len(calls) + 1))
    assert T // 4 < len(calls) < T // 2
    if not x_tracking:
        assert len(muls) <= 2 * len(calls) + 1  # a bracket and a sum per N before it
    assert got == tuple_multisum_lhs("OGG", 2, 1, T, x_tracking=x_tracking)


@pytest.mark.parametrize("tag, k, i, T", [
    ("OGG-X", 2, 1, 90), ("H-GF", 3, 2, 40), ("AG-X", 4, 2, 40), ("BRESSOUD-X", 3, 3, 0),
])
def test_level_one_is_one_sum_of_products_per_x_degree(tag, k, i, T, monkeypatch):
    # every N filed under an x-degree adds into that degree's one fused sum; the
    # rows handed to from_rows are exactly those sums
    sums, rows = [], []
    real_sum, real_rows = verify.sum_of_products, series.BivariateSeries.from_rows

    def summed(pairs, trunc):
        sums.append(real_sum(pairs, trunc))
        return sums[-1]

    def built(by_degree, trunc):
        rows.append(by_degree)
        return real_rows(by_degree, trunc)

    monkeypatch.setattr(verify, "sum_of_products", summed)
    monkeypatch.setattr(series.BivariateSeries, "from_rows", built)
    got = multisum_lhs(tag, k, i, T, x_tracking=True)
    assert len(rows) == 1 and len(sums) == len(rows[0])
    assert sorted(map(id, sums)) == sorted(map(id, rows[0].values()))
    assert {m for row in got.table.values() for m in row} <= rows[0].keys()
    sums.clear()
    multisum_lhs(tag, k, i, T)
    assert len(sums) == 1
    monkeypatch.undo()
    assert got == tuple_multisum_lhs(tag, k, i, T, x_tracking=True)


def _shuffled(ms):
    """ms in a fixed order that is neither rising nor falling."""
    ms = list(ms)
    return ms[1::3] + ms[::-1][::2] + ms


@pytest.mark.parametrize("cap", [1, 2, 64])
@pytest.mark.parametrize("step", [1, 2, 4])
def test_inverse_table_equals_the_inverted_pochhammer(step, cap):
    inverse_pochhammer.cache_clear()
    series._inverse_table.cache_clear()
    for m in _shuffled(range(cap // step + 1)):
        want = pochhammer_finite(1, step, step, m, cap).inverse()
        assert inverse_pochhammer(step, m, cap).to_json() == want.to_json(), (step, m, cap)
    # past cap // step every factor is 1 up to the cap
    top = inverse_pochhammer(step, cap // step, cap)
    assert inverse_pochhammer(step, cap // step + 5, cap).to_json() == top.to_json()


def test_inverse_table_builds_a_deep_entry_in_one_pass():
    inverse_pochhammer.cache_clear()
    series._inverse_table.cache_clear()
    got = inverse_pochhammer(1, 1024, 1024)  # 1 024 factors, none of them recursive
    want = pochhammer_finite(1, 1, 1, 1024, 1024).inverse()
    assert got.to_json() == want.to_json()
    assert got.coefficient(100) == 190569292  # p(100)
    assert len(series._inverse_table(1, 1024)) == 2  # the seed entry and this one


def test_inverse_table_refuses_bad_arguments():
    for args in ((0, 1, 5), (1, -1, 5), (1, 1, -1)):
        with pytest.raises(ValueError):
            inverse_pochhammer(*args)


def test_a_repeated_pochhammer_request_returns_the_memoized_build():
    for sign, shift, base, n, T in ((-1, 1, 2, 5, 30), (1, -3, 1, 4, 12), (1, 2, 2, 0, 9),
                                    (-1, 0, 2, 6, 20)):
        first = pochhammer_finite(sign, shift, base, n, T)
        assert pochhammer_finite(sign, shift, base, n, T) is first
        fresh = _binomial_product((shift + t * base for t in range(n)), -sign, T)
        assert first.to_json() == fresh.to_json()
    for sign, shift, base, T in ((1, 1, 1, 40), (-1, 1, 2, 25), (1, 3, 7, 0)):
        first = pochhammer_infinite(sign, shift, base, T)
        assert pochhammer_infinite(sign, shift, base, T) is first
        count = max(0, (T - shift) // base + 1)
        fresh = _binomial_product((shift + t * base for t in range(count)), -sign, T)
        assert first.to_json() == fresh.to_json()
    for memo in (pochhammer_finite, inverse_pochhammer, series._inverse_table):
        assert memo.cache_info().maxsize is not None


@pytest.mark.parametrize("T", [0, 1, 2, 64])
def test_pochhammer_table_equals_the_binomial_product(T):
    # every length up to two past the cap (the last factor at or below T), asked
    # out of order, so a row grows from the nearest shorter one built, which is
    # not always the one just below it; shift 0 covers the factor 1 -/+ q^0 that
    # zeroes or doubles the row
    pochhammer_finite.cache_clear()
    series._pochhammer_table.cache_clear()
    for sign in (1, -1):
        for shift in range(6):
            for base in range(1, 5):
                cap = max(0, (T - shift) // base + 1)
                for m in _shuffled(range(cap + 3)):
                    want = _binomial_product((shift + t * base for t in range(m)), -sign, T)
                    got = pochhammer_finite(sign, shift, base, m, T)
                    assert got.to_json() == want.to_json(), (sign, shift, base, m, T)
    assert series._pochhammer_table.cache_info().misses == 2 * 6 * 4


@pytest.mark.parametrize("T", [0, 1, 7, 30, 61])
def test_bracket_equals_the_product_built_at_its_own_truncation(T):
    # the old route builds the positive Pochhammer from scratch at T - low and
    # shifts it by low; N_1 runs until low passes T, or to 20 where low never
    # grows (g = 1 with "o" or "oe", whose lows stay at or below 0)
    for word in ("", "o", "e", "oe"):
        for g in (1, 2):
            for n1 in itertools.count():
                low, (shift, base, length) = verify._bracket_form(word, n1)
                low += g * n1 * n1
                if low > T:
                    want = LaurentSeries.zero(T)
                else:
                    exps = (shift + t * base for t in range(length))
                    want = _binomial_product(exps, 1, T - low).shift(low)
                got = verify._bracket(g, word, n1, T)
                assert got.to_json() == want.to_json(), (word, g, n1, T)
                if low > T or n1 == 20 and low <= 0:
                    break


def test_level_one_brackets_grow_one_table_one_factor_at_a_time(monkeypatch):
    # every N_1 of OGG's level 1 asks for (-q; q)_{2N_1-1} at T itself, so the
    # whole loop reads one row table and applies each of its T factors once
    T = 60
    pochhammer_finite.cache_clear()
    series._pochhammer_table.cache_clear()
    factors = []
    real = series._axpy

    def counted(x, y, f):
        factors.append(f)
        return real(x, y, f)

    monkeypatch.setattr(series, "_axpy", counted)
    got = multisum_lhs("OGG", 2, 1, T)
    monkeypatch.undo()
    assert series._pochhammer_table.cache_info().misses == 1
    lengths = {0} | {min(2 * n - 1, T) for n in range(1, T + 1)}
    assert sorted(series._pochhammer_table(-1, 1, 1, T)) == sorted(lengths)
    assert factors == [1] * T
    assert got == tuple_multisum_lhs("OGG", 2, 1, T)


def _doctored_chain(run_chain, notes):
    """run_chain with beta_2 of each named stage raised by q^3 (in grid units)."""
    def raised(beta, trunc):
        return lambda n: beta(n) + LaurentSeries.monomial(3, trunc) if n == 2 else beta(n)

    def run(*args):
        chain = run_chain(*args)
        for note in notes:
            pair = chain.stage_by_note(note).pair
            pair._beta = raised(pair._beta, pair.trunc)
        return chain
    return run


def test_pair_relation_names_the_half_grid(cold_memos, monkeypatch):
    # a doctored seed beta fails the seed's relation on grid 2, where the report says
    # what q^e stands for, and the final stage's on the plain grid, where it does not
    monkeypatch.setattr(bailey, "run_chain", _doctored_chain(bailey.run_chain, ("seed", "final")))
    reports = {r.identity: r for r in verify_bailey(3, 1, 6)}
    assert reports["PAIR-RELATION[seed]"].detail == (
        "pair P1: relation fails at n=2, first difference at q^3 (0 vs 1); "
        "on grid 2, q^e stands for q^(e/2)")
    assert reports["PAIR-RELATION[final]"].detail == (
        "pair P6: relation fails at n=2, first difference at q^3 (4 vs 5)")
    assert reports["PAIR-RELATION[unit]"].ok
