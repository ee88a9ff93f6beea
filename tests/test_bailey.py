import json
import random
from fractions import Fraction

import pytest

from ggkit import bailey
from ggkit.bailey import (
    BaileyPair,
    ChainParameterError,
    PairFormError,
    combine,
    limit_identity,
    run_chain,
    transform_base_change,
    transform_iterate,
    transform_shift,
    unit_pair,
    verify_pair_relation,
)
from ggkit import series
from ggkit.series import LaurentSeries, inverse_pochhammer
from ggkit.verify import product_rhs, verify_bailey


def test_unit_pair_values():
    u = unit_pair(20)
    assert u.beta(0) == LaurentSeries.one(u.trunc)
    for n in range(1, 5):
        assert next(u.beta(n).items(), None) is None  # beta_n is zero
    # alpha_1 = -1 - q: grid exponents 0 and 2 on the half-exponent grid
    a1 = u.alpha(1)
    assert a1.coefficient(0) == -1 and a1.coefficient(2) == -1
    assert sum(1 for _ in a1.items()) == 2


def test_unit_pair_relation():
    ok, msg = verify_pair_relation(unit_pair(20), 8)
    assert ok, msg


def test_seed_beta_closed_form():
    seed = transform_iterate(unit_pair(20))
    for n in range(9):
        assert seed.beta(n) == inverse_pochhammer(seed.grid, n, seed.trunc), n
    ok, msg = verify_pair_relation(seed, 8)
    assert ok, msg


def test_iterate_fixes_alpha_at_zero():
    u = unit_pair(10)
    assert transform_iterate(u).alpha(0) == u.alpha(0)


def test_shift_keeps_alpha_zero_and_relation():
    seed = transform_iterate(unit_pair(15))
    shifted = transform_shift(seed, 3)
    assert shifted.alpha(0) == LaurentSeries.one(shifted.trunc)
    for n in range(1, 5):
        assert shifted.beta(n) == seed.beta(n).shift(2 * n).truncated(seed.trunc)
    ok, msg = verify_pair_relation(shifted, 6)
    assert ok, msg


def test_shift_rejects_wrong_alpha_form():
    seed = transform_iterate(unit_pair(15))
    with pytest.raises(PairFormError) as err:
        transform_shift(seed, 5)  # the seed carries parameter 3/2, not 5/2
    assert "n=" in str(err.value)


def _plain_theta(a: int, b: int, n: int, T: int) -> LaurentSeries:
    # (-1)^n q^{a n^2}(q^{-b n} + q^{b n}) on the plain grid, written out
    if n == 0:
        return LaurentSeries.one(T)
    return LaurentSeries.from_terms({a * n * n - b * n: (-1) ** n, a * n * n + b * n: (-1) ** n}, T)


def test_shift_accepts_the_closed_form_on_the_plain_grid():
    T = 40
    pair = BaileyPair("plain", 1, T, lambda n: _plain_theta(2, 1, n, T),
                      lambda n: LaurentSeries.zero(T))
    shifted = transform_shift(pair, 4)  # parameter 2: alpha's inner exponent 1 -> 2
    for n in range(8):
        assert shifted.alpha(n) == _plain_theta(2, 2, n, T), n
    with pytest.raises(PairFormError):
        transform_shift(pair, 6)


def test_combine_identity_and_linearity():
    seed = transform_iterate(unit_pair(15))
    same = combine([seed], [1])
    for n in range(5):
        assert same.alpha(n) == seed.alpha(n)
        assert same.beta(n) == seed.beta(n)
    shifted = transform_shift(seed, 3)
    avg = combine([seed, shifted], [Fraction(1, 2), Fraction(1, 2)])
    ok, msg = verify_pair_relation(avg, 6)
    assert ok, msg


def test_combine_rejects_mismatch():
    a = transform_iterate(unit_pair(10))
    b = transform_iterate(unit_pair(12))
    with pytest.raises(ValueError):
        combine([a, b], [1, 1])
    with pytest.raises(ValueError):
        combine([a], [1, 2])


def test_averaged_pair_closed_form():
    # for the shortest chain the averaged pair has beta_n = (1 + q^n)/(2 (q;q)_n)
    chain = run_chain(2, 1, 15)
    avg = chain.stage_by_note("averaged").pair
    g, trunc = avg.grid, avg.trunc
    for n in range(5):
        terms = {0: Fraction(1, 2)}
        terms[g * n] = terms.get(g * n, 0) + Fraction(1, 2)
        want = LaurentSeries.from_terms(terms, trunc) * inverse_pochhammer(g, n, trunc)
        assert avg.beta(n) == want, n


def test_base_change_zero_index():
    chain = run_chain(2, 1, 15)
    final = chain.final
    assert final.grid == 1
    assert final.beta(0) == LaurentSeries.one(final.trunc)
    assert final.alpha(0) == LaurentSeries.one(final.trunc)


def test_base_change_requires_half_grid():
    chain = run_chain(2, 1, 10)
    with pytest.raises(ValueError):
        transform_base_change(chain.final)


def test_final_alpha_closed_form():
    chain = run_chain(3, 1, 30)
    final = chain.final
    k, i = 3, 1
    for n in range(1, 4):
        sign = -1 if n % 2 else 1
        e = (2 * k - 1) * n * n
        off = 2 * (k - i) * n
        want = LaurentSeries.from_terms({e - off: sign, e + off: sign}, final.trunc)
        assert final.alpha(n) == want, n


def test_chain_parameter_errors():
    with pytest.raises(ChainParameterError):
        run_chain(2, 2, 10)
    with pytest.raises(ChainParameterError):
        run_chain(2, 3, 10)
    with pytest.raises(ChainParameterError):
        run_chain(2, 0, 10)


def test_chain_stage_count():
    for k, i in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        chain = run_chain(k, i, 10)
        assert len(chain.stages) == 2 * k - i + 2
        notes = [s.note for s in chain.stages]
        assert notes[0] == "unit" and notes[1] == "seed" and notes[-1] == "final"


@pytest.mark.parametrize("k,i", [(2, 1), (3, 2)])
def test_limit_identity_matches_product(k, i):
    chain = run_chain(k, i, 30)
    lhs, rhs = limit_identity(chain, 30)
    assert lhs == rhs
    assert lhs == product_rhs("OGG", k, i, 30)


def test_limit_identity_truncation_guard():
    chain = run_chain(2, 1, 10)
    with pytest.raises(ValueError):
        limit_identity(chain, 50)


def test_limit_constant_term():
    chain = run_chain(2, 1, 12)
    lhs, rhs = limit_identity(chain, 12)
    assert lhs.coefficient(0) == 1 and rhs.coefficient(0) == 1


def test_cached_inverse_pochhammer_is_read_only():
    from ggkit.series import pochhammer_finite

    cached = inverse_pochhammer(2, 3, 20)
    with pytest.raises(TypeError):
        cached.coeffs[0] = 5
    with pytest.raises(TypeError):
        cached._num[0] = 5
    with pytest.raises(AttributeError):
        cached.truncation = 3
    assert inverse_pochhammer(2, 3, 20) is cached
    fresh = pochhammer_finite(1, 2, 2, 3, 20).inverse()
    assert cached == fresh
    assert cached.to_json() == fresh.to_json()


def test_inverse_pochhammer_cut_from_a_coarser_build_equals_a_fresh_one():
    from ggkit.series import pochhammer_finite

    for step in (1, 2, 4):
        for m in range(7):
            for trunc in (0, 1, 5, 17, 33, 64):
                fresh = pochhammer_finite(1, step, step, m, trunc).inverse()
                got = inverse_pochhammer(step, m, trunc)
                assert got.to_json() == fresh.to_json(), (step, m, trunc)
    inverse_pochhammer.cache_clear()
    series._inverse_table.cache_clear()
    for trunc in (33, 50, 64):  # one table, at cap 64, serves all three
        inverse_pochhammer(3, 5, trunc)
    assert series._inverse_table.cache_info().misses == 1


def test_base_change_builds_each_summand_once(monkeypatch):
    builds = []
    real = bailey.pochhammer_finite

    def counted(a, *args):
        if a == -1:  # only the base change's (-1; q)_{2k} has a = -1
            builds.append(args)
        return real(a, *args)

    monkeypatch.setattr(bailey, "pochhammer_finite", counted)
    chain = run_chain(3, 1, 40)
    lhs, rhs = limit_identity(chain, 40)
    assert lhs == rhs
    assert sorted(builds) == [(0, 2, 2 * k, 80) for k in range(41)]


@pytest.mark.parametrize("T", [0, 7, 22, 40])
def test_stage_betas_equal_the_plain_loops(T):
    # every convolving stage against its plain loop on the stage before it, at
    # n up to T + 2, where the low-index terms are past saturation
    from bailey_loops import base_change_beta, iterate_beta

    for k in range(2, 5):
        for i in range(1, k):
            stages = run_chain(k, i, T).stages
            for prev, st in zip(stages, stages[1:]):
                if st.note == "final":
                    oracle = base_change_beta
                elif st.note.endswith("iterate") or st.note == "seed":
                    oracle = iterate_beta
                else:
                    continue
                for n in range(T + 3):
                    want = oracle(prev.pair, n).to_json()
                    assert st.pair.beta(n).to_json() == want, (k, i, st.note, n)


def _terms(n, trunc):
    """Terms (m, t_m) with rational coefficients, lowest exponents spread over
    [0, trunc + 1] and truncations at or above trunc."""
    out = []
    for m in range(n + 1):
        e = (7 * m + 3) % (trunc + 2)
        coeffs = {e: Fraction(m + 1, 3), e + 1: 2, e + 3: Fraction(5, 7 + m)}
        out.append((m, LaurentSeries.from_terms(coeffs, trunc + m % 3)))
    return out


@pytest.mark.parametrize("step", [1, 2, 4])
def test_inverse_pochhammer_sum_past_saturation(step):
    from bailey_loops import inv_poch_sum

    for trunc in (0, 1, 6, 13, 31):
        for n in (0, 1, 4, trunc // step, trunc // step + 1, trunc + 3):
            terms = _terms(n, trunc)
            got = bailey._inv_poch_sum(step, terms, n, trunc)
            assert got.to_json() == inv_poch_sum(step, terms, n, trunc).to_json(), (trunc, n)


@pytest.mark.parametrize("step", [1, 2, 4])
def test_inverse_pochhammer_sum_folds_exactly_the_saturated_terms(step, monkeypatch):
    from bailey_loops import inv_poch_sum

    n, trunc = 5, 6 * step + 4
    # an even m sits one past the saturation bound, step (n - m + 1) = trunc - e + 1,
    # so it joins the one folded multiply; an odd m sits on it and keeps its own
    terms = [(m, LaurentSeries.monomial(trunc - step * (n - m + 1) + (m % 2 == 0), trunc, m + 1))
             for m in range(n + 1)]
    want = inv_poch_sum(step, terms, n, trunc)
    lengths = []
    real = bailey.inverse_pochhammer

    def counted(s, length, t):
        lengths.append(length)
        return real(s, length, t)

    monkeypatch.setattr(bailey, "inverse_pochhammer", counted)
    got = bailey._inv_poch_sum(step, terms, n, trunc)
    assert got.to_json() == want.to_json()
    # one multiply per odd m by 1/(q^g; q^g)_{n-m}, and one, past length n, for the rest
    assert sorted(x for x in lengths if x <= n) == sorted(n - m for m in range(1, n + 1, 2))
    assert [x for x in lengths if x > n] == [x for x in lengths if x >= trunc // step] != []
    assert len(lengths) == (n + 1) // 2 + 1


@pytest.mark.parametrize("step", [1, 2, 3])
def test_inverse_pochhammer_sum_asks_for_its_inverses_shortest_first(step, monkeypatch):
    from bailey_loops import inv_poch_sum

    # n + 1 terms none of which saturates, so each is paired with 1/(q^g; q^g)_{n-m}
    n, trunc = 6, 60
    terms = [(m, LaurentSeries.monomial(m, trunc, m + 1)) for m in range(n + 1)]
    assert all(step * (n - m + 1) <= trunc - m for m in range(n + 1))
    divides = []
    real = series._divide_binomial

    def counted(num, e):
        divides.append(e)
        real(num, e)

    series.inverse_pochhammer.cache_clear()
    series._inverse_table.cache_clear()
    monkeypatch.setattr(series, "_divide_binomial", counted)
    got = bailey._inv_poch_sum(step, terms, n, trunc)
    assert got.to_json() == inv_poch_sum(step, terms, n, trunc).to_json()
    # rising length grows each inverse from the one just built: max length divides
    # in all, where falling length builds each anew from length 0, sum of the lengths
    assert divides == [step * t for t in range(1, n + 1)]


# -- one chain prefix per truncation ----------------------------------------

CHAINS6 = [(k, i) for k in range(2, 7) for i in range(1, k)]


@pytest.mark.parametrize("T", [0, 6, 22, 40])
def test_chains_on_a_warm_prefix_equal_chains_on_a_cold_one(cold_memos, monkeypatch, T):
    # the shared stages are values only: every chain makes the same comparisons,
    # in the same number, on a prefix built by earlier chains as on a fresh one
    compared = []
    first_difference = LaurentSeries.first_difference

    def counted(a, b):
        compared.append(1)
        return first_difference(a, b)

    monkeypatch.setattr(LaurentSeries, "first_difference", counted)

    def reports(k, i):
        compared.clear()
        out = [json.dumps(rep.to_json()) for rep in verify_bailey(k, i, T)]
        return out, len(compared)

    cold = {}
    for k, i in CHAINS6:
        bailey._chain_prefix.cache_clear()
        cold[(k, i)] = reports(k, i)
    assert all(json.loads(rep)["verdict"] == "pass" for out, _ in cold.values() for rep in out)
    bailey._chain_prefix.cache_clear()
    order = list(CHAINS6)
    random.Random(T).shuffle(order)
    for k, i in order:
        assert reports(k, i) == cold[(k, i)], (k, i)
    prefix = bailey._chain_prefix(T)
    assert len(prefix) == 11  # P0..P10, each built once for all 15 chains
    for k, i in CHAINS6:
        stages = run_chain(k, i, T).stages
        assert all(stages[s].pair is prefix[s] for s in range(2 * (k - i) + 1)), (k, i)
        assert all(st.pair not in prefix for st in stages[2 * (k - i) + 1:]), (k, i)


def test_a_doctored_shared_stage_fails_every_chain_that_reads_it(cold_memos):
    # beta_2 of alt1.iterate (P3), built once, gains q^3: every chain with
    # k - i >= 2 reads it and must report it; the chains with k - i = 1 do not
    T = 10
    run_chain(6, 1, T)
    stage = bailey._chain_prefix(T)[3]
    beta = stage._beta
    stage._beta = lambda n: beta(n) + LaurentSeries.monomial(3, stage.trunc) if n == 2 else beta(n)
    failed = set()
    for k, i in CHAINS6:
        reports = verify_bailey(k, i, T)
        bad = [rep for rep in reports if not rep.ok]
        if k - i == 1:
            assert not bad, (k, i)
        else:
            assert bad and bad[0].identity == "PAIR-RELATION[alt1.iterate]", (k, i)
            failed.add(bad[0].detail)
    assert failed == {"pair P3: relation fails at n=2, first difference at q^3 (0 vs 1); "
                      "on grid 2, q^e stands for q^(e/2)"}


def test_every_chain_checks_the_shift_form_of_a_shared_stage(cold_memos):
    # the seed (P1) was checked when the longest chain built alt1.shift from it;
    # a chain reading the built stage checks it again, and so sees alpha_1 changed
    T = 10
    run_chain(4, 1, T)
    seed = bailey._chain_prefix(T)[1]
    alpha = seed._alpha
    seed._alpha = lambda n: alpha(n) + LaurentSeries.monomial(3, seed.trunc) if n == 1 else alpha(n)
    for k, i in [(2, 1), (3, 1), (4, 1), (5, 1)]:
        with pytest.raises(PairFormError, match="violated at n=1: pair P1 does not match"):
            run_chain(k, i, T)
