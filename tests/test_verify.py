import json
import re
from functools import lru_cache

import pytest
from test_marking_walk import in_class
from tuple_multisum import collapse_x, tuple_multisum_lhs

from ggkit import bailey, bijections, marking, partitions, series, verify
from ggkit.partitions import (
    FamilySpec,
    Overpartition,
    count_family,
    enumerate_overpartitions,
    overpartition_ofh_tables,
    overpartition_p_counts,
    partition_family_tables,
)
from ggkit.series import LaurentSeries, pochhammer_finite
from ggkit.verify import (
    SUMMED_TAGS,
    DegenerateIdentityError,
    _profile_term,
    _tuple_increment,
    build_tasks,
    multisum_lhs,
    product_rhs,
    run_suite,
    verify_bailey,
    verify_class_gf,
    verify_class_lemma,
    verify_bijections,
    verify_counting,
    verify_identity,
)


def coeffs(s, n):
    return [s.coefficient(e) for e in range(n + 1)]


def test_multisum_ag_example():
    s = multisum_lhs("AG", 2, 2, 5)
    assert coeffs(s, 5) == [1, 1, 1, 1, 2, 2]
    # oracle: count partitions with adjacent-size caps and a smallest-part cap
    for n in range(6):
        assert s.coefficient(n) == count_family(FamilySpec("B", 2, 2), n)


def test_multisum_constant_below_first_term():
    assert multisum_lhs("OGG", 3, 2, 0) == LaurentSeries.one(0)
    assert multisum_lhs("BRESSOUD", 2, 1, 0) == LaurentSeries.one(0)


def test_multisum_degenerate_guard():
    with pytest.raises(DegenerateIdentityError):
        multisum_lhs("AG", 1, 1, 10)


def test_product_rhs_ogg_example():
    r = product_rhs("OGG", 2, 2, 3)
    assert coeffs(r, 3) == [1, 2, 4, 6]


def test_product_rhs_ag_is_modular_restriction():
    r = product_rhs("AG", 2, 2, 12)
    for n in range(13):
        assert r.coefficient(n) == count_family(FamilySpec("A", 2, 2), n)


def test_ogg_empty_sum_convention_at_equal_parameters():
    # at i = k the binomial factor degenerates to the constant 2; the identity
    # must still hold against both the product and the counting family
    rep = verify_identity("OGG", 2, 2, 30)
    assert rep.ok, str(rep)
    lhs = multisum_lhs("OGG", 2, 2, 12)
    for n in range(13):
        assert lhs.coefficient(n) == count_family(FamilySpec("P", 2, 2), n)


@pytest.mark.parametrize("tag", ["AG", "BRESSOUD", "OGG"])
def test_series_identities_small(tag):
    for k, i in [(2, 1), (2, 2), (3, 2)]:
        rep = verify_identity(tag, k, i, 30)
        assert rep.ok, str(rep)


def test_consistency_triangle():
    # counting series, product side and multisum all agree
    for tag, fam in (("OGG", "P"), ("BRESSOUD", "C")):
        for k, i in [(2, 1), (2, 2)]:
            prod = product_rhs(tag, k, i, 10)
            summed = multisum_lhs(tag, k, i, 10)
            assert prod == summed
            for n in range(11):
                assert prod.coefficient(n) == count_family(FamilySpec(fam, k, i), n)


def test_jtp_identity():
    rep = verify_identity("JTP", 4, 1, 200)
    assert rep.ok, str(rep)


def test_bivariate_identity_small():
    for tag in ("AG-X", "BRESSOUD-X", "OGG-X", "F-GF", "H-GF"):
        rep = verify_identity(tag, 2, 1, 14)
        assert rep.ok, str(rep)
    lhs = multisum_lhs("OGG-X", 2, 2, 10, x_tracking=True)
    for n in range(11):
        row = lhs.coefficient(n)
        assert all(m <= n for m in row)  # a part has size >= 1


def test_x_slice_counts():
    lhs = multisum_lhs("OGG-X", 2, 2, 8, x_tracking=True)
    from ggkit.partitions import count_family_bivariate

    for n in range(9):
        want = count_family_bivariate(FamilySpec("O", 2, 2), n)
        got = {m: c for m, c in lhs.coefficient(n).items() if c}
        assert got == want, n


def test_bivariate_collapses_to_univariate_multisum():
    for tag in ("AG-X", "BRESSOUD-X", "OGG-X"):
        flat = collapse_x(multisum_lhs(tag, 3, 2, 25, x_tracking=True))
        assert flat == multisum_lhs(tag[:-2], 3, 2, 25)


def test_counting_reports():
    rep = verify_counting("T1.5", 2, 2, 10)
    assert rep.ok and rep.verdict == "pass"
    rep = verify_counting("T1.5", 1, 1, 6)
    assert rep.ok
    rep = verify_counting("T1.1", 3, 2, 12)
    assert rep.ok
    rep = verify_counting("T1.2", 4, 3, 12)
    assert rep.ok
    with pytest.raises(ValueError):
        verify_counting("T9.9", 2, 1, 5)


def test_counting_report_names_witness():
    # doctored tables must surface the first differing cell, not raise
    tables = {("O", 2, 2): {(0, 0): 1, (1, 3): 99}}
    pc = {(2, 2): [1, 0, 0, 0]}
    rep = verify_counting("T1.5", 2, 2, 3, ofh_tables=tables, p_counts=pc)
    assert not rep.ok and rep.detail == "first difference at n=3: O=99, P=0"


@pytest.mark.parametrize("theorem, tables, reach", [
    # a sweep's (m, n) tables record the weight they reach
    ("T1.2", {"partition_tables": partition_family_tables(10, [(2, 1)])}, 10),
    ("T1.1", {"partition_tables": partition_family_tables(10, [(2, 1)], by_weight=True)}, 10),
    ("T1.5", {"ofh_tables": overpartition_ofh_tables(10, [(2, 1)])}, 10),
    ("T1.5", {"p_counts": {(2, 1): [1, 0, 1]}}, 2),
], ids=["m-n-table", "per-weight-list", "ofh-table", "short-p-list"])
def test_counting_refuses_a_table_short_of_n_max(theorem, tables, reach):
    # past weight 10 both sides would read zero, and the verdict would pass
    with pytest.raises(ValueError, match=rf"reaches n={reach}, short of n_max=30$"):
        verify_counting(theorem, 2, 1, 30, **tables)


def test_counting_reads_any_table_that_reaches_n_max():
    ofh, p = overpartition_ofh_tables(12, [(3, 2)]), overpartition_p_counts(12, [(3, 2)])
    part = partition_family_tables(12, [(3, 2)], by_weight=True)
    for theorem in ("T1.1", "T1.2", "T1.5"):
        rep = verify_counting(theorem, 3, 2, 9, ofh_tables=ofh, p_counts=p, partition_tables=part)
        assert rep == verify_counting(theorem, 3, 2, 9) and rep.ok


def test_series_report_names_the_first_difference(monkeypatch):
    # a product side doctored to start one exponent late
    product = verify.product_rhs
    monkeypatch.setattr(verify, "product_rhs", lambda *args: product(*args).shift(1))
    rep = verify_identity("AG", 2, 1, 5)
    assert not rep.ok and rep.detail == "first difference at q^0: lhs=1, rhs=0"


def test_bivariate_report_names_the_first_difference():
    # an enumeration holding only the empty partition misses B_{2,1}(1, 2) = 1
    rep = verify_identity("AG-X", 2, 1, 5, counts={(0, 0): 1})
    assert not rep.ok
    assert rep.detail == "first difference at x^1 q^2: multisum=1, enumeration=0"


@pytest.mark.parametrize("tag, counts", [
    ("OGG-X", overpartition_ofh_tables(20, [(3, 2)])[("O", 3, 2)]),
    ("AG-X", partition_family_tables(20, [(3, 2)], families="B")[("B", 3, 2)]),
], ids=["ofh-table", "partition-table"])
def test_bivariate_identity_refuses_a_count_table_short_of_T(tag, counts):
    # past weight 20 the table reads zero: at T = 28 the verdict would be a false FAIL
    with pytest.raises(ValueError, match=r"reaches n=20, short of T=28$"):
        verify_identity(tag, 3, 2, 28, counts=counts)
    assert verify_identity(tag, 3, 2, 20, counts=counts).ok


def test_seed_beta_report_names_both_sides(cold_memos, monkeypatch):
    # the seed stage's beta_2 gains q^3 (in grid units); SEED-BETA names n = 2 and
    # prints both series there
    run_chain = bailey.run_chain

    def doctored(*args):
        chain = run_chain(*args)
        seed = chain.stage_by_note("seed").pair
        beta = seed._beta
        seed._beta = lambda n: beta(n) + LaurentSeries.monomial(3, seed.trunc) if n == 2 else beta(n)
        return chain

    monkeypatch.setattr(bailey, "run_chain", doctored)
    rep = next(r for r in verify_bailey(3, 1, 6) if r.identity == "SEED-BETA")
    assert not rep.ok
    assert rep.detail == (
        "first difference at n=2: "
        "beta=<series 1 + q^2 + q^3 + 2*q^4 + 2*q^6 + 3*q^8 + ... + O(q^13)>, "
        "1/(q;q)_n=<series 1 + q^2 + 2*q^4 + 2*q^6 + 3*q^8 + 3*q^10 + ... + O(q^13)>; "
        "on grid 2, q^e stands for q^(e/2)")


def test_class_gf_profile_examples(class_buckets, partition_class_buckets):
    rep = verify_class_gf((2, 1), 1, 30, "B", partition_buckets=partition_class_buckets)
    assert rep.ok, str(rep)
    rep = verify_class_gf((1,), 1, 30, "E", buckets=class_buckets)
    assert rep.ok, str(rep)
    # members of that class are the single plain even parts of size >= 4
    members = [rec.op for rec in class_buckets[(1,)] if in_class(rec, "E", 2, 1)]
    assert sorted(op.weight() for op in members if op.weight() <= 10) == [4, 6, 8, 10]


def test_class_gf_zero_profile():
    rep = verify_class_gf((0, 0), 2, 10, "F")
    assert rep.ok
    rep = verify_class_gf((0,), 1, 10, "B")
    assert rep.ok


def test_class_lemmas_profile_21(class_buckets):
    for lem in ("LEM-N1", "LEM-N2"):
        rep = verify_class_lemma(lem, (2, 1), 2, 30, buckets=class_buckets)
        assert rep.ok, str(rep)


@pytest.mark.parametrize("check", [
    lambda: verify_class_lemma("LEM-N1", (1,), 5, 10),
    lambda: verify_class_lemma("LEM-N2", (1,), 0, 10),
    lambda: verify_class_gf((1,), 5, 10, "E"),
    lambda: verify_class_gf((1,), 0, 10, "G"),
], ids=["lemma-i-above-k", "lemma-i-zero", "gf-i-above-k", "gf-i-zero"])
def test_class_checks_validate_k_and_i(check):
    with pytest.raises(ValueError, match="k >= i >= 1"):
        check()


@pytest.mark.parametrize("check", [
    lambda: multisum_lhs("OGG", 3, 2, -3),
    lambda: product_rhs("AG", 2, 1, -1),
    lambda: verify_class_gf((1,), 1, -2, "F"),
    lambda: verify_class_lemma("LEM-N2", (1,), 1, -1),
    lambda: verify_counting("T1.1", 2, 1, -1),
    lambda: verify_bijections(2, 1, -2),
    lambda: verify_identity("JTP", 2, 1, -3),
    lambda: verify_bailey(3, 1, 20, n_depth=-1),
], ids=["multisum", "product", "class-gf", "class-lemma", "counting", "bijections", "jtp",
        "bailey-depth"])
def test_negative_bounds_are_rejected(check):
    with pytest.raises(ValueError, match="must be nonnegative"):
        check()


def test_zero_bounds_stay_valid():
    assert product_rhs("AG", 2, 1, 0) == LaurentSeries.one(0)
    assert verify_class_gf((1,), 1, 0, "F").ok
    assert verify_counting("T1.5", 2, 1, 0).ok
    assert verify_bijections(2, 1, 0).ok


@pytest.mark.parametrize("tag", SUMMED_TAGS)
def test_tuple_pruning_bound_is_exact(tag):
    # the level bound in multisum_lhs (and the tuple sum's pruning) is sound only
    # if no term starts below the summed increments; equality shows the bound is
    # also tight
    for k in range(1, 5):
        for i in range(1, k + 1):
            for tup in _nonincreasing(k - 1, 4):
                bound = sum(_tuple_increment(tag, i, j, n) for j, n in enumerate(tup, 1))
                assert _profile_term(tag, tup, i, bound).effective_min() == bound, (k, i, tup)


def _negative_shift_factors(brackets, n1):
    """(shift, length) of each of the paper's Pochhammers (-q^shift; q^2)_length
    named in brackets: "o" = (-q^{1-2N_1}; q^2)_{N_1}, "e" = (-q^{2-2N_1}; q^2)_{N_1-1}."""
    return [(1 - 2 * n1, n1) if letter == "o" else (2 - 2 * n1, max(n1 - 1, 0))
            for letter in brackets]


@pytest.mark.parametrize("name", [*verify._FORMS, *verify._LEMMAS])
def test_bracket_equals_the_negative_shift_product(name):
    # each bracket is one positive Pochhammer shifted by its lowest exponent; the
    # reference multiplies q^{g N_1^2} by the negative-shift Pochhammers at a
    # truncation widened by their negative support and cuts the product at T.  A
    # reduction law's factor is its bracket alone (g = 0).
    if name in verify._LEMMAS:
        g, brackets = 0, verify._LEMMAS[name][0]
    else:
        g, _, brackets = verify._FORMS[name]
    for n1 in range(9):
        factors = _negative_shift_factors(brackets, n1)
        low = sum(min(shift + 2 * t, 0) for shift, length in factors for t in range(length))
        for T in sorted({0, 1, n1 * n1, 40}):
            wide = T - low
            want = LaurentSeries.monomial(g * n1 * n1, wide)
            for shift, length in factors:
                want = want * pochhammer_finite(-1, shift, 2, length, wide)
            want = want.truncated(T)
            got = verify._bracket(g, brackets, n1, T)
            assert (got.coeffs, got.min_exponent, got.truncation) == (
                want.coeffs, want.min_exponent, want.truncation), (n1, T)


def test_tuple_increment_charges_the_negative_shift_minimum():
    for tag, (g, off, brackets) in verify._FORMS.items():
        for i in range(1, 4):
            for j in range(1, 4):
                for n in range(9):
                    want = g * n * n + (g * n if j >= i + off else 0)
                    if j == 1:
                        want += sum(min(shift + 2 * t, 0)
                                    for shift, length in _negative_shift_factors(brackets, n)
                                    for t in range(length))
                    assert _tuple_increment(tag, i, j, n) == want, (tag, i, j, n)


def _nonincreasing(length, cap):
    if length == 0:
        yield ()
        return
    for n in range(cap + 1):
        for rest in _nonincreasing(length - 1, n):
            yield (n,) + rest


@pytest.mark.parametrize("tag", SUMMED_TAGS)
def test_nested_multisum_equals_the_tuple_sum(tag):
    # the form's own mode over the whole grid, the other mode up to T = 30
    natural = tag not in ("AG", "BRESSOUD", "OGG")
    for x_tracking, bounds in ((natural, (0, 1, 7, 30, 60)), (not natural, (0, 1, 7, 30))):
        for k in range(2, 6):
            for i in range(1, k + 1):
                for T in bounds:
                    got = multisum_lhs(tag, k, i, T, x_tracking=x_tracking)
                    want = tuple_multisum_lhs(tag, k, i, T, x_tracking=x_tracking)
                    case = (k, i, T, x_tracking)
                    assert got.first_difference(want) is None, case
                    assert got.truncation == want.truncation == T, case
                    if not x_tracking:
                        assert got.min_exponent == want.min_exponent, case


def test_verify_identity_validates_tag():
    with pytest.raises(ValueError):
        verify_identity("NOPE", 2, 1, 10)


def test_report_json_schema():
    rep = verify_identity("JTP", 2, 1, 50)
    data = rep.to_json()
    assert set(data) == {"identity", "params", "truncation", "verdict", "detail"}
    assert data["verdict"] == "pass"
    json.dumps(data)


def test_bailey_suite_reports():
    reps = verify_bailey(2, 1, 20, n_depth=4)
    assert all(r.ok for r in reps), [str(r) for r in reps if not r.ok]
    names = [r.identity for r in reps]
    assert "SEED-BETA" in names and "LIMIT" in names and "LIMIT-VS-PRODUCT" in names


def test_run_suite_counting_sequential_and_parallel():
    seq = run_suite("counting", k=2, n_max=8, jobs=1)
    par = run_suite("counting", k=2, n_max=8, jobs=2)
    assert [str(r) for r in seq] == [str(r) for r in par]
    assert all(r.ok for r in seq)


def test_build_tasks_validates_suite():
    with pytest.raises(ValueError):
        build_tasks("nonsense")
    with pytest.raises(DegenerateIdentityError):
        build_tasks("identities", k=1, i=1)
    # under "all" the summed identities are left out at k = 1, not refused
    assert {task[0] for task in build_tasks("all", k=1, n_max=4)} == {"bijections", "counting"}


@pytest.mark.parametrize("jobs,tasks,cpus,want", [
    (2, 44, 2, 2),
    (64, 44, 2, 2),
    (64, 3, 16, 3),
    (4, 44, 8, 4),
    (1, 44, 8, 1),
    (0, 44, 8, 1),
    (-3, 44, 8, 1),
    (8, 0, 8, 1),
])
def test_worker_count_is_clamped(jobs, tasks, cpus, want):
    from ggkit.verify import _worker_count

    assert _worker_count(jobs, tasks, cpus) == want


# -- the bijection sweep's object memo -------------------------------------

BIJECTION_RUNS = [(k, i, n) for k in range(1, 4) for i in range(1, k + 1) for n in (4, 7, 10)]


def _cold_reports(runs):
    cold = {}
    for run in runs:
        verify._object_checks.cache_clear()
        cold[run] = verify_bijections(*run)
    return cold


# check counts of the sweep at n_max = 10, from the sweep before it had a memo
CHECKS_AT_10 = {(1, 1): 3, (2, 1): 94, (2, 2): 678, (3, 1): 116, (3, 2): 837, (3, 3): 1108}


def test_memoized_sweeps_equal_cold_sweeps(cold_memos):
    cold = _cold_reports(BIJECTION_RUNS)
    assert all(rep.ok for rep in cold.values())
    assert {(k, i): cold[(k, i, 10)].detail for k, i in CHECKS_AT_10} == \
        {pair: f"{checks} checks" for pair, checks in CHECKS_AT_10.items()}
    for order in (BIJECTION_RUNS, BIJECTION_RUNS[::-1]):
        verify._object_checks.cache_clear()
        for run in order:
            assert verify_bijections(*run) == cold[run], run
        assert verify._object_checks.cache_info().hits > 0


def test_memo_does_not_hide_a_broken_inverse(cold_memos, monkeypatch):
    monkeypatch.setattr(verify, "psi_full", lambda tau, red: red)
    rep = verify_bijections(2, 2, 8)
    assert not rep.ok
    assert rep.detail.endswith("inverse of the full reduction differs")


# each inverse the sweep checks, with the failure a map that returns its input
# unchanged must produce: the sweep has to look every map up in verify when it
# calls it, as test_memo_does_not_hide_a_broken_inverse does for psi_full
@pytest.mark.parametrize("name, message", [
    ("psi_step", r"inverse step at \d+ differs"),
    ("psi_chain", r"inverse chain at \d+ differs"),
    ("lambda_full", r"inverse of the odd removal differs"),
    ("lambda_step", r"inverse type step at \d+ differs"),
    ("lambda_chain", r"inverse type chain at \d+ differs"),
])
def test_sweep_looks_up_each_inverse_at_call_time(cold_memos, monkeypatch, name, message):
    if name.endswith("_full"):
        monkeypatch.setattr(verify, name, lambda signed, op, trace=None: op)
    else:
        monkeypatch.setattr(verify, name, lambda op, p, trace=None: op)
    rep = verify_bijections(2, 2, 8)
    assert not rep.ok
    assert re.search(f": {message}$", rep.detail), rep.detail


def test_per_pair_sweep_stops_at_its_first_failing_weight(cold_memos, monkeypatch):
    # phi_full goes wrong at weight 5 and raises at weight 7: the one walk reaches
    # weight 7 too, but the weight-5 failure must come back and the raise past it
    # must not propagate
    full = verify.phi_full

    def broken(op, trace=None):
        if op.weight() == 7:
            raise RuntimeError("the sweep walked past its first failing weight")
        signed, out = full(op, trace)
        return (signed, Overpartition(out.parts[:-1])) if op.weight() == 5 else (signed, out)

    monkeypatch.setattr(verify, "phi_full", broken)
    rep = verify_bijections(2, 2, 8)
    assert not rep.ok
    assert Overpartition.from_text(rep.detail.split("'")[1]).weight() == 5


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_a_raise_below_the_first_failing_weight_propagates(cold_memos, monkeypatch, workers):
    # phi_full raises at weight 5 and goes wrong at weight 7: reading the weights in
    # ascending order, the raise comes first, as the object the check raised
    full, raised = verify.phi_full, []

    def broken(op, trace=None):
        if op.weight() == 5:
            raised.append(RuntimeError(f"phi_full raised on {op!r}"))
            raise raised[-1]
        signed, out = full(op, trace)
        return (signed, Overpartition(out.parts[:-1])) if op.weight() == 7 else (signed, out)

    monkeypatch.setattr(verify, "phi_full", broken)
    with pytest.raises(RuntimeError, match="phi_full raised on") as exc:
        if workers:
            verify._run_tasks(_weight_tasks(PAIRS4, 8), workers)
        else:
            verify_bijections(2, 2, 8)
    if workers < 2:
        assert exc.value is raised[0]
    assert bijections._table is None


def test_sweep_looks_up_the_classifiers_at_call_time(cold_memos, monkeypatch):
    calls = {"classify_f": 0, "classify_g": 0}

    def counted(name):
        orig = getattr(verify, name)

        def classify(m, p):
            calls[name] += 1
            return orig(m, p)
        return classify

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    assert verify_bijections(3, 3, 8).ok
    assert all(calls.values()), calls


def test_object_memo_is_bounded(cold_memos, monkeypatch):
    assert verify._object_checks.cache_info().maxsize == verify._OBJECT_MEMO_SIZE >= 11631
    runs = [(k, i, 8) for k in range(1, 4) for i in range(1, k + 1)]
    cold = _cold_reports(runs)
    assert verify._object_checks.cache_info().currsize <= verify._OBJECT_MEMO_SIZE
    small = lru_cache(maxsize=16)(verify._object_checks.__wrapped__)
    monkeypatch.setattr(verify, "_object_checks", small)
    for run in runs:
        assert verify_bijections(*run) == cold[run], run
        assert small.cache_info().currsize <= 16
    assert small.cache_info().misses > 16  # entries were evicted and recomputed


def test_every_module_level_cache_is_bounded():
    mods = (bailey, bijections, marking, partitions, series, verify)
    cached = [fn for mod in mods for fn in vars(mod).values() if hasattr(fn, "cache_info")]
    # series owns every q-product memo; bailey keeps only the product of two of
    # them, and the chain stages shared by every chain at one truncation
    assert {fn.__name__ for fn in cached} == {
        "pochhammer_finite", "inverse_pochhammer", "_inverse_table", "_relation_kernel",
        "_chain_prefix", "_object_checks", "_count_slot_bytes"}
    assert all(fn.cache_info().maxsize is not None for fn in cached)
    assert not [name for mod in mods for name in vars(mod) if name.endswith("_CACHE")]


def test_object_key_roundtrip():
    ops = [op for n in range(9) for op in enumerate_overpartitions(n)]
    ops.append(Overpartition([(200, True), (200, False), (300, False), (1, True)]))
    keys = [verify._object_key(op) for op in ops]
    assert len(set(keys)) == len(ops)
    assert [verify._object_from_key(key) for key in keys] == ops


# -- the suite's bijection path: one walk for every pair, one task per weight --

PAIRS4 = [(k, i) for k in range(1, 5) for i in range(1, k + 1)]
INVERSES = ("psi_full", "psi_step", "psi_chain", "lambda_full", "lambda_step",
            "lambda_chain", "fh_untoggle", "double")


def _weight_tasks(pairs, n_max):
    return [("bijections", pairs, n) for n in range(n_max, -1, -1)]


def _as_json(reports):
    return [json.dumps(rep.to_json()) for rep in reports]


def _cold_pair_json(pairs, n_max):
    cold = _cold_reports([(k, i, n_max) for k, i in pairs])
    return _as_json(cold[(k, i, n_max)] for k, i in pairs)


@pytest.fixture(scope="module")
def cold_pair_json():
    """Cold per-pair reports of every k <= 4, i <= k, by n_max."""
    verify._object_checks.cache_clear()
    return {n_max: _cold_pair_json(PAIRS4, n_max) for n_max in (0, 1, 7, 12)}


@pytest.mark.parametrize("workers", [1, 2])
def test_pairs_path_equals_cold_per_pair_sweeps(cold_memos, cold_pair_json, workers):
    for n_max, want in cold_pair_json.items():
        merged = verify._run_tasks(_weight_tasks(PAIRS4, n_max), workers)
        assert _as_json(merged) == want, n_max
    assert verify._object_checks.cache_info().currsize <= verify._OBJECT_MEMO_SIZE


def _break(monkeypatch, name, broken_at):
    """Make verify.<name> drop the largest part of each result broken_at accepts."""
    orig = getattr(verify, name)

    def broken(*args, **kwargs):
        out = orig(*args, **kwargs)
        return Overpartition(out.parts[:-1]) if broken_at(out) else out

    monkeypatch.setattr(verify, name, broken)
    verify._object_checks.cache_clear()


@pytest.mark.parametrize("name", INVERSES)
def test_pairs_path_reports_a_broken_inverse_as_the_per_pair_path(
        cold_memos, monkeypatch, name):
    _break(monkeypatch, name, lambda out: len(out) >= 3 and out.weight() % 4 == 2)
    want = _cold_pair_json(PAIRS4, 8)
    assert any('"fail"' in rep for rep in want) and any('"pass"' in rep for rep in want)
    assert _as_json(verify._run_tasks(_weight_tasks(PAIRS4, 8), 1)) == want


@pytest.mark.parametrize("weights", [(7,), (7, 9)])
def test_weight_split_keeps_the_first_failure(cold_memos, monkeypatch, weights):
    # the tasks run from n_max down, so a later weight's failure comes back first
    _break(monkeypatch, "psi_step", lambda out: out.weight() in weights)
    want = _cold_pair_json(PAIRS4, 10)
    merged = verify._run_tasks(_weight_tasks(PAIRS4, 10), 1)
    assert _as_json(merged) == want
    failed = [Overpartition.from_text(rep.detail.split("'")[1]) for rep in merged if not rep.ok]
    assert failed and {op.weight() for op in failed} == {7}


def test_pairs_path_checks_no_object_outside_the_selected_pairs(cold_memos, monkeypatch):
    # O(3, 2) bounds the walk but is not selected: its other members are walked
    # and must be neither checked nor reported
    pairs = [(3, 1), (2, 2)]
    n_max = 10
    members = {pair: {op for n in range(n_max + 1) for op, *_ in
                      marking._walk(n, exact=True, o_caps=verify._o_caps(*pair))}
               for pair in pairs}
    wanted = members[(3, 1)] | members[(2, 2)]
    assert any(op not in wanted for n in range(n_max + 1)
               for op, *_ in marking._walk(n, exact=True, o_caps=verify._o_caps(3, 2)))
    want = _cold_pair_json(pairs, n_max)
    checked, toggled = [], []
    body, toggle = verify._object_checks, verify.fh_toggle
    monkeypatch.setattr(verify, "_object_checks",
                        lambda key: checked.append(verify._object_from_key(key)) or body(key))
    monkeypatch.setattr(verify, "fh_toggle",
                        lambda op, k, i: toggled.append((op, (k, i))) or toggle(op, k, i))
    assert _as_json(verify._run_tasks(_weight_tasks(pairs, n_max), 1)) == want
    assert len(checked) == len(set(checked)) and set(checked) == wanted
    assert toggled and all(op in members[pair] for op, pair in toggled)


def test_run_suite_bijections_sequential_and_parallel():
    seq = run_suite("bijections", k=3, n_max=10, jobs=1)
    par = run_suite("bijections", k=3, n_max=10, jobs=2)
    assert _as_json(seq) == _as_json(par)
    assert [rep.detail for rep in seq] == [f"{CHECKS_AT_10[(3, i)]} checks" for i in (1, 2, 3)]


def test_build_tasks_puts_the_bijection_weights_first_largest_first():
    tasks = build_tasks("all", k=2, n_max=3, T=5)
    assert tasks[:4] == [("bijections", [(2, 1), (2, 2)], n) for n in (3, 2, 1, 0)]
    assert all(task[0] != "bijections" for task in tasks[4:])


@pytest.mark.parametrize("suite", ["bijections", "all"])
def test_build_tasks_refuses_a_sweep_past_its_ceiling(suite):
    top = verify._SWEEP_N_MAX
    assert build_tasks(suite, k=2, n_max=top, T=5)[0] == ("bijections", [(2, 1), (2, 2)], top)
    for n_max in (top + 1, 10**20):
        with pytest.raises(ValueError, match="ceiling"):
            build_tasks(suite, k=2, n_max=n_max, T=5)


@pytest.mark.parametrize("suite", ["identities", "all"])
def test_build_tasks_refuses_a_profile_past_its_reach_ceiling(suite):
    # the reach is T + N_1^2 with T capped at 30; the ceiling of 46 admits
    # (4, ...) at T = 30 and (5,) up to T = 21
    for profile, T in (((4, 4, 4, 4, 4, 4), 40), ((5,), 21), ((), 40)):
        k = len(profile) + 1
        (task,) = [t for t in build_tasks(suite, k=k, i=1, n_max=3, T=T, profile=profile)
                   if t[0] == "profile"]
        assert task == ("profile", profile, 1, min(T, 30))
    for profile, T in (((5,), 22), ((5, 1), 40), ((1000,), 10), ((10**20,), 40)):
        with pytest.raises(ValueError, match="ceiling"):
            build_tasks(suite, k=len(profile) + 1, i=1, n_max=3, T=T, profile=profile)


@pytest.mark.parametrize("suite", ["identities", "all"])
def test_build_tasks_refuses_a_k_other_than_the_profiles(suite):
    assert [t for t in build_tasks(suite, n_max=3, T=20, profile=(2, 1))
            if t[0] == "profile"] == [("profile", (2, 1), 1, 20)]
    for k in (2, 4):
        with pytest.raises(ValueError, match=r"fixes k = len\(profile\) \+ 1 = 3, got k="):
            build_tasks(suite, k=k, n_max=3, T=20, profile=(2, 1))


@pytest.mark.parametrize("call", [
    lambda: verify_identity("LEM-N2", None, 1, 10, profile=(1000,)),
    lambda: verify_identity("LEM-N2", None, 1, 22, profile=(5,)),  # 22 + 5^2 = 47
    lambda: verify_class_lemma("LEM-N1", (1,), 1, 47),
    lambda: verify_class_gf((1,), 1, 47, "E"),
    lambda: verify_class_gf((1,), 1, 47, "B"),
    lambda: verify.verify_profile((5,), 1, 22),
    lambda: verify.verify_profile((10**20,), 1, 40),
])
def test_library_refuses_its_own_class_buckets_past_the_reach_ceiling(call):
    with pytest.raises(ValueError, match="ceiling"):
        call()


def test_library_admits_the_reach_ceiling_and_any_prebuilt_buckets():
    assert verify_class_gf((1,), 1, 46, "E").ok
    assert verify_class_lemma("LEM-N2", (1,), 1, 45).ok  # 45 + 1^2 = 46
    buckets = verify.collect_class_buckets(1, 1, 50)
    assert verify_class_gf((1,), 1, 50, "E", buckets=buckets).ok
    assert verify_class_lemma("LEM-N2", (1,), 1, 49, buckets=buckets).ok


def test_profile_suite_builds_the_class_buckets_once(monkeypatch):
    cold = [verify_identity(tag, None, 1, 30, profile=(2, 1)) for tag in verify.CLASS_TAGS]
    cold.sort(key=lambda r: (r.identity, repr(sorted(r.params.items(), key=str))))
    builds = []
    real = verify.collect_class_buckets

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "collect_class_buckets", counted)
    reports = run_suite("identities", profile=(2, 1), i=1, T=30, jobs=1)
    assert _as_json(reports) == _as_json(cold)
    assert all(rep.ok for rep in reports)
    assert builds == [(2, 2, 34)]  # LEM-N2 reads the inner class to T + N_1^2


# -- counting tables --------------------------------------------------------

def test_counting_suite_builds_only_the_tables_it_compares(monkeypatch):
    runs = []
    real = partitions._count_tables

    def counted(*args, **kwargs):
        runs.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(partitions, "_count_tables", counted)
    reports = run_suite("counting", k=4, n_max=60, jobs=1)
    assert len(reports) == 12 and all(rep.ok for rep in reports)
    # one task for k = 4: one O/F/H, one B and one C run serve all four i, and
    # P, A and D take one run per i
    assert len(runs) == 15


def test_counting_suite_has_one_task_per_k():
    assert build_tasks("counting", k=4, n_max=60) == [("counting", 4, (1, 2, 3, 4), 60)]
    assert build_tasks("counting", i=2, n_max=5) == [("counting", 2, (2,), 5),
                                                     ("counting", 3, (2,), 5)]


def test_counting_suite_matches_per_pair_verdicts_on_m_n_tables():
    pairs = [(4, i) for i in range(1, 5)]
    ofh, p = overpartition_ofh_tables(60, pairs), overpartition_p_counts(60, pairs)
    part = partition_family_tables(60, pairs)
    want = [verify_counting(theorem, 4, i, 60, ofh_tables=ofh, p_counts=p, partition_tables=part)
            for i in range(1, 5) for theorem in ("T1.1", "T1.2", "T1.5")]
    want.sort(key=lambda r: (r.identity, r.params["i"]))
    assert _as_json(run_suite("counting", k=4, n_max=60, jobs=1)) == _as_json(want)


@pytest.mark.parametrize("tag", sorted(verify._ENUM_FAMILY))
def test_bivariate_verdict_builds_one_count_table(monkeypatch, tag):
    runs = []
    real = partitions._count_tables

    def counted(*args, **kwargs):
        runs.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(partitions, "_count_tables", counted)
    assert verify_identity(tag, 3, 2, 12).ok
    assert len(runs) == 1  # its own family (B or C), or O with its F/H split


def test_partition_family_tables_builds_the_named_families():
    full = partition_family_tables(12, [(3, 2)])
    some = partition_family_tables(12, [(3, 2)], families="DB")
    assert sorted(some) == [("B", 3, 2), ("D", 3, 2)]
    assert all(some[key] == full[key] for key in some)


def test_partition_bucket_tables_count_the_members_of_b():
    # the table read against the family filter, which stays the oracle
    from collections import Counter

    from ggkit.partitions import satisfies_family
    from ggkit.verify import collect_partition_buckets

    buckets = collect_partition_buckets(3, 3, 16)
    for rows, bucket in buckets.items():
        for k in range(1, 6):
            for i in range(1, k + 1):
                want = Counter(sum(parts) for parts in bucket
                               if satisfies_family(parts, FamilySpec("B", k, i)))
                assert bucket.histogram("B", k, i) == want, (rows, k, i)
    assert sum(len(b) for b in buckets.values()) == sum(
        sum(h.values()) for b in buckets.values() for (h,) in b.table.values())


# -- start-up footprint, the forked workers and the report records ----------


def _python(code):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_ggkit_loads_neither_the_pool_nor_dataclasses():
    assert _python("import sys, ggkit; print(sorted(m for m in ('concurrent.futures', "
                   "'multiprocessing', 'dataclasses', 'inspect') if m in sys.modules))") == "[]"
    # a run over two workers forks them itself: no pool module is ever loaded
    assert _python("import sys; from ggkit.verify import run_suite; "
                   "reps = run_suite('all', T=10, n_max=6, jobs=2); "
                   "assert reps and all(r.ok for r in reps); "
                   "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
                   "if m in sys.modules))") == "[]"


def test_run_suite_all_with_a_pool_equals_the_serial_run():
    seq = run_suite("all", T=20, n_max=8, jobs=1)
    par = run_suite("all", T=20, n_max=8, jobs=2)
    assert _as_json(par) == _as_json(seq)
    assert any(rep.identity == "LIMIT" for rep in par)
    assert any(rep.identity == "BIJECTIONS" for rep in par)


@pytest.fixture
def reaped():
    """Fail a fan-out that hangs (SIGALRM after 60 s), and check that no child
    of this process, running or exited, remains after it."""
    import os
    import signal

    def hung(signum, frame):
        raise TimeoutError("the fan-out hung")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_raising_chain_raises_the_same_error_with_and_without_a_pool(reaped, monkeypatch):
    def broken(k, i, T=40, n_depth=6):
        raise bailey.LimitDiagnosticError(f"chain k={k} i={i} broke")

    monkeypatch.setattr(verify, "verify_bailey", broken)
    errors = []
    for jobs in (1, 2):
        with pytest.raises(bailey.LimitDiagnosticError) as info:
            run_suite("all", T=20, n_max=8, jobs=jobs)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (bailey.LimitDiagnosticError, "chain k=2 i=1 broke")


def _trivial_tasks(n):
    return [("identity", j) for j in range(n)]


def test_a_raising_in_parent_kills_the_workers_it_does_not_wait_for_them(reaped, monkeypatch):
    import time

    monkeypatch.setattr(verify, "_run_task", lambda task: time.sleep(60))

    def in_parent():
        raise bailey.LimitDiagnosticError("the chains broke")

    start = time.monotonic()
    with pytest.raises(bailey.LimitDiagnosticError, match="the chains broke"):
        verify._run_tasks(_trivial_tasks(4), 2, in_parent)
    assert time.monotonic() - start < 30


def test_a_worker_killed_mid_task_raises_a_runtime_error_naming_the_task(reaped, monkeypatch):
    import os
    import signal

    def task_kills_its_worker(task):
        if task[1] == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return task

    monkeypatch.setattr(verify, "_run_task", task_kills_its_worker)
    with pytest.raises(RuntimeError, match=r"died before sending the result of task 3, "
                                           r"\('identity', 3\)"):
        verify._run_tasks(_trivial_tasks(8), 2)


def test_a_worker_killed_mid_task_fails_the_run_at_once(reaped, monkeypatch):
    import os
    import signal
    import time

    def task_0_kills_its_worker(task):  # the other worker sleeps through the rest
        if task[1] == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(30)
        return task

    monkeypatch.setattr(verify, "_run_task", task_0_kills_its_worker)
    start = time.monotonic()
    with pytest.raises(verify.WorkerError, match=r"died before sending the result of task 0, "
                                                 r"\('identity', 0\)$"):
        verify._run_tasks(_trivial_tasks(4), 2)
    assert time.monotonic() - start < 10


def test_the_first_failing_task_in_task_order_raises(reaped, monkeypatch):
    import time

    def two_fail(task):
        if task[1] == 1:
            time.sleep(0.3)  # task 4 raises first in time
            raise KeyError("task 1")
        if task[1] == 4:
            raise IndexError("task 4")
        return task

    monkeypatch.setattr(verify, "_run_task", two_fail)
    with pytest.raises(KeyError, match="task 1"):
        verify._run_tasks(_trivial_tasks(8), 2)


def test_more_task_indices_than_a_pipe_holds_complete(reaped, monkeypatch):
    import time

    def slow_parent():  # the workers fill their result pipes meanwhile
        time.sleep(0.2)
        return []

    tasks = _trivial_tasks(20_000)  # 80 000 bytes of indices, past a 64 KiB pipe
    monkeypatch.setattr(verify, "_run_task", lambda task: task)
    assert verify._run_tasks(tasks, 2, slow_parent) == tasks


class _TwoArgError(Exception):
    def __init__(self, a, b):  # pickles, but cannot be rebuilt from its args
        super().__init__(f"{a} and {b}")


def _with_a_lambda():
    exc = ValueError("holds a lambda")
    exc.hook = lambda: None  # pickle cannot send a lambda
    return exc


@pytest.mark.parametrize("make", [lambda: _TwoArgError("x", "y"), _with_a_lambda])
def test_an_exception_that_cannot_be_pickled_comes_back_as_a_runtime_error(
        reaped, monkeypatch, make):
    def raises(task):
        if task[1] == 2:
            raise make()
        return task

    monkeypatch.setattr(verify, "_run_task", raises)
    with pytest.raises(RuntimeError, match="cannot be sent back") as info:
        verify._run_tasks(_trivial_tasks(4), 2)
    assert repr(make()) in str(info.value)


def test_no_fork_means_one_worker(monkeypatch):
    import os

    from ggkit.verify import _worker_count

    monkeypatch.delattr(os, "fork")
    assert _worker_count(4, 44, 8) == 1


def test_records_pickle_and_compare_by_value():
    import pickle

    from ggkit.bijections import Trace, phi_full
    from ggkit.marking import classify_f, gg_mark
    from ggkit.verify import VerificationReport

    rep = VerificationReport("LIMIT", {"k": 3, "i": 1}, 20, False, "first difference at q^3")
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep and back is not rep and repr(back) == repr(rep)
    assert back != VerificationReport("LIMIT", {"k": 3, "i": 1}, 20, True)
    assert repr(rep) == ("VerificationReport(identity='LIMIT', params={'k': 3, 'i': 1}, "
                         "truncation=20, ok=False, detail='first difference at q^3')")
    with pytest.raises(TypeError):
        hash(rep)
    trace = Trace()
    phi_full(Overpartition.from_text("1~,3,5~,6"), trace)
    marked = gg_mark(Overpartition.from_text("1~,3,5~,6"))
    for obj in (FamilySpec("O", 3, 1), marked, classify_f(marked, 1), trace, trace.steps[0]):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and repr(back) == repr(obj)
    assert hash(pickle.loads(pickle.dumps(marked))) == hash(marked)
    assert repr(FamilySpec("O", 3, 1)) == "FamilySpec(family='O', k=3, i=1)"
    assert repr(marked) == "MarkedOverpartition(base=Overpartition('1~,3,5~,6'), marks=(1, 1, 1, 2))"
    assert len(marked) == 4 and Trace() == Trace() and Trace().steps is not Trace().steps
