import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ggkit.partitions import (
    FamilyKindError,
    FamilySpec,
    Overpartition,
    ParseError,
    Part,
    count_family,
    count_family_bivariate,
    enumerate_overpartitions,
    enumerate_partitions,
    family_counts_by_n,
    overpartition_ofh_tables,
    overpartition_p_counts,
    partition_family_tables,
    satisfies_family,
)
from ggkit.series import inverse_euler_product, pochhammer_infinite
from ggkit.verify import product_rhs

PAIRS = [(k, i) for k in range(1, 5) for i in range(1, k + 1)]


def test_overpartition_counts_small():
    assert [sum(1 for _ in enumerate_overpartitions(n)) for n in range(6)] == [1, 2, 4, 8, 14, 24]


def test_overpartition_counts_match_generating_function_to_30():
    # object enumeration up to 20; run-level counting (one visit per
    # overpartition, each size run carrying its two overline variants) to 30
    T = 30
    gf = pochhammer_infinite(-1, 1, 1, T) * inverse_euler_product(T)
    counts = [0] * (T + 1)

    def rec(smin, rem, mult):
        counts[T - rem] += mult
        for s in range(smin, rem + 1):
            for c in range(s, rem + 1, s):
                rec(s + 1, rem - c, 2 * mult)

    rec(1, T, 1)
    for n in range(T + 1):
        assert counts[n] == gf.coefficient(n), n
    for n in range(21):
        assert counts[n] == sum(1 for _ in enumerate_overpartitions(n)), n


def test_enumeration_order_n2():
    got = [op.to_text() for op in enumerate_overpartitions(2)]
    assert got == ["1~,1", "1,1", "2~", "2"]


def test_enumeration_no_duplicates():
    for n in range(9):
        ops = list(enumerate_overpartitions(n))
        assert len(ops) == len(set(ops))
        assert all(op.weight() == n for op in ops)


def test_partition_counts():
    assert sum(1 for _ in enumerate_partitions(0)) == 1
    assert list(enumerate_partitions(1)) == [(1,)]
    assert sum(1 for _ in enumerate_partitions(4)) == 5
    pgf = inverse_euler_product(14)
    for n in range(15):
        assert sum(1 for _ in enumerate_partitions(n)) == pgf.coefficient(n)


def test_parse_and_format():
    op = Overpartition.from_text("1~,1,2~,2,3~,4~,6,7,8,8")
    assert op.weight() == 42 and len(op) == 10
    assert op.to_text() == "1~,1,2~,2,3~,4~,6,7,8,8"
    assert Overpartition.from_text("-") == Overpartition()
    assert Overpartition.from_text("") == Overpartition()
    # unicode overline accepted on input
    assert Overpartition.from_text("3̅,4") == Overpartition.from_text("3~,4")
    round_trip = Overpartition.from_json(op.to_json())
    assert round_trip == op


def test_parse_errors():
    with pytest.raises(ParseError):
        Overpartition.from_text("1x")
    with pytest.raises(ParseError):
        Overpartition.from_text("2~,2~")
    with pytest.raises(ParseError):
        Overpartition([Part(0, False)])


def test_part_order_in_constructor():
    op = Overpartition([Part(2, False), Part(1, False), Part(2, True), Part(1, True)])
    assert [p.size for p in op] == [1, 1, 2, 2]
    assert [p.overlined for p in op] == [True, False, True, False]


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("Z", 2, 1)
    with pytest.raises(ValueError):
        FamilySpec("O", 1, 2)


def test_family_kind_mismatch():
    with pytest.raises(FamilyKindError):
        satisfies_family((1, 2), FamilySpec("O", 2, 1))
    with pytest.raises(FamilyKindError):
        satisfies_family(Overpartition.from_text("1"), FamilySpec("B", 2, 1))


def test_family_O_hand_example():
    # a plain 1 next to a plain 2 violates the odd-then-even cap at k=2
    op = Overpartition.from_text("1,2")
    assert not satisfies_family(op, FamilySpec("O", 2, 2))
    assert satisfies_family(op, FamilySpec("O", 3, 2))


def test_empty_object_memberships():
    empty = Overpartition()
    for fam in "OP":
        assert satisfies_family(empty, FamilySpec(fam, 2, 1))
    for fam in "FH":
        assert not satisfies_family(empty, FamilySpec(fam, 2, 1))
    for fam in "CDAB":
        assert satisfies_family((), FamilySpec(fam, 2, 1))


def test_counts_at_zero():
    for fam in "OPCDAB":
        assert count_family(FamilySpec(fam, 2, 2), 0) == 1
    for fam in "FH":
        assert count_family(FamilySpec(fam, 2, 2), 0) == 0


def test_hand_checked_cell():
    assert count_family(FamilySpec("O", 2, 2), 3) == 6
    assert count_family(FamilySpec("P", 2, 2), 3) == 6


def test_fh_split_partitions_nonempty_members():
    for k, i in [(2, 2), (3, 1), (3, 2)]:
        for n in range(1, 11):
            o = count_family(FamilySpec("O", k, i), n)
            f = count_family(FamilySpec("F", k, i), n)
            h = count_family(FamilySpec("H", k, i), n)
            assert o == f + h, (k, i, n)
            for op in enumerate_overpartitions(n):
                in_f = satisfies_family(op, FamilySpec("F", k, i))
                in_h = satisfies_family(op, FamilySpec("H", k, i))
                assert not (in_f and in_h)


def test_p_family_overline_restriction_scope():
    # for i < k only plain parts are restricted; overlined parts are free
    op = Overpartition.from_text("6~")
    assert satisfies_family(op, FamilySpec("P", 2, 1))      # plain 6 would be barred
    assert not satisfies_family(Overpartition.from_text("6"), FamilySpec("P", 2, 1))
    # for i = k both kinds are restricted (no part divisible by 2k-1)
    assert not satisfies_family(Overpartition.from_text("3~"), FamilySpec("P", 2, 2))


@pytest.mark.parametrize("k,i", [(2, 1), (2, 2), (3, 2)])
def test_p_family_matches_product_expansion(k, i):
    rhs = product_rhs("OGG", k, i, 14)
    for n in range(15):
        assert count_family(FamilySpec("P", k, i), n) == rhs.coefficient(n)


def test_c_family_small():
    assert count_family(FamilySpec("C", 2, 2), 2) == 1
    assert count_family(FamilySpec("D", 2, 2), 2) == 1
    assert count_family(FamilySpec("C", 1, 1), 5) == 0
    assert count_family(FamilySpec("A", 1, 1), 5) == 0


def test_bivariate_counts():
    got = count_family_bivariate(FamilySpec("O", 2, 2), 3)
    assert sum(got.values()) == 6
    assert got == {1: 2, 2: 2, 3: 2}


@pytest.mark.parametrize("n_max", [10, 11])
def test_sweeps_match_object_filters(n_max):
    tabs = overpartition_ofh_tables(n_max, PAIRS)
    ptabs = partition_family_tables(n_max, PAIRS)
    pc = overpartition_p_counts(n_max, PAIRS)
    for (k, i) in PAIRS:
        for fam in "OFH":
            spec = FamilySpec(fam, k, i)
            for n in range(n_max + 1):
                want = count_family_bivariate(spec, n)
                got = {m: c for (m, nn), c in tabs[(fam, k, i)].items() if nn == n}
                assert got == want, (fam, k, i, n)
        for fam in "BCAD":
            spec = FamilySpec(fam, k, i)
            for n in range(n_max + 1):
                want = count_family_bivariate(spec, n)
                got = {m: c for (m, nn), c in ptabs[(fam, k, i)].items() if nn == n}
                assert got == want, (fam, k, i, n)
        assert pc[(k, i)] == [count_family(FamilySpec("P", k, i), n) for n in range(n_max + 1)]


def test_family_counts_by_n_collapse():
    tabs = overpartition_ofh_tables(6, [(2, 2)])
    by_n = family_counts_by_n(tabs[("O", 2, 2)], 6)
    assert by_n[3] == 6 and by_n[0] == 1


overpartitions = st.builds(
    lambda plain, over: Overpartition([Part(s, False) for s in plain] + [Part(s, True) for s in over]),
    st.lists(st.integers(1, 40), max_size=12),
    st.sets(st.integers(1, 40), max_size=8),
)


@given(overpartitions)
def test_overpartition_text_roundtrip(op):
    assert Overpartition.from_text(op.to_text()) == op


@given(overpartitions)
def test_overpartition_json_roundtrip(op):
    assert Overpartition.from_json(op.to_json()) == op
    assert Overpartition.from_json(json.loads(json.dumps(op.to_json()))) == op
