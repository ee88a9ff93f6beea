"""The prefix-pruned marking walk against the enumerate-mark-filter route.

``collect_class_buckets`` and the bijection sweep take their objects from
``marking._walk``, which marks each prefix once and cuts a subtree as soon as
a monotone bound fails.  These tests keep the slow route (enumerate, mark with
``gg_mark``, filter) as the oracle at small bounds, and check the monotonicity
that makes the cuts exact.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggkit.marking import _walk, gg_mark, in_stable_class, is_doubled, is_reduced
from ggkit.partitions import (
    FamilySpec,
    Overpartition,
    Part,
    enumerate_overpartitions,
    iter_overpartitions_bounded,
    o_family_stats,
    satisfies_family,
)
from ggkit.verify import ClassRecord, _o_caps, collect_class_buckets


def _slow_class_buckets(n1_max, rows_max, weight_max):
    buckets = {}
    for op in iter_overpartitions_bounded(weight_max, n1_max * rows_max):
        rows = gg_mark(op).row_counts()
        if op.parts and (len(rows) > rows_max or rows[0] > n1_max):
            continue
        fb, mw, c3 = o_family_stats(op.freq_table())
        buckets.setdefault(rows, []).append(ClassRecord(
            op, op.weight(), fb, mw, c3, in_stable_class(op), is_reduced(op), is_doubled(op)))
    return buckets


@pytest.mark.parametrize("n1_max,rows_max,weight_max", [(1, 1, 12), (2, 2, 14), (2, 3, 15), (3, 3, 16)])
def test_class_buckets_match_enumerate_and_filter(n1_max, rows_max, weight_max):
    fast = collect_class_buckets(n1_max, rows_max, weight_max)
    slow = _slow_class_buckets(n1_max, rows_max, weight_max)
    assert list(fast.items()) == list(slow.items())


def test_bucket_tables_count_the_records_in_class():
    # the table read against the per-record membership rule, which stays the oracle
    for rows, bucket in collect_class_buckets(3, 3, 16).items():
        for k in range(1, 6):
            for i in range(1, k + 1):
                for cls in "FGE":
                    want = Counter(rec.weight for rec in bucket if rec.in_class(cls, k, i))
                    assert bucket.histogram(cls, k, i) == want, (rows, cls, k, i)


def test_sweep_members_match_enumerate_and_filter():
    for k in range(1, 5):
        for i in range(1, k + 1):
            spec = FamilySpec("O", k, i)
            for n in range(11):
                want = [op for op in enumerate_overpartitions(n) if satisfies_family(op, spec)]
                got = [op for op, *_ in _walk(n, exact=True, o_caps=_o_caps(k, i))]
                assert got == want, (k, i, n)


def test_walked_row_counts_equal_a_fresh_marking():
    for k in range(1, 5):
        for i in range(1, k + 1):
            for n in range(11):
                for op, rows, *_ in _walk(n, exact=True, o_caps=_o_caps(k, i)):
                    assert op._marking is None, op  # the walk leaves the marking to gg_mark
                    assert rows == gg_mark(op).row_counts(), op


@st.composite
def overpartitions(draw):
    parts = draw(st.lists(st.tuples(st.integers(1, 12), st.booleans()), max_size=14))
    seen = set()
    kept = []
    for s, ov in parts:
        ov = ov and s not in seen  # at most one overlined part per size
        if ov:
            seen.add(s)
        kept.append(Part(s, ov))
    return Overpartition(kept)


def _grew(before, after):
    return len(before) <= len(after) and all(a <= b for a, b in zip(before, after))


@settings(max_examples=300, deadline=None)
@given(overpartitions())
def test_marking_is_fixed_by_prefixes_and_bounds_only_grow(op):
    whole = gg_mark(op)
    rows, stats = (), o_family_stats(Overpartition().freq_table())
    for j in range(1, len(op.parts) + 1):
        prefix = Overpartition(op.parts[:j])
        m = gg_mark(prefix)
        assert m.marks == whole.marks[:j]
        assert _grew(rows, m.row_counts())
        assert _grew(stats, o_family_stats(prefix.freq_table()))
        rows, stats = m.row_counts(), o_family_stats(prefix.freq_table())


@settings(max_examples=100, deadline=None)
@given(overpartitions())
def test_memoized_marking_equals_a_fresh_one(op):
    first = gg_mark(op)
    assert gg_mark(op) == first
    assert first.marks == gg_mark(Overpartition(op.parts)).marks
