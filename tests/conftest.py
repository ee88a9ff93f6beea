"""Shared exhaustive-count fixtures, and the fixture that empties every memo.

The count tables are session-scoped: one size-by-size DP per (k, i) up to
weight 40 feeds both the counting theorems and the bivariate identity checks,
and one bucketed enumeration pass feeds every profile-class comparison.
"""

import pytest

from ggkit import bailey, bijections, marking, partitions, series, verify
from ggkit.partitions import (
    overpartition_ofh_tables,
    overpartition_p_counts,
    partition_family_tables,
)
from ggkit.verify import collect_class_buckets, collect_partition_buckets

PAIRS4 = [(k, i) for k in range(1, 5) for i in range(1, k + 1)]
PAIRS3 = [(k, i) for k in range(2, 4) for i in range(1, k + 1)]


def _clear_module_memos():
    for mod in (bailey, bijections, marking, partitions, series, verify):
        for fn in list(vars(mod).values()):
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.fixture
def cold_memos():
    """Empty every module-level memo before and after the test.  A test that
    patches a map or a transform, or doctors a chain stage, needs it: a warm
    memo answers without calling the patched code, and a doctored value kept in
    a memo would reach the tests after it.  List it before ``monkeypatch`` so
    the patches are undone before the memos are emptied."""
    _clear_module_memos()
    yield
    _clear_module_memos()


@pytest.fixture(scope="session")
def ofh_tables_40():
    return overpartition_ofh_tables(40, PAIRS4)


@pytest.fixture(scope="session")
def p_counts_25():
    return overpartition_p_counts(25, PAIRS4)


@pytest.fixture(scope="session")
def partition_tables_40():
    return partition_family_tables(40, PAIRS4)


@pytest.fixture(scope="session")
def class_buckets():
    # weight reach 39 = 30 + 3^2 so the shifted comparisons stay exact at T=30
    return collect_class_buckets(3, 3, 39)


@pytest.fixture(scope="session")
def partition_class_buckets():
    return collect_partition_buckets(3, 3, 30)
