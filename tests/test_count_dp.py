"""The packed transfer matrix against the dict DP it replaced, and the top-down
walk against the bottom-up route it replaced.

`dict_count_tables` moves one {(m, n): count} entry at a time; patched in for
`partitions._count_tables`, it runs the three public sweeps with the same
steps, states and groups.  The `bottom_up_*` sweeps keep the old steps, one run
per (family, k, i).  Each sweep is exact for every weight up to its bound, so
one oracle run at n = 40, cut down to weight n, is the table at n.  The
per-weight tables (one slot per weight, no m axis) must equal the (m, n)
tables collapsed to per-weight totals, and the bottom-up route likewise.
"""

import pytest
from dict_count_dp import (
    bottom_up_family_tables,
    bottom_up_ofh_tables,
    bottom_up_p_counts,
    dict_count_tables,
)

from ggkit import partitions
from ggkit.partitions import (
    CountOverflowError,
    family_counts_by_n,
    overpartition_ofh_tables,
    overpartition_p_counts,
    partition_family_tables,
)

PAIRS = [(k, i) for k in range(1, 5) for i in range(1, k + 1)]
N = 40
SWEEPS = [overpartition_ofh_tables, overpartition_p_counts, partition_family_tables]


def _cut(tables: dict, n: int) -> dict:
    """Every table of a sweep cut down to the weights <= n."""
    out = {}
    for key, table in tables.items():
        if isinstance(table, list):  # per-n counts
            out[key] = table[:n + 1]
        else:
            out[key] = {mn: c for mn, c in table.items() if mn[1] <= n}
    return out


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_packed_sweeps_match_dict_dp(monkeypatch, sweep):
    with monkeypatch.context() as m:
        m.setattr(partitions, "_count_tables", dict_count_tables)
        oracle = sweep(N, PAIRS)
    for n in range(N + 1):
        assert sweep(n, PAIRS) == _cut(oracle, n), n


@pytest.mark.parametrize("sweep, bottom_up", zip(SWEEPS, [
    bottom_up_ofh_tables, bottom_up_p_counts, bottom_up_family_tables]), ids=lambda f: f.__name__)
def test_top_down_sweeps_match_the_bottom_up_route(sweep, bottom_up):
    oracle = bottom_up(N, PAIRS)
    for n in range(N + 1):
        assert sweep(n, PAIRS) == _cut(oracle, n), n


@pytest.mark.parametrize("families, runs", [
    ("OFH", 4),  # one O/F/H run per k serves every i
    ("BC", 8),   # one B and one C run per k
    ("AD", 20),  # A and D ban residues that read i at every size
    ("P", 10),   # so does P
])
def test_one_frequency_run_per_family_and_k(monkeypatch, families, runs):
    made = []
    real = partitions._count_tables

    def counted(*args, **kwargs):
        made.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(partitions, "_count_tables", counted)
    if families == "OFH":
        overpartition_ofh_tables(12, PAIRS)
    elif families == "P":
        overpartition_p_counts(12, PAIRS)
    else:
        partition_family_tables(12, PAIRS, families)
    assert len(made) == runs


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_narrow_slots_raise_and_return_no_tables(monkeypatch, sweep):
    n, pairs = 24, [(4, 4)]
    widest = []

    def recording(*args, **kwargs):
        tables = dict_count_tables(*args, **kwargs)
        widest.extend(max(t if isinstance(t, list) else t.values()) for t in tables.values())
        return tables

    with monkeypatch.context() as m:
        m.setattr(partitions, "_count_tables", recording)
        sweep(n, pairs)
    assert max(widest) > 127  # some slot cannot fit one signed byte
    monkeypatch.setattr(partitions, "_count_slot_bytes", lambda n_max, overlines: 1)
    got = None
    with pytest.raises(CountOverflowError):
        got = sweep(n, pairs)
    assert got is None
    assert not issubclass(CountOverflowError, ValueError)


# -- the per-weight mode ----------------------------------------------------

PER_WEIGHT = [
    ("OFH", lambda n: overpartition_ofh_tables(n, PAIRS, by_weight=True), bottom_up_ofh_tables),
    ("P", lambda n: overpartition_p_counts(n, PAIRS), bottom_up_p_counts),
    ("BCAD", lambda n: partition_family_tables(n, PAIRS, by_weight=True), bottom_up_family_tables),
]


def _per_weight(tables: dict, n: int) -> dict:
    """Every table of a sweep as its per-n totals up to weight n."""
    return {key: table[:n + 1] if isinstance(table, list) else family_counts_by_n(table, n)
            for key, table in tables.items()}


@pytest.mark.parametrize("families, sweep, bottom_up", PER_WEIGHT,
                         ids=[f for f, _, _ in PER_WEIGHT])
def test_per_weight_tables_match_the_m_n_tables_and_the_bottom_up_route(
        monkeypatch, families, sweep, bottom_up):
    oracle = bottom_up(N, PAIRS)
    real = partitions._count_tables

    def m_n_collapsed(n_max, *args, by_weight=False, **kwargs):
        tables = real(n_max, *args, **kwargs)
        return _per_weight(tables, n_max) if by_weight else tables

    for n in range(N + 1):
        got = sweep(n)
        assert all(len(table) == n + 1 for table in got.values())
        assert got == _per_weight(oracle, n), n
        with monkeypatch.context() as m:
            m.setattr(partitions, "_count_tables", m_n_collapsed)
            assert sweep(n) == got, n
    if families != "P":
        assert {key[0] for key in got} == set(families)


@pytest.mark.parametrize("sweep", [sweep for _, sweep, _ in PER_WEIGHT],
                         ids=[f for f, _, _ in PER_WEIGHT])
def test_per_weight_mode_raises_under_one_byte_slots(monkeypatch, sweep):
    n = 24
    assert max(max(table) for table in sweep(n).values()) > 127
    monkeypatch.setattr(partitions, "_count_slot_bytes", lambda n_max, overlines: 1)
    with pytest.raises(CountOverflowError):
        sweep(n)


def test_m_n_tables_record_their_reach():
    for tables in (overpartition_ofh_tables(7, PAIRS), partition_family_tables(7, PAIRS)):
        assert {table.n_max for table in tables.values()} == {7}


def test_slot_width_bounds_every_count():
    # 1-byte slots hold up to 127: 1+2+4+8+14+24+40 = 93 overpartitions of
    # weight <= 6, but 93 + 64 = 157 of weight <= 7
    assert partitions._count_slot_bytes(6, True) == 1
    assert partitions._count_slot_bytes(7, True) == 2
    # 1+1+2+3+5+7+11+15+22+30+42 = 139 partitions of weight <= 10
    assert partitions._count_slot_bytes(9, False) == 1
    assert partitions._count_slot_bytes(10, False) == 2
