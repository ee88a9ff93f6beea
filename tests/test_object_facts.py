"""The facts a swept overpartition carries, against a fresh computation.

The marking walk hands out objects built from interned Parts with their
O-family stats already in the memo slot; ``gg_mark`` memoizes the first-row
indices beside the marks; a step builds its output in part order and checks
only the parts it replaced.  Each shortcut is checked here against the route
it replaced: the stats from the FrequencyTable, the first row from a scan of
the marks, and the output from the Overpartition constructor.
"""

import pytest

from ggkit import bijections, verify
from ggkit.bijections import phi_step
from ggkit.marking import _walk, gg_mark
from ggkit.partitions import (
    FamilySpec,
    Overpartition,
    ParseError,
    Part,
    enumerate_overpartitions,
    o_family_stats,
    part_key,
    satisfies_family,
)

SPECS = [FamilySpec(fam, k, i) for fam in "OFHP" for k in range(1, 5) for i in range(1, k + 1)]


def test_walked_stats_equal_the_frequency_table_and_the_family_tests():
    walked = list(_walk(14))
    assert len(walked) == sum(1 for n in range(15) for _ in enumerate_overpartitions(n))
    for op, _, stats, _ in walked:
        assert op._o_stats is stats
        assert stats == o_family_stats(op.freq_table()), op
        fresh = Overpartition._from_ordered(op.parts)
        assert fresh._o_stats is None
        for spec in SPECS:
            assert satisfies_family(op, spec) == satisfies_family(fresh, spec), (op, spec)
        assert fresh._o_stats == stats  # filled on first use


def test_walk_shares_one_stats_tuple_per_value():
    stats = [st for _, _, st, _ in _walk(12)]
    assert len({id(st) for st in stats}) == len(set(stats))


def test_every_sweep_step_output_equals_the_constructor_route(cold_memos, monkeypatch):
    rewrite = bijections._rewrite
    steps = []

    def checked(parts, repl):
        out = rewrite(parts, repl)
        old = list(parts)
        for idx, new in repl.items():
            old[idx] = new
        want = Overpartition(old)
        assert out.parts == want.parts, (parts, repl)
        assert list(out.parts) == sorted(out.parts, key=part_key)
        assert out.weight() == want.weight()
        steps.append(out)
        return out

    monkeypatch.setattr(bijections, "_rewrite", checked)
    rep = verify.verify_bijections(4, 4, 12)
    assert rep.ok, rep
    assert len(steps) > 1000


@pytest.mark.parametrize("repl,message", [
    ({1: Part(0, False), 2: Part(10, True)}, "part size must be positive, got 0"),
    ({1: Part(5, True)}, "duplicate overlined part of size 5"),
])
def test_a_bad_replaced_part_raises_the_constructor_message(cold_memos, monkeypatch, repl,
                                                           message):
    # phi at position 2 of 1~,3,5~ adds weight 2, as both replacements do, so
    # only the replaced-part check can stop them
    op = Overpartition.from_text("1~,3,5~")
    monkeypatch.setattr(bijections, "_phi_cases", lambda m, row1, p, part, l: (l, dict(repl)))
    with pytest.raises(ParseError) as exc:
        phi_step(op, 2)
    assert str(exc.value) == message
    parts = list(op.parts)
    for idx, new in repl.items():
        parts[idx] = new
    with pytest.raises(ParseError) as old:
        Overpartition(parts)
    assert str(old.value) == message


def test_memoized_first_row_equals_a_scan_of_the_marks():
    for n in range(13):
        for op in enumerate_overpartitions(n):
            m = gg_mark(op)
            assert m._first_row() == m.row_indices(1), op
            assert gg_mark(op)._first_row() is m._first_row()  # one scan per object
