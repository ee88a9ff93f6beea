"""The facts a swept overpartition carries, against a fresh computation.

The marking walk hands out objects built from interned Parts with their
O-family stats already in the memo slot; ``gg_mark`` memoizes the first-row
indices and the phi/psi flags beside the marks; a step takes its replacement
Parts from the interned table, builds its output in part order and checks only
the parts it replaced; the toggles build theirs in part order.  Each shortcut is
checked here against the route it replaced: the stats from the FrequencyTable,
the first row from a scan of the marks, the flags from ``is_clearable``, the
Parts and the outputs from the Part and Overpartition constructors.  No shortcut
carries a weight: a step that returns a part one unit light fails its weight law.
"""

import pytest

from ggkit import bijections, verify
from ggkit.bijections import WeightMismatchError, fh_toggle, fh_untoggle, phi_step
from ggkit.marking import PreconditionError, _walk, gg_mark, is_clearable
from ggkit.partitions import (
    FamilySpec,
    Overpartition,
    ParseError,
    Part,
    _part_table,
    _rank,
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


def test_memoized_flags_equal_is_clearable_of_the_first_row():
    for n in range(13):
        for op in enumerate_overpartitions(n):
            m = gg_mark(op)
            assert m._clearable() == [is_clearable(op.parts[j]) for j in m.row_indices(1)], op
            assert gg_mark(op)._clearable() is m._clearable()  # one list per object


def _flipped_smallest(parts: list) -> list:
    return [Part(parts[0].size, not parts[0].overlined)] + parts[1:]


def test_toggles_equal_the_constructor_route():
    members = [op for n in range(15) for op in enumerate_overpartitions(n)]
    toggled = untoggled = 0
    for k in range(1, 5):
        for i in range(1, k + 1):
            for op in members:
                if satisfies_family(op, FamilySpec("F", k, i)):
                    parts = _flipped_smallest(list(op.parts))
                    if i == 1 and any(p.size <= 2 for p in op.parts):
                        with pytest.raises(PreconditionError):
                            fh_toggle(op, k, i)
                        continue
                    if i == 1:
                        parts = [Part(p.size - 2, p.overlined) for p in parts]
                    assert fh_toggle(op, k, i).parts == Overpartition(parts).parts, (op, k, i)
                    toggled += 1
                if satisfies_family(op, FamilySpec("H", k, i - 1 if i >= 2 else k)):
                    parts = list(op.parts)
                    if i == 1:
                        parts = [Part(p.size + 2, p.overlined) for p in parts]
                    out = fh_untoggle(op, k, i)
                    assert out.parts == Overpartition(_flipped_smallest(parts)).parts, (op, k, i)
                    untoggled += 1
    assert toggled > 1000 and untoggled > 1000


def test_every_case_part_equals_the_constructor_route(cold_memos, monkeypatch):
    interned, calls = bijections._part, [0]

    def checked(cases):
        def run(m, row1, p, part, subcase):
            got = cases(m, row1, p, part, subcase)
            bijections._part = Part
            try:
                want = cases(m, row1, p, part, subcase)
            finally:
                bijections._part = interned
            assert got == want, (m, p)
            for new in got[1].values():
                assert type(new) is Part and new == Part(new.size, new.overlined)
                assert new is _part_table(new.size)[_rank(new)]
            calls[0] += 1
            return got
        return run

    for name in ("_phi_cases", "_psi_cases", "_theta_cases", "_lambda_cases"):
        monkeypatch.setattr(bijections, name, checked(getattr(bijections, name)))
    rep = verify.verify_bijections(4, 4, 12)
    assert rep.ok, rep
    assert calls[0] > 1000


def _one_unit_light(cases):
    """cases with its largest replaced part made plain and one unit smaller: a
    valid replacement (size >= 1, no overlined part added) whose weight is 1 short."""
    def light(m, row1, p, part, subcase):
        label, repl = cases(m, row1, p, part, subcase)
        idx = max(repl, key=lambda j: repl[j].size)
        repl[idx] = Part(repl[idx].size - 1, False)
        return label, repl
    return light


def test_a_step_one_unit_light_fails_the_weight_law(cold_memos, monkeypatch):
    # phi at position 2 of 1~,3,5~ turns the 3 into 5~ and the 5~ into 5: the
    # light step gives 1~,4,5 of weight 10, not the 1~,5~,5 of weight 11 it owes
    monkeypatch.setattr(bijections, "_phi_cases", _one_unit_light(bijections._phi_cases))
    with pytest.raises(WeightMismatchError, match="phi_step: weight 10, expected 11"):
        phi_step(Overpartition.from_text("1~,3,5~"), 2)
    with pytest.raises(WeightMismatchError, match="phi_step"):
        verify.verify_bijections(3, 3, 10)
