"""The bijection sweep's per-object step table and the per-step facts it reads.

``verify._object_checks`` opens one ``bijections._step_table()`` per object: the
checks it makes must not depend on it, it must be gone after every call, also
when a step raises, and a traced call must bypass it.  The first-row and subcase
facts a step reads come straight from the parts; the FrequencyTable versions
they replaced are kept here as the oracle.
"""

import contextlib

import pytest

from ggkit import bijections, verify
from ggkit.bijections import Trace, phi_full, phi_step, theta_full
from ggkit.marking import (
    PositionReport,
    PreconditionError,
    _f_subcase,
    _fbar_subcase,
    _positions,
    _walk,
    classify_f,
    first_row_types,
    gg_mark,
    in_stable_class,
    is_clearable,
    is_reduced,
)
from ggkit.partitions import Overpartition, ParseError, Part, enumerate_overpartitions

SMALL = [op for n in range(11) for op in enumerate_overpartitions(n)]
O33 = [op for n in range(13) for op, *_ in _walk(n, exact=True, o_caps=verify._o_caps(3, 3))]


def _checks(ops, table):
    """(checks, message) of _object_checks' body per object, with the step table
    or with the context helper replaced by a no-op."""
    results = []
    with pytest.MonkeyPatch.context() as mp:
        if not table:
            mp.setattr(verify, "_step_table", contextlib.nullcontext)
        for op in ops:
            results.append(verify._object_checks.__wrapped__(verify._object_key(op)))
            assert bijections._table is None, op
    return results


@pytest.mark.parametrize("ops", [SMALL, O33], ids=["weight<=10", "O(3,3) weight<=12"])
def test_step_table_leaves_every_object_check_unchanged(ops):
    assert _checks(ops, table=True) == _checks(ops, table=False)


def _raising_lambda_cases(monkeypatch):
    """Make every lambda step at position 2 raise, after the object's phi checks
    and its theta_full have taken steps that filled the table."""
    cases = bijections._lambda_cases

    def broken(m, row1, p, part, subcase):
        if p == 2:
            raise RuntimeError(f"lambda step at 2 on {m.base!r}")
        return cases(m, row1, p, part, subcase)

    monkeypatch.setattr(bijections, "_lambda_cases", broken)


def _outcome(key):
    try:
        return verify._object_checks.__wrapped__(key)
    except RuntimeError as exc:
        return str(exc)


def test_a_step_raising_partway_leaves_no_table_behind(cold_memos, monkeypatch):
    _raising_lambda_cases(monkeypatch)
    keys = [verify._object_key(op) for op in SMALL if is_reduced(op)]
    with_table = []
    for key in keys:
        with_table.append(_outcome(key))
        assert bijections._table is None
    assert any(isinstance(out, str) for out in with_table)
    monkeypatch.setattr(verify, "_step_table", contextlib.nullcontext)
    assert [_outcome(key) for key in keys] == with_table


def test_a_raising_step_is_not_stored():
    op = Overpartition.from_text("2,4")
    with bijections._step_table():
        for _ in range(2):
            with pytest.raises(PreconditionError):
                phi_step(op, 1)
        assert not [key for key in bijections._table if key[0] == "phi"]
    assert bijections._table is None


@pytest.mark.parametrize("full, domain", [(phi_full, in_stable_class), (theta_full, is_reduced)])
def test_traced_full_maps_bypass_the_table(full, domain):
    for op in SMALL:
        if not domain(op):
            continue
        outside = Trace()
        want = full(op, outside)
        with bijections._step_table():
            full(op)  # fills the table with every step of the path
            inside = Trace()
            assert full(op, inside) == want
        assert inside == outside, op


def test_outputs_are_interned_by_parts():
    op = Overpartition.from_text("1~,2,4~,4,4,7,8,8,10,11~,13~")
    with bijections._step_table():
        signed, out = phi_full(op)
        assert bijections.psi_full(signed, out) is op
        assert phi_full(op)[1] is out


# -- the per-step facts against the FrequencyTable versions they replaced ----

def _old_f_subcase(m, row1, p):
    op = m.base
    ft = op.freq_table()
    part = op.parts[row1[p - 1]]
    if not part.overlined:
        prev = op.parts[row1[p - 2]]
        if ft.f(part.size + 1) > 0 and prev.size <= part.size - 2:
            return 2
        return 1
    return 4 if ft.fbar(part.size + 1) else 3


def _old_fbar_subcase(m, row1, p):
    op = m.base
    ft = op.freq_table()
    part = op.parts[row1[p - 1]]
    nxt = op.parts[row1[p]].size if p < len(row1) else None
    if part.overlined:
        if ft.f(part.size + 1) > 0 and (nxt is None or nxt >= part.size + 2):
            return 4
        return 1
    if not ft.fbar(part.size + 1):
        return 3
    if ft.f(part.size + 2) > 0 and (nxt is None or nxt > part.size + 2):
        return 4
    return 2


def _old_classify_f(m, p):
    flags = [is_clearable(q) for q, mk in zip(m.base.parts, m.marks) if mk == 1]
    pending, advanced, cleared = _positions(flags, p)
    sub = None
    if pending:
        sub = _old_f_subcase(m, m.row_indices(1), p)
    elif advanced:
        sub = _old_fbar_subcase(m, m.row_indices(1), p)
    return PositionReport(p, pending, advanced, cleared, sub)


def test_first_row_facts_match_the_frequency_table_versions():
    seen = 0
    for n in range(15):
        for op in enumerate_overpartitions(n):
            stable, reduced = in_stable_class(op), is_reduced(op)
            if not (stable or reduced):
                continue
            m = gg_mark(op)
            row1 = m.row_indices(1)
            assert m._first_row() == row1
            if reduced:
                ft = op.freq_table()
                assert first_row_types(m) == [
                    "O" if p.overlined or ft.fbar(p.size + 1) else "E"
                    for p in m.sub_overpartition(1)], op
            if stable:
                for p in range(1, len(row1) + 1):
                    assert classify_f(gg_mark(op), p) == _old_classify_f(gg_mark(op), p), (op, p)
                    assert _f_subcase(m, row1, p) == _old_f_subcase(m, row1, p), (op, p)
                    assert _fbar_subcase(m, row1, p) == _old_fbar_subcase(m, row1, p), (op, p)
            seen += 1
    assert seen == 1630  # every stable or reduced overpartition of weight <= 14


def test_constructor_still_validates_parts_given_as_parts():
    with pytest.raises(ParseError, match="duplicate overlined part of size 3"):
        Overpartition([Part(3, True), Part(3, True)])
    with pytest.raises(ParseError, match="part size must be positive, got 0"):
        Overpartition([Part(0, False)])
    with pytest.raises(ValueError):
        Overpartition([Part(2, False), (1, True, 0)])
    assert Overpartition([Part(2, False), (1, 1)]).parts == (Part(1, True), Part(2, False))
