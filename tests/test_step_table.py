"""The bijection sweep's step table and the per-step facts it reads.

Each sweep call (``verify.verify_bijection_pairs``) opens one
``bijections._step_table()`` for its whole walk, cleared whenever it passes
``bijections._STEP_TABLE_SIZE`` entries: the checks the sweep makes must not
depend on it or on its bound, it must be gone after every sweep, also when a
step raises, and a traced call must bypass it.  The first-row and subcase facts
a step reads come straight from the parts; the FrequencyTable versions they
replaced are kept here as the oracle.
"""

import contextlib

import pytest

from ggkit import bijections, verify
from ggkit.bijections import Trace, phi_full, phi_step
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
BOUNDS = (0, 16, bijections._STEP_TABLE_SIZE)


def _sweep(pairs, n_max, table, bound=None, swallow=False):
    """Every object check of one sweep over pairs up to n_max, in walk order, and
    its per-weight result, with the step table at bound (the module's when None)
    or with the context helper replaced by a no-op; the object memo is bypassed,
    so every object is checked.  A check that raises RuntimeError is recorded as
    its message; with swallow, it then counts as passing with no checks, so the
    sweep goes on to check every object under the same table."""
    checked = []
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(bijections, "_STEP_TABLE_SIZE", bound)
        if not table:
            mp.setattr(verify, "_step_table", contextlib.nullcontext)
        body = verify._object_checks.__wrapped__

        def recorded(key):
            try:
                checked.append((key, body(key)))
            except RuntimeError as exc:
                checked.append((key, str(exc)))
                if not swallow:
                    raise
                return 0, None
            return checked[-1][1]

        mp.setattr(verify, "_object_checks", recorded)
        result = verify.verify_bijection_pairs(pairs, 0, n_max)
    assert bijections._table is None
    return checked, result


# O(11, 11) holds every overpartition of weight <= 10
@pytest.mark.parametrize("pairs, n_max, ops", [([(11, 11)], 10, SMALL), ([(3, 3)], 12, O33)],
                         ids=["weight<=10", "O(3,3) weight<=12"])
def test_step_table_leaves_every_object_check_unchanged(pairs, n_max, ops):
    want = _sweep(pairs, n_max, table=False)
    assert sorted(key for key, _ in want[0]) == sorted(map(verify._object_key, ops))
    for bound in BOUNDS:
        assert _sweep(pairs, n_max, table=True, bound=bound) == want, bound


@pytest.mark.parametrize("bound", BOUNDS)
def test_step_table_leaves_every_report_unchanged(bound):
    pairs = [(k, i) for k in range(1, 5) for i in range(1, k + 1)]

    def reports(table):
        result = _sweep(pairs, 12, table, bound)[1]
        return [rep.to_json() for rep in verify._bijection_reports(pairs, 12, result.__getitem__)]

    assert reports(table=True) == reports(table=False)


def _raising_lambda_cases(monkeypatch):
    """Make every lambda step at position 2 raise, after the object's phi checks
    and its theta_full have taken steps that filled the table."""
    cases = bijections._lambda_cases

    def broken(m, row1, p, part, subcase):
        if p == 2:
            raise RuntimeError(f"lambda step at 2 on {m.base!r}")
        return cases(m, row1, p, part, subcase)

    monkeypatch.setattr(bijections, "_lambda_cases", broken)


def _outcome(k, i, n_max):
    try:
        return verify.verify_bijections(k, i, n_max)
    except RuntimeError as exc:
        return str(exc)
    finally:
        assert bijections._table is None


def _as_text(result):
    return {n: (checks, {pair: str(event) for pair, event in events.items()})
            for n, (checks, events) in result.items()}


def test_a_step_raising_partway_leaves_no_table_behind(cold_memos, monkeypatch):
    _raising_lambda_cases(monkeypatch)
    # each object's outcome, the sweep going on past every raise under one table
    for bound in BOUNDS:
        want = _sweep([(11, 11)], 10, table=False, bound=bound, swallow=True)[0]
        assert sorted(key for key, _ in want) == sorted(map(verify._object_key, SMALL))
        assert any(isinstance(out, str) for _, out in want)
        assert any(not isinstance(out, str) for key, out in want
                   if is_reduced(verify._object_from_key(key)))
        assert _sweep([(11, 11)], 10, table=True, bound=bound, swallow=True)[0] == want, bound
    # the sweep's own events, each weight stopping at its first raise
    checked, result = _sweep([(11, 11)], 10, table=True)
    want_checked, want_result = _sweep([(11, 11)], 10, table=False)
    assert checked == want_checked
    assert _as_text(result) == _as_text(want_result)
    assert any(isinstance(e, RuntimeError) for _, events in result.values() for e in events.values())
    # and the whole-sweep outcomes, raised or not
    runs = [(k, i, n) for k in range(1, 4) for i in range(1, k + 1) for n in (4, 10)]
    with_table = []
    for run in runs:
        verify._object_checks.cache_clear()
        with_table.append(_outcome(*run))
    assert any(isinstance(out, str) for out in with_table)
    assert any(not isinstance(out, str) and out.ok for out in with_table)
    monkeypatch.setattr(verify, "_step_table", contextlib.nullcontext)
    without = []
    for run in runs:
        verify._object_checks.cache_clear()
        without.append(_outcome(*run))
    assert without == with_table


def test_a_raising_step_is_not_stored():
    op = Overpartition.from_text("2,4")
    with bijections._step_table():
        for _ in range(2):
            with pytest.raises(PreconditionError):
                phi_step(op, 1)
        assert not [key for key in bijections._table if key[0] == "phi"]
    assert bijections._table is None


@pytest.mark.parametrize("full, domain", [("phi_full", in_stable_class), ("theta_full", is_reduced)])
def test_traced_full_maps_bypass_the_table(cold_memos, monkeypatch, full, domain):
    untraced, inside = getattr(verify, full), {}

    def traced_too(op, trace=None):
        out = untraced(op, trace)  # fills the sweep's table with every step of the path
        assert bijections._table is not None
        inside[op] = Trace()
        assert untraced(op, inside[op]) == out
        return out

    monkeypatch.setattr(verify, full, traced_too)
    # O(11, 11) holds every overpartition of weight <= 10
    result = verify.verify_bijection_pairs([(11, 11)], 0, 10)
    assert not any(events for _, events in result.values())
    assert bijections._table is None
    assert set(inside) == {op for op in SMALL if domain(op)}
    for op, trace in inside.items():
        outside = Trace()
        untraced(op, outside)
        assert trace == outside, op


def test_outputs_are_interned_by_parts():
    op = Overpartition.from_text("1~,2,4~,4,4,7,8,8,10,11~,13~")
    with bijections._step_table():
        signed, out = phi_full(op)
        assert bijections.psi_full(signed, out) is op
        assert phi_full(op)[1] is out


def test_the_sweep_table_stays_within_its_bound(cold_memos, monkeypatch):
    step, rewrite, sizes, computed = bijections._step, bijections._rewrite, [], [0]

    def spied_step(*args):
        sizes.append(len(bijections._table))
        out = step(*args)
        sizes.append(len(bijections._table))
        return out

    def counted_rewrite(*args):
        computed[0] += 1
        return rewrite(*args)

    monkeypatch.setattr(bijections, "_step", spied_step)
    monkeypatch.setattr(bijections, "_rewrite", counted_rewrite)
    assert verify.verify_bijections(3, 3, 14).detail == "4968 checks"
    assert bijections._table is None
    assert max(sizes) <= bijections._STEP_TABLE_SIZE
    # it filled up and was cleared, and still served steps across objects
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    assert computed[0] < len(sizes) // 2


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
