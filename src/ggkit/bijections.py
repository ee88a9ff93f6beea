"""Weight-tracked maps on marked overpartitions.

``phi_step``/``psi_step`` trade the clearable part at a first-row position for
stable parts two units heavier (and back); ``theta_step``/``lambda_step`` turn
a type-O first-row part into type E (and back).  Each of the two reductions is
one ``_Reduction`` record of ``marking`` (``_PHI``, ``_THETA``), which drives
one step frame (``_step``: check the position, rewrite the parts a case function
names, check the weight law, record the trace), one chain loop (``_chain``: a
position swept to the top of the first row), one full map (``_full``: an
overpartition split into distinct negative parts of the record's parity plus a
reduced overpartition) and one inverse (``_inverse_full``).  The public maps
wrap them: each step passes its classifier and its case analysis
(``_phi_cases`` ... ``_lambda_cases``), each full map keeps its domain check.
``halve``/``double`` convert all-plain-even overpartitions to ordinary
partitions and back.  A rewrite builds a new Overpartition in part order: it
copies the input's parts, substitutes the replacements, sorts by rank and checks
only the replaced parts (a positive size, no second overlined part of a size),
since the parts it keeps were valid already; then it wraps the list without
the constructor's full check.  The new object's marking ``gg_mark`` derives
from its parts (once, then memoized on the object); no mark is carried across
a rewrite.

The sweep checks each object by several maps that walk the same path: the full
map and its inverse, then a step and a chain from the pending position and
their inverses.  Objects whose paths meet lie close together in the sweep's walk
(many share a reduced image, so their paths merge near it), so one sweep call
(``verify.verify_bijection_pairs``) opens one ``_step_table()`` for all its
objects.  Inside it each untraced step is computed once, keyed by (map, parts,
position), and every step's input and output is interned by its parts, so an
object the maps reach again is the same Overpartition and is marked once.  The
table is cleared whenever a step leaves it holding more than
``_STEP_TABLE_SIZE`` entries, and dropped when the block exits, whether it
returned or raised; a step that raises stores nothing, and a call that records
a trace bypasses the table, so the trace holds every step.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

from .marking import (
    MarkedOverpartition,
    PreconditionError,
    _PHI,
    _Reduction,
    _THETA,
    _last_flagged,
    classify_f,
    classify_g,
    gg_mark,
    in_stable_class,
    is_doubled,
    is_reduced,
)
from .partitions import (
    FamilySpec,
    Overpartition,
    ParseError,
    Part,
    Partition,
    _rank,
    satisfies_family,
)


class WeightMismatchError(ValueError):
    """A map's output does not have the weight the map guarantees."""


def _check_weight(step: str, got: int, want: int) -> None:
    """The weight invariant of every map; unlike an assert it survives ``python -O``."""
    if got != want:
        raise WeightMismatchError(f"{step}: weight {got}, expected {want}")


class TraceStep(NamedTuple):
    name: str
    before: Overpartition
    after: Overpartition
    delta: int

    def to_json(self) -> dict:
        return {
            "step": self.name,
            "before": self.before.to_text(),
            "after": self.after.to_text(),
            "delta": self.delta,
        }


class Trace(list):
    """The steps a map took, in order; a fresh trace starts empty, so a caller
    tests ``trace is not None``, never its truth."""

    __slots__ = ()

    @property
    def steps(self) -> Trace:
        return self

    def record(self, name: str, before: Overpartition, after: Overpartition) -> None:
        self.append(TraceStep(name, before, after, after.weight() - before.weight()))

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self]


def _toggle_next(m: MarkedOverpartition, row1: list[int], p: int, repl: dict[int, Part]) -> None:
    # flip the overline of the first-row part at position p+1 (no-op at the top)
    if p < len(row1):
        idx = row1[p]
        part = m.base.parts[idx]
        repl[idx] = Part(part.size, not part.overlined)


def _common_mark(m: MarkedOverpartition, low_size: int, high_size: int) -> int | None:
    both = m.marks_at_size(low_size, overlined=False) & m.marks_at_size(high_size, overlined=False)
    return min(both) if both else None


def _reuse_index(m: MarkedOverpartition, row1: list[int], p: int, size: int) -> int:
    """The mark index r used when clearing an overlined even part of this size:
    1 when the previous first-row part sits within distance 2; else a mark shared
    by the plain parts two below and at the size; else the largest mark at the size."""
    prev = m.base.parts[row1[p - 2]]
    if prev.size >= size - 2:
        return 1
    b = _common_mark(m, size - 2, size)
    if b is not None:
        return b
    return max(m.marks_at_size(size))


# The open step table: (map name, parts, position) -> the step's output, and
# parts -> the one Overpartition holding them.  A module slot, because the public
# maps take no table parameter; only _step_table sets it.
_table: dict | None = None
# the table is cleared past this many entries: against a table per object and a
# walk per weight, verify_bijections(3, 3, 16) took 1.07 -> 0.98 s for +0.1 MiB
# peak RSS at 1 024, 0.90 s for +1.6 MiB at 4 096 and 0.81 s for +13.7 MiB
# unbounded (medians of 3, 2-CPU Xeon); 4 096 also raised the peak of a
# 2-worker `verify --suite all` by 2 %
_STEP_TABLE_SIZE = 1024


@contextmanager
def _step_table():
    """Open a step table for the block (see the module docstring)."""
    global _table
    outer, _table = _table, {}
    try:
        yield
    finally:
        _table = outer


def _step(red: _Reduction, forward: bool, classify, cases, op: Overpartition, p: int, trace):
    """One step of a reduction at first-row position p (of its inverse unless
    forward): check that p holds the part to move, rewrite the parts that
    ``cases(m, row1, p, part, subcase)`` returns with its case label, then check
    the record's weight law and record the trace.  Neither direction acts below
    position 2 - parity, where phi never starts (position 1 holds a stable part).
    An untraced step inside ``_step_table()`` is looked up there first."""
    name = red.forward if forward else red.inverse
    table = _table if trace is None else None
    if table is not None:
        key = (name, op.parts, p)
        out = table.get(key)
        if out is not None:
            return out
        op = table.get(op.parts, op)
    m = gg_mark(op)
    rep = classify(m, p)
    if p < 2 - red.parity or not (rep.pending if forward else rep.advanced):
        raise PreconditionError(f"first-row position {p} must hold {red.holds[0 if forward else 1]}")
    row1 = m._first_row()
    case, repl = cases(m, row1, p, op.parts[row1[p - 1]], rep.subcase)
    out = _rewrite(op.parts, repl)
    law = 2 if p < len(row1) else 2 - red.parity
    _check_weight(f"{name}_step", out.weight(), op.weight() + (law if forward else -law))
    if trace is not None:
        trace.record(f"{name}[{case},{p}]", op, out)
    elif table is not None:
        table.setdefault(op.parts, op)
        out = table[key] = table.setdefault(out.parts, out)
        if len(table) > _STEP_TABLE_SIZE:
            table.clear()
    return out


def _rewrite(parts: tuple[Part, ...], repl: dict[int, Part]) -> Overpartition:
    """parts with parts[idx] replaced by repl[idx], in part order.  Only the
    replaced parts are checked, with the messages of the Overpartition
    constructor: parts the input already held were valid, and every part below
    size 1 sorts before the rest, so the first error found is the one the
    constructor would report."""
    out = list(parts)
    for idx, new in repl.items():
        out[idx] = new
    out.sort(key=_rank)
    low = [new.size for new in repl.values() if new.size < 1]
    if low:
        raise ParseError(f"part size must be positive, got {min(low)}")
    twice = [new.size for new in repl.values() if new.overlined and out.count(new) > 1]
    if twice:
        raise ParseError(f"duplicate overlined part of size {min(twice)}")
    return Overpartition._from_ordered(tuple(out))


def _phi_cases(m: MarkedOverpartition, row1: list[int], p: int, part: Part, l: int):
    repl: dict[int, Part] = {}
    if l == 1:
        repl[row1[p - 1]] = Part(part.size + 2, True)
    elif l == 2:
        r = _common_mark(m, part.size - 1, part.size + 1)
        if r is None:
            r = max(m.marks_at_size(part.size + 1, overlined=False))
        repl[row1[p - 1]] = Part(part.size + 1, False)
        repl[m.find(part.size + 1, False, r)] = Part(part.size + 2, True)
    elif l == 3:
        r = _reuse_index(m, row1, p, part.size)
        if r == 1:
            repl[row1[p - 1]] = Part(part.size + 2, False)
        else:
            repl[row1[p - 1]] = Part(part.size, False)
            repl[m.find(part.size, False, r)] = Part(part.size + 2, False)
    else:
        s = min(m.marks_at_size(part.size + 1, overlined=True))
        r = _reuse_index(m, row1, p, part.size)
        if r == 1:
            repl[row1[p - 1]] = Part(part.size + 1, True)
        else:
            repl[row1[p - 1]] = Part(part.size, False)
            repl[m.find(part.size, False, r)] = Part(part.size + 1, True)
        repl[m.find(part.size + 1, True, s)] = Part(part.size + 2, False)
    _toggle_next(m, row1, p, repl)
    return l, repl


def phi_step(op: Overpartition, p: int, trace: Trace | None = None) -> Overpartition:
    """Clear the first-row part at position p (1 < p <= N1), raising weight by 2."""
    return _step(_PHI, True, classify_f, _phi_cases, op, p, trace)


def _psi_cases(m: MarkedOverpartition, row1: list[int], p: int, part: Part, l: int):
    repl: dict[int, Part] = {}
    if l == 1:
        repl[row1[p - 1]] = Part(part.size - 2, False)
    elif l == 2:
        r = min(m.marks_at_size(part.size + 1, overlined=True))
        repl[row1[p - 1]] = Part(part.size - 1, False)
        repl[m.find(part.size + 1, True, r)] = Part(part.size, False)
    elif l == 3:
        nxt = m.base.parts[row1[p]].size if p < len(row1) else None
        if (nxt is not None and nxt <= part.size + 2) or not m.marks_at_size(
            part.size + 2, overlined=False
        ):
            repl[row1[p - 1]] = Part(part.size - 2, True)
        else:
            r = min(m.marks_at_size(part.size + 2, overlined=False))
            repl[m.find(part.size + 2, False, r)] = Part(part.size, False)
            repl[row1[p - 1]] = Part(part.size, True)
    else:
        if part.overlined:
            s = min(m.marks_at_size(part.size + 1, overlined=False))
            repl[row1[p - 1]] = Part(part.size - 1, True)
            repl[m.find(part.size + 1, False, s)] = Part(part.size, True)
        else:
            r = min(m.marks_at_size(part.size + 1, overlined=True))
            s = min(m.marks_at_size(part.size + 2, overlined=False))
            repl[row1[p - 1]] = Part(part.size, True)
            repl[m.find(part.size + 1, True, r)] = Part(part.size, False)
            repl[m.find(part.size + 2, False, s)] = Part(part.size + 1, True)
    _toggle_next(m, row1, p, repl)
    return l, repl


def psi_step(op: Overpartition, p: int, trace: Trace | None = None) -> Overpartition:
    """Inverse of phi_step at position p, lowering weight by 2."""
    return _step(_PHI, False, classify_f, _psi_cases, op, p, trace)


def _chain(step, op: Overpartition, p: int, up: bool, trace: Trace | None) -> Overpartition:
    n1 = len(gg_mark(op)._first_row())
    if not 1 <= p <= n1:
        raise PreconditionError(f"position {p} out of range 1..{n1}")
    cur = op
    for q in range(p, n1 + 1) if up else range(n1, p - 1, -1):
        cur = step(cur, q, trace)
    return cur


def phi_chain(op: Overpartition, p: int, trace: Trace | None = None) -> Overpartition:
    """Sweep position p to the top: phi_step at p, p+1, ..., N1 (weight +2(N1-p+1))."""
    return _chain(phi_step, op, p, True, trace)


def psi_chain(op: Overpartition, p: int, trace: Trace | None = None) -> Overpartition:
    """Inverse sweep: psi_step at N1, N1-1, ..., p."""
    return _chain(psi_step, op, p, False, trace)


SignedEvenPartition = tuple[int, ...]
SignedOddPartition = tuple[int, ...]


def _full(red: _Reduction, chain, op: Overpartition,
          trace: Trace | None) -> tuple[tuple[int, ...], Overpartition]:
    """Sweep the last flagged first-row position to the top until none is left."""
    flags = red.flags(gg_mark(op))
    n1 = len(flags)
    js: list[int] = []
    cur = op
    while p := _last_flagged(flags):
        js.append(p)
        cur = chain(cur, p, trace)
        flags = red.flags(gg_mark(cur))
    signed = tuple(red.parity - 2 * (n1 - j + 1) for j in sorted(js))
    _check_weight(f"{red.forward}_full", sum(signed) + cur.weight(), op.weight())
    return signed, cur


def _inverse_full(red: _Reduction, chain, signed, op: Overpartition, trace: Trace | None) -> Overpartition:
    """Reinsert one part per signed entry, by the chain that emits it; the
    entries must be distinct negative parts that a chain from position 2 - parity
    or above emits (phi never starts at position 1, which holds a stable part)."""
    n1 = len(gg_mark(op)._first_row())
    label = "negative odd" if red.parity else "negative even"
    low = red.parity - 2 * (n1 - 1 + red.parity)
    signed = tuple(sorted(signed))
    if len(set(signed)) != len(signed):
        raise PreconditionError(f"{label} parts must be distinct")
    for t in signed:
        if t >= 0 or t % 2 != red.parity or t < low:
            raise PreconditionError(
                f"{label} part {t} outside the allowed range [{low}, {red.parity - 2}]"
            )
    cur = op
    for t in signed:
        cur = chain(cur, n1 + 1 + (t - red.parity) // 2, trace)
    _check_weight(f"{red.inverse}_full", cur.weight(), op.weight() + sum(signed))
    return cur


def phi_full(op: Overpartition, trace: Trace | None = None) -> tuple[SignedEvenPartition, Overpartition]:
    """Remove every plain-odd/overlined-even part, emitting one distinct negative
    even part per removal; weights satisfy |input| = |evens| + |output|."""
    if not in_stable_class(op):
        raise PreconditionError("smallest part must be overlined odd or plain even")
    return _full(_PHI, phi_chain, op, trace)


def psi_full(tau, op: Overpartition, trace: Trace | None = None) -> Overpartition:
    """Inverse of phi_full: reinsert one part per negative even entry of tau."""
    if not is_reduced(op):
        raise PreconditionError("target overpartition may not contain plain odd or overlined even parts")
    return _inverse_full(_PHI, psi_chain, tau, op, trace)


def _theta_cases(m: MarkedOverpartition, row1: list[int], p: int, part: Part, _):
    repl: dict[int, Part] = {}
    if p < len(row1):
        nxt = m.base.parts[row1[p]]
        if part.overlined:
            t2 = part.size + 1  # 2t+2
            if nxt.size == part.size + 3:
                repl[row1[p - 1]] = Part(t2, False)
                repl[row1[p]] = Part(nxt.size + 1, True)
                return "1.1", repl
            r = max(m.marks_at_size(nxt.size, overlined=False))
            repl[row1[p - 1]] = Part(t2, False)
            repl[m.find(nxt.size, False, r)] = Part(nxt.size + 1, True)
            return "1.2", repl
        s = min(m.marks_at_size(part.size + 1, overlined=True))
        if s in m.marks_at_size(part.size + 4, overlined=False):
            repl[m.find(part.size + 1, True, s)] = Part(part.size + 2, False)
            repl[m.find(part.size + 4, False, s)] = Part(part.size + 5, True)
            return "2.1", repl
        r = max(m.marks_at_size(nxt.size, overlined=False))
        repl[m.find(part.size + 1, True, s)] = Part(part.size + 2, False)
        repl[m.find(nxt.size, False, r)] = Part(nxt.size + 1, True)
        return "2.2", repl
    if part.overlined:  # at the top position N1
        repl[row1[p - 1]] = Part(part.size + 1, False)
        return "3.1", repl
    s = min(m.marks_at_size(part.size + 1, overlined=True))
    repl[m.find(part.size + 1, True, s)] = Part(part.size + 2, False)
    return "3.2", repl


def theta_step(op: Overpartition, p: int, trace: Trace | None = None) -> Overpartition:
    """Convert the type-O first-row part at position p to type E
    (weight +2, or +1 at the top position)."""
    return _step(_THETA, True, classify_g, _theta_cases, op, p, trace)


def _lambda_cases(m: MarkedOverpartition, row1: list[int], p: int, part: Part, _):
    t = part.size // 2 - 1  # part is plain even, size 2t+2
    repl: dict[int, Part] = {}
    if p < len(row1):
        nxt = m.base.parts[row1[p]]
        if nxt.overlined:  # 2b+3 overlined
            b = (nxt.size - 3) // 2
            if t > b - 1:
                raise PreconditionError("first-row sizes out of order for the inverse step")
            if t == b - 1:
                repl[row1[p]] = Part(nxt.size - 1, False)
                repl[row1[p - 1]] = Part(part.size - 1, True)
                return "1.1", repl
            if not m.marks_at_size(2 * t + 4, overlined=False):
                repl[row1[p - 1]] = Part(2 * t + 1, True)
                repl[row1[p]] = Part(nxt.size - 1, False)
                return "1.2", repl
            sp = min(m.marks_at_size(2 * t + 4, overlined=False))
            repl[row1[p]] = Part(nxt.size - 1, False)
            repl[m.find(2 * t + 4, False, sp)] = Part(2 * t + 3, True)
            return "1.3", repl
        # plain even 2b+2 of type O via an overlined 2b+3
        rp = min(m.marks_at_size(nxt.size + 1, overlined=True))
        if not m.marks_at_size(2 * t + 4, overlined=False):
            repl[m.find(nxt.size + 1, True, rp)] = Part(nxt.size, False)
            repl[row1[p - 1]] = Part(2 * t + 1, True)
            return "2.1", repl
        sp = min(m.marks_at_size(2 * t + 4, overlined=False))
        repl[m.find(nxt.size + 1, True, rp)] = Part(nxt.size, False)
        repl[m.find(2 * t + 4, False, sp)] = Part(2 * t + 3, True)
        return "2.2", repl
    if not m.marks_at_size(2 * t + 4, overlined=False):  # at the top position N1
        repl[row1[p - 1]] = Part(2 * t + 1, True)
        return "3.1", repl
    sp = min(m.marks_at_size(2 * t + 4, overlined=False))
    repl[m.find(2 * t + 4, False, sp)] = Part(2 * t + 3, True)
    return "3.2", repl


def lambda_step(op: Overpartition, p: int, trace: Trace | None = None) -> Overpartition:
    """Inverse of theta_step at position p."""
    return _step(_THETA, False, classify_g, _lambda_cases, op, p, trace)


def theta_chain(op: Overpartition, p: int, trace: Trace | None = None) -> Overpartition:
    """theta_step at p, p+1, ..., N1 (weight +2(N1-p)+1)."""
    return _chain(theta_step, op, p, True, trace)


def lambda_chain(op: Overpartition, p: int, trace: Trace | None = None) -> Overpartition:
    """Inverse of theta_chain: lambda_step at N1, N1-1, ..., p."""
    return _chain(lambda_step, op, p, False, trace)


def theta_full(op: Overpartition, trace: Trace | None = None) -> tuple[SignedOddPartition, Overpartition]:
    """Remove every overlined odd part, emitting one distinct negative odd part
    per removal; weights satisfy |input| = |odds| + |output|."""
    if not is_reduced(op):
        raise PreconditionError("input may not contain plain odd or overlined even parts")
    return _full(_THETA, theta_chain, op, trace)


def lambda_full(eta, op: Overpartition, trace: Trace | None = None) -> Overpartition:
    """Inverse of theta_full: reinsert one overlined odd part per entry of eta."""
    if not is_doubled(op):
        raise PreconditionError("target overpartition must consist of plain even parts")
    return _inverse_full(_THETA, lambda_chain, eta, op, trace)


# ---------------------------------------------------------------------------
# Smallest-part toggle and the doubling map
# ---------------------------------------------------------------------------


def fh_toggle(op: Overpartition, k: int, i: int, trace: Trace | None = None) -> Overpartition:
    """Flip the overline of the smallest part; for i = 1 additionally subtract 2
    from every part.  Weight is preserved (i >= 2) or drops by 2 per part (i = 1)."""
    if not satisfies_family(op, FamilySpec("F", k, i)):
        raise PreconditionError(f"input is not in the F family for k={k}, i={i}")
    small = op.smallest()
    parts = [Part(small.size, not small.overlined)] + list(op.parts[1:])
    if i == 1:
        if any(p.size <= 2 for p in op.parts):
            raise PreconditionError("the i=1 toggle needs every part size above 2")
        parts = [Part(p.size - 2, p.overlined) for p in parts]
    out = Overpartition(parts)
    if trace is not None:
        trace.record(f"toggle[{k},{i}]", op, out)
    return out


def fh_untoggle(op: Overpartition, k: int, i: int, trace: Trace | None = None) -> Overpartition:
    """Inverse of fh_toggle with the same (k, i): from H at i-1 (or H at k when
    i = 1) back to F at i."""
    target = FamilySpec("H", k, i - 1 if i >= 2 else k)
    if not satisfies_family(op, target):
        raise PreconditionError(
            f"input is not in the H family for k={k}, i={target.i}"
        )
    parts = list(op.parts)
    if i == 1:
        parts = [Part(p.size + 2, p.overlined) for p in parts]
    small = parts[0]
    parts[0] = Part(small.size, not small.overlined)
    out = Overpartition(parts)
    if trace is not None:
        trace.record(f"untoggle[{k},{i}]", op, out)
    return out


def halve(op: Overpartition) -> Partition:
    """Halve an all-plain-even overpartition into an ordinary partition."""
    if not is_doubled(op):
        raise PreconditionError("halving needs every part plain and even")
    return tuple(p.size // 2 for p in op.parts)


def double(parts: Partition) -> Overpartition:
    """Double an ordinary partition into an all-plain-even overpartition."""
    return Overpartition(Part(2 * s, False) for s in sorted(parts))
