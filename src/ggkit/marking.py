"""Göllnitz-Gordon marking of overpartitions and the Gordon marking of partitions.

The marking assigns a positive integer (a mark) to every part, smallest part
first.  Plain odd parts and overlined even parts are always 1-marked.  An
overlined odd part takes the least mark unused at the size one below it.  A
plain even part 2t+2 normally takes the least mark unused within size
distance 2, except in one reuse case: when the least mark g already present
at size 2t satisfies g >= 2, the immediately preceding part carries mark g-1,
some 2t+1 or overlined 2t+2 occurs, and no overlined 2t+1 occurs, the part
reuses g.

Row r of the marking collects the parts marked r; row sizes are always
nonincreasing.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

from .partitions import Overpartition, Part, Partition, _part_table, part_text


class PreconditionError(ValueError):
    """A map or classifier was applied outside its stated domain."""


def _row_counts(marks: tuple[int, ...]) -> tuple[int, ...]:
    """How many marks equal 1, 2, ..., up to the largest mark."""
    return tuple(marks.count(r) for r in range(1, max(marks, default=0) + 1))


def _mex(used) -> int:
    m = 1
    while m in used:
        m += 1
    return m


class MarkedOverpartition:
    """An overpartition with one mark per part, in part order.  Immutable;
    row1, when given, must be row_indices(1) of these marks, and clearable, when
    given, is_clearable of each of those parts."""

    __slots__ = ("base", "marks", "_row1", "_clear")

    def __init__(self, base: Overpartition, marks: tuple[int, ...], row1: list[int] | None = None,
                 clearable: list[bool] | None = None):
        self.base = base
        self.marks = marks
        self._row1 = row1
        self._clear = clearable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.marks) == (other.base, other.marks)

    def __hash__(self) -> int:
        return hash((self.base, self.marks))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(base={self.base!r}, marks={self.marks!r})"

    def __len__(self) -> int:
        return len(self.marks)

    def row_counts(self) -> tuple[int, ...]:
        """(N_1, N_2, ...): how many parts carry each mark, up to the largest mark."""
        return _row_counts(self.marks)

    def profile(self, k: int) -> tuple[int, ...]:
        """Row counts padded to length k-1; error if any mark reaches k."""
        rows = self.row_counts()
        if len(rows) > k - 1:
            raise PreconditionError(f"marking has {len(rows)} rows, more than k-1 = {k - 1}")
        return rows + (0,) * (k - 1 - len(rows))

    def sub_overpartition(self, r: int) -> tuple[Part, ...]:
        """The parts marked r, in part order (empty when no part is r-marked)."""
        if r < 1:
            raise ValueError("mark index must be >= 1")
        return tuple([p for p, mk in zip(self.base.parts, self.marks) if mk == r])

    def row_indices(self, r: int) -> list[int]:
        return [j for j, mk in enumerate(self.marks) if mk == r]

    def _first_row(self) -> list[int]:
        """row_indices(1), scanned once per object: a step's classifier, its case
        analysis and its weight law all read it, and gg_mark hands every wrapper of
        one object the same list.  Callers must not mutate it."""
        if self._row1 is None:
            self._row1 = self.row_indices(1)
        return self._row1

    def _clearable(self) -> list[bool]:
        """is_clearable of each first-row part, in position order: the flags of the
        phi/psi reduction.  gg_mark records them as it marks, so a step, its
        classifier and the sweep read one list per object.  Callers must not
        mutate it."""
        if self._clear is None:
            parts = self.base.parts
            self._clear = [is_clearable(parts[j]) for j in self._first_row()]
        return self._clear

    def find(self, size: int, overlined: bool, mark: int) -> int:
        """Index of the part with this size, overline flag and mark."""
        for j, (p, mk) in enumerate(zip(self.base.parts, self.marks)):
            if p.size == size and p.overlined == overlined and mk == mark:
                return j
        raise PreconditionError(
            f"no {mark}-marked part {part_text(Part(size, overlined))} present"
        )

    def marks_at_size(self, size: int, overlined: bool | None = None) -> set[int]:
        """Marks carried by the parts of the given size (optionally filtered by kind)."""
        return {
            mk
            for p, mk in zip(self.base.parts, self.marks)
            if p.size == size and (overlined is None or p.overlined == overlined)
        }

    def to_json(self) -> dict:
        return {
            "parts": [{"size": p.size, "overlined": p.overlined} for p in self.base.parts],
            "marks": list(self.marks),
        }

    def render(self) -> str:
        """Plain-text array: one row per mark, top row = largest mark."""
        if not self.marks:
            return "(empty)"
        top = max(self.marks)
        cells = [part_text(p) for p in self.base.parts]
        width = max(len(c) for c in cells)
        lines = []
        for r in range(top, 0, -1):
            row = [
                (c if mk == r else "").ljust(width)
                for c, mk in zip(cells, self.marks)
            ]
            lines.append(f"{r} | " + " ".join(row).rstrip())
        return "\n".join(lines)


def _mark_step(by_size, prev: int, s: int, overlined: bool, plain, over) -> int:
    """The mark of a part (s, overlined) appended after the parts marked so far.

    by_size[t] holds the marks already placed at size t, prev is the previous
    part's mark (0 for the first part), and plain[t] / over[t] count the plain
    and overlined parts of size t; only sizes s-1 and s are read.  The part
    order puts every part of size s-1 and the overlined s before a plain s, so
    those counts are final when the part is placed: the marking of a prefix is
    the prefix of the marking."""
    if overlined != (s % 2 == 1):  # plain odd or overlined even
        return 1
    if overlined:  # overlined odd: blocked only by marks at size exactly s-1
        return _mex(by_size[s - 1])
    # plain even, s = 2t+2
    here, below, two_below = by_size[s], by_size[s - 1], by_size[s - 2]
    g = min(two_below) if two_below else 0
    if g >= 2 and prev == g - 1 and (plain[s - 1] or over[s]) and not over[s - 1]:
        return g
    mk = 1
    while mk in here or mk in below or mk in two_below:
        mk += 1
    return mk


_NO_MARKS: frozenset[int] = frozenset()


def gg_mark(op: Overpartition) -> MarkedOverpartition:
    """Mark an overpartition; the marking is a deterministic function of the parts,
    computed once per object and memoized on it as (marks, first-row indices,
    is_clearable of each first-row part), so every wrapper shares one first-row
    scan and one list of phi/psi flags, and the object and its marking form no
    reference cycle.  All three come from the object's own parts: nothing is
    carried over from the object a map rewrote."""
    if op._marking is not None:
        return MarkedOverpartition(op, *op._marking)
    top = op.parts[-1].size if op.parts else 0
    plain = [0] * (top + 1)
    over = [0] * (top + 1)
    # a set only at the sizes that hold a part; every other size reads as no marks
    by_size: list = [_NO_MARKS] * (top + 1)
    for s, ov in op.parts:
        (over if ov else plain)[s] += 1
        if by_size[s] is _NO_MARKS:
            by_size[s] = set()
    marks: list[int] = []
    row1: list[int] = []
    clearable: list[bool] = []
    mk = 0
    for j, (s, ov) in enumerate(op.parts):
        mk = _mark_step(by_size, mk, s, ov, plain, over)
        marks.append(mk)
        if mk == 1:
            row1.append(j)
            clearable.append(ov == (s % 2 == 0))  # as is_clearable
        by_size[s].add(mk)
    op._marking = (tuple(marks), row1, clearable)
    return MarkedOverpartition(op, *op._marking)


def _walk(max_weight: int, exact: bool = False, row1_max: int | None = None,
          rows_max: int | None = None, o_caps: tuple[int, int, int] | None = None):
    """Depth-first walk over overpartitions of weight <= max_weight (== when
    exact) carrying the marking state, yielding (op, row counts, o_family_stats,
    (weight, stable, reduced, doubled)) in the order of
    ``iter_overpartitions_bounded`` / ``enumerate_overpartitions``; the flags are
    ``in_stable_class``, ``is_reduced`` and ``is_doubled`` of op.  Each op holds
    interned Parts (``partitions._part_table``) and its stats in its memo slot,
    one shared tuple per distinct value; its marking is left to ``gg_mark``.

    A prefix is extended one part at a time through ``_mark_step``.  Its row
    counts, largest mark and O-family stats (fb, mw, c3) only grow as parts are
    appended, so a subtree is cut as soon as row 1 is wider than row1_max, a mark
    exceeds rows_max, or a stat exceeds its cap in o_caps (fb, mw, c3): nothing
    below it could pass."""
    fb_max, mw_max, c3_max = o_caps if o_caps is not None else (max_weight,) * 3
    row1_max = max_weight if row1_max is None else row1_max
    rows_max = max_weight if rows_max is None else rows_max
    table = _part_table(max_weight)
    shared_stats: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    parts: list[Part] = []
    rows: list[int] = []
    plain = [0] * (max_weight + 3)
    over = [0] * (max_weight + 3)
    by_size: list[set[int]] = [set() for _ in range(max_weight + 1)]

    def window(t: int) -> int:  # the even window of o_family_stats
        return over[2 * t] + plain[2 * t] + over[2 * t + 1] + plain[2 * t + 2]

    def rec(rem: int, smin: int, over_ok: bool, prev: int, fb: int, mw: int, c3: int,
            stable: bool, reduced: bool, doubled: bool):
        if not exact or rem == 0:
            stats = (fb, mw, c3)
            stats = shared_stats.setdefault(stats, stats)
            yield (Overpartition._from_ordered(tuple(parts), stats), tuple(rows), stats,
                   (max_weight - rem, stable, reduced, doubled))
        if exact:  # a remainder below the next part's size cannot be filled
            sizes = [*range(smin, rem // 2 + 1), rem] if rem >= smin else ()
        else:
            sizes = range(smin, rem + 1)
        for s in sizes:
            for ov in ((True, False) if s > smin or over_ok else (False,)):
                mk = _mark_step(by_size, prev, s, ov, plain, over)
                (over if ov else plain)[s] += 1
                if mk > len(rows):  # a mark is at most one above the largest so far
                    rows.append(0)
                rows[mk - 1] += 1
                # the stats of the longer prefix: fb = fbar(1) + f(2); every window
                # t >= 1 holding the part; c3 when the part is plain even above a
                # plain odd, or a plain odd (f(s+1) is still 0)
                nfb = fb + ((s, ov) in ((1, True), (2, False)))
                nmw, nc3 = mw, c3
                if s > 1 and (ov or s % 2 == 0):
                    nmw = max(nmw, window(s // 2))
                plain_even = not ov and s % 2 == 0
                if plain_even:
                    if s > 2:
                        nmw = max(nmw, window(s // 2 - 1))
                    if plain[s - 1]:
                        nc3 = max(nc3, plain[s])
                elif not ov:
                    nc3 = max(nc3, 0)
                if (rows[0] <= row1_max and len(rows) <= rows_max and nfb <= fb_max
                        and nmw <= mw_max and nc3 <= c3_max):
                    added = mk not in by_size[s]
                    by_size[s].add(mk)
                    stable_part = ov == (s % 2 == 1)  # as is_stable
                    parts.append(table[2 * s - ov])
                    yield from rec(rem - s, s, False, mk, nfb, nmw, nc3,
                                   stable_part if len(parts) == 1 else stable,  # first = smallest
                                   reduced and stable_part, doubled and plain_even)
                    parts.pop()
                    if added:
                        by_size[s].discard(mk)
                rows[mk - 1] -= 1
                if not rows[-1]:
                    rows.pop()
                (over if ov else plain)[s] -= 1

    return rec(max_weight, 1, True, 0, 0, 0, -1, True, True, True)


def gordon_mark(parts: Partition) -> tuple[int, ...]:
    """Greedy marks for an ordinary partition: the least mark not used on any
    earlier equal or consecutive part."""
    parts = tuple(sorted(parts))
    marks: list[int] = []
    by_size: dict[int, set[int]] = {}
    for s in parts:
        used = by_size.get(s, set()) | by_size.get(s - 1, set())
        mk = _mex(used)
        marks.append(mk)
        by_size.setdefault(s, set()).add(mk)
    return tuple(marks)


def gordon_row_counts(parts: Partition) -> tuple[int, ...]:
    return _row_counts(gordon_mark(parts))


# ---------------------------------------------------------------------------
# Part kinds and positional classifiers
# ---------------------------------------------------------------------------


def is_clearable(p: Part) -> bool:
    """Plain odd or overlined even: the kinds the first reduction removes."""
    return p.overlined == (p.size % 2 == 0)


def is_stable(p: Part) -> bool:
    """Overlined odd or plain even: the kinds that survive the first reduction."""
    return p.overlined == (p.size % 2 == 1)


def in_stable_class(op: Overpartition) -> bool:
    """Smallest part overlined odd or plain even (vacuously true when empty)."""
    return not op.parts or is_stable(op.smallest())


def is_reduced(op: Overpartition) -> bool:
    """No overlined even and no plain odd parts at all."""
    return all(is_stable(p) for p in op.parts)


def is_doubled(op: Overpartition) -> bool:
    """Every part is a plain even part."""
    return all(not p.overlined and p.size % 2 == 0 for p in op.parts)


def part_type(m: MarkedOverpartition, j: int) -> str:
    """Type of the j-th first-row part (1-based): "O" when it is an overlined odd
    part or an overlined odd part of size one larger occurs; otherwise "E"."""
    types = first_row_types(m)
    if not 1 <= j <= len(types):
        raise PreconditionError(f"first-row position {j} out of range 1..{len(types)}")
    return types[j - 1]


def first_row_types(m: MarkedOverpartition) -> list[str]:
    """The part types of the first row, in position order (see ``part_type``)."""
    if not is_reduced(m.base):
        raise PreconditionError(
            "part types are defined only without overlined even or plain odd parts"
        )
    parts = m.base.parts
    over = {p.size for p in parts if p.overlined}
    return ["O" if p.overlined or p.size + 1 in over else "E"
            for p in [parts[j] for j in m._first_row()]]


class _Reduction(NamedTuple):
    """One of the two reductions: phi/psi trades plain-odd and overlined-even
    parts for distinct negative even parts, theta/lambda overlined odd parts for
    distinct negative odd parts.  Each sweeps the last first-row part its flags
    mark up to position N1, one step at a time; every step adds weight 2 but the
    one at N1, which adds 2 - parity, so the chain from j emits parity - 2(N1-j+1).
    The part to move next sits at the last flagged position (``_last_flagged``).

    The maps ``<forward>_step`` ... ``<inverse>_full`` and the classifier are
    held by name: each caller looks them up in its own module at call time, so a
    rebound or patched map is the one that runs."""

    forward: str
    inverse: str
    classify: str
    domain: Callable[[Overpartition], bool]  # where the forward full map applies
    target: Callable[[Overpartition], bool]  # where it lands and the inverse applies
    flags: Callable[[MarkedOverpartition], list[bool]]  # first-row parts still to move
    fixed: Callable[[MarkedOverpartition], Sequence]  # first-row facts a step keeps off p, p+1
    parity: int
    removal: str  # the full map, in the sweep's failure messages
    kind: str  # the prefix of "step" and "chain" there
    holds: tuple[str, str]  # what position p must hold for the step, for its inverse


_PHI = _Reduction("phi", "psi", "classify_f", in_stable_class, is_reduced,
                  MarkedOverpartition._clearable,
                  lambda m: m.sub_overpartition(1), 0, "full reduction", "",
                  ("the last plain-odd/overlined-even part",
                   "a stable part followed by the part to restore"))
_THETA = _Reduction("theta", "lambda", "classify_g", is_reduced, is_doubled,
                    lambda m: [t == "O" for t in first_row_types(m)],
                    first_row_types, 1, "odd removal", "type ",
                    ("the last type-O part", "a type-E part followed by the type-O part"))


class PositionReport(NamedTuple):
    """Where position p sits relative to the sweep that clears the first row.

    pending: position p holds the next part to clear (everything above is done);
    advanced: the part to clear has moved to position p+1;
    cleared: positions p..N1 are all done.
    subcase: the 1..4 dispatch used by the step map (pending/advanced only).
    """

    p: int
    pending: bool
    advanced: bool
    cleared: bool
    subcase: int | None = None


def _f_subcase(m: MarkedOverpartition, row1: list[int], p: int) -> int:
    # a Part equals the (size, overlined) tuple, so the probes build no Part
    parts = m.base.parts
    part = parts[row1[p - 1]]
    if not part.overlined:  # plain odd
        prev = parts[row1[p - 2]]
        if (part.size + 1, False) in parts and prev.size <= part.size - 2:
            return 2
        return 1
    # overlined even
    return 4 if (part.size + 1, True) in parts else 3


def _fbar_subcase(m: MarkedOverpartition, row1: list[int], p: int) -> int:
    parts = m.base.parts
    part = parts[row1[p - 1]]
    nxt = parts[row1[p]].size if p < len(row1) else None  # None above N1
    if part.overlined:  # overlined odd
        if (part.size + 1, False) in parts and (nxt is None or nxt >= part.size + 2):
            return 4
        return 1
    # plain even
    if (part.size + 1, True) not in parts:
        return 3
    if (part.size + 2, False) in parts and (nxt is None or nxt > part.size + 2):
        return 4
    return 2


def _last_flagged(flags: list[bool]) -> int:
    """The first-row position a reduction moves next: its last flagged position
    (1-based), or 0 when no part is left to move."""
    for j in range(len(flags), 0, -1):
        if flags[j - 1]:
            return j
    return 0


def _positions(flags: list[bool], p: int) -> tuple[bool, bool, bool]:
    """(pending, advanced, cleared) of first-row position p, given per position
    whether its part is still to move (see ``PositionReport``)."""
    n1 = len(flags)
    if not 1 <= p <= n1:
        raise PreconditionError(f"position {p} out of range 1..{n1}")
    last = _last_flagged(flags)
    pending = last == p
    advanced = not flags[p - 1] and (p == n1 or last == p + 1)
    cleared = last < p
    return pending, advanced, cleared


def classify_f(m: MarkedOverpartition, p: int) -> PositionReport:
    """Positional classification of a stable-class overpartition at first-row p."""
    if not in_stable_class(m.base):
        raise PreconditionError("smallest part must be overlined odd or plain even")
    # the flags come with the marking (m._clearable()); the subcases reuse its first row
    pending, advanced, cleared = _positions(_PHI.flags(m), p)
    sub = None
    if pending:
        sub = _f_subcase(m, m._first_row(), p)
    elif advanced:
        sub = _fbar_subcase(m, m._first_row(), p)
    return PositionReport(p, pending, advanced, cleared, sub)


def classify_g(m: MarkedOverpartition, p: int) -> PositionReport:
    """Positional classification by first-row part types O/E."""
    if not is_reduced(m.base):
        raise PreconditionError(
            "type classification needs an overpartition without overlined even "
            "or plain odd parts"
        )
    return PositionReport(p, *_positions(_THETA.flags(m), p))
