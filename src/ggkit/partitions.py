"""Overpartitions, ordinary partitions, enumeration, and frequency-condition families.

Parts of an overpartition are totally ordered by ``1~ < 1 < 2~ < 2 < ...``
(the overlined copy of a size precedes the plain one), and each size carries
at most one overlined part.  Ordinary partitions are plain nondecreasing
tuples of positive ints.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import le
from typing import Iterator, NamedTuple

from .series import _slot_bytes, _unpack

OVERLINE_MARKS = "̄̅"  # combining macron / overline, accepted on input


class Part(NamedTuple):
    """One part of an overpartition.  Never sort Parts without `part_key`."""

    size: int
    overlined: bool


def part_key(p: Part) -> tuple[int, int]:
    return (p.size, 0 if p.overlined else 1)


def _rank(p: Part) -> int:
    """The part's place in part order: 2s-1 for an overlined s, 2s for a plain s."""
    return 2 * p.size - p.overlined


# One Part per (size, kind), at its rank (index 0 unused): the marking walk and
# the sweep's object keys build every part they hold from it.
_PARTS: list = [None]


def _part_table(max_size: int) -> list:
    """The interned Parts, indexed by rank, grown to cover sizes up to max_size."""
    for s in range(len(_PARTS) // 2 + 1, max_size + 1):
        _PARTS.extend((Part(s, True), Part(s, False)))
    return _PARTS


def _part(size: int, overlined: bool) -> Part:
    """The interned Part of this size and kind: a list read, where ``Part(...)``
    runs a Python-level ``__new__``.  A size below 1 has no rank and is built
    anew, so a check on it reports the Overpartition constructor's message."""
    if size < 1:
        return Part(size, overlined)
    try:
        return _PARTS[2 * size - overlined]
    except IndexError:
        return _part_table(size)[2 * size - overlined]


def part_text(p: Part) -> str:
    return f"{p.size}~" if p.overlined else str(p.size)


class ParseError(ValueError):
    """Malformed overpartition text or JSON."""


class FrequencyTable:
    """Occurrence counts per size: f(s) plain parts, fbar(s) in {0, 1} overlined."""

    __slots__ = ("_d",)

    def __init__(self, parts):
        d: dict[int, list[int]] = {}
        for p in parts:
            e = d.setdefault(p.size, [0, 0])
            if p.overlined:
                e[1] += 1
            else:
                e[0] += 1
        self._d = d

    def f(self, size: int) -> int:
        e = self._d.get(size)
        return e[0] if e else 0

    def fbar(self, size: int) -> int:
        e = self._d.get(size)
        return e[1] if e else 0

    def sizes(self) -> list[int]:
        return sorted(self._d)

    def max_size(self) -> int:
        return max(self._d) if self._d else 0


class Overpartition:
    """An overpartition: parts nondecreasing in the part order defined above.

    Immutable, with two memo slots filled on first use: ``_marking`` holds the
    marks of the Göllnitz-Gordon marking, the indices of the 1-marked parts and
    whether each of those parts is clearable (``marking.gg_mark``), ``_o_stats``
    the O-family stats (fb, mw, c3) of
    ``o_family_stats`` (``satisfies_family``, or the marking walk that computes
    them anyway)."""

    __slots__ = ("parts", "_marking", "_o_stats")

    def __init__(self, parts=()):
        norm = []
        for p in parts:
            if isinstance(p, Part):
                norm.append(p)
            else:
                s, ov = p
                norm.append(Part(int(s), bool(ov)))
        norm.sort(key=part_key)
        seen = set()
        for p in norm:
            if p.size < 1:
                raise ParseError(f"part size must be positive, got {p.size}")
            if p.overlined:
                if p.size in seen:
                    raise ParseError(f"duplicate overlined part of size {p.size}")
                seen.add(p.size)
        self.parts = tuple(norm)
        self._marking = None
        self._o_stats = None

    @classmethod
    def _from_ordered(cls, parts: tuple[Part, ...], o_stats=None) -> "Overpartition":
        """Wrap Parts already valid and in part order, skipping the checks;
        o_stats, when given, must be their o_family_stats."""
        op = cls.__new__(cls)
        op.parts = parts
        op._marking = None
        op._o_stats = o_stats
        return op

    def weight(self) -> int:
        return sum([p.size for p in self.parts])

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Overpartition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Overpartition({self.to_text()!r})"

    def freq_table(self) -> FrequencyTable:
        return FrequencyTable(self.parts)

    def smallest(self) -> Part:
        if not self.parts:
            raise ValueError("empty overpartition has no smallest part")
        return self.parts[0]

    # -- text / JSON forms ---------------------------------------------------

    def to_text(self) -> str:
        return ",".join(part_text(p) for p in self.parts) if self.parts else "-"

    @classmethod
    def from_text(cls, text: str) -> "Overpartition":
        text = text.strip()
        if text in ("", "-"):
            return cls()
        parts = []
        for raw in text.split(","):
            tok = raw.strip()
            if not tok:
                raise ParseError(f"empty part in {text!r}")
            overlined = False
            if tok.endswith("~"):
                overlined = True
                tok = tok[:-1]
            cleaned = "".join(ch for ch in tok if ch not in OVERLINE_MARKS)
            if cleaned != tok:
                overlined = True
                tok = cleaned
            if not re.fullmatch(r"\d+", tok):
                raise ParseError(f"cannot parse part {raw.strip()!r}")
            parts.append(Part(int(tok), overlined))
        return cls(parts)

    def to_json(self) -> dict:
        return {"parts": [{"size": p.size, "overlined": p.overlined} for p in self.parts]}

    @classmethod
    def from_json(cls, data: dict) -> "Overpartition":
        try:
            return cls(Part(int(d["size"]), bool(d["overlined"])) for d in data["parts"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed overpartition JSON: {exc}") from exc


Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _enumerate(max_weight: int, exact: bool, max_parts: int | None, overlines: bool) -> Iterator[tuple]:
    """Pre-order depth-first walk over part lists of weight <= max_weight (== when
    exact) and at most max_parts parts, in lexicographic part order: a list comes
    before its extensions and a part before any larger one.  Yields tuples of
    Parts with overlines, of ints without."""
    parts: list = []

    def rec(rem: int, smin: int):
        if not exact or rem == 0:
            yield tuple(parts)
        if len(parts) == max_parts:
            return
        for s in range(smin, rem + 1):
            if not overlines:
                kinds: tuple = (s,)
            elif s > smin or not parts:  # an overlined s must exceed the last part
                kinds = (Part(s, True), Part(s, False))
            else:
                kinds = (Part(s, False),)
            for part in kinds:
                parts.append(part)
                yield from rec(rem - s, s)
                parts.pop()

    return rec(max_weight, 1)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All ordinary partitions of n, nondecreasing parts, in lexicographic order."""
    return _enumerate(n, True, None, False)


def enumerate_overpartitions(n: int) -> Iterator[Overpartition]:
    """Every overpartition of weight n exactly once, in lexicographic part order."""
    return map(Overpartition._from_ordered, _enumerate(n, True, None, True))


def iter_overpartitions_bounded(max_weight: int, max_parts: int) -> Iterator[Overpartition]:
    """All overpartitions of weight <= max_weight with at most max_parts parts."""
    return map(Overpartition._from_ordered, _enumerate(max_weight, False, max_parts, True))


def iter_partitions_bounded(max_weight: int, max_parts: int) -> Iterator[Partition]:
    """All partitions of weight <= max_weight with at most max_parts parts."""
    return _enumerate(max_weight, False, max_parts, False)


# ---------------------------------------------------------------------------
# Frequency-condition families
# ---------------------------------------------------------------------------

OVERPARTITION_FAMILIES = frozenset("OPFH")
PARTITION_FAMILIES = frozenset("CDAB")


class FamilyKindError(TypeError):
    """Object kind does not match the family (overpartition vs. partition)."""


class _FamilyFields(NamedTuple):
    family: str
    k: int
    i: int


class FamilySpec(_FamilyFields):
    """A family letter with its parameters k >= i >= 1, checked on construction."""

    __slots__ = ()

    def __new__(cls, family: str, k: int, i: int):
        if family not in OVERPARTITION_FAMILIES | PARTITION_FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if not k >= i >= 1:
            raise ValueError(f"parameters must satisfy k >= i >= 1, got k={k}, i={i}")
        return super().__new__(cls, family, k, i)


def _part_is_f_kind(p: Part) -> bool:
    # smallest-part split: F takes overlined-odd / plain-even smallest parts
    return p.overlined == (p.size % 2 == 1)


def o_family_stats(ft: FrequencyTable) -> tuple[int, int, int]:
    """(overlined-1-plus-2 count, largest even window, largest even count after a
    plain odd; -1 when no plain odd occurs).  An overpartition is in the O family
    for (k, i) iff these are at most i-1, k-1 and k-2 respectively."""
    top = ft.max_size()
    fb = ft.fbar(1) + ft.f(2)
    mw = 0
    for t in range(1, top // 2 + 2):
        w = ft.fbar(2 * t) + ft.f(2 * t) + ft.fbar(2 * t + 1) + ft.f(2 * t + 2)
        if w > mw:
            mw = w
    c3 = -1
    for t in range(0, (top + 1) // 2 + 1):
        if ft.f(2 * t + 1) >= 1 and ft.f(2 * t + 2) > c3:
            c3 = ft.f(2 * t + 2)
    return fb, mw, c3


def _o_caps(k: int, i: int) -> tuple[int, int, int]:
    """The caps of O(k, i) on the O-family stats (fb, mw, c3) (see o_family_stats)."""
    return i - 1, k - 1, k - 2


def _within(stats: tuple[int, ...], caps: tuple[int, ...]) -> bool:
    return all(map(le, stats, caps))


def _in_family_O(stats: tuple[int, int, int], k: int, i: int) -> bool:
    return _within(stats, _o_caps(k, i))


def _in_family_P(ft: FrequencyTable, k: int, i: int) -> bool:
    if i == k:
        d = 2 * k - 1
        return all(s % d != 0 for s in ft.sizes())
    mod = 4 * k - 2
    bad = {0, (2 * i - 1) % mod, (mod - (2 * i - 1)) % mod}
    return all(s % mod not in bad for s in ft.sizes() if ft.f(s))


def _in_family_B(ft: FrequencyTable, k: int, i: int) -> bool:
    if ft.f(1) > i - 1:
        return False
    top = ft.max_size()
    return all(ft.f(t) + ft.f(t + 1) <= k - 1 for t in range(1, top + 1))


def _in_family_A(ft: FrequencyTable, k: int, i: int) -> bool:
    mod = 2 * k + 1
    bad = {0, i % mod, (mod - i) % mod}
    return all(s % mod not in bad for s in ft.sizes())


def _in_family_C(ft: FrequencyTable, k: int, i: int) -> bool:
    if ft.f(1) + ft.f(2) > i - 1:
        return False
    top = ft.max_size()
    for t in range(0, (top + 1) // 2 + 1):
        if ft.f(2 * t + 1) > 1:
            return False
    for t in range(1, top // 2 + 2):
        if ft.f(2 * t) + ft.f(2 * t + 1) + ft.f(2 * t + 2) > k - 1:
            return False
    return True


def _in_family_D(ft: FrequencyTable, k: int, i: int) -> bool:
    mod = 4 * k
    bad = {0, (2 * i - 1) % mod, (mod - (2 * i - 1)) % mod}
    return all(s % 4 != 2 and s % mod not in bad for s in ft.sizes())


def satisfies_family(obj, spec: FamilySpec) -> bool:
    """True iff obj satisfies every clause of the named family.

    O/P/F/H take an Overpartition; C/D/A/B take an ordinary partition
    (any iterable of positive ints).  The empty object belongs to every
    O/P/C/D/A/B family and to neither F nor H.
    """
    fam = spec.family
    if fam in OVERPARTITION_FAMILIES:
        if not isinstance(obj, Overpartition):
            raise FamilyKindError(f"family {fam} needs an Overpartition, got {type(obj).__name__}")
        if fam == "P":
            return _in_family_P(obj.freq_table(), spec.k, spec.i)
        stats = obj._o_stats
        if stats is None:
            stats = obj._o_stats = o_family_stats(obj.freq_table())
        if fam == "O":
            return _in_family_O(stats, spec.k, spec.i)
        if not obj.parts or not _in_family_O(stats, spec.k, spec.i):
            return False
        return _part_is_f_kind(obj.smallest()) == (fam == "F")
    if isinstance(obj, Overpartition):
        raise FamilyKindError(f"family {fam} needs an ordinary partition, got an Overpartition")
    ft = FrequencyTable(Part(s, False) for s in obj)
    if fam == "B":
        return _in_family_B(ft, spec.k, spec.i)
    if fam == "A":
        return _in_family_A(ft, spec.k, spec.i)
    if fam == "C":
        return _in_family_C(ft, spec.k, spec.i)
    return _in_family_D(ft, spec.k, spec.i)


# ---------------------------------------------------------------------------
# Count tables by a size-by-size DP (exhaustive oracles for the verifier)
#
# Each clause reads the counts of a few consecutive sizes, so objects are built
# one size at a time carrying a small state (O: open window and smallest-part
# kind; B: the count just above; C: open window; P, A, D: none).  The walk runs
# top-down, from n_max + 1 (an empty size above every window) down to 1.  This
# is the transfer-matrix method (Stanley, EC1 4.7): it counts from the clauses
# alone, never from a generating function.
#
# Of all the clauses only the first window reads i: fbar(1) + f(2) <= i-1 for
# O, f(1) <= i-1 for B and f(1) + f(2) <= i-1 for C.  Walked top-down it closes
# at size 1, so its value is the final state, and every cap before it is k-1,
# which bounds it for every i <= k.  `groups` then names each requested i whose
# clause the final state admits: one run per (family, k) serves every i.  P, A
# and D ban residues that read i at every size, so they keep one run per (k, i).
#
# Each live state holds its table as one packed int (Kronecker substitution, as
# in the series kernel).  An (m parts, weight n) table keeps the count of (m, n)
# in slot n*(n_max+1) + m, so appending c parts of size s is one shift by
# s*c*(n_max+1) + c slots; since m <= n, no entry reaches the next weight row,
# and the unpack reads only the m <= n triangle.  A per-weight table
# (by_weight) has no m axis: the count of weight n sits in slot n, c parts of
# size s shift it by s*c slots, and the unpack reads n_max + 1 slots.  Either
# way one mask drops the weights above n_max, and merging two states is one add.
# Every slot counts distinct objects of weight <= n_max, so the number of all
# such (over)partitions bounds it and sets the slot width, with the top bit of
# each slot to spare.  Each add checks those top bits: two slots below half the
# slot's range add without a carry into the next slot, and a sum that reaches
# half the range sets its top bit and raises CountOverflowError, so a slot that
# overflowed can never reach a verdict.
# ---------------------------------------------------------------------------


class CountOverflowError(ArithmeticError):
    """A packed count table's slot outgrew its width."""


class CountTable(dict):
    """A sweep's {(m, n): count} table, exact for every weight n <= n_max."""

    __slots__ = ("n_max",)

    def __init__(self, n_max: int, counts=()):
        super().__init__(counts)
        self.n_max = n_max


@lru_cache(maxsize=32)
def _count_slot_bytes(n_max: int, overlines: bool) -> int:
    """Slot width in bytes of the packed tables: enough for the number of all
    (over)partitions of weight <= n_max, by a univariate DP."""
    total = [1] + [0] * n_max
    for s in range(1, n_max + 1):
        for w in range(s, n_max + 1):
            total[w] += total[w - s]
        if overlines:
            for w in range(n_max, s - 1, -1):
                total[w] += total[w - s]
    return _slot_bytes(sum(total))


def _count_tables(n_max: int, step, start, overlines: bool = True,
                  groups=lambda state: ("*",), by_weight: bool = False) -> dict:
    """{group: table} over all objects of weight <= n_max, where an object counts
    in every group that `groups(final state)` names.  A table is a CountTable,
    or with by_weight the list of its per-weight totals, n = 0..n_max.

    `step(state, s, o, f)` is the state after o overlined and f plain parts of
    size s, the sizes walked from n_max + 1 down to 1, or None when a clause
    fails; each clause bounds a sum of counts, so every larger f fails too."""
    row = n_max + 1
    slots = row if by_weight else row * row
    wb = _count_slot_bytes(n_max, overlines)
    bits = 8 * wb
    full = (1 << bits * slots) - 1
    top = int.from_bytes((bytes(wb - 1) + b"\x80") * slots, "little")
    n_stride, m_stride = (1, 0) if by_weight else (row, 1)  # (m, n) is slot n*n_stride + m*m_stride

    def add_into(into: dict, key, packed: int) -> None:
        if key in into:
            packed += into[key]
            if packed & top:
                raise CountOverflowError(
                    f"packed count table overflowed its {wb}-byte slots at n_max={n_max}")
        into[key] = packed

    live = {start: 1}
    for s in range(n_max + 1, 0, -1):
        nxt: dict = {}
        for state, packed in live.items():
            for o in ((0, 1) if overlines else (0,)):
                for f in range(n_max // s - o + 1):
                    new = step(state, s, o, f)
                    if new is None:
                        break
                    c = o + f
                    shift = bits * (s * c * n_stride + c * m_stride)
                    add_into(nxt, new, (packed << shift) & full)
        live = nxt
    packed_by: dict = {}
    for state, packed in live.items():
        for g in groups(state):
            add_into(packed_by, g, packed)
    tables = {}
    for g, packed in packed_by.items():
        counts = _unpack(packed, slots, wb)
        if by_weight:
            tables[g] = counts
        else:
            tables[g] = CountTable(n_max, {
                (m, n): cnt for n in range(row)
                for m, cnt in enumerate(counts[n * row:n * row + n + 1]) if cnt})
    return tables


def _i_by_k(pairs) -> dict[int, list[int]]:
    """The requested i of each requested k, both ascending."""
    by_k: dict[int, list[int]] = {}
    for (k, i) in sorted(set(pairs)):
        by_k.setdefault(k, []).append(i)
    return by_k


def _window_step(k: int, odd_add):
    """Bound each window (2t, 2t+1, 2t+2), t >= 1, by k-1.  The state is f(s)
    after an even size s and grows by `odd_add(o, f)` at the odd size below it,
    so after size 1 it is the first window: fbar(1) + f(2) for O, whose odd
    sizes add fbar, and f(1) + f(2) for C, whose odd sizes add f."""

    def step(carry, s, o, f):
        if s % 2:
            carry += odd_add(o, f)
            return carry if carry <= k - 1 else None
        return f if carry + o + f <= k - 1 else None

    return step


def _o_step(k: int):
    """O family; state (window, smallest-part kind 0/F=1/H=2).  At an odd size s
    the window holds f(s+1) alone, which a plain s caps at k-2."""
    window = _window_step(k, lambda o, f: o)

    def step(state, s, o, f):
        carry, kind = state
        if s % 2 and f and carry > k - 2:
            return None
        carry = window(carry, s, o, f)
        if carry is None:
            return None
        if o + f:  # the smallest part so far; an overlined s precedes a plain one
            kind = 1 if _part_is_f_kind(Part(s, o == 1)) else 2
        return (carry, kind)

    return step


# the families an O-family object counts in, by its smallest-part kind (0 = empty)
_OFH_GROUPS = (("O",), ("O", "F"), ("O", "H"))


def overpartition_ofh_tables(n_max: int, pairs, by_weight: bool = False) -> dict:
    """{(family, k, i): table} of the O family and its F/H smallest-part split
    for every (k, i) in `pairs`, exact for all overpartitions of weight <= n_max:
    CountTables, or with by_weight lists of per-n counts."""
    tables = {}
    for k, ks in _i_by_k(pairs).items():
        # the final state's window is fbar(1) + f(2), which (k, i) caps at i-1
        by_group = _count_tables(n_max, _o_step(k), (0, 0), by_weight=by_weight, groups=lambda st: [
            (fam, i) for i in ks if st[0] < i for fam in _OFH_GROUPS[st[1]]])
        for i in ks:
            for fam in "OFH":  # a family with no member yet (F and H at small n) is empty
                tables[(fam, k, i)] = by_group.get((fam, i)) or (
                    [0] * (n_max + 1) if by_weight else CountTable(n_max))
    return tables


def overpartition_p_counts(n_max: int, pairs) -> dict[tuple[int, int], list[int]]:
    """Per-n counts, n <= n_max, of the modular-restriction overpartition family P."""
    counts = {}
    for (k, i) in sorted(set(pairs)):
        # i = k bans both kinds at multiples of 2k-1; i < k bans plain parts only
        mod = 2 * k - 1 if i == k else 4 * k - 2
        bad = {0} if i == k else {0, (2 * i - 1) % mod, (mod - (2 * i - 1)) % mod}
        step = lambda st, s, o, f: None if (f or (o and i == k)) and s % mod in bad else st
        counts[(k, i)] = _count_tables(n_max, step, (), by_weight=True)["*"]
    return counts


def partition_family_tables(n_max: int, pairs, families: str = "BCAD",
                            by_weight: bool = False) -> dict:
    """{(family, k, i): table}, weight <= n_max, of the ordinary-partition
    families B, C (frequency conditions) and A, D (modular restrictions); only
    those named in `families` are built.  Tables as in overpartition_ofh_tables."""
    tables = {}
    for k, ks in _i_by_k(pairs).items():
        c_window = _window_step(k, lambda o, f: f)
        # the final state is f(1) for B and f(1) + f(2) for C, which (k, i) caps at i-1
        windows = {
            "B": lambda above, s, o, f: None if above + f > k - 1 else f,
            "C": lambda win, s, o, f: None if s % 2 and f > 1 else c_window(win, s, o, f),
        }
        for fam in families:
            if fam in windows:
                by_i = _count_tables(n_max, windows[fam], 0, overlines=False, by_weight=by_weight,
                                     groups=lambda first: [i for i in ks if first < i])
                tables.update(((fam, k, i), by_i[i]) for i in ks)
                continue
            for i in ks:
                # A bans residues 0, +-i mod 2k+1; D bans 0, +-(2i-1) mod 4k and 2 mod 4
                mod, r = (2 * k + 1, i) if fam == "A" else (4 * k, 2 * i - 1)
                bad = {0, r % mod, (mod - r) % mod}
                step = lambda st, s, o, f: (None if f and (s % mod in bad or fam == "D" and s % 4 == 2)
                                            else st)
                tables[(fam, k, i)] = _count_tables(n_max, step, (), overlines=False,
                                                    by_weight=by_weight)["*"]
    return tables


def family_counts_by_n(table: dict[tuple[int, int], int], n_max: int) -> list[int]:
    """Collapse an (m, n) table to per-n totals."""
    out = [0] * (n_max + 1)
    for (_, n), c in table.items():
        if n <= n_max:
            out[n] += c
    return out
