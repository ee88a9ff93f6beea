"""Verification of the counting theorems, q-series identities, and bijections.

Every check computes its two sides by independent routes (multisum vs product,
enumeration vs closed form, forward map vs inverse) in exact arithmetic; nothing
is compared with a tolerance.  Every verdict that equates two sides goes through
_compare, whose failure detail is one line,

    first difference at <where>: <name>=<value>, <name>=<value>

where <where> is q^e for two q-series, x^m q^n for two bivariate series and
n=<n> for two sequences indexed by n.  A bound below zero, which would compare
nothing, is refused with a ValueError.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from . import bailey as bailey_mod

# _map_checks looks each map and classifier up here by name when it calls it,
# so a patched or traced one runs; every name must stay a module attribute
from .bijections import (
    _step_table,
    fh_toggle,
    fh_untoggle,
    double,
    halve,
    lambda_chain,
    lambda_full,
    lambda_step,
    phi_chain,
    phi_full,
    phi_step,
    psi_chain,
    psi_full,
    psi_step,
    theta_chain,
    theta_full,
    theta_step,
)
from .marking import (
    _PHI,
    _THETA,
    _last_flagged,
    _walk,
    classify_f,
    classify_g,
    gg_mark,
    gordon_mark,
    gordon_row_counts,
    is_doubled,
    is_stable,
)
from .partitions import (
    FamilySpec,
    Overpartition,
    _i_by_k,
    _o_caps,
    _part_table,
    _within,
    family_counts_by_n,
    iter_partitions_bounded,
    overpartition_ofh_tables,
    overpartition_p_counts,
    partition_family_tables,
    satisfies_family,
)
from .series import (
    BivariateSeries,
    LaurentSeries,
    inverse_euler_product,
    inverse_pochhammer,
    pochhammer_finite,
    pochhammer_infinite,
    product_triple,
    sum_of_products,
    theta_bressoud_sum,
    triple_product,
)

IDENTITY_TAGS = (
    "AG", "AG-X", "BRESSOUD", "BRESSOUD-X", "OGG", "OGG-X", "F-GF", "H-GF",
    "CLASS-F", "CLASS-G", "CLASS-E", "CLASS-B", "LEM-N1", "LEM-N2", "JTP",
)
SUMMED_TAGS = ("AG", "AG-X", "BRESSOUD", "BRESSOUD-X", "OGG", "OGG-X", "F-GF", "H-GF")
CLASS_TAGS = ("CLASS-F", "CLASS-G", "CLASS-E", "CLASS-B", "LEM-N1", "LEM-N2")

_ENUM_FAMILY = {"AG-X": "B", "BRESSOUD-X": "C", "OGG-X": "O", "F-GF": "F", "H-GF": "H"}


class DegenerateIdentityError(ValueError):
    """A summed identity was requested with no summation variables (k = 1)."""


class VerificationReport(NamedTuple):
    """One verdict: what was compared (identity, params, truncation), whether
    it held, and the first difference or the check count (detail).  Its params
    dict leaves it unhashable."""

    identity: str
    params: dict
    truncation: int | None
    ok: bool
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "truncation": self.truncation,
            "verdict": self.verdict,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        tail = f": {self.detail}" if self.detail and not self.ok else ""
        ts = f" T={self.truncation}" if self.truncation is not None else ""
        return f"{self.verdict.upper():4s} {self.identity} {ps}{ts}{tail}"


def _compare(tag: str, params: dict, T: int | None, lhs, rhs,
             names: tuple[str, str] = ("lhs", "rhs")) -> VerificationReport:
    """The verdict that lhs equals rhs: two LaurentSeries or two BivariateSeries,
    compared by first_difference, or two equally long lists indexed by n, compared
    with != up to the first n where they differ.  A failure names that place and
    both sides' values there."""
    if isinstance(lhs, list):
        diff = next((n for n, (a, b) in enumerate(zip(lhs, rhs, strict=True)) if a != b), None)
    else:
        diff = lhs.first_difference(rhs)
    if diff is None:
        return VerificationReport(tag, params, T, True)
    if isinstance(lhs, list):
        where, (a, b) = f"n={diff}", (lhs[diff], rhs[diff])
    elif isinstance(lhs, BivariateSeries):
        n, m = diff
        where, (a, b) = f"x^{m} q^{n}", (s.coefficient(n).get(m, 0) for s in (lhs, rhs))
    else:
        where, (a, b) = f"q^{diff}", (s.coefficient(diff) for s in (lhs, rhs))
    return VerificationReport(tag, params, T, False,
                              f"first difference at {where}: {names[0]}={a}, {names[1]}={b}")


def _check_bound(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {name}={value}")


def _check_pair(k: int, i: int) -> None:
    if not k >= i >= 1:
        raise ValueError(f"parameters must satisfy k >= i >= 1, got k={k}, i={i}")


def _check_ceiling(name: str, value: int | None, ceiling: int) -> None:
    """Refuse a bound past its fixed ceiling (None is a default, never past it)."""
    if value is not None and value > ceiling:
        raise ValueError(f"{name}={value} is past the ceiling of {ceiling}")


# ---------------------------------------------------------------------------
# Multisum left-hand sides and product right-hand sides
# ---------------------------------------------------------------------------

# A class closed form is the term of one profile N_1 >= ... >= N_{k-1} >= N_k = 0,
#   q^{g(sum_j N_j^2 + sum_{j >= i+off} N_j)} brackets(N_1) prod_j 1/(q^g; q^g)_{N_j - N_{j+1}},
# with _FORMS[name] = (g, off, brackets).  brackets is a word over
#   "o" = (-q^{1-2N_1}; q^2)_{N_1} = q^{-N_1^2} (-q; q^2)_{N_1},
#   "e" = (-q^{2-2N_1}; q^2)_{N_1-1} = q^{-N_1(N_1-1)} (-q^2; q^2)_{N_1-1},
# and "oe" = q^{-N_1^2-N_1(N_1-1)} (-q; q)_{2N_1-1}.  A summed
# form adds these terms over all profiles, level by level, as the beta side of
# a Bailey-lemma step does: with A_k(M) = [M = 0],
#   A_j(N) = level_j(N) sum_{M <= N} A_{j+1}(M) / (q^g; q^g)_{N-M},
#   level_j(N) = q^{g(N^2 + N [j >= i+off])},
# where brackets(N) multiplies level 1, and OGG multiplies level i by
# (1 + q^{2N}) (the constant 2 on A_k when i = k).  The sum is 1 plus
# sum_{N >= 1} A_1(N); F-GF and H-GF leave out the 1.
_FORMS: dict[str, tuple[int, int, str]] = {
    "AG": (1, 0, ""), "AG-X": (1, 0, ""), "B": (1, 0, ""),
    "BRESSOUD": (2, 0, "o"), "BRESSOUD-X": (2, 0, "o"), "G": (2, 0, "o"),
    "E": (2, 0, ""),
    "F-GF": (2, 0, "oe"), "F": (2, 0, "oe"),
    "H-GF": (2, 1, "oe"), "OGG": (2, 1, "oe"), "OGG-X": (2, 1, "oe"),
}


def _bracket_form(brackets: str, n1: int) -> tuple[int, tuple[int, int, int]]:
    """(lowest exponent, (shift, base, length)) of brackets(N_1) at N_1 = n1:
    the bracket is q^lowest (-q^shift; q^base)_length."""
    if brackets == "o":
        return -n1 * n1, (1, 2, n1)
    if brackets == "e":
        return -n1 * (n1 - 1), (2, 2, max(n1 - 1, 0))
    if brackets == "oe":
        return -n1 * n1 - n1 * (n1 - 1), (1, 1, max(2 * n1 - 1, 0))
    return 0, (1, 1, 0)


def _bracket(g: int, brackets: str, n1: int, T: int) -> LaurentSeries:
    """q^{g N_1^2} brackets(N_1), truncated at T: the memoized positive Pochhammer
    of _bracket_form to T less its lowest exponent, shifted up by that exponent."""
    low, (shift, base, length) = _bracket_form(brackets, n1)
    low += g * n1 * n1
    if low > T:
        return LaurentSeries.zero(T)
    return pochhammer_finite(-1, shift, base, length, T - low).shift(low)


def _profile_term(form: str, profile: tuple[int, ...], i: int, T: int) -> LaurentSeries:
    """The term of the closed form `form` at profile (N_1, ..., N_{k-1}), truncated at T."""
    g, off, brackets = _FORMS[form]
    s = _bracket(g, brackets, profile[0] if profile else 0, T)
    e = g * (sum(n * n for n in profile[1:]) + sum(profile[i - 1 + off:]))
    s = s.shift(e).truncated(T)
    if form in ("OGG", "OGG-X"):
        n_i = profile[i - 1] if i <= len(profile) else 0  # an absent N_k counts as zero
        s = s + s.shift(2 * n_i).truncated(T)
    for j, n in enumerate(profile):
        d = n - (profile[j + 1] if j + 1 < len(profile) else 0)
        s = s * inverse_pochhammer(g, d, T)
    return s.truncated(T)


def _tuple_increment(tag: str, i: int, j: int, n: int) -> int:
    """Exact order contribution of N_j = n (1-based position j) to the term's
    lowest exponent; the brackets' lowest exponent is charged at j = 1."""
    g, off, brackets = _FORMS[tag]
    inc = g * n * n + (g * n if j >= i + off else 0)
    if j == 1:
        inc += _bracket_form(brackets, n)[0]
    return inc


def _saturated(g: int, low: dict[int, int], n: int, inner: int) -> bool:
    """Whether every term of the level below, M -> e_M the lowest exponent of
    A(M), meets _inv_poch_sum's fold at N = n: g(n - M + 1) > inner - e_M, where
    inner = inner(n).  Once it holds it holds at every larger N, where g(N - M + 1)
    grows and inner(N) falls; and a term with M > n meets it only if A(M) is 0 up
    to inner(n), so the sum at n already has every term that counts."""
    return all(g * (n - m + 1) > inner - e for m, e in low.items())


def multisum_lhs(tag: str, k: int, i: int, T: int, x_tracking: bool = False):
    """The summed side of the identity named by tag, truncated at T.

    With x_tracking, each profile's term carries x**(N_1+...+N_{k-1});
    the return value is then a BivariateSeries.  Level 1 files each N's pairs
    (factor, level sum of x-degree d) under the x-degree d + N, or all under 0
    without x_tracking, and each x-degree's total is one sum_of_products.
    """
    if tag not in SUMMED_TAGS:
        raise ValueError(f"{tag} has no multisum form")
    _check_pair(k, i)
    _check_bound("T", T)
    if k < 2:
        raise DegenerateIdentityError(f"degenerate form: {tag} needs k >= 2")
    g, off, brackets = _FORMS[tag]
    ogg = tag in ("OGG", "OGG-X")

    depths: dict[int, list[int]] = {}

    def depth(j: int, n: int) -> int:
        """The least exponent levels 1..j-1 add above N_j = n (each increment grows
        with N): A_j(n) is needed to T - depth(j, n), and is 0 once depth(j+1, n) > T."""
        if n not in depths:  # the running sums of the increments of levels 1..k-1
            run = [0]
            for level in range(1, k):
                run.append(run[-1] + _tuple_increment(tag, i, level, n))
            depths[n] = run
        return depths[n][j - 1]

    def level_sums(below: dict, n: int, inner: int) -> dict[int, LaurentSeries]:
        """sum_{M <= n} A(M) / (q^g; q^g)_{n-M} to inner, A(M) read from below,
        one sum per x-degree."""
        by_degree: dict[int, list] = {}
        for m, vals in below.items():
            if m > n:
                break
            for d, v in vals.items():
                by_degree.setdefault(d, []).append((m, v))
        return {d: bailey_mod._inv_poch_sum(g, ts, n, inner) for d, ts in by_degree.items()}

    # each level's values by N, each keyed by its x-degree (always 0 without x_tracking)
    below = {0: {0: LaurentSeries.monomial(0, T, 2 if ogg and i == k else 1)}}
    pairs: dict[int, list] = {}  # level 1's (factor, level sum) pairs by x-degree
    for j in range(k - 1, 0, -1):
        # The level saturates at the first N where every term of the level below
        # meets _inv_poch_sum's fold (_saturated): from then on its sum of degree d
        # is sat[d] = (sum_M A(M)) / (q^g; q^g)_oo, cut at inner(N).  At level 1 a
        # factor's lowest exponent is depth(2, N) >= depth(2, N*), so it pairs with
        # sat[d] uncut; without x_tracking the factors of the saturated N are
        # added up and paired with sat[0] once.
        low = {m: min(v.effective_min() for v in vals.values()) for m, vals in below.items()}
        sat = fused = None
        level = {}
        n = 1 if j == 1 else 0
        while (inner := T - depth(j + 1, n)) >= 0:
            lin = g * n if j >= i + off else 0
            if sat is None and _saturated(g, low, n, inner):
                sat = level_sums(below, n, inner)
            if j == 1:
                f = _bracket(g, brackets, n, T).shift(lin)
                if ogg and i == 1:
                    f = f + f.shift(2 * n)
                if sat is not None and not x_tracking:
                    fused = f if fused is None else fused + f
                else:
                    for d, s in (level_sums(below, n, inner) if sat is None else sat).items():
                        pairs.setdefault(d + n if x_tracking else d, []).append((f, s))
            else:
                if sat is None:
                    sums = level_sums(below, n, inner)
                else:
                    sums = {d: s.truncated(inner) for d, s in sat.items()}
                vals = {}
                for d, s in sums.items():
                    s = s.shift(g * n * n + lin)
                    if ogg and j == i:
                        s = s + s.shift(2 * n)
                    vals[d + n if x_tracking else d] = s
                level[n] = vals
            n += 1
        below = level
    if fused is not None:
        pairs.setdefault(0, []).append((fused, sat[0]))
    if tag not in ("F-GF", "H-GF"):
        one = LaurentSeries.one(T)
        pairs.setdefault(0, []).append((one, one))  # the all-zero profile
    if not x_tracking:
        return sum_of_products(pairs.get(0, []), T)
    return BivariateSeries.from_rows({d: sum_of_products(ps, T) for d, ps in pairs.items()}, T)


def product_rhs(tag: str, k: int, i: int, T: int) -> LaurentSeries:
    """The product side of the identity named by tag, truncated at T."""
    _check_pair(k, i)
    _check_bound("T", T)
    if tag in ("AG", "AG-X"):
        out = triple_product(i, 2 * k + 1, T)
    elif tag in ("BRESSOUD", "BRESSOUD-X"):
        out = pochhammer_infinite(1, 2, 4, T) * triple_product(2 * i - 1, 4 * k, T)
    elif tag in ("OGG", "OGG-X"):
        out = pochhammer_infinite(-1, 1, 1, T) * product_triple(k, i, T)
    else:
        raise ValueError(f"{tag} has no product form")
    return (out * inverse_euler_product(T)).truncated(T)


# ---------------------------------------------------------------------------
# Profile-indexed class generating functions
# ---------------------------------------------------------------------------


_CLASS_FLAGS = {"F": 0, "G": 1, "E": 2, "B": 0}  # each class's flag in its bucket's table


def _class_rule(cls: str, k: int, i: int) -> tuple[int, tuple[int, ...]]:
    """(the flag cls needs, the caps on the bucket key): an item is in the class
    cls at (k, i) when its flag holds and its key is within the caps.  The key is
    (fb, mw, c3) for F, G and E, and (f(1), the largest f(t) + f(t+1)) for B."""
    if cls not in _CLASS_FLAGS:
        raise ValueError(cls)
    return _CLASS_FLAGS[cls], (i - 1, k - 1) if cls == "B" else _o_caps(k, i)


class ClassRecord(NamedTuple):
    """One bucketed overpartition with the statistics class membership reads."""

    op: Overpartition
    weight: int
    fb: int
    mw: int
    c3: int
    stable: bool
    reduced: bool
    doubled: bool


class ClassBucket(list):
    """The items of one marking profile in walk order (ClassRecords, or the
    partitions CLASS-B reads), with a table that counts them by membership key:
    table[key] holds one weight histogram per flag (stable, reduced and doubled
    for F, G and E; one for B).  A class verdict sums its flag's histograms
    within its caps (_class_rule), so it costs the bucket's keys, not its items."""

    __slots__ = ("table",)

    def __init__(self):
        super().__init__()
        self.table: dict[tuple[int, ...], tuple[Counter, ...]] = {}

    def add(self, item, key: tuple[int, ...], weight: int, *flags: bool) -> None:
        """Append item and count it at weight under key for each flag that holds;
        the first flag holds whenever another does, and an item without it is not
        counted."""
        self.append(item)
        if flags[0]:
            hists = self.table.get(key)
            if hists is None:
                hists = self.table[key] = tuple(Counter() for _ in flags)
            for flag, hist in zip(flags, hists):
                if flag:
                    hist[weight] += 1

    def histogram(self, cls: str, k: int, i: int) -> Counter:
        """Weight -> count of the items in the class cls at (k, i)."""
        flag, caps = _class_rule(cls, k, i)
        out: Counter = Counter()
        for key, hists in self.table.items():
            if _within(key, caps):
                out.update(hists[flag])
        return out


def collect_class_buckets(n1_max: int, rows_max: int, weight_max: int
                          ) -> dict[tuple[int, ...], ClassBucket]:
    """All overpartitions of weight <= weight_max bucketed by marking profile,
    restricted to at most rows_max rows of width at most n1_max.

    Buckets reused for verify_class_lemma at truncation T must reach weight
    T + n1_max**2: the shifted comparison reads the inner class that far.
    """
    buckets: dict[tuple[int, ...], ClassBucket] = {}
    for op, rows, stats, (weight, stable, reduced, doubled) in _walk(
            weight_max, row1_max=n1_max, rows_max=rows_max):
        bucket = buckets.get(rows)
        if bucket is None:
            bucket = buckets[rows] = ClassBucket()
        bucket.add(ClassRecord(op, weight, *stats, stable, reduced, doubled),
                   stats, weight, stable, reduced, doubled)
    return buckets


def collect_partition_buckets(n1_max: int, rows_max: int, weight_max: int
                              ) -> dict[tuple[int, ...], ClassBucket]:
    """Ordinary partitions bucketed by their greedy-marking profile, each keyed
    for CLASS-B by (f(1), the largest f(t) + f(t+1))."""
    buckets = {(): ClassBucket()}
    buckets[()].add((), (0, 0), 0, True)
    for parts in iter_partitions_bounded(weight_max, n1_max * rows_max):
        if not parts:
            continue
        rows = gordon_row_counts(parts)
        if len(rows) <= rows_max and rows[0] <= n1_max:
            bucket = buckets.get(rows)
            if bucket is None:
                bucket = buckets[rows] = ClassBucket()
            freq = Counter(parts)
            key = (freq[1], max(c + freq[t + 1] for t, c in freq.items()))
            bucket.add(parts, key, sum(parts), True)
    return buckets


def _trim(profile) -> tuple[int, ...]:
    p = tuple(profile)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _check_class_params(profile, i: int, T: int) -> tuple[tuple[int, ...], int]:
    """The validated profile and its k for a profile-indexed check."""
    p = tuple(int(x) for x in profile)
    if any(x < 0 for x in p) or any(p[j] < p[j + 1] for j in range(len(p) - 1)):
        raise ValueError(f"profile must be nonincreasing and nonnegative, got {p}")
    k = len(p) + 1
    if not k >= i >= 1:
        raise ValueError(f"profile length must be k-1 with k >= i >= 1, got k={k}, i={i}")
    _check_bound("T", T)
    return p, k


def _class_histogram(buckets, profile: tuple[int, ...], cls: str, k: int, i: int) -> Counter:
    bucket = buckets.get(_trim(profile))
    return bucket.histogram(cls, k, i) if bucket is not None else Counter()


def verify_class_gf(profile, i: int, T: int, cls: str,
                    buckets=None, partition_buckets=None) -> VerificationReport:
    """Compare the enumerated weight series of a profile-indexed class with its
    closed form (cls in F/G/E/B), at truncation T."""
    profile, k = _check_class_params(profile, i, T)
    n1 = profile[0] if profile else 0
    params = {"profile": profile, "k": k, "i": i}
    if cls == "B":
        buckets = partition_buckets
    if buckets is None:
        _check_ceiling("class bucket reach", T, _PROFILE_REACH_MAX)
        collect = collect_partition_buckets if cls == "B" else collect_class_buckets
        buckets = collect(max(n1, 1), max(k - 1, 1), T)
    lhs = LaurentSeries.from_terms(_class_histogram(buckets, profile, cls, k, i), T)
    rhs = _profile_term(cls, profile, i, T)
    return _compare(f"CLASS-{cls}", params, T, lhs, rhs)


# each reduction law: (its Pochhammer bracket, the inner class, the outer class)
_LEMMAS = {"LEM-N1": ("e", "G", "F"), "LEM-N2": ("o", "E", "G")}


# class buckets walk every overpartition up to their reach, T for a class form and
# T + N_1^2 for a lemma, nesting one generator per part; at 46
# (--profile 4,4,4,4,4,4) a profile task takes 15 s, at 55 (--profile 5,1) 34 s
# and 1.2 GiB, and at 10^6 the walk overflows the stack (2-CPU Xeon)
_PROFILE_REACH_MAX = 46


def _lemma_reach(n1: int, T: int) -> int:
    """The weight the class buckets reach for both laws at N_1 = n1 and truncation
    T: each reads its inner class to T less its bracket's lowest exponent."""
    return max(T - _bracket_form(word, n1)[0] for word, _, _ in _LEMMAS.values())


def verify_class_lemma(which: str, profile, i: int, T: int,
                       buckets=None) -> VerificationReport:
    """The two profile-level reduction laws: the F-class series equals a finite
    even Pochhammer times the G-class series (LEM-N1), and the G-class series
    equals a finite odd Pochhammer times the E-class series (LEM-N2).  That
    Pochhammer is a bracket, q^low times a positive one (_bracket_form), so the
    right side is the positive Pochhammer times the inner class series, both to
    T - low, shifted up by low."""
    profile, k = _check_class_params(profile, i, T)
    n1 = profile[0] if profile else 0
    if which not in _LEMMAS:
        raise ValueError(which)
    word, lo_cls, hi_cls = _LEMMAS[which]
    low, (shift, base, length) = _bracket_form(word, n1)
    reach = T - low
    if buckets is None:
        _check_ceiling("class bucket reach", reach, _PROFILE_REACH_MAX)
        buckets = collect_class_buckets(max(n1, 1), max(k - 1, 1), reach)
    lo = _class_histogram(buckets, profile, lo_cls, k, i)
    hi = _class_histogram(buckets, profile, hi_cls, k, i)
    lhs = LaurentSeries.from_terms(hi, T)
    poch = pochhammer_finite(-1, shift, base, length, reach)
    rhs = (poch * LaurentSeries.from_terms(lo, reach)).shift(low)
    params = {"profile": profile, "k": k, "i": i}
    return _compare(which, params, T, lhs, rhs)


def verify_profile(profile, i: int, T: int) -> list[VerificationReport]:
    """The six checks of one profile (CLASS-B/E/G/F, LEM-N1/N2) at truncation T,
    as six verify_identity calls give them, from one class bucket build at the
    furthest reach they need (a lemma's) and one partition bucket build."""
    profile, k = _check_class_params(profile, i, T)
    n1 = profile[0] if profile else 0
    reach = _lemma_reach(n1, T)
    _check_ceiling("class bucket reach", reach, _PROFILE_REACH_MAX)
    buckets = collect_class_buckets(max(n1, 1), max(k - 1, 1), reach)
    partition_buckets = collect_partition_buckets(max(n1, 1), max(k - 1, 1), T)
    return [verify_identity(tag, None, i, T, profile=profile, buckets=buckets,
                            partition_buckets=partition_buckets) for tag in CLASS_TAGS]


# ---------------------------------------------------------------------------
# Top-level identity dispatch
# ---------------------------------------------------------------------------


def verify_identity(tag: str, k: int | None = None, i: int | None = None,
                    T: int = 40, profile=None, counts=None,
                    buckets=None, partition_buckets=None) -> VerificationReport:
    """Verify one tagged identity; failures come back as reports, not errors.

    A bivariate identity reads counts, a {(m, n): count} table, when given; a
    sweep's CountTable that reaches only a weight below T is refused with a
    ValueError."""
    if tag not in IDENTITY_TAGS:
        raise ValueError(f"unknown identity tag {tag!r}")
    _check_bound("T", T)
    if tag == "JTP":
        return _compare(tag, {"k": k, "i": i}, T,
                        theta_bressoud_sum(k, i, T), product_triple(k, i, T))
    if tag in ("CLASS-F", "CLASS-G", "CLASS-E", "CLASS-B"):
        return verify_class_gf(profile, i, T, tag[-1],
                               buckets=buckets, partition_buckets=partition_buckets)
    if tag in ("LEM-N1", "LEM-N2"):
        return verify_class_lemma(tag, profile, i, T, buckets=buckets)
    params = {"k": k, "i": i}
    if tag in ("AG", "BRESSOUD", "OGG"):
        return _compare(tag, params, T, multisum_lhs(tag, k, i, T), product_rhs(tag, k, i, T))
    # bivariate: multisum against the exhaustive count tables
    lhs = multisum_lhs(tag, k, i, T, x_tracking=True)
    fam = _ENUM_FAMILY[tag]
    if counts is None:
        if fam in ("B", "C"):
            counts = partition_family_tables(T, [(k, i)], families=fam)[(fam, k, i)]
        else:
            counts = overpartition_ofh_tables(T, [(k, i)])[(fam, k, i)]
    _check_reach(fam, getattr(counts, "n_max", T), "T", T)
    return _compare(tag, params, T, lhs, BivariateSeries.from_counts(counts, T),
                    ("multisum", "enumeration"))


def _check_reach(name: str, reach: int, bound: str, value: int) -> None:
    """Refuse a count table that stops at weight reach, short of the bound it is
    read to: past its reach every count reads zero, so a verdict there is wrong."""
    if reach < value:
        raise ValueError(f"the {name} table reaches n={reach}, short of {bound}={value}")


def _per_weight(table, n_max: int, name: str) -> list[int]:
    """The per-n counts, n <= n_max, of a per-weight list or an (m, n) table.  A
    list, or a sweep's CountTable, that stops short of n_max is refused."""
    reach = len(table) - 1 if isinstance(table, list) else getattr(table, "n_max", n_max)
    _check_reach(name, reach, "n_max", n_max)
    return table[:n_max + 1] if isinstance(table, list) else family_counts_by_n(table, n_max)


def verify_counting(theorem: str, k: int, i: int, n_max: int,
                    ofh_tables=None, p_counts=None, partition_tables=None) -> VerificationReport:
    """Exhaustive equality of the paired counting families up to n_max.  The
    tables not given are built per weight; a given table may be per weight or
    (m, n), and one that stops short of n_max is refused with a ValueError."""
    _check_pair(k, i)
    _check_bound("n_max", n_max)
    if theorem == "T1.5":
        if ofh_tables is None:
            ofh_tables = overpartition_ofh_tables(n_max, [(k, i)], by_weight=True)
        if p_counts is None:
            p_counts = overpartition_p_counts(n_max, [(k, i)])
        left, right = ofh_tables[("O", k, i)], p_counts[(k, i)]
        names = ("O", "P")
    elif theorem in ("T1.1", "T1.2"):
        a, b = ("C", "D") if theorem == "T1.1" else ("B", "A")
        if partition_tables is None:
            partition_tables = partition_family_tables(n_max, [(k, i)], families=a + b,
                                                       by_weight=True)
        left, right = partition_tables[(a, k, i)], partition_tables[(b, k, i)]
        names = (a, b)
    else:
        raise ValueError(f"unknown counting theorem {theorem!r}")
    return _compare(theorem, {"k": k, "i": i, "n_max": n_max}, None,
                    _per_weight(left, n_max, names[0]), _per_weight(right, n_max, names[1]), names)


def _counting_reports(k: int, ii, n_max: int) -> list[VerificationReport]:
    """The T1.1, T1.2 and T1.5 reports of (k, i) for every i in ii, from one
    per-weight sweep of each family: one O/F/H, one B and one C run serve every
    i, and P, A and D take one run per pair."""
    for i in ii:
        _check_pair(k, i)
    _check_bound("n_max", n_max)
    pairs = [(k, i) for i in ii]
    ofh = overpartition_ofh_tables(n_max, pairs, by_weight=True)
    p = overpartition_p_counts(n_max, pairs)
    part = partition_family_tables(n_max, pairs, by_weight=True)
    return [verify_counting(theorem, k, i, n_max, ofh_tables=ofh, p_counts=p, partition_tables=part)
            for i in ii for theorem in ("T1.1", "T1.2", "T1.5")]


# ---------------------------------------------------------------------------
# Bijection sweep
# ---------------------------------------------------------------------------


# The reductions, the odd removal and halve/double read the object alone, and
# the families nest (O(k, i) lies in O(k, i+1) and in O(k+1, i)), so a process
# checks each object once, whatever pairs and weights it sweeps.  The memo is
# keyed on the parts' ranks in part order (2s-1 for an overlined s, 2s for a
# plain s) as one str, so it keeps no Overpartition or marking alive.  Entries
# outlive any change to the maps: code that swaps a map in must call cache_clear().
_OBJECT_MEMO_SIZE = 16384  # above the 11 631 members of O(4, 4) up to weight 18


def _object_key(op: Overpartition) -> str:
    return "".join([chr(2 * s - ov) for s, ov in op.parts])


def _object_from_key(key: str) -> Overpartition:
    ranks = list(map(ord, key))
    table = _part_table((max(ranks, default=0) + 1) // 2)  # the walk's interned Parts
    return Overpartition._from_ordered(tuple([table[r] for r in ranks]))


@lru_cache(maxsize=_OBJECT_MEMO_SIZE)
def _object_checks(key: str) -> tuple[int, str | None]:
    """(checks made, failure message or None) of the sweep's checks that do not
    depend on (k, i), in the sweep's order, for the object encoded by key.  The
    maps use the step table of the sweep that asks (see verify_bijection_pairs),
    or none outside a sweep."""
    return _map_checks(_object_from_key(key))


def _map_checks(op: Overpartition) -> tuple[int, str | None]:
    m = gg_mark(op)
    rows = m.row_counts()
    n1 = rows[0] if rows else 0
    checks = 0
    for red in (_PHI, _THETA):
        if not red.domain(op):
            continue
        full, step, chain, inverse_full, inverse_step, inverse_chain = (
            globals()[f"{name}_{kind}"]
            for name in (red.forward, red.inverse) for kind in ("full", "step", "chain"))
        classify = globals()[red.classify]
        signed, out = full(op)
        checks += 1
        if not red.target(out):
            return checks, f"{op!r}: {red.removal} left {out!r} outside its target class"
        if gg_mark(out).row_counts() != rows:
            return checks, f"{op!r}: {red.removal} changed the marking profile"
        if op.weight() != sum(signed) + out.weight():
            return checks, f"{op!r}: weight split violated by {signed} + {out!r}"
        if inverse_full(signed, out) != op:
            return checks, f"{op!r}: inverse of the {red.removal} differs"
        if p := _last_flagged(red.flags(m)):  # the one pending position, where the step applies
            rep = classify(m, p)
            fixed = red.fixed(m)
            step_name, chain_name = f"{red.kind}step at {p}", f"{red.kind}chain at {p}"
            out = step(op, p)
            checks += 1
            if out.weight() != op.weight() + (2 if p < n1 else 2 - red.parity):
                return checks, f"{op!r}: {step_name} changed weight by {out.weight() - op.weight()}"
            mo = gg_mark(out)
            orep = classify(mo, p)
            if not orep.advanced or orep.subcase != rep.subcase:
                return checks, f"{op!r}: {step_name} landed outside its class"
            if mo.row_counts() != rows:
                return checks, f"{op!r}: {step_name} changed the profile"
            fixed_o = red.fixed(mo)
            if any(fixed[j] != fixed_o[j] for j in range(n1) if j not in (p - 1, p)):
                return checks, f"{op!r}: {step_name} changed an untouched first-row part"
            if inverse_step(out, p) != op:
                return checks, f"{op!r}: inverse {step_name} differs"
            ch = chain(op, p)
            checks += 1
            if ch.weight() != op.weight() + 2 * (n1 - p + 1) - red.parity:
                return checks, f"{op!r}: {chain_name} broke the weight law"
            if not classify(gg_mark(ch), p).cleared:
                return checks, f"{op!r}: {chain_name} did not clear the tail"
            if inverse_chain(ch, p) != op:
                return checks, f"{op!r}: inverse {chain_name} differs"
    if is_doubled(op):
        halves = halve(op)
        checks += 1
        if double(halves) != op:
            return checks, f"{op!r}: halve/double roundtrip differs"
        if op.weight() != 2 * sum(halves):
            return checks, f"{op!r}: halving broke the weight law"
        if gordon_mark(halves) != m.marks:
            return checks, f"{op!r}: halving changed the marks"
    return checks, None


def _pair_checks(op: Overpartition, rows: tuple[int, ...], k: int, i: int,
                 pair_free: tuple[int, str | None]) -> tuple[int, str | None]:
    """(checks made, failure message or None) of the sweep for the pair (k, i) on a
    walked O(k, i) member with marking row counts rows: the row count, then the
    object's pair-free result (see _object_checks), then the F -> H toggle."""
    if len(rows) > k - 1:
        return 0, f"{op!r}: {len(rows)} marking rows exceed k-1={k - 1}"
    checks, msg = pair_free
    if msg is not None:
        return checks, msg
    # a walked member is in O(k, i); F(k, i) adds a stable smallest part
    if op.parts and is_stable(op.smallest()):
        out = fh_toggle(op, k, i)
        checks += 1
        tgt = FamilySpec("H", k, i - 1 if i >= 2 else k)
        if not satisfies_family(out, tgt):
            return checks, f"{op!r}: toggle missed the H family at i={tgt.i}"
        if len(out) != len(op):
            return checks, f"{op!r}: toggle changed the part count"
        want = op.weight() - (2 * len(op) if i == 1 else 0)
        if out.weight() != want:
            return checks, f"{op!r}: toggle changed the weight wrongly"
        if fh_untoggle(out, k, i) != op:
            return checks, f"{op!r}: inverse toggle differs"
    return checks, None


def verify_bijections(k: int, i: int, n_max: int) -> VerificationReport:
    """Run every roundtrip and weight law over all O(k, i) members of weight <= n_max
    in one walk; the report is the failure at the lowest weight, or the checks
    made, unless a check raised first (see _bijection_reports)."""
    _check_bound("n_max", n_max)
    by_weight = verify_bijection_pairs([(k, i)], 0, n_max)
    return _bijection_reports([(k, i)], n_max, by_weight.__getitem__)[0]


def _outcome(check, *args) -> tuple[int, str | Exception | None]:
    """check(*args), or (0, the Exception it raised)."""
    try:
        return check(*args)
    except MemoryError:
        raise
    except Exception as exc:
        return 0, exc


def verify_bijection_pairs(pairs, n_min: int, n_max: int) -> dict[int, tuple[dict, dict]]:
    """The checks of verify_bijections at every weight n_min <= n <= n_max, for
    every (k, i) in pairs: n -> (checks made per pair, first event per pair in
    walk order), where an event is a failure message or the Exception a check
    raised.  A pair with an event at n is not checked further at n.

    One walk covers the smallest family that contains every pair, O(max k,
    max i), exactly at n when the range is one weight, else every weight up to
    n_max.  A member is checked for each pair whose O-family caps its stats meet;
    its pair-free checks come from the object memo, and are not made at all when
    no pair takes the member.  The maps share one bounded step table for the
    whole walk (see ``bijections``)."""
    _check_bound("n_min", n_min)
    if n_max < n_min:
        raise ValueError(f"n_max must be at least n_min, got n_min={n_min}, n_max={n_max}")
    if not pairs:
        raise ValueError("no pair (k, i) to check")
    caps = {}
    for k, i in pairs:
        _check_pair(k, i)
        caps[(k, i)] = _o_caps(k, i)
    results = {n: (dict.fromkeys(caps, 0), {}) for n in range(n_min, n_max + 1)}
    bound = tuple(map(max, zip(*caps.values())))
    with _step_table():
        for op, rows, stats, (n, *_) in _walk(n_max, exact=n_min == n_max, o_caps=bound):
            if n < n_min:
                continue
            checks, events = results[n]
            live = [pair for pair, pair_caps in caps.items()
                    if pair not in events and _within(stats, pair_caps)]
            if not live:
                continue
            pair_free = _outcome(_object_checks, _object_key(op))
            for pair in live:
                # a raise in the pair-free checks comes before any per-pair check
                done, event = (pair_free if isinstance(pair_free[1], Exception)
                               else _outcome(_pair_checks, op, rows, *pair, pair_free))
                checks[pair] += done
                if event is not None:
                    events[pair] = event
    return results


def _bijection_reports(pairs, n_max: int, at) -> list[VerificationReport]:
    """One BIJECTIONS report per pair over the weights 0..n_max, where at(n) is
    verify_bijection_pairs' result at weight n.  The weights are read in
    ascending order until every pair has its report.  At weight n the first
    exception recorded there for a pair without a report is raised again;
    otherwise each such pair with a failure message there fails with it.  A pair
    that never fails passes with the sum of its checks."""
    open_checks = dict.fromkeys(pairs, 0)
    reports = {}
    for n in range(n_max + 1):
        if not open_checks:
            break
        checks, events = at(n)
        failed = [(pair, event) for pair, event in events.items() if pair in open_checks]
        raised = [event for _, event in failed if isinstance(event, Exception)]
        if raised:
            raise raised[0]
        for pair, msg in failed:
            del open_checks[pair]
            reports[pair] = (False, msg)
        for pair in open_checks:
            open_checks[pair] += checks[pair]
    reports.update((pair, (True, f"{checks} checks")) for pair, checks in open_checks.items())
    return [VerificationReport("BIJECTIONS", {"k": k, "i": i, "n_max": n_max}, None,
                               *reports[(k, i)]) for k, i in pairs]


def verify_bailey(k: int, i: int, T: int = 40, n_depth: int = 6) -> list[VerificationReport]:
    """Chain construction checks: the defining relation at every stage, the
    closed seed form, and the limiting identity against the product form."""
    _check_bound("n_depth", n_depth)
    params = {"k": k, "i": i}
    chain = bailey_mod.run_chain(k, i, T)
    reports = []
    for st in chain.stages:
        ok, msg = bailey_mod.verify_pair_relation(st.pair, n_depth)
        reports.append(VerificationReport(
            f"PAIR-RELATION[{st.note}]", params, T, ok, msg))
    seed = chain.stage_by_note("seed").pair
    depths = range(n_depth + 1)
    rep = _compare("SEED-BETA", params, T, [seed.beta(n) for n in depths],
                   [inverse_pochhammer(seed.grid, n, seed.trunc) for n in depths],
                   ("beta", "1/(q;q)_n"))
    if not rep.ok:
        rep = rep._replace(detail=rep.detail + bailey_mod._grid_note(seed.grid))
    reports.append(rep)
    lhs, rhs = bailey_mod.limit_identity(chain, T)
    reports.append(_compare("LIMIT", params, T, lhs, rhs))
    reports.append(_compare("LIMIT-VS-PRODUCT", params, T, lhs, product_rhs("OGG", k, i, T)))
    return reports


# ---------------------------------------------------------------------------
# Suite runner (used by the CLI)
# ---------------------------------------------------------------------------


def _default_pairs(k, i, kmax):
    """(k, i) when both are given; otherwise every pair with 1 <= i <= k, where k
    is the given one (or runs over 1..kmax) and i the given one (or any)."""
    if k is not None and i is not None:
        return [(k, i)]
    ks = [k] if k is not None else range(1, kmax + 1)
    pairs = [(a, b) for a in ks for b in range(1, a + 1) if i in (None, b)]
    if not pairs:
        raise ValueError(f"no pair (k, i) with 1 <= i <= k to check for k={k}, i={i} "
                         f"(k runs up to {kmax} when not given)")
    return pairs


def _run_task(task):
    kind = task[0]
    if kind == "identity":
        _, tag, k, i, T, profile = task
        return verify_identity(tag, k, i, T, profile=profile)
    if kind == "counting":
        _, k, ii, n_max = task
        return _counting_reports(k, ii, n_max)
    if kind == "bijections":
        _, pairs, n = task
        return verify_bijection_pairs(pairs, n, n)
    if kind == "profile":
        _, profile, i, T = task
        return verify_profile(profile, i, T)
    raise ValueError(task)


# a weight of the k <= 3 sweep takes about 2 s at n = 18 and 1.45 times the time of
# the one below (2-CPU Xeon), so a sweep to n_max = 40 already runs for hours
_SWEEP_N_MAX = 40
# a counting task builds per-weight tables, one run per family and k (one per pair
# for P, A and D): at n_max = 1000 the task for k = 4 and every i takes 2.1 s, and
# the one for k = _K_MAX, i = 1, whose windows admit up to n_max // s parts of each
# size s, takes 82 s and 51 MiB (2-CPU Xeon); 1000 is also _T_MAX, the reach of the
# product sides these counts equal
_COUNT_N_MAX = 1000
# identities and Bailey chains grow about as T**3: at k = 2, i = 1, T = 1000 the
# identities take 9.2 s and 65 MiB, the Bailey checks 58 s and 315 MiB (2-CPU Xeon)
_T_MAX = 1000
# at k = 1000, i = 1 every command finishes within 2 s; without --i a suite takes
# every i < k, and its k - 1 Bailey chains of about 2k stages each, which share
# their stages up to the last shift and build the rest each, take 5.6-7.1 s at
# k = 100 and 1.5-1.8 s at k = 40 (2-CPU Xeon)
_K_MAX = 1000
# the suite checks a profile's classes at T at most this, whatever T it is given
_PROFILE_T_MAX = 30


def build_tasks(suite: str, k=None, i=None, n_max=None, T=None, profile=None) -> list[tuple]:
    """The suite's tasks, longest first: one bijection task per weight, from
    n_max (at most _SWEEP_N_MAX) down, for every selected pair at once, then the
    identity tasks, then one counting task per k for all its selected i (n_max at
    most _COUNT_N_MAX).  A profile gives one task for its six class checks, at
    k = len(profile) + 1 (a given k other than that is refused), T at most
    _PROFILE_T_MAX and a bucket reach at most _PROFILE_REACH_MAX.  Under "all",
    a k below 2 leaves the summed identities out."""
    tasks: list[tuple] = []
    if suite in ("bijections", "all"):
        nm = n_max if n_max is not None else 12
        _check_bound("n_max", nm)
        _check_ceiling("n_max", nm, _SWEEP_N_MAX)
        pairs = _default_pairs(k, i, 3)
        tasks.extend(("bijections", pairs, n) for n in range(nm, -1, -1))
    if suite in ("identities", "all"):
        t = T if T is not None else 40
        if profile is not None:
            if k is not None and k != len(profile) + 1:
                raise ValueError(f"profile {tuple(profile)} fixes k = len(profile) + 1 = "
                                 f"{len(profile) + 1}, got k={k}")
            ii, tt = i if i is not None else 1, min(t, _PROFILE_T_MAX)
            p, _ = _check_class_params(profile, ii, tt)
            reach = _lemma_reach(p[0] if p else 0, tt)
            _check_ceiling("class bucket reach", reach, _PROFILE_REACH_MAX)
            tasks.append(("profile", p, ii, tt))
        else:
            for (kk, ii) in _default_pairs(k, i, 3):
                if kk < 2:
                    if k is not None and suite == "identities":
                        raise DegenerateIdentityError(
                            "degenerate form: summed identities need k >= 2")
                    continue
                for tag in ("AG", "BRESSOUD", "OGG"):
                    tasks.append(("identity", tag, kk, ii, t, None))
                tasks.append(("identity", "JTP", kk, ii, t, None))
    if suite in ("counting", "all"):
        nm = n_max if n_max is not None else 15
        _check_ceiling("n_max", nm, _COUNT_N_MAX)
        for kk, ii in _i_by_k(_default_pairs(k, i, 3)).items():
            tasks.append(("counting", kk, tuple(ii), nm))
    if not tasks and suite not in ("bailey",):
        raise ValueError(f"unknown suite {suite!r}")
    return tasks


def _worker_count(jobs: int, tasks: int, cpus: int) -> int:
    """Worker processes for a run: never more than tasks or CPUs, at least one,
    and one (this process alone) where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(jobs, tasks, cpus))


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _run_tasks(tasks: list[tuple], workers: int, in_parent=list) -> list[VerificationReport]:
    """The reports of ``in_parent()`` (none by default) followed by those of
    build_tasks' tasks, run in ``workers`` forked processes (in this one, in
    order, when workers is 1); a profile task gives six reports, a counting
    task three per i, and the per-weight bijection results are merged into one
    report per pair.

    With workers, they fork before ``in_parent`` runs, so it runs here while
    they work, and they fork before it grows this process's heap.  If it
    raises, its error propagates; otherwise a task whose worker died before
    sending its result raises a WorkerError naming it as soon as that worker is
    seen gone, and else the first task in task order that raised raises.
    Either way every worker is killed and reaped before this returns (see
    ``_fan_out``)."""
    if workers > 1:
        reports, results = _fan_out(tasks, workers, in_parent)
    else:
        reports = in_parent()
        results = [_run_task(t) for t in tasks]
    by_weight = {}
    for task, result in zip(tasks, results):
        if task[0] == "bijections":
            pairs = task[1]
            by_weight.update(result)
        elif task[0] in ("profile", "counting"):
            reports.extend(result)
        else:
            reports.append(result)
    if by_weight:
        reports.extend(_bijection_reports(pairs, max(by_weight), by_weight.__getitem__))
    return reports


# a task index on the shared pipe is _INDEX_BYTES wide and the parent writes at
# most PIPE_BUF bytes at a time, which land whole, so each worker's read of
# _INDEX_BYTES takes exactly one index; a worker's frame for a task is that index,
# written the moment it takes the task, then the pickled outcome behind its length
_INDEX_BYTES = 4
_LENGTH_BYTES = 8
_HEAD_BYTES = _INDEX_BYTES + _LENGTH_BYTES


class WorkerError(RuntimeError):
    """A forked worker died holding a task, or a task's outcome could not be
    sent back from its worker."""


def _fan_out(tasks: list[tuple], workers: int, in_parent):
    """``in_parent()`` and the results of ``_run_task`` on each task, in task
    order, the tasks run in workers forked processes.

    Each worker pulls the next task index from one shared pipe, sends it back at
    once over a pipe of its own, then the pickled (raised, result or exception)
    of the task, and leaves only through ``os._exit``.  A worker whose pipe
    closes after it sent an index and before that task's outcome died holding
    the task, and the parent raises a WorkerError naming it then.  The parent
    writes the indices after the fork, what the pipe takes before ``in_parent``
    and the rest while it collects, so no task count can block it.  ggkit starts
    no thread, so the fork is safe unless the caller runs threads of its own."""
    import pickle
    import select
    import signal

    index_r, index_w = os.pipe()
    fds = {index_r, index_w}
    children = {}  # a worker's result pipe -> its pid
    try:
        for _ in range(workers):
            r, w = os.pipe()
            fds |= {r, w}
            pid = os.fork()
            if pid == 0:  # the worker: never return into the caller's frames
                code = 1
                try:
                    os.close(index_w)
                    os.close(r)
                    _work(tasks, index_r, w)
                    code = 0
                finally:
                    os._exit(code)
            children[r] = pid
            fds.remove(w)
            os.close(w)
        todo = memoryview(b"".join(j.to_bytes(_INDEX_BYTES, "little") for j in range(len(tasks))))
        os.set_blocking(index_w, False)
        todo = _feed(index_w, todo, fds)
        reports = in_parent()
        outcomes, received, first = {}, {r: bytearray() for r in children}, 0
        while received:
            readable, writable, _ = select.select(list(received), [index_w] if todo else [], [])
            if writable:
                todo = _feed(index_w, todo, fds)
            for r in readable:
                chunk = os.read(r, 1 << 16)
                buf = received[r]
                if not chunk:  # the worker has exited
                    if buf:  # inside a frame: it held the task at the frame's head
                        raise _lost(tasks, int.from_bytes(buf[:_INDEX_BYTES], "little"))
                    del received[r]
                    continue
                buf += chunk
                while len(buf) >= _HEAD_BYTES:
                    end = _HEAD_BYTES + int.from_bytes(buf[_INDEX_BYTES:_HEAD_BYTES], "little")
                    if len(buf) < end:
                        break
                    j = int.from_bytes(buf[:_INDEX_BYTES], "little")
                    outcomes[j] = pickle.loads(buf[_HEAD_BYTES:end])
                    del buf[:end]
            while first in outcomes:
                raised, value = outcomes[first]
                if raised:
                    raise value
                first += 1
        if first < len(tasks):  # an index lost before its worker sent it back
            raise _lost(tasks, first)
        return reports, [outcomes[j][1] for j in range(len(tasks))]
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
        for pid in children.values():
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _lost(tasks: list[tuple], j: int) -> WorkerError:
    return WorkerError(f"a worker died before sending the result of task {j}, {tasks[j]!r}")


def _feed(fd: int, todo: memoryview, fds: set) -> memoryview:
    """Write to the non-blocking pipe fd what it takes now of todo, PIPE_BUF
    bytes at a time, and close it (the workers then read to its end and leave)
    once todo is all written; return the rest."""
    from select import PIPE_BUF

    while todo:
        try:
            todo = todo[os.write(fd, todo[:PIPE_BUF]):]
        except BlockingIOError:
            return todo
    fds.remove(fd)
    os.close(fd)
    return todo


def _work(tasks: list[tuple], indices: int, out: int) -> None:
    """A worker's loop: for each task index it reads until the pipe ends, write
    the index to out at once (fewer than PIPE_BUF bytes, so it lands whole),
    run the task and write its outcome after.  An outcome that cannot be
    pickled, or an exception that cannot be unpickled, is sent as a WorkerError
    naming it."""
    import pickle

    while raw := os.read(indices, _INDEX_BYTES):
        os.write(out, raw)
        j = int.from_bytes(raw, "little")
        try:
            outcome = (False, _run_task(tasks[j]))
        except Exception as exc:
            outcome = (True, exc)
        try:
            data = pickle.dumps(outcome)
            if outcome[0]:
                pickle.loads(data)
        except Exception as exc:
            data = pickle.dumps((True, WorkerError(
                f"task {j}, {tasks[j]!r}: {outcome[1]!r} cannot be sent back ({exc!r})")))
        frame = memoryview(len(data).to_bytes(_LENGTH_BYTES, "little") + data)
        while frame:
            frame = frame[os.write(out, frame):]


def run_suite(suite: str, k=None, i=None, n_max=None, T=None, profile=None,
              jobs: int | None = None) -> list[VerificationReport]:
    """Run a verification suite, optionally fanning tasks out across processes.
    The Bailey chains run in this process: first when there are no workers,
    else while the forked workers run the other tasks (see ``_run_tasks``).
    No process pool is built, and no worker outlives the call.

    Reports come back sorted by identity tag and parameters regardless of the
    execution order.  ``build_tasks`` refuses a profile beside a k other than
    len(profile) + 1.
    """
    if jobs is None:
        env = os.environ.get("GGKIT_JOBS", "1")
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"GGKIT_JOBS must be an integer, got {env!r}") from None
        if jobs < 1:
            raise ValueError(f"GGKIT_JOBS must be >= 1, got {env!r}")
    elif jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _check_ceiling("k", k, _K_MAX)
    _check_ceiling("T", T, _T_MAX)
    chains: list[tuple[int, int]] = []
    if suite in ("bailey", "all"):
        # under "bailey" a pair given in full stays, so that verify_bailey rejects i >= k
        chains = [(kk, ii) for kk, ii in _default_pairs(k, i, 3)
                  if ii < kk or (suite == "bailey" and (kk, ii) == (k, i))]
    tasks = build_tasks(suite, k, i, n_max, T, profile) if suite != "bailey" else []
    if not chains and not tasks:
        raise ValueError(f"suite {suite!r} has nothing to check for these parameters")

    def run_chains() -> list[VerificationReport]:
        return [r for (kk, ii) in chains for r in verify_bailey(kk, ii, T if T is not None else 40)]

    reports = _run_tasks(tasks, _worker_count(jobs, len(tasks), _available_cpus()), run_chains)
    reports.sort(key=lambda r: (r.identity, repr(sorted(r.params.items(), key=str))))
    return reports
