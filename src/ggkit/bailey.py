"""Bailey pairs at parameter a = 1, the standard transforms, and the full chain.

A pair stores its two sequences as truncated Laurent series on a refined
exponent grid: a stored exponent e stands for q**(e/grid).  The chain starts
on the half-integer grid (grid = 2) because the seed pair and its iterates
involve half-integer powers; the final base-change step lands on the plain
grid (grid = 1) after checking that every surviving exponent is even.  A
PAIR-RELATION or SEED-BETA failure on grid 2 says so: its q^e stands for
q^(e/2).

Sequences are evaluated lazily and memoized through one ``lru_cache`` per
sequence, so deep beta evaluations only pay for the indices a given truncation
can see; a stage several chains read also keeps the right side of its relation
at each n.  Each beta sum over 1/(q^g; q^g)_{n-m}, here and in the multisum
levels of ``verify``, goes through ``_inv_poch_sum``, and is one
``series.sum_of_products``, as is each right side of the pair relation.  Its
inverse Pochhammers are the rows of ``series.inverse_pochhammer``'s tables, its
one memo; each row is exact to its table's cap, past the truncation, so every
product of rows is formed at the truncation, and no series inverse is taken.
Two memos are kept here: ``_relation_kernel``, the product of two inverse
Pochhammers, and ``_chain_prefix``, the stages every chain at one truncation
starts with (values only: each chain still checks every stage it reads).  The
theta terms (the seed pair's alpha, the shift transform's closed form) come
from ``series.theta_term``.  Transforms take no label: each names its output
after its input, and ``run_chain`` names every stage by its position.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, NamedTuple

from .series import (
    Coeff,
    LaurentSeries,
    inverse_euler_product,
    inverse_pochhammer,
    pochhammer_finite,
    pochhammer_infinite,
    sum_of_products,
    theta_term,
)


class PairFormError(ValueError):
    """A transform's closed-form precondition on alpha failed."""


class ChainParameterError(ValueError):
    """Chain parameters outside the supported range."""


class LimitDiagnosticError(RuntimeError):
    """The limiting series did not stabilize within the allowed index range."""


def _inv_poch_sum(step: int, terms: Iterable[tuple[int, LaurentSeries]], n: int,
                  trunc: int) -> LaurentSeries:
    """sum_m t_m / (q**step; q**step)_{n-m} over the pairs (m, t_m) of terms
    (m <= n, each t_m with no negative exponent), truncated at trunc.

    (q^g; q^g)_j and (q^g; q^g)_oo agree below q^{g(j+1)}, so a term whose lowest
    exponent e has g(n-m+1) > trunc - e equals t_m / (q^g; q^g)_oo up to trunc:
    those terms are added first and paired once, with 1/(q^g; q^g)_{trunc//g},
    which is 1/(q^g; q^g)_oo up to trunc.  Every other term is paired with its
    own inverse, and all the pairs make one ``series.sum_of_products``.  The
    inverses are asked for by falling m, i.e. shortest length first (the callers
    pass rising m), so an inverse not built yet grows from the one built just
    before it.
    """
    tail = None
    rest = []
    for m, t in terms:
        t = t.truncated(trunc)
        if step * (n - m + 1) > trunc - t.effective_min():
            tail = t if tail is None else tail + t
        else:
            rest.append((n - m, t))
    pairs = [(t, inverse_pochhammer(step, length, trunc)) for length, t in reversed(rest)]
    if tail is not None:
        pairs.append((tail, inverse_pochhammer(step, trunc // step, trunc)))
    return sum_of_products(pairs, trunc)


@lru_cache(maxsize=1024)  # the test suite fills 381 entries, a series run 56
def _relation_kernel(step: int, a: int, b: int, trunc: int) -> LaurentSeries:
    """1/((q**step; q**step)_a (q**step; q**step)_b), truncated: the factor of
    alpha_r in the relation at n with (a, b) = (n - r, n + r), shared by every
    pair on the same grid and truncation, formed at trunc: both rows reach
    their table's cap."""
    rows = (inverse_pochhammer(step, a, trunc), inverse_pochhammer(step, b, trunc))
    return sum_of_products([rows], trunc)


class BaileyPair:
    """Sequences n -> alpha_n, beta_n with a grid denominator and truncation;
    each term is computed once per pair."""

    def __init__(self, label: str, grid: int, trunc: int,
                 alpha_fn: Callable[[int], LaurentSeries],
                 beta_fn: Callable[[int], LaurentSeries]):
        self.label = label
        self.grid = grid
        self.trunc = trunc
        self._alpha = lru_cache(maxsize=None)(alpha_fn)
        self._beta = lru_cache(maxsize=None)(beta_fn)
        # n -> relation_sum(n), kept only once a dict: run_chain sets one on a
        # stage a second chain reads, so a stage read once keeps nothing extra
        self._relation: dict[int, LaurentSeries] | None = None

    def alpha(self, n: int) -> LaurentSeries:
        return self._alpha(n)

    def beta(self, n: int) -> LaurentSeries:
        return self._beta(n)

    def relation_sum(self, n: int) -> LaurentSeries:
        """sum_r alpha_r / ((q^g; q^g)_{n-r} (q^g; q^g)_{n+r}) over r <= n, the
        side the pair relation equates with beta_n: one ``series.sum_of_products``
        of the pairs (alpha_r, kernel)."""
        kept = self._relation
        out = kept.get(n) if kept is not None else None
        if out is None:
            g, trunc = self.grid, self.trunc
            out = sum_of_products(
                [(self.alpha(r), _relation_kernel(g, n - r, n + r, trunc)) for r in range(n + 1)],
                trunc)
            if kept is not None:
                kept[n] = out
        return out


def unit_pair(trunc_q: int) -> BaileyPair:
    """The seed pair: beta is the delta sequence; alpha_n pairs the two
    half-integer theta exponents n(n-1)/2 and n(n+1)/2."""
    trunc = 2 * trunc_q

    def alpha(n: int) -> LaurentSeries:
        return theta_term(1, 1, n, trunc)

    def beta(n: int) -> LaurentSeries:
        return LaurentSeries.one(trunc) if n == 0 else LaurentSeries.zero(trunc)

    return BaileyPair("P0", 2, trunc, alpha, beta)


def transform_iterate(pair: BaileyPair) -> BaileyPair:
    """The limiting form of the Bailey transform at a = 1:
    alpha_n picks up q**(n^2); beta_n becomes sum_j q**(j^2)/(q;q)_{n-j} beta_j."""
    g, trunc = pair.grid, pair.trunc

    def alpha(n: int) -> LaurentSeries:
        return pair.alpha(n).shift(g * n * n).truncated(trunc)

    def beta(n: int) -> LaurentSeries:
        reach = min(n, isqrt(trunc // g))  # past it, q^{g j^2} lies above trunc
        return _inv_poch_sum(g, ((j, pair.beta(j).shift(g * j * j)) for j in range(reach + 1)),
                             n, trunc)

    return BaileyPair(f"{pair.label}+iter", g, trunc, alpha, beta)


def check_shift_form(pair: BaileyPair, a_num2: int) -> None:
    """The precondition of ``transform_shift(pair, a_num2)``: alpha_n has the
    closed form (-1)^n q^{A n^2}(q^{(A-1)n} + q^{-(A-1)n}) with A = a_num2/2,
    checked for n <= 8.

    Raises PairFormError naming the first index whose alpha does not match.
    """
    g, trunc = pair.grid, pair.trunc
    if (a_num2 * g) % 2:
        raise PairFormError("the exponent parameter must live on the stored grid")
    a = a_num2 * g // 2  # A in stored grid units
    check_depth = 8
    for n in range(check_depth + 1):
        if pair.alpha(n) != theta_term(a, a - g, n, trunc):
            raise PairFormError(
                f"alpha precondition violated at n={n}: pair {pair.label} does not "
                f"match the required closed form with parameter {Fraction(a_num2, 2)}"
            )


def transform_shift(pair: BaileyPair, a_num2: int) -> BaileyPair:
    """The exponent-shift transform: valid only when alpha_n has the closed form
    of ``check_shift_form``, which it runs first; then alpha's inner exponent
    moves from A-1 to A and beta_n gains a factor q**n.
    """
    check_shift_form(pair, a_num2)
    g, trunc = pair.grid, pair.trunc
    a = a_num2 * g // 2

    def alpha(n: int) -> LaurentSeries:
        return theta_term(a, a, n, trunc)

    def beta(n: int) -> LaurentSeries:
        return pair.beta(n).shift(g * n).truncated(trunc)

    return BaileyPair(f"{pair.label}+shift", g, trunc, alpha, beta)


def combine(pairs: list[BaileyPair], weights: list[Coeff]) -> BaileyPair:
    """Componentwise linear combination; the defining relation is linear."""
    if len(pairs) != len(weights) or not pairs:
        raise ValueError("need equally many pairs and weights")
    g, trunc = pairs[0].grid, pairs[0].trunc
    if any(p.grid != g or p.trunc != trunc for p in pairs):
        raise ValueError("pairs must share grid and truncation")

    def mix(seq: Callable[[BaileyPair, int], LaurentSeries]) -> Callable[[int], LaurentSeries]:
        def term(n: int) -> LaurentSeries:
            acc = LaurentSeries.zero(trunc)
            for p, w in zip(pairs, weights):
                acc = acc + seq(p, n).scale(w)
            return acc
        return term

    return BaileyPair("combined", g, trunc, mix(BaileyPair.alpha), mix(BaileyPair.beta))


def transform_base_change(pair: BaileyPair) -> BaileyPair:
    """Move a half-integer-grid pair to the plain grid:

        alpha'_n = 2 q^n / (1 + q^{2n}) * alpha_n(q^2)
        beta'_n  = sum_k (-1; q)_{2k} q^k / (q^2; q^2)_{n-k} * beta_k(q^2)

    Consuming the pair at q^2 doubles its stored exponents; after assembling,
    every exponent must be even and is halved onto the plain grid.
    """
    if pair.grid != 2:
        raise ValueError("base change consumes a pair on the half-integer grid")
    trunc = pair.trunc  # still in half-units while assembling
    trunc_q = trunc // 2

    def alpha(n: int) -> LaurentSeries:
        a = pair.alpha(n).substitute_power(2).truncated(trunc)
        if n == 0:
            return a.project_even()
        denom = LaurentSeries.from_terms({0: 1, 4 * n: 1}, trunc)
        out = a.shift(2 * n).truncated(trunc) * denom.inverse()
        return out.scale(2).truncated(trunc).project_even()

    @lru_cache(maxsize=None)
    def summand(k: int) -> LaurentSeries:
        """(-1; q)_{2k} beta_k(q^2), shared by every beta'_n with n >= k."""
        fac = pochhammer_finite(-1, 0, 2, 2 * k, trunc)
        return fac * pair.beta(k).substitute_power(2).truncated(trunc)

    def beta(n: int) -> LaurentSeries:
        terms = ((k, summand(k).shift(2 * k)) for k in range(min(n, trunc // 2) + 1))
        return _inv_poch_sum(4, terms, n, trunc).project_even()

    return BaileyPair(f"{pair.label}+base", 1, trunc_q, alpha, beta)


def _grid_note(grid: int) -> str:
    """The tail of a failure detail that prints series in stored grid units."""
    return f"; on grid {grid}, q^e stands for q^(e/{grid})" if grid != 1 else ""


def verify_pair_relation(pair: BaileyPair, n_max: int) -> tuple[bool, str]:
    """Check beta_n = sum_r alpha_r / ((q;q)_{n-r} (q;q)_{n+r}) for n <= n_max.
    A stage several chains read keeps its right sides; the comparison runs on
    every call."""
    for n in range(n_max + 1):
        acc = pair.relation_sum(n)
        diff = acc.first_difference(pair.beta(n))
        if diff is not None:
            return False, (
                f"pair {pair.label}: relation fails at n={n}, first difference at "
                f"q^{diff} ({acc.coefficient(diff)} vs {pair.beta(n).coefficient(diff)})"
                f"{_grid_note(pair.grid)}"
            )
    return True, ""


class ChainStage(NamedTuple):
    note: str
    pair: BaileyPair


class Chain(NamedTuple):
    k: int
    i: int
    trunc_q: int
    stages: list[ChainStage]

    @property
    def final(self) -> BaileyPair:
        return self.stages[-1].pair

    def stage_by_note(self, note: str) -> ChainStage:
        for st in self.stages:
            if st.note == note:
                return st
        raise KeyError(note)


# The stages every chain at one truncation starts with: P0 = unit, P1 = seed,
# then P(2j) = shift(2j + 1) and P(2j + 1) = iterate, in turn.  Chain (k, i) reads
# P0..P(2(k - i)).  The list holds the pairs, whose values every later chain
# reuses, with the relation sums of the stages read more than once; verdicts are
# not kept.  Entries outlive any change to the transforms: code that swaps a
# transform in must call cache_clear().
@lru_cache(maxsize=8)  # the test suite reads 16 truncations, a series or cli run 1
def _chain_prefix(trunc_q: int) -> list[BaileyPair]:
    """The shared stages at trunc_q built so far, grown by ``run_chain``."""
    return [unit_pair(trunc_q)]


def run_chain(k: int, i: int, trunc_q: int = 40) -> Chain:
    """Build the full pair chain for parameters k > i >= 1.

    Seed, one iteration, k-i-1 alternating (shift, iterate) rounds, one more
    shift, the half-half average of the last two pairs, i-1 iterations, and the
    base change to the plain grid.  Stages up to the last shift come from
    ``_chain_prefix``, which builds only those no chain at trunc_q has built
    yet; the closed-form check of every shift stage runs for each chain, on a
    stage built earlier as when the stage is built.
    """
    if i >= k:
        if i == k:
            raise ChainParameterError("chain undefined for i = k; verify that case directly")
        raise ChainParameterError("parameters must satisfy k > i >= 1")
    if i < 1:
        raise ChainParameterError("parameters must satisfy k > i >= 1")
    if trunc_q < 0:
        raise ChainParameterError(f"truncation must be >= 0, got {trunc_q}")
    d = k - i
    prefix = _chain_prefix(trunc_q)
    for s, pair in enumerate(prefix[:2 * d + 1]):  # stages an earlier chain built
        if pair._relation is None:
            pair._relation = {}
        if s >= 2 and s % 2 == 0:
            check_shift_form(prefix[s - 1], s + 1)
    while len(prefix) <= 2 * d:
        s = len(prefix)
        pair = transform_shift(prefix[-1], s + 1) if s % 2 == 0 else transform_iterate(prefix[-1])
        pair.label = f"P{s}"
        prefix.append(pair)
    notes = ["unit", "seed"]
    for j in range(1, d):
        notes += [f"alt{j}.shift", f"alt{j}.iterate"]
    notes.append("last.shift")
    stages = [ChainStage(note, pair) for note, pair in zip(notes, prefix)]

    def push(pair: BaileyPair, note: str) -> BaileyPair:
        pair.label = f"P{len(stages)}"
        stages.append(ChainStage(note, pair))
        return pair

    half = Fraction(1, 2)
    cur = push(combine([prefix[2 * d - 1], prefix[2 * d]], [half, half]), "averaged")
    for t in range(1, i):
        cur = push(transform_iterate(cur), f"tail{t}.iterate")
    push(transform_base_change(cur), "final")
    return Chain(k, i, trunc_q, stages)


def limit_identity(chain: Chain, truncation: int) -> tuple[LaurentSeries, LaurentSeries]:
    """Both sides of the limiting identity of the chain's final pair.

    lhs: (q^2; q^2)_oo * beta_n for n large enough that larger indices cannot
    change coefficients up to the truncation (stabilization is checked).
    rhs: (-q; q)_oo / (q; q)_oo times the alpha theta sum.
    """
    pair = chain.final
    if truncation > pair.trunc:
        raise ValueError(f"truncation {truncation} exceeds the chain truncation {pair.trunc}")
    e2 = pochhammer_infinite(1, 2, 2, truncation)

    def lhs_at(n: int) -> LaurentSeries:
        return (e2 * pair.beta(n)).truncated(truncation)

    n = max(truncation, 2)
    cur = lhs_at(n)
    prev = lhs_at(n - 1)
    while cur != prev:
        n += 1
        if n > 2 * truncation + 4:
            raise LimitDiagnosticError(
                f"beta side did not stabilize by n={n} at truncation {truncation}"
            )
        prev, cur = cur, lhs_at(n)

    k, i = chain.k, chain.i
    acc = LaurentSeries.zero(truncation)
    r = 0
    while True:
        lo = (2 * k - 1) * r * r - 2 * (k - i) * r
        if lo > truncation:
            break
        acc = acc + pair.alpha(r).truncated(truncation)
        r += 1
    rhs = acc * pochhammer_infinite(-1, 1, 1, truncation)
    rhs = (rhs * inverse_euler_product(truncation)).truncated(truncation)
    return cur, rhs
