"""Exact truncated Laurent series in q, and the q-products built from them.

A series knows its coefficients for every exponent up to a truncation order T:
below ``min_exponent`` they are zero, between ``min_exponent`` and T they are
stored explicitly, and above T they are *unknown* (asking for one raises
``TruncationError`` rather than returning a silent zero).  Coefficients are
exact rationals; plain ints are kept as ints and ``fractions.Fraction`` enters
only where a computation genuinely produces one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union

Coeff = Union[int, Fraction]


class TruncationError(ValueError):
    """A coefficient beyond the truncation order was requested."""


class NotInvertibleError(ValueError):
    """Series inversion was attempted on a series with no invertible lead."""


class DivergentProductError(ValueError):
    """An infinite product whose factors do not converge formally."""


def _as_fraction(c: Coeff) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class LaurentSeries:
    """Truncated Laurent series with exact rational coefficients.

    ``coeffs[j]`` is the coefficient of ``q**(min_exponent + j)`` and the list
    always spans ``[min_exponent, truncation]``; an empty list (with
    ``min_exponent == truncation + 1``) is the zero series at that truncation.
    """

    __slots__ = ("min_exponent", "truncation", "coeffs")

    def __init__(self, min_exponent: int, coeffs: Sequence[Coeff], truncation: int):
        coeffs = list(coeffs)
        if len(coeffs) != truncation - min_exponent + 1:
            raise ValueError(
                f"coefficient list of length {len(coeffs)} does not span "
                f"[{min_exponent}, {truncation}]"
            )
        self.min_exponent = min_exponent
        self.truncation = truncation
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "LaurentSeries":
        return cls(truncation + 1, [], truncation)

    @classmethod
    def one(cls, truncation: int) -> "LaurentSeries":
        return cls.monomial(0, truncation)

    @classmethod
    def monomial(cls, exponent: int, truncation: int, coeff: Coeff = 1) -> "LaurentSeries":
        if exponent > truncation:
            return cls.zero(truncation)
        coeffs = [0] * (truncation - exponent + 1)
        coeffs[0] = coeff
        return cls(exponent, coeffs, truncation)

    @classmethod
    def from_terms(cls, terms: dict, truncation: int) -> "LaurentSeries":
        known = {e: c for e, c in terms.items() if e <= truncation and c}
        if not known:
            return cls.zero(truncation)
        lo = min(known)
        coeffs = [0] * (truncation - lo + 1)
        for e, c in known.items():
            coeffs[e - lo] = c
        return cls(lo, coeffs, truncation)

    # -- inspection ---------------------------------------------------------

    def coefficient(self, exponent: int) -> Coeff:
        if exponent > self.truncation:
            raise TruncationError(
                f"coefficient of q^{exponent} is beyond truncation order {self.truncation}"
            )
        if exponent < self.min_exponent:
            return 0
        return self.coeffs[exponent - self.min_exponent]

    def items(self) -> Iterator[tuple[int, Coeff]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        lo = self.min_exponent
        for j, c in enumerate(self.coeffs):
            if c:
                yield lo + j, c

    def effective_min(self) -> int:
        """Exponent of the first nonzero coefficient (truncation+1 if none)."""
        for j, c in enumerate(self.coeffs):
            if c:
                return self.min_exponent + j
        return self.truncation + 1

    def is_zero(self) -> bool:
        return self.effective_min() > self.truncation

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        trunc = min(self.truncation, other.truncation)
        lo = min(self.min_exponent, other.min_exponent, trunc + 1)
        out = [0] * (trunc - lo + 1)
        for s in (self, other):
            base = s.min_exponent - lo
            for j, c in enumerate(s.coeffs):
                if c and s.min_exponent + j <= trunc:
                    out[base + j] += c
        return LaurentSeries(lo, out, trunc)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.min_exponent, [-c for c in self.coeffs], self.truncation)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scale(self, c: Coeff) -> "LaurentSeries":
        return LaurentSeries(self.min_exponent, [c * x for x in self.coeffs], self.truncation)

    def shift(self, d: int) -> "LaurentSeries":
        """Multiply by q**d."""
        return LaurentSeries(self.min_exponent + d, list(self.coeffs), self.truncation + d)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        am = self.effective_min()
        bm = other.effective_min()
        trunc = min(self.truncation + bm, other.truncation + am)
        lo = am + bm
        if lo > trunc:
            return LaurentSeries.zero(trunc)
        out = [0] * (trunc - lo + 1)
        bco = other.coeffs
        bmin = other.min_exponent
        bhi = min(other.truncation, trunc - am)
        for ea, ca in self.items():
            if ea + bm > trunc:
                break
            base = ea - lo
            for eb in range(max(bm, bmin), min(bhi, trunc - ea) + 1):
                cb = bco[eb - bmin]
                if cb:
                    out[base + eb] += ca * cb
        return LaurentSeries(lo, out, trunc)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse: self * self.inverse() == 1 up to truncation."""
        e0 = self.effective_min()
        if e0 > self.truncation:
            raise NotInvertibleError("not invertible: series is zero up to its truncation")
        a0 = self.coefficient(e0)
        inv0 = a0 if a0 in (1, -1) else 1 / _as_fraction(a0)
        trunc = self.truncation - 2 * e0
        lo = -e0
        n = trunc - lo + 1
        if n <= 0:
            return LaurentSeries.zero(trunc)
        unit = [self.coefficient(e0 + j) for j in range(self.truncation - e0 + 1)]
        out = [0] * n
        out[0] = inv0
        for m in range(1, n):
            acc = 0
            for j in range(1, min(m, len(unit) - 1) + 1):
                u = unit[j]
                if u:
                    acc += u * out[m - j]
            if acc:
                out[m] = -inv0 * acc
        return LaurentSeries(lo, out, trunc)

    def substitute_power(self, m: int) -> "LaurentSeries":
        """Substitute q -> q**m (m >= 1); exponents are scaled by m."""
        if m < 1:
            raise ValueError("substitution power must be a positive integer")
        if m == 1:
            return self
        trunc = m * self.truncation + (m - 1)
        lo = m * self.min_exponent
        if lo > trunc:
            return LaurentSeries.zero(trunc)
        out = [0] * (trunc - lo + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                out[m * j] = c
        return LaurentSeries(lo, out, trunc)

    def truncated(self, truncation: int) -> "LaurentSeries":
        if truncation > self.truncation:
            raise TruncationError(
                f"cannot extend truncation {self.truncation} to {truncation}"
            )
        if truncation < self.min_exponent:
            return LaurentSeries.zero(truncation)
        return LaurentSeries(
            self.min_exponent,
            self.coeffs[: truncation - self.min_exponent + 1],
            truncation,
        )

    def project_even(self) -> "LaurentSeries":
        """Halve all exponents; every odd exponent must carry a zero coefficient."""
        for e, c in self.items():
            if e % 2:
                raise ValueError(f"nonzero coefficient at odd exponent {e}")
        trunc = self.truncation // 2
        terms = {e // 2: c for e, c in self.items() if e // 2 <= trunc}
        return LaurentSeries.from_terms(terms, trunc)

    # -- comparison ---------------------------------------------------------

    def first_difference(self, other: "LaurentSeries") -> int | None:
        """First exponent (within the common validity range) where the two differ."""
        hi = min(self.truncation, other.truncation)
        lo = min(self.min_exponent, other.min_exponent)
        for e in range(lo, hi + 1):
            if self.coefficient(e) != other.coefficient(e):
                return e
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.first_difference(other) is None

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        terms = []
        for e, c in self.items():
            if len(terms) == 6:
                terms.append("...")
                break
            cs = str(c)
            if e == 0:
                terms.append(cs)
            else:
                head = "" if cs == "1" else ("-" if cs == "-1" else cs + "*")
                terms.append(f"{head}q^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} + O(q^{self.truncation + 1})>"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "min_exponent": self.min_exponent,
            "truncation": self.truncation,
            "coeffs": [
                f"{_as_fraction(c).numerator}/{_as_fraction(c).denominator}"
                for c in self.coeffs
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentSeries":
        coeffs = []
        for s in data["coeffs"]:
            f = Fraction(s)
            coeffs.append(int(f) if f.denominator == 1 else f)
        return cls(data["min_exponent"], coeffs, data["truncation"])


def substitute_power(a: LaurentSeries, m: int) -> LaurentSeries:
    return a.substitute_power(m)


# ---------------------------------------------------------------------------
# q-Pochhammer products
# ---------------------------------------------------------------------------


def _binomial_product(exponents: Iterable[int], factor_coeff: int, truncation: int) -> LaurentSeries:
    """Product of (1 + factor_coeff * q**e) over the given exponents, to `truncation`.

    Intermediate arrays are kept no wider than the final answer needs: the cap
    starts at truncation plus the total negative shift still to be applied and
    shrinks as negative-exponent factors are absorbed.
    """
    exps = list(exponents)
    neg = sum(-e for e in exps if e < 0)
    lo = 0
    cap = truncation + neg
    if cap < 0:
        return LaurentSeries.zero(truncation)
    arr: list[Coeff] = [0] * (cap - lo + 1)
    arr[0] = 1
    for e in exps:
        if e == 0:
            if factor_coeff == -1:
                return LaurentSeries.zero(truncation)
            arr = [(1 + factor_coeff) * c for c in arr]
            continue
        if e > 0:
            for x in range(cap, lo + e - 1, -1):
                c = arr[x - e - lo]
                if c:
                    arr[x - lo] += factor_coeff * c
        else:
            new_lo = lo + e
            new_cap = cap + e
            new = [0] * (new_cap - new_lo + 1)
            for x in range(new_lo, new_cap + 1):
                c = arr[x - lo] if lo <= x <= cap else 0
                c2 = arr[x - e - lo] if lo <= x - e <= cap else 0
                if c or c2:
                    new[x - new_lo] = c + factor_coeff * c2
            arr, lo, cap = new, new_lo, new_cap
    if truncation < lo:
        return LaurentSeries.zero(truncation)
    return LaurentSeries(lo, arr[: truncation - lo + 1], truncation)


def pochhammer_finite(sign: int, shift: int, base: int, n: int, truncation: int) -> LaurentSeries:
    """The finite product (sign*q**shift; q**base)_n, truncated.

    sign=+1 gives factors (1 - q**(shift+t*base)), sign=-1 gives (1 + ...),
    for t = 0..n-1.  Negative shifts are fine; the result is a genuine Laurent
    polynomial cut at `truncation`.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if base < 1:
        raise ValueError("base must be a positive integer")
    if n < 0:
        raise ValueError("length must be nonnegative")
    return _binomial_product((shift + t * base for t in range(n)), -sign, truncation)


def pochhammer_minimum(sign: int, shift: int, base: int, n: int) -> int:
    """Lowest exponent of the finite Pochhammer product (0 if no factor is negative)."""
    return sum(min(shift + t * base, 0) for t in range(n))


def pochhammer_infinite(sign: int, shift: int, base: int, truncation: int) -> LaurentSeries:
    """The infinite product (sign*q**shift; q**base)_oo, truncated.

    Requires shift >= 1 so the factors converge in the formal topology;
    factors beyond the truncation contribute the identity.
    """
    if shift < 1:
        raise DivergentProductError(
            f"divergent formal product: leading exponent {shift} must be >= 1"
        )
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if base < 1:
        raise ValueError("base must be a positive integer")
    count = max(0, (truncation - shift) // base + 1)
    return _binomial_product((shift + t * base for t in range(count)), -sign, truncation)


def bounded_product(parts: Sequence[tuple[int, Callable[[int], LaurentSeries]]],
                    truncation: int) -> LaurentSeries:
    """Product of factors given as (min_exponent, builder) pairs, exact to `truncation`.

    Each declared min_exponent must be a true lower bound on its factor's
    support.  Builders receive the truncation they must honour so that the
    final product is exact up to `truncation`; intermediate series stay narrow
    even when factors have large negative support.
    """
    total = sum(m for m, _ in parts)
    if total > truncation:  # the product's lowest exponent is already out of range
        return LaurentSeries.zero(truncation)
    out: LaurentSeries | None = None
    for m, build in parts:
        s = build(truncation - (total - m))
        out = s if out is None else out * s
    if out is None:
        return LaurentSeries.one(truncation)
    return out.truncated(truncation)


def euler_product(truncation: int) -> LaurentSeries:
    """(q; q)_oo up to the truncation."""
    return pochhammer_infinite(1, 1, 1, truncation)


def inverse_euler_product(truncation: int) -> LaurentSeries:
    """1/(q; q)_oo, the partition generating function."""
    return euler_product(truncation).inverse()


# ---------------------------------------------------------------------------
# Theta sum and triple product
# ---------------------------------------------------------------------------


def theta_bressoud_sum(k: int, i: int, truncation: int) -> LaurentSeries:
    """1 + sum_{n>=1} (-1)^n q^{(2k-1)n^2} (q^{-2(k-i)n} + q^{2(k-i)n}), truncated."""
    if not k >= i >= 1:
        raise ValueError("parameters must satisfy k >= i >= 1")
    terms: dict[int, Coeff] = {0: 1}
    n = 1
    while True:
        lo = (2 * k - 1) * n * n - 2 * (k - i) * n
        if lo > truncation:
            break
        sg = -1 if n % 2 else 1
        hi = (2 * k - 1) * n * n + 2 * (k - i) * n
        terms[lo] = terms.get(lo, 0) + sg
        if hi <= truncation:
            terms[hi] = terms.get(hi, 0) + sg
        n += 1
    return LaurentSeries.from_terms(terms, truncation)


def product_triple(k: int, i: int, truncation: int) -> LaurentSeries:
    """(q^{2i-1}, q^{4k-2i-1}, q^{4k-2}; q^{4k-2})_oo, truncated."""
    if not k >= i >= 1:
        raise ValueError("parameters must satisfy k >= i >= 1")
    base = 4 * k - 2
    out = pochhammer_infinite(1, 2 * i - 1, base, truncation)
    out = out * pochhammer_infinite(1, 4 * k - 2 * i - 1, base, truncation)
    out = out * pochhammer_infinite(1, base, base, truncation)
    return out.truncated(truncation)


# ---------------------------------------------------------------------------
# Series in q whose coefficients are exact polynomials in x
# ---------------------------------------------------------------------------


class BivariateSeries:
    """q-truncated series whose q^n coefficient is an exact polynomial in x."""

    __slots__ = ("truncation", "table")

    def __init__(self, truncation: int):
        self.truncation = truncation
        self.table: dict[int, dict[int, Coeff]] = {}

    def add_term(self, q_exp: int, x_deg: int, coeff: Coeff) -> None:
        if q_exp > self.truncation or not coeff:
            return
        row = self.table.setdefault(q_exp, {})
        row[x_deg] = row.get(x_deg, 0) + coeff
        if not row[x_deg]:
            del row[x_deg]
            if not row:
                del self.table[q_exp]

    def add_series(self, x_deg: int, s: LaurentSeries) -> None:
        """Accumulate x**x_deg * s; s must be valid at least to our truncation."""
        if s.truncation < self.truncation:
            raise TruncationError(
                f"series truncated at {s.truncation} cannot feed a table valid to {self.truncation}"
            )
        for e, c in s.items():
            if e <= self.truncation:
                self.add_term(e, x_deg, c)

    def coefficient(self, q_exp: int) -> dict[int, Coeff]:
        if q_exp > self.truncation:
            raise TruncationError(
                f"coefficient of q^{q_exp} is beyond truncation order {self.truncation}"
            )
        return dict(self.table.get(q_exp, {}))

    def eval_x_one(self) -> LaurentSeries:
        terms = {e: sum(row.values()) for e, row in self.table.items()}
        return LaurentSeries.from_terms(terms, self.truncation)

    @classmethod
    def from_counts(cls, counts: dict[tuple[int, int], int], truncation: int) -> "BivariateSeries":
        """Build from a {(m, n): count} table (m = x-degree, n = q-exponent)."""
        out = cls(truncation)
        for (m, n), c in counts.items():
            if n <= truncation:
                out.add_term(n, m, c)
        return out

    def first_difference(self, other: "BivariateSeries") -> tuple[int, int] | None:
        """First (q_exp, x_deg) where the two disagree, scanning q then x."""
        hi = min(self.truncation, other.truncation)
        for e in range(0, hi + 1):
            a = self.table.get(e, {})
            b = other.table.get(e, {})
            for m in sorted(set(a) | set(b)):
                if a.get(m, 0) != b.get(m, 0):
                    return (e, m)
        neg = sorted(e for e in set(self.table) | set(other.table) if e < 0)
        for e in neg:
            if e <= hi and self.table.get(e, {}) != other.table.get(e, {}):
                a = self.table.get(e, {})
                b = other.table.get(e, {})
                for m in sorted(set(a) | set(b)):
                    if a.get(m, 0) != b.get(m, 0):
                        return (e, m)
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.first_difference(other) is None

    __hash__ = None  # type: ignore[assignment]
