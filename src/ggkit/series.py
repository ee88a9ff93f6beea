"""Exact truncated Laurent series in q, and the q-products built from them.

A series knows its coefficients for every exponent up to a truncation order T:
below ``min_exponent`` they are zero, between ``min_exponent`` and T they are
stored explicitly, and above T they are *unknown* (asking for one raises
``TruncationError`` rather than returning a silent zero).

Coefficients are exact rationals held as one immutable tuple of ``int``
numerators over a single positive ``int`` denominator, in lowest terms (the
gcd of the denominator and all numerators is 1).  Every operation works on
the integers; ``fractions.Fraction`` appears only at the interface, when a
caller passes one in or reads a non-integral coefficient out.

Every product is formed by one kernel, ``_products``: ``a * b`` is a sum of
one product at its own truncation, and ``sum_of_products`` sums every pair's
product cut at T in one call, with no series built per term.  A product with
a sparse side adds one slice pass of the other side per nonzero into one
integer window.  The others use Kronecker substitution: each numerator vector
is packed into one bigint with a slot wide enough for any coefficient of the
sum, the bigints are multiplied by CPython (Karatsuba) and added into one,
and the coefficients the result keeps are read back out of the slots once
(Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", JSC 2009).

The q-products are built once each, and each is memoized here alone.
``pochhammer_finite`` is a bounded ``lru_cache`` of immutable series, which
``pochhammer_infinite`` reads with the factor count cut at the truncation.  For
a shift >= 0 it serves (c q^s; q^b)_m at T from one table per (c, s, b, T): a
row is grown from the nearest shorter one already built, one factor
(1 - c q^e) at a time in an O(T) pass, so a product asked for at every length
in turn costs O(T) per factor, not per length.  ``inverse_pochhammer``, another,
serves 1/(q^s; q^s)_m at T from one table per (s, cap), cap the next power of
two >= T: an entry is grown from the nearest lower one already built, dividing
by one factor (1 - q^{sm}) at a time in an O(cap) pass, so no Pochhammer
inverse goes through ``inverse``.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence, Union

Coeff = Union[int, Fraction]

# a product is packed (Kronecker substitution) once its sparser operand has this
# many nonzero coefficients, else it takes the slice pass; CHANGES.md has the
# crossover, measured against the schoolbook loop the slice pass replaced
_KRONECKER_MIN_TERMS = 8

# signed array typecodes for the slot widths (in bytes) packed at C speed
_TYPECODES = {array(tc).itemsize: tc for tc in "qihb"}


class TruncationError(ValueError):
    """A coefficient beyond the truncation order was requested."""


class NotInvertibleError(ValueError):
    """Series inversion was attempted on a series with no invertible lead."""


class DivergentProductError(ValueError):
    """An infinite product whose factors do not converge formally."""


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------


def _lead(num: Sequence[int]) -> int:
    """Index of the first nonzero entry (len(num) if there is none)."""
    for j, c in enumerate(num):
        if c:
            return j
    return len(num)


def _slot_bytes(bound: int) -> int:
    """Bytes per slot holding any integer of absolute value <= bound, plus a sign bit."""
    wb = (bound.bit_length() + 8) // 8
    for size in sorted(_TYPECODES):
        if size >= wb:
            return size
    return wb


def _pack(v: Sequence[int], wb: int, signed: bool) -> int:
    """sum(v[j] * 2**(8*wb*j)): one bigint with v's entries in wb-byte slots."""
    tc = _TYPECODES.get(wb)
    if tc:
        raw = array(tc, v).tobytes()
    else:
        raw = b"".join([c.to_bytes(wb, "little", signed=True) for c in v])
    u = int.from_bytes(raw, "little")
    if signed:
        # a negative entry sits in its slot in two's complement, i.e. one unit
        # of the next slot too high; the slot's top bit marks it
        w = 8 * wb
        ones = int.from_bytes((b"\x01" + bytes(wb - 1)) * len(v), "little")
        u -= ((u >> (w - 1)) & ones) << w
    return u


def _unpack(p: int, n: int, wb: int) -> list[int]:
    """The first n signed wb-byte slot values of p, with the borrows undone.

    Adding half a slot to every slot makes each one nonnegative without a
    borrow; flipping the top bit back leaves each slot's two's complement,
    which reads out directly as a signed value.
    """
    half = int.from_bytes((bytes(wb - 1) + b"\x80") * n, "little")
    raw = ((((p + half) & ((1 << (8 * wb * n)) - 1)) ^ half)
           .to_bytes(wb * n, "little"))
    tc = _TYPECODES.get(wb)
    if tc:
        return array(tc, raw).tolist()
    return [int.from_bytes(raw[j:j + wb], "little", signed=True)
            for j in range(0, wb * n, wb)]


def _to_integers(coeffs: Sequence) -> tuple[tuple[int, ...], int]:
    """Numerators over the least common denominator of exact coefficients."""
    if set(map(type, coeffs)) <= {int}:
        return tuple(coeffs), 1
    fr = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    den = lcm(*[c.denominator for c in fr])
    return tuple(c.numerator * (den // c.denominator) for c in fr), den


_new = object.__new__


def _series(lo: int, num: tuple[int, ...], den: int, trunc: int) -> "LaurentSeries":
    s = _new(LaurentSeries)
    s._lo = lo
    s._num = num
    s._den = den
    s._trunc = trunc
    return s


def _reduced(lo: int, num: Sequence[int], den: int, trunc: int) -> "LaurentSeries":
    """A series from numerators over den (> 0), brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [c // g for c in num]
    return _series(lo, tuple(num), den, trunc)


class LaurentSeries:
    """Truncated Laurent series with exact rational coefficients.

    ``coeffs[j]`` is the coefficient of ``q**(min_exponent + j)`` and the tuple
    always spans ``[min_exponent, truncation]``; an empty tuple (with
    ``min_exponent == truncation + 1``) is the zero series at that truncation.
    Series are immutable, so cached ones can be shared safely.
    """

    __slots__ = ("_lo", "_num", "_den", "_trunc")

    def __init__(self, min_exponent: int, coeffs: Iterable[Coeff], truncation: int):
        coeffs = tuple(coeffs)
        if len(coeffs) != truncation - min_exponent + 1:
            raise ValueError(
                f"coefficient list of length {len(coeffs)} does not span "
                f"[{min_exponent}, {truncation}]"
            )
        self._lo = min_exponent
        self._trunc = truncation
        self._num, self._den = _to_integers(coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "LaurentSeries":
        return _series(truncation + 1, (), 1, truncation)

    @classmethod
    def one(cls, truncation: int) -> "LaurentSeries":
        return cls.monomial(0, truncation)

    @classmethod
    def monomial(cls, exponent: int, truncation: int, coeff: Coeff = 1) -> "LaurentSeries":
        if exponent > truncation:
            return cls.zero(truncation)
        return cls(exponent, [coeff] + [0] * (truncation - exponent), truncation)

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

    @property
    def min_exponent(self) -> int:
        return self._lo

    @property
    def truncation(self) -> int:
        return self._trunc

    @property
    def coeffs(self) -> tuple[Coeff, ...]:
        """The coefficients as exact values (int where integral, else Fraction)."""
        if self._den == 1:
            return self._num
        return tuple(map(self._value, self._num))

    def _value(self, c: int) -> Coeff:
        den = self._den
        if den == 1:
            return c
        q, r = divmod(c, den)
        return Fraction(c, den) if r else q

    def coefficient(self, exponent: int) -> Coeff:
        if exponent > self._trunc:
            raise TruncationError(
                f"coefficient of q^{exponent} is beyond truncation order {self._trunc}"
            )
        if exponent < self._lo:
            return 0
        return self._value(self._num[exponent - self._lo])

    def items(self) -> Iterator[tuple[int, Coeff]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        lo = self._lo
        value = self._value
        for j, c in enumerate(self._num):
            if c:
                yield lo + j, value(c)

    def effective_min(self) -> int:
        """Exponent of the first nonzero coefficient (truncation+1 if none)."""
        j = _lead(self._num)
        return self._lo + j if j < len(self._num) else self._trunc + 1

    def _window(self, lo: int, hi: int) -> list[int]:
        """Numerators for exponents lo..hi, for lo <= min_exponent and hi <= truncation."""
        n = hi - lo + 1
        if n <= 0:
            return []
        out = [0] * min(self._lo - lo, n)
        out += self._num[:n - len(out)]
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        trunc = min(self._trunc, other._trunc)
        lo = min(self._lo, other._lo, trunc + 1)
        a = self._window(lo, trunc)
        b = other._window(lo, trunc)
        da, db = self._den, other._den
        if da == db:
            return _reduced(lo, list(map(add, a, b)), da, trunc)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return _reduced(lo, [fa * x + fb * y for x, y in zip(a, b)], den, trunc)

    def __neg__(self) -> "LaurentSeries":
        return _series(self._lo, tuple([-c for c in self._num]), self._den, self._trunc)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scale(self, c: Coeff) -> "LaurentSeries":
        f = c if isinstance(c, (int, Fraction)) else Fraction(c)
        p, q = f.numerator, f.denominator
        if not p:
            return _series(self._lo, (0,) * len(self._num), 1, self._trunc)
        num = self._num if p == 1 else [p * x for x in self._num]
        return _reduced(self._lo, num, self._den * q, self._trunc)

    def shift(self, d: int) -> "LaurentSeries":
        """Multiply by q**d."""
        return _series(self._lo + d, self._num, self._den, self._trunc + d)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        trunc, cut = _cut(self, other)
        return _products([cut], trunc) if cut else LaurentSeries.zero(trunc)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse: self * self.inverse() == 1 up to truncation.

        With u the numerators from the lead u0 on, 1/u = sum_m w_m q^m / u0^(m+1)
        where w_0 = 1 and w_m = -sum_j u_j u0^(j-1) w_(m-j) are integers; the
        result is put over the common denominator u0^n.
        """
        e0 = self.effective_min()
        if e0 > self._trunc:
            raise NotInvertibleError("not invertible: series is zero up to its truncation")
        u = self._num[e0 - self._lo:]
        n = len(u)
        u0 = u[0]
        terms = [(j, u[j] * u0 ** (j - 1)) for j in range(1, n) if u[j]]
        w = [0] * n
        w[0] = 1
        for m in range(1, n):
            acc = 0
            for j, c in terms:
                if j > m:
                    break
                acc += c * w[m - j]
            w[m] = -acc
        den, power = self._den, 1
        for m in range(n - 1, -1, -1):
            w[m] *= den * power
            power *= u0
        if power < 0:
            power = -power
            w = [-c for c in w]
        return _reduced(-e0, w, power, self._trunc - 2 * e0)

    def substitute_power(self, m: int) -> "LaurentSeries":
        """Substitute q -> q**m (m >= 1); exponents are scaled by m."""
        if m < 1:
            raise ValueError("substitution power must be a positive integer")
        if m == 1:
            return self
        trunc = m * self._trunc + (m - 1)
        lo = m * self._lo
        if lo > trunc:
            return LaurentSeries.zero(trunc)
        out = [0] * (m * len(self._num))
        out[::m] = self._num
        return _series(lo, tuple(out), self._den, trunc)

    def truncated(self, truncation: int) -> "LaurentSeries":
        if truncation > self._trunc:
            raise TruncationError(
                f"cannot extend truncation {self._trunc} to {truncation}"
            )
        if truncation == self._trunc:
            return self
        if truncation < self._lo:
            return LaurentSeries.zero(truncation)
        return _reduced(self._lo, self._num[: truncation - self._lo + 1],
                        self._den, truncation)

    def project_even(self) -> "LaurentSeries":
        """Halve all exponents; every odd exponent must carry a zero coefficient."""
        lo, num = self._lo, self._num
        odd = (1 - lo) % 2  # index of the first odd exponent
        for j in range(odd, len(num), 2):
            if num[j]:
                raise ValueError(f"nonzero coefficient at odd exponent {lo + j}")
        trunc = self._trunc // 2
        j = _lead(num)
        if j == len(num):
            return LaurentSeries.zero(trunc)
        return _series((lo + j) // 2, num[j::2], self._den, trunc)

    # -- comparison ---------------------------------------------------------

    def first_difference(self, other: "LaurentSeries") -> int | None:
        """First exponent (within the common validity range) where the two differ."""
        hi = min(self._trunc, other._trunc)
        lo = min(self._lo, other._lo)
        a = self._window(lo, hi)
        b = other._window(lo, hi)
        da, db = self._den, other._den
        if da != db:
            a = [db * x for x in a]
            b = [da * y for y in b]
        if a == b:
            return None
        for j, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return lo + j
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
        return f"<series {body} + O(q^{self._trunc + 1})>"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        den = self._den
        return {
            "min_exponent": self._lo,
            "truncation": self._trunc,
            "coeffs": [f"{c // g}/{den // g}" for c in self._num for g in (gcd(c, den),)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentSeries":
        return cls(data["min_exponent"], [Fraction(s) for s in data["coeffs"]],
                   data["truncation"])


def substitute_power(a: LaurentSeries, m: int) -> LaurentSeries:
    return a.substitute_power(m)


def _cut(a: LaurentSeries, b: LaurentSeries, T: int | None = None) -> tuple:
    """(the truncation of a * b, the product's cut at T): (lead, a's numerators
    from its lead, b's from its lead, denominator), with T the truncation by
    default, and None when the product is zero to T."""
    an, bn = a._num, b._num
    ia, ib = _lead(an), _lead(bn)
    am = a._lo + ia if ia < len(an) else a._trunc + 1
    bm = b._lo + ib if ib < len(bn) else b._trunc + 1
    trunc = min(a._trunc + bm, b._trunc + am)
    n = (trunc if T is None else T) - am - bm + 1
    if n <= 0:
        return trunc, None
    return trunc, (am + bm, an[ia:ia + n], bn[ib:ib + n], a._den * b._den)


def _products(cuts: list[tuple], T: int) -> LaurentSeries:
    """The sum of the cuts' products (see _cut) to T, the one place a product is
    formed.  Every product is put over the lcm of the cuts' denominators and
    added into one window of integers from the lowest lead to T, which is
    brought to lowest terms once.  A product whose sparser side has fewer than
    _KRONECKER_MIN_TERMS nonzeros adds into the window one slice pass of the
    denser side per nonzero of the sparser.  The others are packed into bigints
    with one slot per coefficient, multiplied once each, shifted by their offset
    in slots and added into one bigint, whose slot is wide enough for their
    summed bound and the window's, which it takes in; it is unpacked once.
    """
    if not cuts:
        return LaurentSeries.zero(T)
    leads, _, _, dens = zip(*cuts)
    lo, den = min(leads), lcm(*dens)
    size = T - lo + 1
    out = [0] * size
    dense = []
    bound = 0
    for lead, x, y, d in cuts:
        off, f = lead - lo, den // d
        nzx, nzy = len(x) - x.count(0), len(y) - y.count(0)
        if min(nzx, nzy) >= _KRONECKER_MIN_TERMS:
            xlo, ylo = min(x), min(y)
            bound += min(len(x), len(y)) * max(max(x), -xlo) * max(max(y), -ylo) * f
            dense.append((off, x, y, f, xlo < 0, ylo < 0))
            continue
        if nzx > nzy:
            x, y = y, x
        room = size - off
        for i in compress(range(len(x)), x):
            row = y[:room - i]
            s = off + i
            e = s + len(row)
            c = f * x[i]
            if c == 1:
                out[s:e] = map(add, out[s:e], row)
            elif c == -1:
                out[s:e] = map(sub, out[s:e], row)
            else:
                out[s:e] = map(add, out[s:e], map(mul, row, repeat(c)))
    if dense:
        # the window is still all zeros when every product is packed
        olo, ohi = (min(out), max(out)) if len(dense) < len(cuts) else (0, 0)
        wb = _slot_bytes(bound + max(ohi, -olo))
        w = 8 * wb
        acc = _pack(out, wb, olo < 0) if olo or ohi else 0
        for off, x, y, f, xneg, yneg in dense:
            p = _pack(x, wb, xneg) * _pack(y, wb, yneg)
            acc += (p * f if f != 1 else p) << (w * off)
        out = _unpack(acc, size, wb)
    return _reduced(lo, out, den, T)


def sum_of_products(pairs: Sequence[tuple[LaurentSeries, LaurentSeries]],
                    truncation: int) -> LaurentSeries:
    """sum a * b over the pairs (a, b), cut at T = truncation: the series, to the
    byte, that folding acc + (a * b).truncated(T) from LaurentSeries.zero(T) gives,
    with the same TruncationError for a product valid below T.  Every pair's
    product is cut at T and all of them are summed by one call to the kernel
    that forms a * b as well.
    """
    T = truncation
    cuts = []
    for a, b in pairs:
        trunc, cut = _cut(a, b, T)
        if trunc < T:
            raise TruncationError(f"cannot extend truncation {trunc} to {T}")
        if cut:
            cuts.append(cut)
    return _products(cuts, T)


# ---------------------------------------------------------------------------
# q-Pochhammer products
# ---------------------------------------------------------------------------


def _axpy(x: list[int], y: list[int], f: int) -> list[int]:
    """[x_j + f * y_j], with the common f = +-1 done without multiplying."""
    if f == 1:
        return list(map(add, x, y))
    if f == -1:
        return list(map(sub, x, y))
    return [a + f * b for a, b in zip(x, y)]


def _binomial_product(exponents: Iterable[int], factor_coeff: int, truncation: int) -> LaurentSeries:
    """Product of (1 + factor_coeff * q**e) over the given exponents, to `truncation`,
    built from scratch: pochhammer_finite's route for a negative shift, and the
    reference its table is tested against.

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
    arr = [0] * (cap - lo + 1)
    arr[0] = 1
    for e in exps:
        if e == 0:
            if factor_coeff == -1:
                return LaurentSeries.zero(truncation)
            arr = [(1 + factor_coeff) * c for c in arr]
        elif e > 0:
            # window [lo, cap] unchanged: arr[x] += f * arr[x - e]
            arr[e:] = _axpy(arr[e:], arr[:-e], factor_coeff)
        else:
            # window moves down by -e: new[x] = arr[x] + f * arr[x - e]
            arr = _axpy([0] * -e + arr[:e], arr, factor_coeff)
            lo, cap = lo + e, cap + e
    if truncation < lo:
        return LaurentSeries.zero(truncation)
    return _series(lo, tuple(arr[: truncation - lo + 1]), 1, truncation)


# pochhammer_finite fills it; a series run makes 111 keys (so it never evicts one),
# the test suite 923, and a Bailey or identities reach run at most a few dozen
@lru_cache(maxsize=256)
def _pochhammer_table(sign: int, shift: int, base: int, truncation: int) -> dict[int, tuple[int, ...]]:
    """m -> the numerators of (sign*q**shift; q**base)_m to truncation, for every m
    pochhammer_finite has built at (sign, shift >= 0, base, truncation); filled by it."""
    return {0: (1,) + (0,) * truncation}


# pochhammer_infinite and verify._bracket read it; a series run makes 200 keys,
# the identities at T = 1000 (k = 2, i = 1) 1 042, and the test suite 4 409 (its
# table checks ask for every length at every (sign, shift, base) and evict)
@lru_cache(maxsize=4096)
def pochhammer_finite(sign: int, shift: int, base: int, n: int, truncation: int) -> LaurentSeries:
    """The finite product (sign*q**shift; q**base)_n, truncated.

    sign=+1 gives factors (1 - q**(shift+t*base)), sign=-1 gives (1 + ...),
    for t = 0..n-1.  A negative shift gives a genuine Laurent polynomial cut at
    `truncation`, built from scratch by _binomial_product.  For shift >= 0
    every factor past the last exponent <= truncation is 1, so n is cut there,
    and the row is read from the table at (sign, shift, base, truncation).  A row
    not built yet is grown from the nearest shorter one that is, one factor at a
    time: O(truncation) per factor, where the factor at exponent 0 doubles the
    row (sign=-1) or zeroes it (sign=+1).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if base < 1:
        raise ValueError("base must be a positive integer")
    if n < 0:
        raise ValueError("length must be nonnegative")
    if shift < 0 or truncation < 0:
        return _binomial_product((shift + t * base for t in range(n)), -sign, truncation)
    n = min(n, max(0, (truncation - shift) // base + 1))
    table = _pochhammer_table(sign, shift, base, truncation)
    num = table.get(n)
    if num is None:
        below = max(j for j in table if j < n)
        work = list(table[below])
        for t in range(below, n):
            e = shift + t * base
            if e:
                work[e:] = _axpy(work[e:], work[:-e], -sign)
            else:
                work = [(1 - sign) * c for c in work]
        num = table[n] = tuple(work)
    if not num[0]:  # the factor 1 - q**0 is zero
        return LaurentSeries.zero(truncation)
    return _series(0, num, 1, truncation)


def pochhammer_infinite(sign: int, shift: int, base: int, truncation: int) -> LaurentSeries:
    """The infinite product (sign*q**shift; q**base)_oo, truncated.

    Requires shift >= 1 so the factors converge in the formal topology;
    factors beyond the truncation contribute the identity, so they are left out.
    """
    if shift < 1:
        raise DivergentProductError(
            f"divergent formal product: leading exponent {shift} must be >= 1"
        )
    if base < 1:
        raise ValueError("base must be a positive integer")
    count = max(0, (truncation - shift) // base + 1)
    return pochhammer_finite(sign, shift, base, count, truncation)


def inverse_euler_product(truncation: int) -> LaurentSeries:
    """1/(q; q)_oo, the partition generating function."""
    return inverse_pochhammer(1, truncation, truncation)


def _divide_binomial(num: list[int], e: int) -> None:
    """num <- num / (1 - q**e) in place, cut at len(num): num[x] += num[x - e] for
    x rising from e.  With few residues mod e that is one running sum per residue,
    else one add of each length-e block to the finished block below it."""
    n = len(num)
    if e * e <= n:
        for r in range(e):
            num[r::e] = accumulate(num[r::e])
    else:
        for x in range(e, n, e):
            num[x:x + e] = map(add, num[x:x + e], num[x - e:x])


@lru_cache(maxsize=64)  # the test suite fills 18 tables, a series run 12
def _inverse_table(step: int, cap: int) -> dict[int, tuple[int, ...]]:
    """m -> the numerators of 1/(q**step; q**step)_m to cap, for every m
    inverse_pochhammer has built at (step, cap); filled by it."""
    return {0: (1,) + (0,) * cap}


@lru_cache(maxsize=4096)  # the test suite fills 800 entries, a series run 314
def inverse_pochhammer(step: int, m: int, truncation: int) -> LaurentSeries:
    """1/(q**step; q**step)_m, truncated (step >= 1, m >= 0, truncation >= 0).

    Every factor past m = truncation // step is 1 up to the truncation, so m is
    cut there.  The entry is read from the table at (step, cap), cap the next
    power of two >= truncation, and cut at the truncation.  An entry not built
    yet there is grown from the nearest lower one that is, one factor
    (1 - q**(step t)) at a time: O(cap) per factor, with no product and no
    series inverse.
    """
    if step < 1:
        raise ValueError("base must be a positive integer")
    if m < 0:
        raise ValueError("length must be nonnegative")
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    m = min(m, truncation // step)
    table = _inverse_table(step, 1 << (truncation - 1).bit_length())
    num = table.get(m)
    if num is None:
        below = max(j for j in table if j < m)
        work = list(table[below])
        for t in range(below + 1, m + 1):
            _divide_binomial(work, step * t)
        num = table[m] = tuple(work)
    return _series(0, num[:truncation + 1], 1, truncation)


# ---------------------------------------------------------------------------
# Theta sum and triple product
# ---------------------------------------------------------------------------


def theta_term(a: int, b: int, n: int, truncation: int) -> LaurentSeries:
    """(-1)^n q^{a n^2} (q^{-b n} + q^{b n}) with exponents in stored grid units,
    truncated; 1 at n = 0, and 2 (-1)^n q^{a n^2} when b = 0."""
    if n == 0:
        return LaurentSeries.one(truncation)
    sign = -1 if n % 2 else 1
    lo, hi = a * n * n - b * n, a * n * n + b * n
    return LaurentSeries.from_terms({lo: sign, hi: sign} if b else {lo: 2 * sign}, truncation)


def triple_product(a: int, base: int, truncation: int) -> LaurentSeries:
    """(q^a, q^{base-a}, q^base; q^base)_oo, truncated (0 < a < base)."""
    out = pochhammer_infinite(1, a, base, truncation)
    out = out * pochhammer_infinite(1, base - a, base, truncation)
    return out * pochhammer_infinite(1, base, base, truncation)


def theta_bressoud_sum(k: int, i: int, truncation: int) -> LaurentSeries:
    """1 + sum_{n>=1} (-1)^n q^{(2k-1)n^2} (q^{-2(k-i)n} + q^{2(k-i)n}), truncated."""
    if not k >= i >= 1:
        raise ValueError("parameters must satisfy k >= i >= 1")
    out = LaurentSeries.one(truncation)
    n = 1
    while (2 * k - 1) * n * n - 2 * (k - i) * n <= truncation:
        out = out + theta_term(2 * k - 1, 2 * (k - i), n, truncation)
        n += 1
    return out


def product_triple(k: int, i: int, truncation: int) -> LaurentSeries:
    """(q^{2i-1}, q^{4k-2i-1}, q^{4k-2}; q^{4k-2})_oo, truncated."""
    if not k >= i >= 1:
        raise ValueError("parameters must satisfy k >= i >= 1")
    return triple_product(2 * i - 1, 4 * k - 2, truncation)


# ---------------------------------------------------------------------------
# Series in q whose coefficients are exact polynomials in x
# ---------------------------------------------------------------------------


class BivariateSeries:
    """q-truncated series whose q^n coefficient is an exact polynomial in x.

    ``table`` maps a q-exponent n <= truncation to {x-degree: coefficient},
    holding only nonzero coefficients, so two series agree wherever both are
    known exactly when their tables do.  It is built whole, by ``from_rows``
    or ``from_counts``, and never changed after.
    """

    __slots__ = ("truncation", "table")

    def __init__(self, truncation: int):
        self.truncation = truncation
        self.table: dict[int, dict[int, Coeff]] = {}

    def coefficient(self, q_exp: int) -> dict[int, Coeff]:
        if q_exp > self.truncation:
            raise TruncationError(
                f"coefficient of q^{q_exp} is beyond truncation order {self.truncation}"
            )
        return dict(self.table.get(q_exp, {}))

    @classmethod
    def from_rows(cls, rows: dict[int, LaurentSeries], truncation: int) -> "BivariateSeries":
        """Build sum_d x**d * rows[d]; each row must be valid at least to truncation."""
        out = cls(truncation)
        table = out.table
        for d, s in rows.items():
            if s._trunc < truncation:
                raise TruncationError(
                    f"series truncated at {s._trunc} cannot feed a table valid to {truncation}"
                )
            lo, num, den = s._lo, s._num, s._den
            for j in compress(range(min(len(num), truncation - lo + 1)), num):
                c = num[j]
                table.setdefault(lo + j, {})[d] = c if den == 1 else s._value(c)
        return out

    @classmethod
    def from_counts(cls, counts: dict[tuple[int, int], int], truncation: int) -> "BivariateSeries":
        """Build from a {(m, n): count} table (m = x-degree, n = q-exponent)."""
        out = cls(truncation)
        table = out.table
        for (m, n), c in counts.items():
            if c and n <= truncation:
                table.setdefault(n, {})[m] = c
        return out

    def first_difference(self, other: "BivariateSeries") -> tuple[int, int] | None:
        """First (q_exp, x_deg) where the two disagree, scanning q then x."""
        if self.table == other.table:
            return None
        hi = min(self.truncation, other.truncation)
        for e in sorted(self.table.keys() | other.table.keys()):
            if e > hi:
                break
            a = self.table.get(e, {})
            b = other.table.get(e, {})
            for m in sorted(a.keys() | b.keys()):
                if a.get(m, 0) != b.get(m, 0):
                    return (e, m)
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.first_difference(other) is None

    __hash__ = None  # type: ignore[assignment]
