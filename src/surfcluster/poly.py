"""Exact sparse multivariate Laurent polynomials over the integers.

A polynomial is a dict from monomial keys to nonzero integer coefficients,
so equal polynomials have equal dictionaries and the zero polynomial is the
empty dict.  Coefficients are Python ints (arbitrary precision); nothing
here ever rounds.

Packed keys.  Every variable is interned in a process-global, append-only
registry that gives it a fixed index i.  The monomial with exponent e_i on
variable i is the single Python int  key = sum(e_i * 2**(32*i)), with
"balanced" 32-bit digits: |e_i| < 2**31, no offset.  Multiplying monomials
is adding keys.  Integer order is lexicographic order with the highest index
most significant: two keys differ by sum((b_i - a_i) * 2**(32*i)) with
|b_i - a_i| < 2**32, so the digits below the highest index where a and b
differ add up to less than one unit of that index and cannot change the
sign.  In particular a key determines its exponents.  Key order is
compatible with addition, so it is a monomial order (of the Laurent
monomial group), which is what long division needs.

Base digit.  A polynomial stores each key divided by 2**(32*lo), for a base
lo at or below its lowest variable's index (`var` and `monomial` take that
index), so late variables bring no zero digit for each earlier one.  Ring
operations shift the operand of higher base down to the lower (one with no
variable keeps any base); `==` and the hash ignore the base.

Overflow guard.  Every key built from an exponent map checks its
exponents.  Each polynomial caches a bound on |e_i| over its terms:
products and quotients inherit the sum of their operands' bounds, an
ordinary arc's numerator the bound d + 1 of its d tiles, a substitution
b * (1 + the sum of its bindings' bounds) for a bound b of self, any
other polynomial computes its largest |e_i| when first asked.
`mul`, `div_exact` and `substitute` raise ExponentOverflow when the bound
of their result, recomputed from exact operand bounds (for `substitute`,
from the result's columns), reaches 2**31, so no digit ever spills into
its neighbour.

Substitution.  Every substitution the engine makes is by monomials with
coefficient 1: renaming variables (tag switching), setting variables to 1
(F-polynomials) and putting tropical coefficients in for the y's (the
separation formula).  So `substitute` only moves keys: a variable with
exponent e bound to the monomial with key b moves a key by
e * (b - its own unit).  Terms that meet on one key merge.

Decoding.  Adding the offset sum(2**31 * 2**(32*i)) makes every digit
nonnegative without carries, and xor-ing the same offset back turns each
digit into its two's complement, so `struct` (a few keys) or an `array` of
32-bit ints (all of them at once) reads the exponents as signed fields in C.
The decoders count digits from the keys' base, and their callers add it.

Variables carry a kind, 'x' for a cluster variable or 'y' for a
coefficient, and a name.  Variables are ordered by kind and then by a
natural ordering of the name ("2" before "10"); that order, not the
registry index, fixes the canonical text rendering.

Multiplication.  A product adds every pair of keys into one dict; a
polynomial times a monomial shifts the keys.  A polynomial times itself
(`pow` squares its base) visits each unordered pair of terms once: c_i**2
at 2*k_i and 2*c_i*c_j at k_i + k_j, which halves the pairs.

Canonical text.  Terms print by total y-degree ascending, then by exponent
vector in descending lexicographic order over the variables in VarId order;
factors print y before x.  `canonical_text` decodes all keys at
once into one exponent column per variable.  Each monomial is rendered
unsorted, by joining per row the factor strings looked up column by column
in `_FACTORS`: one dict per registry index, from exponent to "*t^e",
filled on first use and kept for the life of the process, so a call sets
nothing up.  Then one tuple per term (negated y-degree, exponents in VarId
order, monomial text, coefficient) is sorted in reverse with C-level tuple
comparison; keys are distinct, so text and coefficient never decide.  When
every coefficient is 1 the monomials are joined without sign or
coefficient strings.
"""

from __future__ import annotations

import heapq
import re
import struct
import sys
from array import array
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, itemgetter, mul, neg, or_
from typing import Collection, Dict, Iterable, List, Mapping, Tuple

__all__ = [
    "VarId",
    "LaurentPoly",
    "NotDivisible",
    "ExponentOverflow",
    "NonInvertibleSubstitution",
    "xvar",
    "yvar",
    "pack",
    "base_of",
    "lowest_exponents",
]


class NotDivisible(ArithmeticError):
    """Raised by div_exact when the division leaves a remainder."""


class ExponentOverflow(ArithmeticError):
    """Raised when an exponent would leave the packed range |e| < 2**31."""


class NonInvertibleSubstitution(ValueError):
    """Raised when `substitute` would bind a variable of the polynomial to
    anything but a monomial with coefficient 1, the only bindings it makes."""


_KIND_RANK = {"x": 0, "y": 1}
_DISPLAY_RANK = {"y": 0, "x": 1}

_CHUNKS = re.compile(r"(\d+)|(\D+)")

_BITS = 32
_BIG_ENDIAN = sys.byteorder == "big"
_LIMIT = 1 << (_BITS - 1)     # every exponent satisfies |e| < _LIMIT


def _natural_key(name: str) -> Tuple:
    # "10" sorts after "2", "a10b" after "a2z"
    return tuple(
        (0, int(num)) if num else (1, alpha)
        for num, alpha in _CHUNKS.findall(name)
    )


class _Factors(dict):
    """One variable's factor strings by exponent, filled on first use: "*t"
    or "*t^e", and "" for exponent 0."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __missing__(self, e: int) -> str:
        s = self[e] = "" if e == 0 else (
            f"*{self.text}" if e == 1 else f"*{self.text}^{e}")
        return s


_AFTER_STAR = itemgetter(slice(1, None))

# The registry: index -> variable, index -> its factor strings, and
# kind -> name -> variable.
_VARS: List["VarId"] = []
_FACTORS: List[_Factors] = []
_INTERNED: Dict[str, Dict[str, "VarId"]] = {k: {} for k in _KIND_RANK}


@dataclass(frozen=True)
class VarId:
    """A symbol: kind 'x' or 'y' plus the (tagged) arc name it refers to.
    The first VarId of a kind and name takes the next registry index; equal
    ones made later share it."""

    kind: str
    name: str
    _key: Tuple = field(init=False, repr=False, compare=False)
    _index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = _INTERNED.get(self.kind)
        if names is None:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        known = names.get(self.name)
        if known is None:
            # the name itself breaks ties such as "01" and "1"
            key = (_KIND_RANK[self.kind], _natural_key(self.name), self.name)
            index = len(_VARS)
            _VARS.append(self)
            _FACTORS.append(_Factors(self.text()))
            names[self.name] = self
        else:
            key, index = known._key, known._index
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_index", index)

    def __hash__(self) -> int:
        return self._index

    def __lt__(self, other: "VarId") -> bool:
        return self._key < other._key

    def text(self) -> str:
        if self.name and self.name[0].isdigit():
            return f"{self.kind}{self.name}"
        return f"{self.kind}_{self.name}"


_X, _Y = (_INTERNED[k] for k in "xy")


def xvar(name: str) -> VarId:
    v = _X.get(name)
    return v if v is not None else VarId("x", name)


def yvar(name: str) -> VarId:
    v = _Y.get(name)
    return v if v is not None else VarId("y", name)


# An exponent vector as the other modules see it: sorted tuple of
# (VarId, nonzero int).
ExpVec = Tuple[Tuple[VarId, int], ...]


def pack(exps: Mapping[VarId, int], lo: int = 0) -> int:
    """The packed key of an exponent map, in a base lo at most its indices."""
    key = 0
    for v, e in exps.items():
        if not -_LIMIT < e < _LIMIT:
            raise ExponentOverflow(f"exponent {e} of {v.text()} out of range")
        key += e << (_BITS * (v._index - lo))
    return key


def base_of(variables: Iterable[VarId]) -> int:
    """The lowest registry index among the variables (0 for none)."""
    return min((v._index for v in variables), default=0)


# m fields -> (offset, unpacker of m signed little-endian 32-bit fields)
_CODECS: List[Tuple[int, "struct.Struct"]] = []


def _codec(m: int) -> Tuple[int, "struct.Struct"]:
    while len(_CODECS) <= m:
        n = len(_CODECS)
        off = sum(_LIMIT << (_BITS * i) for i in range(n))
        _CODECS.append((off, struct.Struct(f"<{n}i")))
    return _CODECS[m]


def _window(keys: Collection[int]) -> Tuple[int, int]:
    """(lo, m) such that every digit of every key outside indices
    lo .. lo+m-1 is 0.  A key's lowest set bit lies in its lowest nonzero
    digit, and a top nonzero digit e_h makes |key| >= 2**(32h - 1)."""
    low = reduce(or_, keys, 0)
    lo = ((low & -low).bit_length() - 1) >> 5 if low else 0
    return lo, (max(map(int.bit_length, keys), default=0) >> 5) + 1 - lo


def _flat(keys: Iterable[int], lo: int, m: int) -> "array[int]":
    """Each key's exponents at indices lo .. lo+m-1, end to end, as int32s."""
    off, _ = _codec(m)
    s = _BITS * lo
    flat = array("i", b"".join([
        (((k >> s) + off) ^ off).to_bytes(4 * m, "little") for k in keys]))
    if _BIG_ENDIAN:
        flat.byteswap()
    return flat


def _columns(keys: Iterable[int], lo: int, m: int) -> List["array[int]"]:
    """The exponents at index lo + j over all keys, for j < m."""
    flat = _flat(keys, lo, m)
    return [flat[j::m] for j in range(m)]


def _expvec(key: int, rank: List[int], base: int) -> ExpVec:
    """One key in base `base` as an ExpVec; `rank` is `_orders()[0]`."""
    lo, m = _window((key,))
    pairs = sorted(((base + lo + j, e)
                    for j, e in enumerate(_flat((key,), lo, m)) if e),
                   key=lambda p: rank[p[0]])
    return tuple((_VARS[i], e) for i, e in pairs)


# registry size -> (rank in VarId order, rank in display order) per index
_ORDERS: List = [-1, None]


def _orders() -> Tuple[List[int], List[int]]:
    if _ORDERS[0] != len(_VARS):
        n = len(_VARS)
        rank, shown = [0] * n, [0] * n
        for r, i in enumerate(sorted(range(n), key=lambda i: _VARS[i]._key)):
            rank[i] = r
        for r, i in enumerate(sorted(range(n), key=lambda i: (
                _DISPLAY_RANK[_VARS[i].kind], _VARS[i]._key))):
            shown[i] = r
        _ORDERS[:] = [n, (rank, shown)]
    return _ORDERS[1]


def _merge(out: Dict[int, int], pairs: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Add each (key, coefficient) pair into out, dropping keys whose
    coefficients sum to 0; returns out."""
    for k, c in pairs:
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _shifted(terms: Dict[int, int], n: int) -> Dict[int, int]:
    """terms in a base n lower; n < 0 only for terms whose keys are all 0."""
    return {k << _BITS * n: c for k, c in terms.items()} if n > 0 else terms


def _common(a: "LaurentPoly", b: "LaurentPoly"
            ) -> Tuple[int, Dict[int, int], Dict[int, int]]:
    """(base, a's terms, b's terms) in one base (see "Base digit")."""
    la, lb = a._lo, b._lo
    if la < lb and any(a._terms):
        return la, a._terms, _shifted(b._terms, lb - la)
    if lb < la and any(b._terms):
        return lb, _shifted(a._terms, la - lb), b._terms
    return max(la, lb), a._terms, b._terms


class LaurentPoly:
    """Immutable Laurent polynomial; supports +, -, *, exact division."""

    __slots__ = ("_terms", "_lo", "_hash", "_bound")

    @classmethod
    def from_packed(cls, terms: Dict[int, int], bound: int | None = None,
                    lo: int = 0) -> "LaurentPoly":
        """Wrap a dict of packed keys in base lo to nonzero coefficients
        (not copied); `bound`, if given, bounds every |exponent|."""
        p = object.__new__(cls)
        p._terms = terms
        p._lo = lo
        p._hash = None
        p._bound = bound
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly.from_packed({}, 0)

    @staticmethod
    def const(n: int) -> "LaurentPoly":
        if n == 0:
            return LaurentPoly.from_packed({}, 0)
        return LaurentPoly.from_packed({0: int(n)}, 0)

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.const(1)

    @staticmethod
    def var(v: VarId, exp: int = 1) -> "LaurentPoly":
        return LaurentPoly.monomial(1, {v: exp})

    @staticmethod
    def monomial(coeff: int, exps: Mapping[VarId, int]) -> "LaurentPoly":
        if coeff == 0:
            return LaurentPoly.from_packed({}, 0)
        lo = base_of(exps)
        bound = max(map(abs, exps.values()), default=0)
        return LaurentPoly.from_packed({pack(exps, lo): int(coeff)}, bound, lo)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def monomial_parts(self) -> Tuple[int, Dict[VarId, int]]:
        """Return (coeff, exponent map) of a monomial; error otherwise."""
        if len(self._terms) != 1:
            raise ValueError("not a monomial")
        (k, c), = self._terms.items()
        return c, dict(_expvec(k, _orders()[0], self._lo))

    def terms(self) -> Iterable[Tuple[ExpVec, int]]:
        rank = _orders()[0]
        return [(_expvec(k, rank, self._lo), c) for k, c in self._terms.items()]

    def num_terms(self) -> int:
        return len(self._terms)

    def variables(self) -> set:
        lo, m = _window(self._terms)
        return {_VARS[self._lo + lo + j] for j, col in
                enumerate(_columns(self._terms, lo, m)) if any(col)}

    def coefficients(self) -> Iterable[int]:
        return self._terms.values()

    def _max_exp(self, exact: bool = False) -> int:
        """A bound on |exponent| over all terms, cached.  Ring operations
        pass one on from their operands; the largest |exponent| itself is
        computed when no bound is known or `exact`."""
        b = self._bound
        if b is None or exact:
            flat = _flat(self._terms, *_window(self._terms))
            b = self._bound = max(max(flat, default=0), -min(flat, default=0))
        return b

    def _product_bound(self, other: "LaurentPoly") -> int:
        """A bound on |exponent| in self * other or self / other; raises
        ExponentOverflow if an exponent could reach 2**31."""
        ba, bb = self._max_exp(), other._max_exp()
        if ba + bb >= _LIMIT:
            ba, bb = self._max_exp(exact=True), other._max_exp(exact=True)
            if ba + bb >= _LIMIT:
                raise ExponentOverflow(f"exponents up to {ba} and {bb} "
                                       "leave the packed range |e| < 2**31")
        return ba + bb

    # -- ring operations -----------------------------------------------

    def add(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._terms:
            return other
        if not other._terms:
            return self
        lo, a, b = _common(self, other)
        out = _merge(dict(a), b.items())
        ba, bb = self._bound, other._bound
        return LaurentPoly.from_packed(
            out, None if ba is None or bb is None else max(ba, bb), lo)

    def neg(self) -> "LaurentPoly":
        return LaurentPoly.from_packed(
            {k: -c for k, c in self._terms.items()}, self._bound, self._lo)

    def sub(self, other: "LaurentPoly") -> "LaurentPoly":
        return self.add(other.neg())

    def mul(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        bound = self._product_bound(other)
        lo, a, b = _common(self, other)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            (kb, cb), = b.items()
            return LaurentPoly.from_packed(
                {k + kb: c * cb for k, c in a.items()}, bound, lo)
        out: Dict[int, int] = {}
        get = out.get
        if a is b:
            # a square: each unordered pair of terms once
            items = list(a.items())
            for i, (k1, c1) in enumerate(items):
                k = k1 + k1
                out[k] = get(k, 0) + c1 * c1
                c1 += c1
                for k2, c2 in items[i + 1:]:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        else:
            for k1, c1 in b.items():
                for k2, c2 in a.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        return LaurentPoly.from_packed(
            {k: c for k, c in out.items() if c}, bound, lo)

    def pow(self, n: int) -> "LaurentPoly":
        if n < 0:
            c, _ = self.monomial_parts()  # raises if not a monomial
            if c not in (1, -1):
                raise NotDivisible(f"cannot invert coefficient {c}")
            b = self._max_exp(exact=True) * -n
            if b >= _LIMIT:
                raise ExponentOverflow(f"exponent {b} leaves the packed "
                                       "range |e| < 2**31")
            coeff = 1 if c == 1 or n % 2 == 0 else -1
            (k,) = self._terms
            return LaurentPoly.from_packed({k * n: coeff}, b, self._lo)
        # square and multiply; no product with one, so pow(1) is self
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return LaurentPoly.one() if out is None else out

    # -- exact division --------------------------------------------------

    def div_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return q with q * other == self; NotDivisible otherwise."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        bound = self._product_bound(other)
        base, num, den = _common(self, other)
        if other.is_monomial():
            (kd, cd), = den.items()
            if cd == 1:
                return LaurentPoly.from_packed(
                    {k - kd: c for k, c in num.items()}, bound, base)
        return self._long_division(num, den, base)

    @staticmethod
    def _long_division(num: Dict[int, int], den: Dict[int, int],
                       base: int) -> "LaurentPoly":
        # num / den, both in the base.  Division under key order, leads
        # popped from a heap of pending keys.  An exact quotient's Newton
        # polytope is that of num minus that of den, so each of its
        # exponents lies in the box [min num - min den, max num - max den];
        # a lead outside it means a remainder.  Quotient keys strictly
        # decrease inside a finite box, so the loop terminates.
        lo, m = _window(list(num) + list(den))
        box = [(min(a) - min(b), max(a) - max(b))
               for a, b in zip(_columns(num, lo, m), _columns(den, lo, m))]
        if any(low > high for low, high in box):
            raise NotDivisible("Newton box of the quotient is empty")
        off, codec = _codec(m)
        shift = _BITS * lo
        den_lead = max(den)
        den_lc = den[den_lead]
        rest = [(k - den_lead, c) for k, c in den.items() if k != den_lead]
        rem = dict(num)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quo: Dict[int, int] = {}
        while heap:
            lead = -heapq.heappop(heap)
            c = rem.pop(lead, 0)
            if not c:
                continue  # cancelled, or a second heap entry
            fields = codec.unpack(
                ((((lead - den_lead) >> shift) + off) ^ off).to_bytes(
                    4 * m, "little"))
            for e, (low, high) in zip(fields, box):
                if not low <= e <= high:
                    raise NotDivisible("leading monomial not divisible")
            q, r = divmod(c, den_lc)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            quo[lead - den_lead] = q
            for dk, dc in rest:
                k = lead + dk
                old = rem.get(k)
                if old is None:
                    rem[k] = -q * dc
                    heapq.heappush(heap, -k)
                else:
                    s = old - q * dc
                    if s:
                        rem[k] = s
                    else:
                        del rem[k]
        return LaurentPoly.from_packed(
            quo, max(max(-low, high) for low, high in box), base)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[VarId, "LaurentPoly"]) -> "LaurentPoly":
        """Simultaneous substitution of variables by monomials.

        Every variable of self that is bound must be bound to a monomial
        with coefficient 1 (NonInvertibleSubstitution otherwise).  Each
        term's key then moves by e * (binding key - variable unit) per bound
        variable with exponent e, and terms that land on one key merge.  A
        binding with a lower base lowers the result's base to its own.
        """
        if not bindings:
            return self
        terms, base = self._terms, self._lo
        lo, m = _window(terms)
        cols = _columns(terms, lo, m)
        bound = [(j, _VARS[base + lo + j]) for j in range(m)
                 if any(cols[j]) and _VARS[base + lo + j] in bindings]
        if not bound:
            return self
        vals = [bindings[v] for _, v in bound]
        for (_, v), b in zip(bound, vals):
            if len(b._terms) != 1 or 1 not in b._terms.values():
                raise NonInvertibleSubstitution(
                    f"{v.text()} bound to {b.canonical_text()}, not to a "
                    "monomial with coefficient 1")
        # a digit of the result is its unbound part plus
        # sum(e * binding digit), each |e| at most the bound of self
        new_bound = self._max_exp() * (1 + sum(b._max_exp() for b in vals))
        if new_bound >= _LIMIT:
            new_bound = self._max_exp(exact=True) * (
                1 + sum(b._max_exp(exact=True) for b in vals))
        if new_bound >= _LIMIT:
            # the result's columns, in Python ints
            out = {base + lo + j: col for j, col in enumerate(cols)
                   if _VARS[base + lo + j] not in bindings}
            for (j, _), b in zip(bound, vals):
                for v, e in b.monomial_parts()[1].items():
                    out[v._index] = [s + x * e for s, x in zip(
                        out.get(v._index, repeat(0)), cols[j])]
            new_bound = max((abs(e) for c in out.values() for e in c),
                            default=0)
            if new_bound >= _LIMIT:
                raise ExponentOverflow(f"substituted exponents up to "
                                       f"{new_bound} leave the packed range "
                                       "|e| < 2**31")
        out_lo = min([base] + [b._lo for b in vals if any(b._terms)])
        keys: Iterable[int] = _shifted(terms, base - out_lo)
        for (j, v), b in zip(bound, vals):
            (k,) = _shifted(b._terms, b._lo - out_lo)
            delta = k - (1 << _BITS * (v._index - out_lo))
            keys = map(add, keys, map(mul, cols[j], repeat(delta)))
        return LaurentPoly.from_packed(
            _merge({}, zip(keys, terms.values())), new_bound, out_lo)

    # -- canonical text ----------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic rendering: total y-degree ascending, then exponent
        vectors in descending lexicographic order over the variables in
        VarId order (larger leading exponents print first); factors print
        y before x."""
        terms = self._terms
        if not terms:
            return "0"
        lo, m = _window(terms)
        cols = _columns(terms, lo, m)
        lo += self._lo  # registry indices from here on
        used = [lo + j for j in range(m) if any(cols[j])]
        if not used:
            return str(terms[0])
        rank, shown = _orders()
        # each monomial renders unsorted and rides along in its sort row
        monos = map(_AFTER_STAR, map("".join, zip(*[
            map(_FACTORS[i].__getitem__, cols[i - lo])
            for i in sorted(used, key=shown.__getitem__)])))
        ys = [cols[i - lo] for i in used if _VARS[i].kind == "y"]
        ydeg = map(neg, map(sum, zip(*ys))) if ys else repeat(0)
        # keys are distinct, so the monomial and coefficient never decide
        rows = sorted(zip(ydeg, *[cols[i - lo] for i in sorted(
            used, key=rank.__getitem__)], monos, terms.values()), reverse=True)
        monos = list(map(itemgetter(-2), rows))
        coeffs = list(map(itemgetter(-1), rows))
        if coeffs.count(1) == len(coeffs):
            if 0 in terms:
                monos[monos.index("")] = "1"
            return " + ".join(monos)
        parts = []
        for mono, c in zip(monos, coeffs):
            a = -c if c < 0 else c
            body = (f"{a}*{mono}" if a != 1 else mono) if mono else str(a)
            parts.append((" - " if c < 0 else " + ") + body)
        text = "".join(parts)
        return "-" + text[3:] if text[1] == "-" else text[3:]

    # -- protocol plumbing --------------------------------------------------

    def __add__(self, other):
        return self.add(self._coerce(other))

    def __radd__(self, other):
        return self._coerce(other).add(self)

    def __sub__(self, other):
        return self.sub(self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other).sub(self)

    def __mul__(self, other):
        return self.mul(self._coerce(other))

    def __rmul__(self, other):
        return self._coerce(other).mul(self)

    def __neg__(self):
        return self.neg()

    def __pow__(self, n: int):
        return self.pow(n)

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _, a, b = _common(self, other)
        return a == b

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(_shifted(self._terms, self._lo).items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.canonical_text()})"


def lowest_exponents(*polys: LaurentPoly) -> Dict[VarId, int]:
    """Per variable, the least exponent over all terms of all the
    polynomials (a variable a term lacks counts as exponent 0); zero
    entries are left out."""
    base = min((p._lo for p in polys if any(p._terms)), default=0)
    keys = [k for p in polys for k in _shifted(p._terms, p._lo - base)]
    if not keys:
        return {}
    lo, m = _window(keys)
    return {_VARS[base + lo + j]: e
            for j, e in enumerate(map(min, _columns(keys, lo, m))) if e}
